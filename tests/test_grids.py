"""Behavior of the dense grid container shared by both halves of the package."""
from fractions import Fraction

import numpy as np
import pytest

from deconv import (
    EXACT,
    FLOAT,
    DimensionMismatch,
    GridSignal,
    ModeMismatch,
    NonFiniteResult,
    apply_to_signal,
    blur,
    from_atoms,
    naive_deblur,
)


def test_lattice_dict_roundtrip_exact():
    f = GridSignal.from_lattice_dict({(-2,): Fraction(1, 3), (1,): -2}, dimension=1)
    assert f.mode == EXACT
    assert f.is_lattice
    assert f.shape == (4,)
    assert f.lattice_dict() == {(-2,): Fraction(1, 3), (1,): Fraction(-2)}
    assert f.value_at((0,)) == 0
    assert f.value_at((99,)) == 0
    assert f.support_radius() == 2


def test_values_are_copied_and_read_only():
    for vals in (np.array([1.0, 2.0]), np.array([Fraction(1), 2], dtype=object)):
        f = GridSignal(vals, 1.0, 0.0)
        vals[0] = 9
        assert f.values[0] == 1
        with pytest.raises(ValueError):
            f.values[0] = 5


def test_every_result_is_read_only():
    f = GridSignal(np.exp(-np.linspace(-4.0, 4.0, 41) ** 2), 0.25, 0.0)
    lattice = GridSignal(np.array([1.0, -2.0, 0.5]), 1.0, -1.0)
    blurred = blur(f)
    results = [
        blurred,
        naive_deblur(blurred, "discrete-reciprocal")[0],
        naive_deblur(blurred, "analytic-amplifier", band_limit=4.0)[0],
        lattice.restrict((-3, 0)),
        lattice + lattice.scaled(2),
        lattice - lattice.restrict((0, 4)),
        -lattice,
        lattice.scaled(0.5),
        apply_to_signal(lattice, from_atoms({-1: 0.25, 0: 0.5, 1: 0.25}, mode=FLOAT)),
        apply_to_signal(lattice, from_atoms({}, mode=FLOAT, dimension=1)),
    ]
    for g in results:
        assert not g.values.flags.writeable
        with pytest.raises(ValueError):
            g.values[0] = 1.0


def test_float_results_past_float64_are_refused():
    g = GridSignal(np.array([10.0, 1.0]), 1.0, 0.0)
    with pytest.raises(NonFiniteResult):
        g.scaled(1e308)
    with pytest.raises(NonFiniteResult):
        g.scaled(1e307) + g.scaled(1e307)
    with pytest.raises(NonFiniteResult):
        apply_to_signal(g, from_atoms({0: 1e308, 1: 1e308}, mode=FLOAT))


def test_exact_results_hold_only_fractions():
    f = GridSignal.from_lattice_dict({(-1,): 3, (1,): Fraction(1, 2)}, dimension=1)
    m = from_atoms({0: Fraction(1, 3), 2: -1})
    results = [
        f, f.restrict((-4, 4)), f + f.restrict((0, 3)), f - f, -f, f.scaled(3),
        f.scaled(Fraction(2, 7)), f.trim(), f.with_impulse(5, 2),
        f.on_grid_of(GridSignal.zeros((9,), mode=EXACT, origin=(-4.0,))),
        apply_to_signal(f, m), apply_to_signal(f, from_atoms({}, dimension=1)),
    ]
    for g in results:
        assert g.mode == EXACT
        assert all(type(v) is Fraction for v in g.values.flat)


def test_bad_samples_rejected():
    with pytest.raises(ValueError):
        GridSignal(np.array([np.nan]), 1.0, 0.0)
    with pytest.raises(ValueError):
        GridSignal(np.array([np.inf]), 1.0, 0.0)
    with pytest.raises(ValueError):
        GridSignal(np.array([1.0 + 0j]), 1.0, 0.0)
    with pytest.raises(DimensionMismatch):
        GridSignal(np.zeros((2, 2, 2)), 1.0, (0.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        GridSignal(np.zeros(3), -1.0, 0.0)


def test_exact_signals_hold_only_fractions():
    with pytest.raises(ModeMismatch):
        GridSignal(np.array([0.5, Fraction(1, 2)], dtype=object))
    with pytest.raises(ModeMismatch):
        GridSignal(np.array(["1/2"], dtype=object))
    f = GridSignal(np.array([1, Fraction(1, 2), np.int64(-3)], dtype=object))
    assert f.mode == EXACT
    assert [type(v) for v in f.values] == [Fraction] * 3
    assert f.values.tolist() == [1, Fraction(1, 2), -3]


def test_combination_requires_alignment():
    a = GridSignal(np.ones(3), 0.5, 0.0)
    with pytest.raises(ValueError):
        a + GridSignal(np.ones(3), 0.5, 0.25)
    with pytest.raises(ValueError):
        a + GridSignal(np.ones(3), 0.25, 0.0)
    with pytest.raises(DimensionMismatch):
        a + GridSignal(np.ones((2, 2)), (0.5, 0.5), (0.0, 0.0))
    with pytest.raises(ModeMismatch):
        GridSignal.from_lattice_dict({(0,): 1}, dimension=1) + GridSignal(np.ones(1), 1.0, 0.0)


def test_addition_takes_union_extent():
    a = GridSignal.from_lattice_dict({(0,): 1}, dimension=1)
    b = GridSignal.from_lattice_dict({(3,): 2}, dimension=1)
    total = a + b
    assert total.shape == (4,)
    assert total.lattice_dict() == {(0,): Fraction(1), (3,): Fraction(2)}
    assert (total - b).lattice_dict() == a.lattice_dict()
    assert (-a).lattice_dict() == {(0,): Fraction(-1)}


def test_offset_grids_align_on_shared_lattice():
    a = GridSignal(np.array([1.0, 2.0]), 0.5, 0.0)
    b = GridSignal(np.array([10.0, 20.0]), 0.5, 1.0)  # two cells to the right
    total = a + b
    assert total.origin == (0.0,)
    assert np.allclose(total.values, [1.0, 2.0, 10.0, 20.0])


def test_restrict_pads_and_crops():
    f = GridSignal.from_lattice_dict({(0,): 5, (2,): 7}, dimension=1)
    window = f.restrict((-1, 1))
    assert window.shape == (3,)
    assert window.lattice_dict() == {(0,): Fraction(5)}
    wide = f.restrict((-3, 4))
    assert wide.shape == (8,)
    assert wide.lattice_dict() == f.lattice_dict()


def test_trim_shrinks_to_support():
    f = GridSignal.from_lattice_dict({(0,): 0, (5,): 0, (2,): 3}, dimension=1)
    trimmed = f.trim()
    assert trimmed.shape == (1,)
    assert trimmed.lattice_dict() == {(2,): Fraction(3)}


def test_with_impulse_grows_extent():
    f = GridSignal.from_lattice_dict({(0,): 1}, dimension=1)
    g = f.with_impulse(4, Fraction(1, 2))
    assert g.lattice_dict() == {(0,): Fraction(1), (4,): Fraction(1, 2)}
    h = f.with_impulse(0, -1)
    assert h.lattice_dict() == {}


def test_on_grid_of_requires_cover():
    small = GridSignal.from_lattice_dict({(1,): 2}, dimension=1)
    big = GridSignal.zeros((5,), mode=EXACT, origin=(-1.0,))
    embedded = small.on_grid_of(big)
    assert embedded.shape == (5,)
    assert embedded.lattice_dict() == small.lattice_dict()
    with pytest.raises(ValueError):
        big.with_impulse(-1, 1).on_grid_of(small)


def test_norms_use_cell_volume():
    f = GridSignal(np.array([3.0, 4.0]), 0.5, 0.0)
    assert f.l2_norm() == pytest.approx((0.5 * 25.0) ** 0.5)
    assert f.mass() == pytest.approx(3.5)
    assert f.max_abs() == 4.0
    g = GridSignal.from_lattice_dict({(0,): Fraction(-7, 2)}, dimension=1)
    assert g.max_abs_exact() == Fraction(7, 2)
    assert g.l2_norm() == pytest.approx(3.5)


@pytest.mark.parametrize("summary", ["max_abs", "l2_norm", "mass"])
def test_summaries_past_float64_are_refused(summary):
    # a sample past float64: exact arithmetic meets it converting to float
    beyond = GridSignal.from_lattice_dict({(0,): 10 ** 400}, dimension=1)
    with pytest.raises(NonFiniteResult, match=f"{summary} of the signal overflows float64"):
        getattr(beyond, summary)()
    # finite float samples whose sum or sum of squares leaves float64
    big = GridSignal(np.array([1e308, 1e308]))
    if summary == "max_abs":   # the largest of finite samples is finite
        assert big.max_abs() == 1e308
    elif summary == "l2_norm":  # and so is their norm, sqrt(2) * 1e308
        assert big.l2_norm() == 1e308 * 2 ** 0.5
    else:
        with pytest.raises(NonFiniteResult, match=summary):
            getattr(big, summary)()


def test_l2_norm_squares_in_float64_in_both_modes():
    # the squares of 1e200 overflow, though the sample and its norm do not
    exact = GridSignal.from_lattice_dict({(0,): 10 ** 200}, dimension=1)
    floats = GridSignal(np.array([1e200]))
    for f in (exact, floats):
        assert f.mass() == 1e200 and f.max_abs() == 1e200
        assert f.l2_norm() == 1e200
    # a norm past float64 is still refused, though every sample is finite
    big = Fraction(3, 2) * 10 ** 308
    for f in (GridSignal.from_lattice_dict({(0,): big, (1,): big}, dimension=1),
              GridSignal(np.array([1.5e308, 1.5e308]))):
        with pytest.raises(NonFiniteResult, match="l2_norm"):
            f.l2_norm()


def test_central_second_moment_matches_hand_value():
    f = GridSignal(np.array([1.0, 0.0, 1.0]), 1.0, -1.0)
    assert f.central_second_moment(0) == pytest.approx(1.0)
    with pytest.raises(ModeMismatch):
        GridSignal.from_lattice_dict({(0,): 1}, dimension=1).central_second_moment(0)


def test_lattice_equal_ignores_padding():
    a = GridSignal.from_lattice_dict({(1,): 3}, dimension=1)
    b = a.restrict((-10, 10))
    assert a.lattice_equal(b)
    assert not a.lattice_equal(a.with_impulse(0, 1))


def test_equality_compares_grid_and_samples():
    f = GridSignal(np.arange(3.0))
    assert f == GridSignal(np.arange(3.0))
    assert f in [GridSignal(np.arange(3.0))]
    assert f == GridSignal(np.arange(3, dtype=object))  # equal samples, as measures compare
    assert f != GridSignal(np.arange(3.0), spacing=0.5)
    assert f != GridSignal(np.arange(3.0), origin=1.0)
    assert f != GridSignal(np.arange(4.0))
    assert f != GridSignal(np.arange(3.0) + 1)
    assert f != GridSignal(np.arange(3.0).reshape(1, 3))
    assert f != np.arange(3.0).tolist()
    with pytest.raises(TypeError, match="unhashable"):
        hash(f)


def test_two_dimensional_roundtrip():
    f = GridSignal.from_lattice_dict({(0, 1): 2, (-1, -1): Fraction(1, 4)},
                                     dimension=2)
    assert f.dimension == 2
    assert f.shape == (2, 3)
    assert f.support_radius() == 1
    assert f.lattice_dict() == {(0, 1): Fraction(2), (-1, -1): Fraction(1, 4)}
