"""Behavior of the dense grid container shared by both halves of the package."""
from fractions import Fraction

import numpy as np
import pytest

from deconv import EXACT, FLOAT, DimensionMismatch, GridSignal, ModeMismatch


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
    vals = np.array([1.0, 2.0])
    f = GridSignal(vals, 1.0, 0.0)
    vals[0] = 9.0
    assert f.values[0] == 1.0
    with pytest.raises(ValueError):
        f.values[0] = 5.0


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


def test_two_dimensional_roundtrip():
    f = GridSignal.from_lattice_dict({(0, 1): 2, (-1, -1): Fraction(1, 4)},
                                     dimension=2)
    assert f.dimension == 2
    assert f.shape == (2, 3)
    assert f.support_radius() == 1
    assert f.lattice_dict() == {(0, 1): Fraction(2), (-1, -1): Fraction(1, 4)}
