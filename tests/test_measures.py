"""Convolution algebra of finite signed atomic measures."""
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import measures_1d, measures_2d, nonzero_measures_1d
from deconv import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    DimensionMismatch,
    GridSignal,
    ModeMismatch,
    NonFiniteResult,
    WindowSpec,
    apply_to_signal,
    dirac,
    from_atoms,
    is_inverse,
    is_zero_divisor_pair,
)

HALF = Fraction(1, 2)


def test_duplicates_merge_and_zeros_prune():
    m = from_atoms([((0,), 1), ((0,), -1), ((2,), HALF)], dimension=1)
    assert dict(m.atoms) == {(2,): HALF}
    assert len(m) == 1
    assert not m.is_zero
    assert from_atoms([], dimension=1).is_zero


def test_exact_weights_stay_exact():
    m = dirac(0, 0.1)  # float literal, exact binary value
    assert m.atoms[(0,)] == Fraction(0.1)
    assert m.atoms[(0,)] != Fraction(1, 10)
    f = dirac(0, Fraction(1, 3), mode=FLOAT)
    assert isinstance(f.atoms[(0,)], float)


def test_mode_and_dimension_mixing_rejected():
    with pytest.raises(ModeMismatch):
        dirac(0, 1).convolve(dirac(0, 1.0, mode=FLOAT))
    with pytest.raises(DimensionMismatch):
        dirac(0, 1).convolve(dirac((0, 0), 1))
    with pytest.raises(DimensionMismatch):
        dirac(0, 1) + dirac((1, 1), 1)


def test_float_total_variation_past_float64_is_refused():
    m = from_atoms({0: 1e308, 1: -1e308}, mode=FLOAT)
    with pytest.raises(NonFiniteResult):
        m.total_variation()
    assert "tv=inf" in repr(m)
    assert from_atoms({0: 1e308, 1: -1e308}).total_variation() == 2 * Fraction(1e308)


def test_three_point_example_weights():
    a = Fraction(3, 4)
    kernel = from_atoms({-1: (1 - a) / 2, 0: a, 1: (1 - a) / 2})
    assert kernel.total_variation() == 1
    mu = from_atoms({-1: (1 - a) / (2 * a), 1: (1 - a) / (2 * a)})
    assert mu.total_variation() == Fraction(1, 3)
    assert kernel == dirac(0, a).convolve(AtomicMeasure.unit(1) + mu)


def test_convolution_shifts_support():
    m = from_atoms({0: 1, 1: 2})
    shifted = m.convolve(dirac(3, 1))
    assert dict(shifted.atoms) == {(3,): Fraction(1), (4,): Fraction(2)}
    two_d = dirac((1, 0), 2).convolve(dirac((0, 1), HALF))
    assert dict(two_d.atoms) == {(1, 1): Fraction(1)}


def test_power_and_unit():
    m = from_atoms({1: HALF})
    assert m.power(0) == AtomicMeasure.unit(1)
    assert m.power(3) == dirac(3, Fraction(1, 8))
    assert m.convolve(AtomicMeasure.unit(1)) == m
    with pytest.raises(ValueError, match="n >= 0"):
        m.power(-1)


def test_restrict_outside_partition():
    m = from_atoms({-3: 1, 0: 2, 5: 3})
    win = WindowSpec((-3, 2))
    assert dict(m.restrict(win).atoms) == {(-3,): 1, (0,): 2}
    assert dict(m.outside(win).atoms) == {(5,): 3}
    assert m.restrict(win) + m.outside(win) == m


def test_window_spec_normalization():
    w = WindowSpec((-2, 2))
    assert w.bounds == ((-2, 2),)
    assert w.contains(0) and w.contains((-2,)) and not w.contains(3)
    assert str(WindowSpec(((-1, 1),) * 2)) == "[-1,1]x[-1,1]"
    with pytest.raises(ValueError):
        WindowSpec((3, 1))


def test_bare_window_spans_every_axis():
    # a bare (lo, hi) is that interval on each axis of the operand
    t = from_atoms({(0, 0): 1, (1, 0): 1, (0, 1): 1})
    v = from_atoms({(0, 0): 1, (1, 0): -1, (0, 1): -1, (2, 2): 5})
    per_axis = ((-1, 1), (-1, 1))
    assert t.restrict((-1, 1)) == t.restrict(per_axis) == t.restrict(WindowSpec(per_axis))
    assert v.outside((-1, 1)) == v.outside(per_axis) == from_atoms({(2, 2): 5})
    bare, explicit = is_inverse(t, v, (-1, 1)), is_inverse(t, v, per_axis)
    assert (bare.ok, bare.window, bare.inside, bare.outside) == \
        (explicit.ok, explicit.window, explicit.inside, explicit.outside)
    assert str(bare.window) == "[-1,1]x[-1,1]"
    assert is_zero_divisor_pair(t, dirac((5, 5), 1), (-1, 1))
    with pytest.raises(DimensionMismatch):
        is_inverse(t, v, ((-1, 1),))


def test_is_inverse_telescoping_example():
    pair = from_atoms({0: 1, 1: 1})
    series = from_atoms({k: (-1) ** k for k in range(6)})
    assert is_inverse(pair, series, (-5, 5)).ok
    report = is_inverse(pair, series, (-6, 6))
    assert not report.ok
    assert dict(report.residual.atoms) == {(6,): -1}
    with pytest.raises(ValueError):
        is_inverse(pair, series, (2, 5))  # window misses the origin


def test_an_inversion_report_is_true_when_the_check_passes():
    pair = from_atoms({0: 1, 1: 1})
    series = from_atoms({k: (-1) ** k for k in range(6)})
    passing, failing = is_inverse(pair, series, (-5, 5)), is_inverse(pair, series, (-6, 6))
    assert (bool(passing), bool(failing)) == (passing.ok, failing.ok) == (True, False)


def test_is_inverse_float_default_tolerance():
    pair = from_atoms({0: 1.0, 1: 1.0}, mode=FLOAT)
    series = from_atoms({k: (-1.0) ** k * (1 + 1e-12) for k in range(6)}, mode=FLOAT)
    assert is_inverse(pair, series, (-5, 5)).ok          # inside 1e-9
    assert not is_inverse(pair, series, (-5, 5), tol=1e-15).ok


def test_zero_divisor_pair_needs_nonzero_divisor():
    t = from_atoms({0: 1, 1: -1})
    assert is_zero_divisor_pair(t, dirac(3, 1), (-2, 2))
    assert not is_zero_divisor_pair(t, dirac(0, 1), (-2, 2))
    with pytest.raises(ValueError):
        is_zero_divisor_pair(t, from_atoms([], dimension=1), (-2, 2))


def test_apply_to_signal_examples():
    f = GridSignal.from_lattice_dict({(0,): 1, (1,): 2}, dimension=1)
    g = apply_to_signal(f, dirac(1, 1))
    assert g.lattice_dict() == {(1,): Fraction(1), (2,): Fraction(2)}
    spike = GridSignal.from_lattice_dict({(0, 0): 4}, dimension=2)
    row_kernel = from_atoms({(0, -1): HALF, (0, 1): HALF})
    blurred = apply_to_signal(spike, row_kernel)
    assert blurred.lattice_dict() == {(0, -1): Fraction(2), (0, 1): Fraction(2)}


def test_apply_to_signal_refusals():
    f = GridSignal.from_lattice_dict({(0,): 1}, dimension=1)
    with pytest.raises(TypeError):
        apply_to_signal({(0,): 1}, dirac(0, 1))
    with pytest.raises(ValueError, match="unit-spacing"):
        apply_to_signal(GridSignal([1.0, 2.0], 0.5), dirac(0, 1, mode=FLOAT))
    with pytest.raises(DimensionMismatch):
        apply_to_signal(f, dirac((0, 0), 1))
    with pytest.raises(ModeMismatch):
        apply_to_signal(f, dirac(0, 1, mode=FLOAT))


def test_apply_to_signal_zero_measure():
    f = GridSignal.from_lattice_dict({(2,): 1}, dimension=1)
    out = apply_to_signal(f, from_atoms([], dimension=1))
    assert out.lattice_dict() == {}
    assert out.shape == f.shape


# --- algebraic laws ---------------------------------------------------------


@settings(max_examples=60)
@given(measures_1d, measures_1d)
def test_convolution_commutes(a, b):
    assert a.convolve(b) == b.convolve(a)


@settings(max_examples=40)
@given(measures_1d, measures_1d, measures_1d)
def test_convolution_associates(a, b, c):
    assert a.convolve(b).convolve(c) == a.convolve(b.convolve(c))


@settings(max_examples=40)
@given(measures_1d, measures_1d, measures_1d)
def test_convolution_distributes(a, b, c):
    assert (a + b).convolve(c) == a.convolve(c) + b.convolve(c)


@settings(max_examples=60)
@given(measures_1d)
def test_unit_is_identity(m):
    assert m.convolve(AtomicMeasure.unit(1)) == m


@settings(max_examples=60)
@given(measures_1d, measures_1d)
def test_total_variation_submultiplicative(a, b):
    assert a.convolve(b).total_variation() <= a.total_variation() * b.total_variation()


@settings(max_examples=60)
@given(measures_1d, measures_1d)
def test_total_variation_multiplicative_for_nonnegative(a, b):
    pos_a = from_atoms({p: abs(w) for p, w in a.atoms.items()}, dimension=1)
    pos_b = from_atoms({p: abs(w) for p, w in b.atoms.items()}, dimension=1)
    assert pos_a.convolve(pos_b).total_variation() == \
        pos_a.total_variation() * pos_b.total_variation()


@settings(max_examples=60)
@given(measures_1d, st.integers(-8, 8), weights_scalar := st.fractions(
    min_value=Fraction(-3), max_value=Fraction(3), max_denominator=6))
def test_translation_and_scaling_of_total_variation(m, shift, c):
    shifted = m.convolve(dirac(shift, 1))
    assert shifted.total_variation() == m.total_variation()
    assert m.scale(c).total_variation() == abs(c) * m.total_variation()


@settings(max_examples=40)
@given(measures_2d, measures_2d)
def test_two_dimensional_commutes(a, b):
    assert a.convolve(b) == b.convolve(a)


@settings(max_examples=40)
@given(nonzero_measures_1d)
def test_zero_atoms_never_stored(m):
    assert all(w != 0 for w in m.atoms.values())
    cancelled = m - m
    assert cancelled.is_zero and len(cancelled) == 0


@pytest.mark.parametrize("atoms", [{-1: Fraction(3, 7), 0: Fraction(1, 3), 2: Fraction(-5, 11)},
                                   {(0, 1): Fraction(3, 7), (1, 0): HALF, (2, 2): -HALF}])
def test_exact_products_do_not_test_their_weights_against_zero_again(monkeypatch, atoms):
    """Powers on arrays and exact convolutions read their atoms from nonzero
    cells, so they build the measure without another ``w != 0``."""
    m = from_atoms(atoms)
    calls = []
    eq = Fraction.__eq__
    monkeypatch.setattr(Fraction, "__eq__", lambda a, b: calls.append(b) or eq(a, b))
    power, product = m.power(6), m.convolve(m)
    monkeypatch.undo()
    assert calls == []
    assert power == product.convolve(product).convolve(product)
