"""Truncated one-sided and two-sided series inverses on the line."""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from deconv import (
    EXACT,
    FLOAT,
    DimensionMismatch,
    GridSignal,
    InsufficientTruncation,
    NeumannConfig,
    ParameterOutOfRange,
    Side,
    UnsupportedKernel,
    apply_to_signal,
    binomial_inverse,
    binomial_kernel,
    cauchy_product,
    dirac,
    from_atoms,
    growth_table,
    half_pair_inverse,
    half_pair_kernel,
    invert_three_point,
    is_inverse,
    pair_kernel,
    perturbation_response,
    reconstruct,
    series_inverse,
    symmetric_inverse,
    three_point_kernel,
    unit_pair_inverse,
)
from deconv.onesided import apply_on_window, inverse

EPS = float(np.finfo(float).eps)


def _atoms(series):
    return {p[0]: w for p, w in series.measure.atoms.items()}


def test_kernel_constructors():
    assert dict(pair_kernel(1).atoms) == {(0,): 1, (1,): 1}
    assert dict(pair_kernel(-1).atoms) == {(-1,): 1, (0,): 1}
    with pytest.raises(ParameterOutOfRange):
        pair_kernel(2)
    assert binomial_kernel().total_variation() == 1
    assert half_pair_kernel().total_variation() == 1


def test_four_one_sided_series_frozen_forms():
    right_plus = unit_pair_inverse(pair_kernel(1), Side.RIGHT, 4)
    assert _atoms(right_plus) == {0: 1, 1: -1, 2: 1, 3: -1}
    assert right_plus.boundary == ((4,),)

    left_plus = unit_pair_inverse(pair_kernel(1), Side.LEFT, 4)
    assert _atoms(left_plus) == {-1: 1, -2: -1, -3: 1, -4: -1}
    assert left_plus.boundary == ((-4,),)

    right_minus = unit_pair_inverse(pair_kernel(-1), Side.RIGHT, 4)
    assert _atoms(right_minus) == {1: 1, 2: -1, 3: 1, 4: -1}
    assert right_minus.boundary == ((4,),)

    left_minus = unit_pair_inverse(pair_kernel(-1), Side.LEFT, 4)
    assert _atoms(left_minus) == {0: 1, -1: -1, -2: 1, -3: -1}
    assert left_minus.boundary == ((-4,),)


@pytest.mark.parametrize("step", [1, -1])
@pytest.mark.parametrize("side", [Side.RIGHT, Side.LEFT])
@pytest.mark.parametrize("terms", [1, 2, 7, 20])
def test_boundary_is_computed_not_assumed(step, side, terms):
    series = unit_pair_inverse(pair_kernel(step), side, terms)
    residual = series.residual()
    assert tuple(sorted(residual.atoms)) == series.boundary
    assert len(series.boundary) == 1
    assert residual.total_variation() == 1
    assert series.boundary_distance() == terms


def test_unit_pair_inverse_guards():
    with pytest.raises(ParameterOutOfRange):
        unit_pair_inverse(pair_kernel(1), Side.RIGHT, 0)
    with pytest.raises(UnsupportedKernel):
        unit_pair_inverse(binomial_kernel(), Side.RIGHT, 3)
    with pytest.raises(DimensionMismatch):
        unit_pair_inverse(dirac((0, 0), 1), Side.RIGHT, 3)


UNIT_KERNELS = {"binomial": {-1: 1, 0: 2, 1: 1}, "halfpair": {0: 1, 1: 1}}


@pytest.mark.parametrize("atoms,named", [
    ({0: 3, 1: 3}, "halfpair"),
    ({-1: Fraction(5, 2), 0: Fraction(5, 2)}, None),  # a pair, but not delta_0 + delta_1
    ({0: Fraction(1, 2), 1: Fraction(1, 2)}, "halfpair"),
    ({-1: Fraction(1, 2), 0: 1, 1: Fraction(1, 2)}, "binomial"),
    ({-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}, "binomial"),
    ({0: 1, 1: 2}, None),                            # unequal pair
    ({0: 1, 2: 1}, None),                            # not neighbours
    ({-1: 1, 0: 1, 1: 1}, None),                     # flat, not binomial
    ({-1: 1, 0: 2, 1: 3}, None),                     # lopsided
    ({0: 1}, None),
    ({(0, 0): 1, (0, 1): 1}, None),                  # 2D pair
], ids=["3pair", "5/2pair-1", "halfpair", "2binomial", "binomial", "unequal", "gap", "flat",
        "lopsided", "dirac", "2d"])
@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_inverse_takes_named_kernels_only(mode, atoms, named):
    kernel = from_atoms(atoms, mode=mode)
    for method in ("binomial", "halfpair"):
        if method != named:
            with pytest.raises(UnsupportedKernel):
                inverse(kernel, method, 4)
    if named is not None:
        lead = kernel.atoms[min(kernel.atoms)]
        unit = symmetric_inverse(from_atoms(UNIT_KERNELS[named], mode=mode), 4)
        series = inverse(kernel, named, 4)
        assert series.kernel is kernel
        assert (series.halfwidth, series.boundary) == (4, unit.boundary)
        assert series.measure == unit.measure.scale(1 / lead)
    if kernel.dimension == 2:
        with pytest.raises(DimensionMismatch):
            inverse(kernel, "onesided", 4)


@pytest.mark.parametrize("build,dimension", [
    (lambda k: series_inverse(k, Side.RIGHT, 3), 1),
    (lambda k: series_inverse(k, Side.LEFT, 3), 1),
    (lambda k: symmetric_inverse(k, 3), 1),
    (lambda k: inverse(k, "onesided", 3), 2),   # the dispatch refuses it before
    (lambda k: inverse(k, "binomial", 3), 2),   # any dimension check
], ids=["right", "left", "symmetric", "dispatch-onesided", "dispatch-binomial"])
def test_zero_kernel_has_no_series(build, dimension):
    with pytest.raises(UnsupportedKernel, match="zero kernel"):
        build(from_atoms([], dimension=dimension))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
@pytest.mark.parametrize("first,last", [(-40, 40), (-3, 2), (30, 40)])
def test_apply_on_window_is_the_full_apply_restricted(mode, first, last):
    g = GridSignal.from_lattice_dict({(i,): i % 5 - 2 for i in range(first, last + 1)},
                                     dimension=1, mode=mode)
    series = binomial_inverse(11, mode=mode)
    for window in ((-5, 5), (-4, -4), (1, 4)):
        got = apply_on_window(g, series, window)
        want = apply_to_signal(g, series.measure).restrict(window)
        assert got.origin == want.origin
        assert [repr(v) for v in got.values] == [repr(v) for v in want.values]
    with pytest.raises(InsufficientTruncation):
        apply_on_window(g, series, (-6, 0))


@pytest.mark.parametrize("scale", [1, 2**70], ids=["int64", "past-2^62"])
def test_exact_mode_holds_no_numpy_integer(scale):
    """Exact outputs hold only ``Fraction``s and Python ints, whether the products
    ran on int64 (small samples) or on object arrays (samples past 2^62)."""
    f = GridSignal.from_lattice_dict({-2: scale, 0: 3 * scale, 1: -2 * scale}, dimension=1)
    series = binomial_inverse(12)
    blurred = apply_to_signal(f, binomial_kernel())
    recovered, report = reconstruct(f, binomial_kernel(), series)
    windowed = apply_on_window(blurred, series, (-4, 4))
    a = Fraction(3, 4)
    neumann_series, _ = invert_three_point(a, NeumannConfig(order=12))
    verdicts = [is_inverse(binomial_kernel(), series.measure, (-12, 12)),
                is_inverse(three_point_kernel(a), neumann_series, (-12, 12))]
    assert recovered.values.tolist() == [scale, 0, 3 * scale, -2 * scale, 0]
    values = [*recovered.values.flat, *blurred.values.flat, *windowed.values.flat,
              report.max_contamination, *(w for _, w in report.contamination)]
    points = [p for p, _ in report.contamination]
    for verdict in verdicts:
        values.append(verdict.max_inside)
        for part in (verdict.residual, verdict.inside, verdict.outside):
            values += part.atoms.values()
            points += part.atoms
    assert values and all(type(v) in (Fraction, int) for v in values)
    assert points and all(type(c) is int for p in points for c in p)


def test_cauchy_product_interior_grows_linearly():
    lhs = unit_pair_inverse(pair_kernel(1), Side.RIGHT, 12)
    rhs = unit_pair_inverse(pair_kernel(-1), Side.RIGHT, 12)
    product = cauchy_product(lhs, rhs)
    assert product.kernel == binomial_kernel().scale(4)
    got = _atoms(product)
    for k in range(1, 12 + 1):
        assert got[k] == k * (-1) ** (k + 1)


def test_binomial_inverse_frozen_small_case():
    series = binomial_inverse(3)
    assert _atoms(series) == {1: 2, -1: 2, 2: -4, -2: -4, 3: 6, -3: 6}
    assert series.boundary == ((-4,), (-3,), (3,), (4,))
    assert series.boundary_distance() == 3
    assert series.measure.max_abs_weight() == 6
    with pytest.raises(ParameterOutOfRange):
        binomial_inverse(0)


def test_half_pair_inverse_frozen_small_case():
    series = half_pair_inverse(2)
    assert _atoms(series) == {-2: -1, -1: 1, 0: 1, 1: -1, 2: 1}
    assert series.boundary == ((-2,), (3,))
    assert series.measure.max_abs_weight() == 1


@pytest.mark.parametrize("n", [1, 2, 5, 30, 200])
def test_binomial_inverse_interior_annihilation(n):
    series = binomial_inverse(n)
    residual = series.residual()
    inside = residual.restrict((-(n - 1), n - 1)) if n > 1 else residual.restrict((0, 0))
    assert inside.is_zero
    assert series.measure.max_abs_weight() == 2 * n


@pytest.mark.parametrize("n", [1, 2, 5, 30, 200])
def test_half_pair_inverse_interior_annihilation(n):
    series = half_pair_inverse(n)
    assert series.boundary == ((-n,), (n + 1,))
    inside = series.residual().restrict((-(n - 1), n))
    assert inside.is_zero
    assert series.measure.max_abs_weight() == 1


def test_reconstruct_is_exact_inside_margin():
    f = GridSignal.from_lattice_dict({(-2,): 5, (0,): -3, (2,): 1}, dimension=1)
    series = binomial_inverse(10)
    rec, report = reconstruct(f, binomial_kernel(), series)
    assert rec.lattice_equal(f.restrict((-2, 2)))
    assert report.support_radius == 2
    assert report.boundary_distance == 10
    assert report.sufficient_halfwidth == 7
    assert all(max(abs(c) for c in p) > 2 for p, _ in report.contamination)


def test_reconstruct_margin_failure():
    f = GridSignal.from_lattice_dict({(-6,): 1, (6,): 1}, dimension=1)
    with pytest.raises(InsufficientTruncation) as err:
        reconstruct(f, binomial_kernel(), binomial_inverse(12))
    assert err.value.required_halfwidth == 15
    assert err.value.support_radius == 6
    assert "N > 14" in str(err.value)
    # one more than twice the radius is enough
    rec, _ = reconstruct(f, binomial_kernel(), binomial_inverse(13))
    assert rec.lattice_equal(f)


def test_a_float_series_keeps_the_margin_of_its_exact_series():
    # 0.3 and 0.7 are not binary fractions: the rounding of a float product of
    # kernel and series is no truncation junk, and the margin stays at 10
    kernel = from_atoms({0: 0.3, 1: 0.7}, mode=FLOAT)
    series = symmetric_inverse(kernel, 10)
    f = GridSignal.from_lattice_dict({(-1,): 1.0, (0,): 2.0, (1,): 1.0}, dimension=1,
                                     mode=FLOAT)
    rec, report = reconstruct(f, kernel, series)
    assert report.boundary_distance == series.boundary_distance() == 10
    # a float blur (kernel l1 1) and unblur of f (peak 2) err by a few eps times the
    # series' l1
    bound = 4 * EPS * series.measure.total_variation()
    assert float(np.max(np.abs(rec.values - f.values))) <= bound


def test_reconstruct_rejects_mismatched_kernel():
    f = GridSignal.from_lattice_dict({(0,): 1}, dimension=1)
    with pytest.raises(UnsupportedKernel):
        reconstruct(f, half_pair_kernel(), binomial_inverse(5))
    spike_2d = GridSignal.from_lattice_dict({(0, 0): 1}, dimension=2)
    with pytest.raises(DimensionMismatch):
        reconstruct(spike_2d, binomial_kernel(), binomial_inverse(5))


def test_perturbation_scales_with_coefficient_growth():
    f = GridSignal.from_lattice_dict({(0,): 7}, dimension=1)
    eps = Fraction(1, 1000)
    grown = perturbation_response(f, binomial_kernel(), binomial_inverse(50), eps)
    assert grown.max_deviation == 2 * 50 * eps
    assert grown.predicted_deviation == grown.max_deviation
    flat = perturbation_response(f, half_pair_kernel(), half_pair_inverse(50), eps)
    assert flat.max_deviation == eps
    assert flat.predicted_deviation == eps
    assert grown.max_deviation == 100 * flat.max_deviation


@settings(max_examples=25)
@given(st.integers(1, 40), st.fractions(min_value=Fraction(-1, 2),
                                        max_value=Fraction(1, 2),
                                        max_denominator=64))
def test_perturbation_prediction_is_attained(n, eps):
    if eps == 0:
        eps = Fraction(1, 64)
    f = GridSignal.from_lattice_dict({(0,): 1}, dimension=1)
    rep = perturbation_response(f, binomial_kernel(), binomial_inverse(n), eps)
    assert rep.max_deviation == abs(eps) * 2 * n
    assert rep.margin == n


def test_growth_table_matches_closed_form():
    table = growth_table(range(10, 101, 10))
    assert table == [(n, 2 * n) for n in range(10, 101, 10)]


def test_float_mode_series_agree_with_exact():
    exact = binomial_inverse(8)
    floaty = binomial_inverse(8, mode=FLOAT)
    assert floaty.measure.mode == FLOAT
    for (p, w) in exact.measure.atoms.items():
        assert floaty.measure.atoms[p] == float(w)
