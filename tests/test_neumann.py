"""Alternating-series inversion under the classical norm condition."""
import warnings
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import measures_1d
from deconv import (
    FLOAT,
    AtomicMeasure,
    GridSignal,
    NeumannConfig,
    NormNotLessThanOne,
    OrderCapExceeded,
    ParameterOutOfRange,
    apply_to_signal,
    dirac,
    from_atoms,
    invert_three_point,
    neumann_inverse,
    three_point_kernel,
    van_cittert_deblur,
)


def test_config_validation():
    with pytest.raises(ValueError):
        NeumannConfig()
    with pytest.raises(ValueError):
        NeumannConfig(order=3, residual_target=Fraction(1, 10))
    with pytest.raises(ValueError):
        NeumannConfig(order=-1)
    with pytest.raises(ValueError):
        NeumannConfig(order=300)  # above the default cap
    with pytest.raises(ValueError):
        NeumannConfig(residual_target=0)
    with pytest.raises(ValueError, match="max_order"):
        NeumannConfig(residual_target=Fraction(1, 2), max_order=-1)


def test_single_atom_example():
    mu = dirac(1, Fraction(-1, 2))
    nu, report = neumann_inverse(mu, NeumannConfig(order=3))
    assert dict(nu.atoms) == {
        (0,): 1, (1,): Fraction(1, 2), (2,): Fraction(1, 4), (3,): Fraction(1, 8)}
    assert dict(report.residual.atoms) == {(4,): Fraction(-1, 16)}
    assert report.bound == Fraction(1, 16)
    assert report.residual.total_variation() <= report.bound


def test_norm_condition_enforced():
    with pytest.raises(NormNotLessThanOne):
        neumann_inverse(dirac(1, 1), NeumannConfig(order=2))
    with pytest.raises(NormNotLessThanOne):
        neumann_inverse(from_atoms({-1: Fraction(1, 2), 1: Fraction(1, 2)}),
                        NeumannConfig(order=2))


def test_a_priori_stop_rule_picks_minimal_order():
    mu = dirac(1, Fraction(-1, 2))
    # tv = 1/2, want (1/2)^(n+1) <= 1/100: n = 6
    _, report = neumann_inverse(mu, NeumannConfig(residual_target=Fraction(1, 100)))
    assert report.order == 6
    assert report.bound <= Fraction(1, 100)
    assert Fraction(1, 2) ** report.order > Fraction(1, 100)


def test_order_cap_guard():
    mu = dirac(1, Fraction(99, 100))
    with pytest.raises(OrderCapExceeded):
        neumann_inverse(mu, NeumannConfig(residual_target=Fraction(1, 10 ** 9),
                                          max_order=100))


@settings(max_examples=40)
@given(measures_1d, st.integers(0, 5))
def test_residual_identity(m, order):
    if m.is_zero:
        mu = m
    else:
        mu = m.scale(Fraction(1, 2) / m.total_variation())
    nu, report = neumann_inverse(mu, NeumannConfig(order=order))
    kernel = AtomicMeasure.unit(1) + mu
    assert kernel.convolve(nu) - AtomicMeasure.unit(1) == report.residual
    assert report.residual == mu.power(order + 1).scale((-1) ** order)
    assert report.residual.total_variation() <= mu.total_variation() ** (order + 1)


@pytest.mark.parametrize("a_text", ["3/5", "3/4", "9/10"])
def test_three_point_inversion_meets_stated_tolerance(a_text):
    a = Fraction(a_text)
    kernel = three_point_kernel(a)
    inv, report = invert_three_point(a, NeumannConfig(order=8))
    residual = kernel.convolve(inv) - AtomicMeasure.unit(1)
    norm = (1 - a) / a
    assert residual.total_variation() <= norm ** 9
    assert report.mu_norm == norm


def test_three_point_parameter_range():
    with pytest.raises(ParameterOutOfRange):
        three_point_kernel(Fraction(0))
    with pytest.raises(ParameterOutOfRange):
        three_point_kernel(Fraction(6, 5))
    with pytest.raises(ParameterOutOfRange) as err:
        invert_three_point(Fraction(1, 2), NeumannConfig(order=2))
    assert "one-sided" in str(err.value)
    with pytest.raises(ParameterOutOfRange):
        invert_three_point(Fraction(2, 5), NeumannConfig(order=2))


def test_three_point_float_mode_bound():
    a = 0.99
    kernel = three_point_kernel(a, mode=FLOAT)
    inv, report = invert_three_point(a, NeumannConfig(order=2), mode=FLOAT)
    residual = kernel.convolve(inv) - AtomicMeasure.unit(1, FLOAT)
    bound = ((1 - a) / a) ** 3
    assert residual.total_variation() <= bound * (1 + 1e-9)
    assert bound == pytest.approx(1.0306e-6, rel=1e-3)


def test_van_cittert_equals_series_application():
    a = Fraction(3, 4)
    half = (1 - a) / (2 * a)
    mu = from_atoms({-1: half, 1: half})
    f = GridSignal.from_lattice_dict({(-2,): 3, (0,): -1, (1,): 4}, dimension=1)
    g = apply_to_signal(f, AtomicMeasure.unit(1) + mu)
    iterates = van_cittert_deblur(g, mu, 10)
    assert len(iterates) == 11
    assert iterates[0].lattice_equal(g)
    nu, _ = neumann_inverse(mu, NeumannConfig(order=10))
    assert iterates[-1].lattice_equal(apply_to_signal(g, nu))
    err = (iterates[-1] - f).max_abs_exact()
    assert err <= Fraction(1, 3) ** 11 * f.max_abs_exact() * 3


def test_van_cittert_warns_but_runs_beyond_norm_one():
    mu = from_atoms({-1: 1, 1: 1})
    g = GridSignal.from_lattice_dict({(0,): 1}, dimension=1)
    with pytest.warns(RuntimeWarning):
        iterates = van_cittert_deblur(g, mu, 2)
    assert len(iterates) == 3
    with pytest.raises(ValueError):
        van_cittert_deblur(g, mu, -1)


@settings(max_examples=30)
@given(measures_1d, st.integers(0, 6))
def test_van_cittert_matches_truncated_series(m, n):
    f = GridSignal.from_lattice_dict({(0,): 2, (3,): -1}, dimension=1)
    g = apply_to_signal(f, AtomicMeasure.unit(1) + m)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        iterates = van_cittert_deblur(g, m, n)
    series = AtomicMeasure.unit(1)
    term = AtomicMeasure.unit(1)
    for _ in range(n):
        term = term.convolve(m).scale(-1)
        series = series + term
    assert iterates[-1].lattice_equal(apply_to_signal(g, series))
