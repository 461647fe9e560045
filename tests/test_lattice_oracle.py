"""The array convolution core and the series built on it against the oracle.

Exact results must equal the oracle's atom for atom, float results bit for
bit (compared through ``repr``), and float ones must list their atoms in the
oracle's order, since float sums taken later (``total_variation``, the next
convolution) add in that order.  Core products list exact atoms in the
oracle's order too; exact series list theirs by position.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import lattice_oracle as oracle
from deconv import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    DeconvError,
    GridSignal,
    NeumannConfig,
    NonFiniteResult,
    apply_to_signal,
    dirac,
    from_atoms,
    neumann_inverse,
)
from deconv.measures import _dense_powers
from deconv.neumann import factor_at_origin, neumann

NARROW = st.integers(-6, 6)
# a coordinate far out puts the result box over the core's sparse threshold;
# one beyond 2**62 takes its cell numbers out of int64
ANY = st.one_of(NARROW, st.integers(-10**9, 10**9), st.integers(-2**70, 2**70))
EXACT_WEIGHTS = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=2**64)
FLOAT_WEIGHTS = st.floats(allow_nan=False, allow_infinity=False)


def weights(mode):
    return EXACT_WEIGHTS if mode == EXACT else FLOAT_WEIGHTS


@st.composite
def measure_pairs(draw, coord=ANY):
    """Two measures of one dimension and mode, atoms listed in any order,
    repeated points and zero weights included; either may be empty."""
    dimension = draw(st.sampled_from((1, 2)))
    mode = draw(st.sampled_from((EXACT, FLOAT)))
    point = st.tuples(*[coord] * dimension)

    def one():
        atoms = draw(st.lists(st.tuples(point, weights(mode)), max_size=12))
        try:
            return AtomicMeasure(dimension, atoms, mode)
        except NonFiniteResult:  # repeated points summed past float64: no such measure
            reject()

    return one(), one()


def atom_list(m):
    if isinstance(m, type):  # the error raised instead of a result
        return m
    return repr(list(m.atoms.items()))


def outcome(fn, *args):
    """The result of fn, or the type of the error it raises."""
    try:
        return fn(*args)
    except (ValueError, ArithmeticError, NonFiniteResult) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None)
@given(measure_pairs())
def test_convolve_matches_oracle(pair):
    a, b = pair
    # a float product past float64 must be refused by both, as NonFiniteResult
    got, want = outcome(a.convolve, b), outcome(oracle.convolve, a, b)
    assert atom_list(got) == atom_list(want)
    kind = Fraction if a.mode == EXACT else float
    assert isinstance(got, type) or all(type(w) is kind for w in got.atoms.values())


@settings(max_examples=100, deadline=None)
@given(measure_pairs(coord=NARROW))
def test_chained_convolutions_match_oracle(pair):
    """A result's atom order feeds the next product's float sums."""
    a, b = pair
    got = outcome(lambda: a.convolve(b).convolve(a).convolve(b))
    want = outcome(lambda: oracle.convolve(oracle.convolve(oracle.convolve(a, b), a), b))
    assert atom_list(got) == atom_list(want)
    if not isinstance(got, type):
        assert repr(got.total_variation()) == repr(want.total_variation())


@st.composite
def signals_and_measures(draw):
    dimension = draw(st.sampled_from((1, 2)))
    mode = draw(st.sampled_from((EXACT, FLOAT)))
    shape = draw(st.tuples(*[st.integers(1, 6)] * dimension))
    count = int(np.prod(shape))
    values = draw(st.lists(weights(mode), min_size=count, max_size=count))
    values = np.array(values, dtype=object if mode == EXACT else np.float64).reshape(shape)
    origin = draw(st.tuples(*[st.integers(-5, 5)] * dimension))
    atoms = draw(st.lists(st.tuples(st.tuples(*[NARROW] * dimension), weights(mode)),
                          max_size=8))
    try:
        return GridSignal(values, 1.0, origin), AtomicMeasure(dimension, atoms, mode)
    except NonFiniteResult:  # repeated points summed past float64: no such measure
        reject()


def grid_view(g):
    if isinstance(g, type):
        return g
    return g.origin, g.spacing, g.shape, repr(g.values.tolist())


@settings(max_examples=300, deadline=None)
@given(signals_and_measures())
def test_apply_to_signal_matches_oracle(case):
    f, m = case
    assert grid_view(outcome(apply_to_signal, f, m)) == \
        grid_view(outcome(oracle.apply_to_signal, f, m))


def test_apply_to_signal_adds_float_products_in_sorted_atom_order():
    """Many atoms overlap on every cell, so any other order of the shifted
    copies changes some sum's last bits."""
    rng = np.random.default_rng(8)
    for shape, point in (((64,), lambda: int(rng.integers(-6, 7))),
                         ((9, 11), lambda: tuple(rng.integers(-3, 4, 2).tolist()))):
        f = GridSignal(rng.normal(size=shape), 1.0, (0.0,) * len(shape))
        m = from_atoms([(point(), w) for w in rng.normal(size=12).tolist()], mode=FLOAT)
        assert grid_view(apply_to_signal(f, m)) == grid_view(oracle.apply_to_signal(f, m))


def test_out_of_order_float_atoms_keep_their_order_and_sums():
    a = from_atoms([(5, 0.1), (0, 0.7), (3, 0.2), (1, 1e-17)], mode=FLOAT)
    b = from_atoms([(1, 0.3), (-1, 0.6), (0, 0.1)], mode=FLOAT)
    got, want = a.convolve(b), oracle.convolve(a, b)
    assert list(got.atoms) == [(6,), (4,), (5,), (1,), (-1,), (0,), (2,), (3,)]
    assert atom_list(got) == atom_list(want)
    assert repr(got.total_variation()) == repr(want.total_variation())


def test_empty_and_cancelling_products():
    empty = AtomicMeasure(2, {}, EXACT)
    m = from_atoms({(0, 0): 1, (1, 0): 1})
    assert m.convolve(empty).is_zero and empty.convolve(m).is_zero
    # (1 + x)(1 - x) = 1 - x^2: the middle product cancels and is pruned
    plus, minus = from_atoms({0: 1, 1: 1}), from_atoms({0: 1, 1: -1})
    assert plus.convolve(minus).atoms == {(0,): 1, (2,): -1}
    f = GridSignal.from_lattice_dict({0: Fraction(1, 3), 1: Fraction(2, 3)}, dimension=1)
    assert apply_to_signal(f, AtomicMeasure(1, {}, EXACT)).lattice_dict() == {}


def test_products_over_several_passes_match_oracle():
    """Enough products that the core forms them in more than one pass."""
    rng = np.random.default_rng(5)
    a = from_atoms(list(zip(rng.permutation(300).tolist(), rng.normal(size=300).tolist())),
                   mode=FLOAT)
    b = from_atoms(list(zip(rng.permutation(250).tolist(), rng.normal(size=250).tolist())),
                   mode=FLOAT)
    assert atom_list(a.convolve(b)) == atom_list(oracle.convolve(a, b))


def test_unrelated_denominators_match_oracle():
    """Weights over distinct primes: the common denominator is the product of
    all of them, so the numerators are long ints."""
    primes = [n for n in range(1000, 3000) if all(n % k for k in range(2, 55))][:150]
    a = from_atoms({i: Fraction(i % 7 - 3 or 1, q) for i, q in enumerate(primes)})
    b = from_atoms({-i: Fraction(2, q) for i, q in enumerate(reversed(primes))})
    c = from_atoms({0: Fraction(1, 4), 1: Fraction(1, 2), 3: Fraction(-1, 4)})
    for x, y in ((a, b), (a, c), (c, a)):
        assert atom_list(x.convolve(y)) == atom_list(oracle.convolve(x, y))
    f = GridSignal(np.array([a.atoms[(i,)] for i in range(len(primes))], dtype=object))
    assert grid_view(apply_to_signal(f, c)) == grid_view(oracle.apply_to_signal(f, c))


# --- series: Neumann inverses and convolution powers ---------------------------


@st.composite
def near_identity(draw):
    """(mu, order): tv(mu) < 1 from up to five atoms a gap apart, weights over
    unrelated denominators; gap 1 puts three or more products on a cell, gap
    20 sends the series through ``convolve``'s sparse boxes."""
    dimension = draw(st.sampled_from((1, 2)))
    mode = draw(st.sampled_from((EXACT, FLOAT)))
    gap = draw(st.sampled_from((1, 2, 3, 20)))
    coord = st.integers(-3, 3).map(lambda c: c * gap)
    weight = (st.fractions(Fraction(-19, 100), Fraction(19, 100), max_denominator=200)
              if mode == EXACT else st.floats(-0.19, 0.19))
    count = draw(st.integers(0, 5))
    atoms = draw(st.lists(st.tuples(st.tuples(*[coord] * dimension), weight),
                          min_size=count, max_size=count))
    order = draw(st.integers(0, 40 if dimension == 1 else 8))
    return AtomicMeasure(dimension, atoms, mode), order


def series_view(m):
    """Exact atoms by position (types included), float atoms in their order."""
    if isinstance(m, type):
        return m
    items = m.atoms.items()
    return repr(sorted(items) if m.mode == EXACT else list(items))


def report_view(result):
    if isinstance(result, type):
        return result
    nu, report = result
    return (series_view(nu), series_view(report.residual), repr(report.residual_norm),
            report.order, repr(report.bound), repr(report.mu_norm))


def settle(fn, *args):
    """The result of fn, or the type of the library error it raises."""
    try:
        return fn(*args)
    except DeconvError as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(near_identity())
def test_neumann_inverse_matches_oracle(case):
    mu, order = case
    config = NeumannConfig(order=order)
    assert report_view(neumann_inverse(mu, config)) == \
        report_view(oracle.neumann_inverse(mu, config))


@settings(max_examples=40, deadline=None)
@given(near_identity(), st.sampled_from((Fraction(3, 7), Fraction(-5, 2), 2)))
def test_neumann_folds_the_center_into_the_series(case, center):
    """neumann(c (delta_0 + mu)) is the oracle's nu_n scaled by 1/c."""
    mu, order = case
    kernel = dirac((0,) * mu.dimension, center, mode=mu.mode) + mu.scale(center)
    config = NeumannConfig(order=order)

    def want():
        c, m = factor_at_origin(kernel)
        nu, report = oracle.neumann_inverse(m, config)
        return nu.scale(1 / c), report

    assert report_view(settle(neumann, kernel, config)) == report_view(settle(want))


@settings(max_examples=150, deadline=None)
@given(near_identity())
def test_power_matches_oracle(case):
    m, order = case
    n = order % 9
    assert series_view(m.power(n)) == series_view(oracle.power(m, n))


ONE_SIDED = {
    "right": {1: Fraction(1, 3)},
    "2d-corner": {(1, 2): Fraction(1, 4)},
    "right-gap": {2: Fraction(1, 5), 5: Fraction(-1, 7)},
    "origin-and-right": {0: Fraction(1, 3), 1: Fraction(1, 5)},
    "left": {-3: Fraction(2, 9)},
}


@pytest.mark.parametrize("order", (0, 1, 5, 17))
@pytest.mark.parametrize("name", sorted(ONE_SIDED))
def test_series_of_one_sided_mu_match_oracle(name, order):
    """mu's atoms on one side of the origin: the series' origin adds land on
    the kernel's box, not on mu's, a case the drawn mu reach only by chance."""
    mu = from_atoms(ONE_SIDED[name])
    assert _dense_powers(AtomicMeasure.unit(mu.dimension) + mu)
    config = NeumannConfig(order=order)
    assert report_view(neumann_inverse(mu, config)) == \
        report_view(oracle.neumann_inverse(mu, config))
    assert series_view(mu.power(order)) == series_view(oracle.power(mu, order))


def test_float_power_keeps_convolve_sums():
    """Three products on cell 4 of this cube: shifted copies in the atoms'
    sorted order end on ...996, the running power's order on ...995."""
    m = from_atoms({0: -0.22, 1: 0.21, 2: 0.16}, mode=FLOAT)
    got, want = m.power(3), oracle.power(m, 3)
    assert repr(got.weight(4)) == repr(want.weight(4)) == "0.004271999999999995"
    assert series_view(got) == series_view(want)


def test_series_over_unrelated_denominators_match_oracle():
    """The lattice-exact benchmark's shapes (order 32, a = p/q with q of 10
    bits; a 3x3 power), and five atoms over distinct primes to order 40."""
    mus = [from_atoms({-1: (1 - a) / (2 * a), 1: (1 - a) / (2 * a)})
           for a in (Fraction(601, 1009), Fraction(773, 1021), Fraction(9, 10))]
    mus.append(from_atoms({i: Fraction(-1) ** i / q
                           for i, q in zip(range(-2, 3), (11, 13, 17, 19, 23))}))
    for mu, order in zip(mus, (32, 32, 32, 40)):
        config = NeumannConfig(order=order)
        assert report_view(neumann_inverse(mu, config)) == \
            report_view(oracle.neumann_inverse(mu, config))
    m = from_atoms({(i, j): Fraction((3 * i + j) % 6 + 1, 7)
                    for i in (-1, 0, 1) for j in (-1, 0, 1)})
    assert series_view(m.power(6)) == series_view(oracle.power(m, 6))
