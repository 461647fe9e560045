"""The array convolution core and the series built on it against the oracle.

Exact results must equal the oracle's atom for atom, float results bit for
bit (compared through ``repr``), and float ones must list their atoms in the
oracle's order, since float sums taken later (``total_variation``, the next
convolution) add in that order.  Core products list exact atoms in the
oracle's order too; exact series list theirs by position.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings
from hypothesis import strategies as st

import lattice_oracle as oracle
from deconv import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    DeconvError,
    GridSignal,
    InsufficientTruncation,
    ModeMismatch,
    NeumannConfig,
    NonFiniteResult,
    Side,
    apply_to_signal,
    binomial_inverse,
    binomial_kernel,
    dirac,
    from_atoms,
    neumann_inverse,
    reconstruct,
    series_inverse,
    symmetric_inverse,
)
from deconv import measures
from deconv.measures import _Dense, _dense_powers
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
# every weight of the product is finite, their sum is past float64
@example((AtomicMeasure(1, [((0,), 4.33e16), ((1,), 4.33e16)], FLOAT),
          AtomicMeasure(1, [((0,), 1.5496235505913105e+137)], FLOAT)))
def test_chained_convolutions_match_oracle(pair):
    """A result's atom order feeds the next product's float sums."""
    a, b = pair
    got = outcome(lambda: a.convolve(b).convolve(a).convolve(b))
    want = outcome(lambda: oracle.convolve(oracle.convolve(oracle.convolve(a, b), a), b))
    assert atom_list(got) == atom_list(want)
    if not isinstance(got, type):
        # a total past float64 must be refused by both, as NonFiniteResult
        assert (repr(outcome(got.total_variation))
                == repr(outcome(want.total_variation)))


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


# --- Horner on one packed int against the array loop ------------------------------


def dense_view(d):
    assert all(type(n) is int for n in d.nums.flat)
    return d.lo, d.den, d.nums.tolist()


def slot_width(x, coeffs):
    """The bound the ``_horner`` docstring states, in bits."""
    l1 = sum(abs(n) for n in x.nums.flat)
    return ((len(coeffs) - 1) * max(l1, x.den).bit_length()
            + sum(map(abs, coeffs)).bit_length() + 2)


@st.composite
def horner_cases(draw):
    """(x, coeffs): a nonzero x on a box of up to 4 cells per axis that holds the
    origin (often on its edge), numerators with signs and zeros, any positive
    denominator, and n + 1 coefficients with zeros among them."""
    dimension = draw(st.sampled_from((1, 2)))
    shape = draw(st.tuples(*[st.integers(1, 4)] * dimension))
    at = tuple(draw(st.sampled_from((0, n - 1)) | st.integers(0, n - 1)) for n in shape)
    count = math.prod(shape)
    nums = draw(st.lists(st.sampled_from((0, 1, -1)) | st.integers(-10**6, 10**6),
                         min_size=count, max_size=count))
    assume(any(nums))
    den = draw(st.sampled_from((1, 7)) | st.integers(1, 10**6))
    n = draw(st.integers(0, 40 if dimension == 1 else 10))
    coeffs = draw(st.lists(st.just(0) | st.integers(-9, 9), min_size=n + 1, max_size=n + 1))
    nums = np.array(nums, dtype=object).reshape(shape)
    return _Dense(tuple(-a for a in at), nums, den), coeffs


@settings(max_examples=200, deadline=None)
@given(horner_cases())
@example((_Dense((0,), np.array([5], dtype=object), 3), [1, -2, 0, 4, 0, 0, 7]))
@example((_Dense((0, 0), np.array([[-1]], dtype=object), 1), [0] * 9 + [1]))
@example((_Dense((-1,), np.array([1, 1], dtype=object), 1), [1] * 41))  # the bound is met
# wider than the drawn cases: a three-point Neumann series over 2^66 (1,079 bits), seven
# taps over 2^61 - 1 (2,448 bits), and 3x3 powers over 2^31 - 1 (623 bits) and 2^61 - 1
# (979 bits)
@example((_Dense((-1,), np.array([2**64 - 1, 0, 2**64 - 1], dtype=object), 2**66),
          [(-1) ** k for k in range(17)]))
@example((_Dense((-3,), np.array([1, -2, 3, 0, 3, -2, 1], dtype=object), 2**61 - 1),
          [(-1) ** k for k in range(41)]))
@example((_Dense((-1, -1), np.arange(1, 10, dtype=object).reshape(3, 3), 2**31 - 1),
          [0] * 20 + [1]))
@example((_Dense((-1, -1), np.arange(1, 10, dtype=object).reshape(3, 3), 2**61 - 1),
          [0] * 16 + [1]))
def test_packed_horner_matches_the_array_loop(case):
    x, coeffs = case
    assert dense_view(measures._horner(x, coeffs)) == dense_view(oracle.horner(x, coeffs))


@pytest.mark.parametrize("x", [
    _Dense((-1,), np.array([1, 1], dtype=object), 1),
    _Dense((0, -1), np.array([[-1, 2], [0, 1]], dtype=object), 3),
], ids=["1d", "2d"])
def test_packed_slots_of_every_width_up_to_nine_bytes(x):
    """Every slot width from the narrowest that holds the series to 9 bytes, so
    both the numpy read of slots under 8 bytes and ``int.from_bytes`` run, each
    equal to the array loop."""
    for n in range(1, 33):
        coeffs = [(-1) ** k * (k % 5 + 1) for k in range(n + 1)]
        want = dense_view(oracle.horner(x, coeffs))
        for slot_bytes in range(-(-slot_width(x, coeffs) // 8), 10):
            assert dense_view(measures._packed_horner(x, coeffs, slot_bytes)) == want


@pytest.mark.parametrize("x", [
    _Dense((-1,), np.array([3, 0, 5], dtype=object), 7),
    _Dense((-1, 0), np.array([[1, 2], [0, 3], [-2, 1]], dtype=object), 7),
], ids=["1d", "2d"])
def test_horner_packs_up_to_the_crossover_and_not_past_it(x, monkeypatch):
    """The last order under the old array crossover (896 bits in 1D, 256 in
    2D) and the first one past it are both packed, each equal to the array
    loop's result."""
    def series(n):
        return [(-1) ** k for k in range(n + 1)]

    n = 0
    while slot_width(x, series(n + 1)) <= (896, 256)[len(x.lo) - 1]:
        n += 1
    packed = []
    real = measures._packed_horner

    def spy(*args):
        packed.append(args)
        return real(*args)

    monkeypatch.setattr(measures, "_packed_horner", spy)
    for order in (n, n + 1):
        packed.clear()
        got = measures._horner(x, series(order))
        assert len(packed) == 1
        assert dense_view(got) == dense_view(oracle.horner(x, series(order)))


# --- exact products on int64 against the object-array loop -----------------------


@st.composite
def object_operands(draw):
    """Two object arrays of Python ints of one dimension, up to 5 cells per axis.
    Each draws its magnitudes from 1 to 70 bits, so products straddle the 2^62
    bound of the int64 route; signs and zeros mix, and an operand may be all zeros."""
    dimension = draw(st.sampled_from((1, 2)))

    def one():
        shape = draw(st.tuples(*[st.integers(1, 5)] * dimension))
        bits = draw(st.integers(1, 70))
        cell = st.just(0) | st.integers(-(1 << bits), 1 << bits)
        count = math.prod(shape)
        nums = draw(st.lists(cell, min_size=count, max_size=count))
        return np.array(nums, dtype=object).reshape(shape)

    return one(), one()


def object_array(rows):
    return np.array(rows, dtype=object)


@settings(max_examples=300, deadline=None)
@given(object_operands())
@example((object_array([0, 0, 0]), object_array([1 << 70, -(1 << 69)])))
@example((object_array([[1 << 70], [3]]), object_array([[0, 0]])))
@example((object_array([1 << 31, -5]), object_array([(1 << 31) - 1])))  # below the bound
def test_exact_dense_convolve_matches_the_object_loop(case):
    values, taps = case
    lo = (0,) * values.ndim
    got = _Dense(lo, values, 3).convolve(_Dense(lo, taps, 5))
    assert all(type(n) is int for n in got.nums.flat)
    assert (got.lo, got.den) == (lo, 15)
    assert got.nums.tolist() == measures._shifted_sum(values, taps).tolist()


@pytest.mark.parametrize("values, taps, machine", [
    ([1 << 31], [(1 << 31) - 1], True),  # max|values| * sum|taps| = 2^62 - 2^31
    ([1 << 31], [1 << 31], False),  # 2^62
    ([(1 << 61) - 1, 0], [1, 1], True),
    ([1 << 61, 0], [1, -1], False),  # every cell fits; the bound does not
    ([0, 0], [1 << 62], False),  # an all-zero operand beside one past the bound
    ([1 << 62], [0], False),
    ([[3, -4], [0, 5]], [[-7], [2]], True),
], ids=["below", "at", "two-taps-below", "two-taps-at", "zeros-huge-taps", "huge-zero-taps", "2d"])
def test_int64_route_is_taken_below_the_bound_only(values, taps, machine):
    got = measures._int64_product(object_array(values), object_array(taps))
    assert (got is not None) is machine
    if machine:
        assert got.dtype == object and all(type(n) is int for n in got.flat)
        assert got.tolist() == measures._shifted_sum(object_array(values),
                                                     object_array(taps)).tolist()


# --- exact residuals against the product of measures -------------------------------


def dense_residual(t, v):
    """Whether ``_residual`` runs on arrays: the box of ``t * v`` and the origin is
    one ``_dense_box`` accepts."""
    if t.is_zero or v.is_zero:
        return False
    boxes = [(min(a + b, 0), max(c + d, 0)) for (a, c), (b, d) in
             zip(t.bounding_box(), v.bounding_box())]
    return measures._dense_box(math.prod(hi - lo + 1 for lo, hi in boxes), len(t) * len(v))


@st.composite
def exact_pairs(draw):
    """Two exact measures of one dimension, up to 6 atoms each.  Atoms sit up to 2,
    20 or 10^9 apart, so boxes run from dense to sparse, and each measure may be
    moved off the origin, so the product box can miss it; a measure may have one
    atom or none.  Weights run from small integers (the int64 route) to fractions
    with denominators up to 2^64."""
    dimension = draw(st.sampled_from((1, 2)))
    spread = draw(st.sampled_from((2, 20, 10**9)))

    def one():
        shift = draw(st.sampled_from((0, 4, -9, 10**9)))
        coord = st.integers(-spread, spread).map(lambda c: c + shift)
        atoms = draw(st.lists(st.tuples(st.tuples(*[coord] * dimension),
                                        st.integers(-9, 9) | EXACT_WEIGHTS), max_size=6))
        return AtomicMeasure(dimension, atoms)

    return one(), one()


@settings(max_examples=300, deadline=None)
@given(exact_pairs())
@example((dirac(0, 3), dirac(0, Fraction(1, 3))))  # a one-atom inverse: no residual
@example((dirac(4, 2), dirac(5, 7)))  # the product box misses the origin
@example((from_atoms({0: 1, 20: 1}), from_atoms({0: 1, -20: -1})))  # sparse
@example((from_atoms({(0, 0): 1, (10**9, 3): 2}), from_atoms({(1, -1): Fraction(1, 5)})))
def test_exact_residual_matches_the_measure_product(pair):
    t, v = pair
    real = _Dense.of
    boxed = []

    def spy(value):
        # a box 10^9 wide would be allocated: refuse it here rather than run out of memory
        assert not isinstance(value, AtomicMeasure) or math.prod(
            hi - lo + 1 for lo, hi in value.bounding_box() or ((0, 0),)) <= 10**4
        boxed.append(value)
        return real(value)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_Dense, "of", staticmethod(spy))
        got = measures._residual(t, v)
    assert bool(boxed) is dense_residual(t, v)
    want = t.convolve(v) - AtomicMeasure.unit(t.dimension)
    assert dict(got.atoms) == dict(want.atoms)
    assert all(type(w) is Fraction for w in got.atoms.values())


# --- reconstruct against the blur, unblur and spill on signals --------------------


def attempt(fn, *args):
    """The result of fn, or the type of the error it raises."""
    try:
        return fn(*args)
    except (DeconvError, ValueError) as exc:
        return type(exc)


def reconstruction_view(result):
    """The restricted signal by repr (exact) or bytes (float), and the report by repr."""
    if isinstance(result, type):
        return result
    g, report = result
    values = repr(g.values.tolist()) if g.mode == EXACT else g.values.tobytes()
    return g.origin, g.spacing, g.values.dtype.str, values, repr(report)


@st.composite
def reconstructions(draw):
    """(f, kernel, series): a 1D kernel of up to three atoms, its symmetric or a
    one-sided series, and a lattice signal; float cases reach past float64, and
    some pass a kernel or signal of the other mode or off the lattice."""
    mode = draw(st.sampled_from((EXACT, FLOAT)))
    wide = st.floats(-1e200, 1e200, allow_nan=False).filter(bool)
    weight = (st.fractions(-3, 3, max_denominator=9).filter(bool) if mode == EXACT
              else st.floats(-3, 3, allow_nan=False).filter(bool) | wide)
    atoms = draw(st.dictionaries(st.integers(-2, 2), weight, min_size=1, max_size=3))
    kernel = from_atoms(atoms, mode=mode)
    try:
        if draw(st.booleans()):
            series = symmetric_inverse(kernel, draw(st.integers(1, 12)))
        else:
            series = series_inverse(kernel, draw(st.sampled_from(list(Side))),
                                    draw(st.integers(1, 25)))
    except DeconvError:  # a float series past float64
        reject()
    values = draw(st.lists(weight | st.just(0), min_size=1, max_size=9))
    f = GridSignal(np.array(values, dtype=object if mode == EXACT else float),
                   1.0, draw(st.integers(-5, 5)))
    other = draw(st.sampled_from(("same", "float signal", "off lattice")))
    if other == "float signal":
        f = GridSignal(np.array([float(v) for v in f.values]), 1.0, f.origin)
    elif other == "off lattice":
        f = GridSignal(f.values, draw(st.sampled_from((0.5, 1.0))), f.origin[0] + 0.5)
    return f, kernel, series


@settings(max_examples=300, deadline=None)
@given(reconstructions())
def test_reconstruct_matches_oracle(case):
    f, kernel, series = case
    assert reconstruction_view(attempt(reconstruct, f, kernel, series)) == \
        reconstruction_view(attempt(oracle.reconstruct, f, kernel, series))


HALF_PAIR_EXACT = from_atoms({0: Fraction(1, 2), 1: Fraction(1, 2)})
HALF_PAIR_FLOAT = from_atoms({0: 0.5, 1: 0.5}, mode=FLOAT)
STEEP = from_atoms({0: 1e-10, 1: 1.0}, mode=FLOAT)  # its right series grows like 1e10^k


@pytest.mark.parametrize("f, kernel, series, error", [
    # a float blur past float64
    (GridSignal([1e308, 1e308]), HALF_PAIR_FLOAT, series_inverse(HALF_PAIR_FLOAT, Side.RIGHT, 4),
     NonFiniteResult),
    # a float unblur past float64, from a finite blur
    (GridSignal([1e200]), STEEP, series_inverse(STEEP, Side.RIGHT, 12), NonFiniteResult),
    # a float signal and an exact kernel
    (GridSignal([1.0, 2.0]), binomial_kernel(), binomial_inverse(8), ModeMismatch),
    # a float kernel equal to the exact one its series was built for
    (GridSignal([1.0, 2.0]), HALF_PAIR_FLOAT, series_inverse(HALF_PAIR_EXACT, Side.RIGHT, 8),
     ModeMismatch),
    (GridSignal([1.0, 2.0], 0.5), HALF_PAIR_FLOAT,
     series_inverse(HALF_PAIR_FLOAT, Side.RIGHT, 8), ValueError),
    (GridSignal.from_lattice_dict({-2: 1, 2: 1}, dimension=1), binomial_kernel(),
     binomial_inverse(4), InsufficientTruncation),
], ids=["blur-overflow", "unblur-overflow", "float-signal-exact-kernel",
        "exact-series-float-kernel", "off-lattice", "margin-too-small"])
def test_reconstruct_refuses_as_the_oracle_does(f, kernel, series, error):
    assert attempt(reconstruct, f, kernel, series) is error
    assert attempt(oracle.reconstruct, f, kernel, series) is error
