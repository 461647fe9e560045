"""Where exact values become ``Fraction``s, and the array a measure keeps.

``measures._fractions`` builds reduced ``Fraction``s without the
constructor, so it is held to ``Fraction(n, den)`` in everything a caller
can see.  A measure keeps the ``_Dense`` array it was built with or first
read into; that array must be the one its atoms give afresh.
"""
import math
import pickle
from fractions import Fraction

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from deconv import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    GridSignal,
    NeumannConfig,
    NonFiniteResult,
    apply_to_signal,
    binomial_kernel,
    dirac,
    from_atoms,
    half_pair_kernel,
    symmetric_inverse,
)
from deconv import measures
from deconv.measures import _Dense, _fractions
from deconv.neumann import factor_at_origin, neumann

# --- _fractions against the constructor -------------------------------------------

BIG = 1 << 400


@st.composite
def fraction_cases(draw):
    """(nums, den): den from 1 to 2^400 and numerators 0, +-1 or up to 2^400 in
    magnitude, most sharing a drawn factor with den so that they reduce;
    some numerators repeat."""
    g = draw(st.just(1) | st.integers(2, 12) | st.integers(1, 1 << 200))
    den = g * draw(st.sampled_from((1, 2, 3)) | st.integers(1, BIG // g))
    shared = st.integers(-(BIG // g), BIG // g).map(lambda n: n * g)
    nums = draw(st.lists(st.sampled_from((0, 1, -1)) | shared | st.integers(-BIG, BIG),
                         min_size=1, max_size=8))
    nums += draw(st.lists(st.sampled_from(nums), max_size=4))
    return draw(st.permutations(nums)), den


def parts(q):
    return q.numerator, q.denominator


@settings(max_examples=300, deadline=None)
@given(fraction_cases())
@example(([0, 1, -1, 0, 1], 1))
@example(([BIG, -BIG, BIG, 6], BIG))
@example(([6, -4, 6, 0], 12))
def test_fractions_match_the_constructor(case):
    nums, den = case
    got = _fractions(nums, den)
    assert len(got) == len(nums)
    for n, q in zip(nums, got):
        want = Fraction(n, den)
        assert type(q) is Fraction and q == want
        assert parts(q) == parts(want)
        assert type(q.numerator) is int and type(q.denominator) is int
        assert hash(q) == hash(want)
        assert repr(q) == repr(want) and str(q) == str(want)
        back = pickle.loads(pickle.dumps(q))
        assert type(back) is Fraction and parts(back) == parts(want)
        assert parts(q * Fraction(-3, 7) + 1) == parts(want * Fraction(-3, 7) + 1)
        assert got[nums.index(n)] is q  # a repeated numerator shares one Fraction


def test_fractions_of_nothing():
    assert _fractions([], 7) == []


# --- one _Dense per measure --------------------------------------------------------


def small(draw, dimension, mode, bound=2, count=4):
    """A measure of up to ``count`` atoms in [-3, 3]^d with weights of magnitude
    up to ``bound`` over denominators up to 50, rounded to float in float mode."""
    weight = st.fractions(-bound, bound, max_denominator=50)
    if mode == FLOAT:
        weight = weight.map(float)
    atoms = draw(st.lists(st.tuples(st.tuples(*[st.integers(-3, 3)] * dimension), weight),
                          max_size=count))
    return AtomicMeasure(dimension, atoms, mode)


@st.composite
def library_measures(draw):
    """(m, g): a measure the library built, exact or float, and a lattice signal
    of its dimension and mode.  m is a 1D or 2D power, a Neumann series or its
    residual (with the kernel's centre folded in), a ``_residual``, a
    ``convolve`` result or a ``symmetric_inverse`` series."""
    dimension = draw(st.sampled_from((1, 2)))
    mode = draw(st.sampled_from((EXACT, FLOAT)))
    kind = draw(st.sampled_from(("power", "neumann", "neumann-residual", "residual",
                                 "convolve", "symmetric")))
    if kind == "power":
        m = small(draw, dimension, mode).power(draw(st.integers(1, 6)))
    elif kind.startswith("neumann"):
        mu = small(draw, dimension, mode, bound=Fraction(9, 50))
        c = draw(st.sampled_from((1, 2, Fraction(3, 7), Fraction(-5, 2))))
        kernel = dirac((0,) * dimension, c, mode=mode) + mu.scale(c)
        nu, report = neumann(kernel, NeumannConfig(order=draw(st.integers(0, 12))))
        m = nu if kind == "neumann" else report.residual
    elif kind == "residual":
        m = measures._residual(small(draw, dimension, mode), small(draw, dimension, mode))
    elif kind == "convolve":
        m = small(draw, dimension, mode).convolve(small(draw, dimension, mode))
    else:
        kernel = small(draw, 1, mode, count=3)
        if kernel.is_zero:
            kernel = dirac(draw(st.integers(-2, 2)), Fraction(2, 3), mode=mode)
        m = symmetric_inverse(kernel, draw(st.integers(1, 12))).measure
        dimension = 1
    shape = draw(st.tuples(*[st.integers(1, 5)] * dimension))
    values = draw(st.lists(st.fractions(-3, 3, max_denominator=9) if mode == EXACT
                           else st.floats(-3, 3), min_size=math.prod(shape),
                           max_size=math.prod(shape)))
    values = np.array(values, dtype=object if mode == EXACT else np.float64).reshape(shape)
    origin = draw(st.tuples(*[st.integers(-4, 4)] * dimension))
    return m, GridSignal(values, 1.0, origin)


def dense_view(d):
    """Everything of a ``_Dense`` a product reads; float cells through ``repr``."""
    cells = d.nums.tolist()
    if d.nums.dtype == object:
        assert all(type(n) is int for n in d.nums.flat)
    else:
        cells = repr(cells)
    return d.lo, d.nums.shape, d.nums.dtype, cells, d.den


def grid_view(g):
    return g.origin, g.spacing, g.shape, repr(g.values.tolist())


@settings(max_examples=300, deadline=None)
@given(library_measures())
def test_library_measures_keep_the_array_their_atoms_give(case):
    m, g = case
    handed = m._dense  # set by _Dense.measure, or by an earlier read of m
    kept = _Dense.of(m)
    assert handed is None or kept is handed
    assert _Dense.of(m) is kept
    fresh = from_atoms(m.atoms, mode=m.mode, dimension=m.dimension)
    assert dense_view(kept) == dense_view(_Dense.of(fresh))
    assert not kept.nums.flags.writeable
    if all(low <= 0 < low + n for low, n in zip(kept.lo, kept.nums.shape)):
        before = dense_view(kept)
        added = kept.add_unit(3)
        assert dense_view(kept) == before
        origin = tuple(-low for low in kept.lo)
        assert added.nums[origin] == kept.nums[origin] + 3 * kept.den
    assert grid_view(apply_to_signal(g, m)) == grid_view(apply_to_signal(g, fresh))


def test_exact_series_are_handed_their_array():
    """Powers and Neumann series formed on arrays keep the array they were made
    from; no later read builds another."""
    m = from_atoms({(i, j): Fraction((3 * i + j) % 6 + 1, 7)
                    for i in (-1, 0, 1) for j in (-1, 0, 1)})
    c = (1 - Fraction(601, 1009)) / (2 * Fraction(601, 1009))
    nu, report = neumann(from_atoms({-1: c, 0: 1, 1: c}), NeumannConfig(order=32))
    for built in (m.power(6), nu, report.residual):
        assert built._dense is not None and _Dense.of(built) is built._dense


def test_named_kernels_are_shared_per_mode():
    for kernel in (binomial_kernel, half_pair_kernel):
        assert kernel() is kernel(mode=EXACT) is kernel()
        assert kernel(mode=FLOAT) is kernel(mode=FLOAT) is not kernel()
        assert kernel(mode=FLOAT) == from_atoms(kernel().atoms, mode=FLOAT)
        assert _Dense.of(kernel()) is _Dense.of(kernel(mode=EXACT))


# --- factor_at_origin against the sum it replaced ------------------------------------


@st.composite
def centred_kernels(draw):
    """Up to six atoms plus a drawn weight at the origin, exact or float."""
    dimension = draw(st.sampled_from((1, 2)))
    mode = draw(st.sampled_from((EXACT, FLOAT)))
    centre = draw(st.sampled_from((49, Fraction(-3, 7), 0.1, 1e-300)))
    return small(draw, dimension, mode, bound=100, count=6) + dirac(
        (0,) * dimension, centre, mode=mode)


def settle(fn, *args):
    """The result of fn, or the type of the error it raises."""
    try:
        return fn(*args)
    except NonFiniteResult as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(centred_kernels())
@example(from_atoms({-1: 0.3, 0: 49.0, 2: 0.7}, mode=FLOAT))  # 0.3 * (1 / 49) != 0.3 / 49
def test_factor_at_origin_matches_the_scaled_difference(kernel):
    """mu is ``(kernel - c delta_0) * (1 / c)``: the same atoms in the same order,
    float weights to the bit, and the same refusal past float64."""
    origin = (0,) * kernel.dimension
    assume(origin in kernel.atoms)
    center = kernel.atoms[origin]
    got = settle(lambda: factor_at_origin(kernel)[1])
    want = settle(lambda: (kernel - dirac(origin, center, mode=kernel.mode)).scale(1 / center))
    if isinstance(want, type):
        assert got is want
    else:
        assert repr(list(got.atoms.items())) == repr(list(want.atoms.items()))
