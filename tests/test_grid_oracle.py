"""The grid primitives against the loops they replaced.

``restrict``, ``+``/``-``, ``on_grid_of`` and ``padded_for_blur`` must give
the oracle's samples exactly (same dtype, and only ``Fraction``s in exact
mode), on the same origin and spacing, for 1D and 2D signals in both
modes, with windows and offsets that overlap fully, partly or not at all.

``from_lattice_dict``, ``lattice_dict``, ``support_radius`` and the
``AtomicMeasure`` constructor must give the ``repr`` of the oracle's
values, which shows a ``-0.0`` and the type of each value, on the same
origin and shape, with repeated points, zeros, empty maps and all-zero
signals among the inputs.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import grid_oracle as oracle
from deconv import EXACT, FLOAT, AtomicMeasure, GridSignal, NonFiniteResult
from deconv.gaussian import padded_for_blur

EXACT_SAMPLES = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=2**32)
FLOAT_SAMPLES = st.floats(min_value=-1e300, max_value=1e300)  # sums stay finite


@st.composite
def signals(draw, dimension, mode, spacing=1.0, min_size=1):
    shape = draw(st.tuples(*[st.integers(min_size, 6)] * dimension))
    samples = EXACT_SAMPLES if mode == EXACT else FLOAT_SAMPLES
    values = draw(st.lists(samples, min_size=int(np.prod(shape)),
                           max_size=int(np.prod(shape))))
    values = np.array(values, dtype=object if mode == EXACT else np.float64).reshape(shape)
    origin = draw(st.tuples(*[st.integers(-8, 8)] * dimension))
    return GridSignal(values, spacing, tuple(spacing * o for o in origin))


def dims_and_modes():
    return st.tuples(st.sampled_from((1, 2)), st.sampled_from((EXACT, FLOAT)))


def assert_same(got, want):
    assert np.array_equal(got.values, want.values)
    assert got.values.dtype == want.values.dtype
    assert (got.origin, got.spacing) == (want.origin, want.spacing)
    assert not got.values.flags.writeable
    if got.mode == EXACT:
        assert all(type(v) is Fraction for v in got.values.flat)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dm=dims_and_modes())
def test_restrict_matches_oracle(data, dm):
    f = data.draw(signals(*dm))
    # windows inside, across an edge of, or far from the signal's extent
    bounds = data.draw(st.tuples(*[st.tuples(st.integers(-20, 20), st.integers(0, 12))
                                   for _ in range(dm[0])]))
    win = tuple((lo, lo + width) for lo, width in bounds)
    assert_same(f.restrict(win), oracle.restrict(f, win))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dm=dims_and_modes(), spacing=st.sampled_from((1.0, 0.25)))
def test_add_and_sub_match_oracle(data, dm, spacing):
    a = data.draw(signals(*dm, spacing=spacing))
    b = data.draw(signals(*dm, spacing=spacing))
    assert_same(a + b, oracle.combined(a, b, lambda x, y: x + y))
    assert_same(a - b, oracle.combined(a, b, lambda x, y: x - y))


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, NonFiniteResult) as exc:
        return type(exc)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), dm=dims_and_modes())
def test_on_grid_of_matches_oracle(data, dm):
    small = data.draw(signals(*dm))
    big = data.draw(signals(*dm))
    got, want = outcome(small.on_grid_of, big), outcome(oracle.on_grid_of, small, big)
    if isinstance(want, type):  # the target grid does not cover the signal
        assert got is want
    else:
        assert_same(got, want)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), dimension=st.sampled_from((1, 2)),
       spacing=st.sampled_from((0.05, 0.1, 0.25, 0.5)), margin=st.sampled_from((0.5, 6.0)))
def test_padded_for_blur_matches_oracle(data, dimension, spacing, margin):
    f = data.draw(signals(dimension, FLOAT, spacing=spacing, min_size=2))
    assert_same(padded_for_blur(f, margin), oracle.padded_for_blur(f, margin))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_covering_target_keeps_every_sample(mode):
    kind = object if mode == EXACT else np.float64
    small = GridSignal(np.array([[1, 2], [3, 4]], dtype=kind), 1.0, (1.0, -1.0))
    big = GridSignal(np.zeros((4, 3), dtype=kind), 1.0, (0.0, -2.0))
    assert_same(small.on_grid_of(big), oracle.on_grid_of(small, big))
    assert small.on_grid_of(big).lattice_dict() == small.lattice_dict()


# --- the lattice rules: repeated points, placement on a box, nonzero reads ----

ZEROS = {EXACT: st.just(Fraction(0)), FLOAT: st.sampled_from((0.0, -0.0))}
COORDS = st.integers(-4, 4)  # few points, so repeats are common


def sparse_samples(mode):
    return st.one_of(ZEROS[mode], EXACT_SAMPLES if mode == EXACT else FLOAT_SAMPLES)


def lattice_values(mode):
    """What ``from_lattice_dict`` takes in ``mode``: ints and Fractions in
    both modes, floats (``-0.0`` among them) in float mode."""
    exact = st.one_of(st.integers(-9, 9), sparse_samples(EXACT))
    return exact if mode == EXACT else st.one_of(exact, sparse_samples(FLOAT))


def points(dimension):
    """Lattice points as from_lattice_dict reads them: bare ints name 1D
    points too, so ``1`` and ``(1,)`` are one point."""
    if dimension == 1:
        return st.one_of(COORDS, st.tuples(COORDS))
    return st.tuples(COORDS, COORDS)


def same_repr(got, want):
    if isinstance(want, type):  # the error raised instead of a result
        assert got is want
        return
    assert repr(got.values.tolist()) == repr(want.values.tolist())
    assert got.shape == want.shape
    assert_same(got, want)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dm=dims_and_modes(), given_dimension=st.booleans())
def test_from_lattice_dict_matches_oracle(data, dm, given_dimension):
    dimension, mode = dm
    mapping = data.draw(st.dictionaries(points(dimension), lattice_values(mode), max_size=8))
    kwargs = {"dimension": dimension if given_dimension else None, "mode": mode}
    same_repr(outcome(GridSignal.from_lattice_dict, mapping, **kwargs),
              outcome(oracle.from_lattice_dict, mapping, **kwargs))


@pytest.mark.parametrize("mode", [EXACT, FLOAT])
def test_one_point_named_twice_sums_in_order(mode):
    mapping = {1: -0.0, (1,): -0.0, (3,): 0.5} if mode == FLOAT else {1: 2, (1,): Fraction(1, 3)}
    got = GridSignal.from_lattice_dict(mapping, mode=mode)
    same_repr(got, oracle.from_lattice_dict(mapping, mode=mode))
    assert repr(got.values.tolist()[0]) == ("0.0" if mode == FLOAT else "Fraction(7, 3)")


@st.composite
def lattice_signals(draw, dimension, mode):
    """Signals whose samples are often zero (``-0.0`` in float mode), and
    sometimes all zero."""
    shape = draw(st.tuples(*[st.integers(1, 6)] * dimension))
    count = int(np.prod(shape))
    samples = ZEROS[mode] if draw(st.integers(0, 7)) == 0 else sparse_samples(mode)
    values = draw(st.lists(samples, min_size=count, max_size=count))
    values = np.array(values, dtype=object if mode == EXACT else np.float64).reshape(shape)
    origin = draw(st.tuples(*[st.integers(-8, 8)] * dimension))
    return GridSignal(values, 1.0, origin)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dm=dims_and_modes())
def test_nonzero_reads_match_oracle(data, dm):
    f = data.draw(lattice_signals(*dm))
    assert repr(f.lattice_dict()) == repr(oracle.lattice_dict(f))
    assert f.support_radius() == oracle.support_radius(f)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), dm=dims_and_modes())
def test_measure_constructor_sums_as_the_oracle(data, dm):
    dimension, mode = dm
    weights = lattice_values(mode) if mode == EXACT else st.one_of(
        lattice_values(mode), st.floats(allow_nan=False, allow_infinity=False))
    point = st.tuples(*[COORDS] * dimension)
    atoms = data.draw(st.lists(st.tuples(point, weights), max_size=10))
    try:
        want = oracle.atomic_measure(dimension, atoms, mode)
    except NonFiniteResult:  # repeated points summed past float64: no such measure
        reject()
    got = AtomicMeasure(dimension, atoms, mode)
    assert repr(list(got.atoms.items())) == repr(list(want.items()))
