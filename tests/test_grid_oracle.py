"""The placement primitive against the paste loops it replaced.

``restrict``, ``+``/``-``, ``on_grid_of`` and ``padded_for_blur`` must give
the oracle's samples exactly (same dtype, and only ``Fraction``s in exact
mode), on the same origin and spacing, for 1D and 2D signals in both
modes, with windows and offsets that overlap fully, partly or not at all.
"""
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import grid_oracle as oracle
from deconv import EXACT, FLOAT, GridSignal
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


def outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as exc:
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
