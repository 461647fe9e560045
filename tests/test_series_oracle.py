"""The power-series recurrence against the closed forms it replaced.

Every named series must equal its closed form in ``series_oracle`` atom for
atom in exact mode and bit for bit in float mode (compared through
``repr``), and the recurrence must invert any nonzero exact 1D kernel on
the positions its truncation reaches.
"""
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

import series_oracle as oracle
from deconv import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    Side,
    binomial_inverse,
    from_atoms,
    half_pair_inverse,
    pair_kernel,
    series_inverse,
    symmetric_inverse,
    unit_pair_inverse,
)

MODES = st.sampled_from((EXACT, FLOAT))
SIDES = st.sampled_from(tuple(Side))
WEIGHTS = st.fractions(min_value=-50, max_value=50, max_denominator=2**20)


def view(measure: AtomicMeasure) -> str:
    return repr(sorted(measure.atoms.items()))


@st.composite
def kernels(draw, mode=EXACT):
    """A nonzero 1D kernel: up to five atoms, gaps between them included."""
    atoms = draw(st.dictionaries(st.integers(-8, 8), WEIGHTS.filter(bool),
                                 min_size=1, max_size=5))
    if mode == FLOAT:
        atoms = {p: float(w) for p, w in atoms.items()}
    return from_atoms(atoms, mode=mode)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from((1, -1)), SIDES, st.integers(1, 60), MODES)
def test_unit_pair_inverse_matches_closed_form(step, side, terms, mode):
    got = unit_pair_inverse(pair_kernel(step, mode=mode), side, terms)
    want = from_atoms(oracle.unit_pair_series(step, side, terms), mode=mode)
    assert view(got.measure) == view(want)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 120), MODES)
def test_binomial_inverse_matches_closed_form(halfwidth, mode):
    got = binomial_inverse(halfwidth, mode=mode)
    assert view(got.measure) == view(from_atoms(oracle.binomial_series(halfwidth), mode=mode))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 120), MODES)
def test_half_pair_inverse_matches_closed_form(halfwidth, mode):
    got = half_pair_inverse(halfwidth, mode=mode)
    assert view(got.measure) == view(from_atoms(oracle.half_pair_series(halfwidth), mode=mode))


@settings(max_examples=200, deadline=None)
@given(kernels(), SIDES, st.integers(1, 24))
# end weights -1 and 1 over the kernel's common denominator, which draws rarely reach
@example(from_atoms({0: -1, 1: Fraction(1, 3), 3: 2}), Side.RIGHT, 9)
@example(from_atoms({-2: Fraction(5, 7), 0: Fraction(-1, 7)}), Side.LEFT, 9)
@example(from_atoms({0: Fraction(1, 6), 2: Fraction(-1, 2)}), Side.RIGHT, 9)
def test_series_inverse_is_delta_on_the_first_n_positions_of_its_side(kernel, side, n):
    product = kernel.convolve(series_inverse(kernel, side, n).measure)
    window = (0, n - 1) if side is Side.RIGHT else (1 - n, 0)
    assert product.restrict(window) == AtomicMeasure.unit(1)


@settings(max_examples=200, deadline=None)
@given(kernels(), st.integers(1, 24))
@example(from_atoms({-1: -1, 0: 3, 2: -1}), 9)
@example(from_atoms({-1: Fraction(1, 2), 0: Fraction(-5, 2), 1: Fraction(-1, 2)}), 9)
def test_symmetric_inverse_is_delta_where_both_series_are_whole(kernel, h):
    (lo, hi), = kernel.bounding_box()
    series = symmetric_inverse(kernel, h)
    assert all(-h <= p <= h for (p,) in series.measure.atoms)
    product = kernel.convolve(series.measure)
    window = (hi - h, h + lo)   # the kernel only meets untruncated coefficients
    if window[0] <= window[1]:
        assert product.restrict(window) == AtomicMeasure.unit(1).restrict(window)


# weights whose denominators are not powers of two, so a float kernel's
# products round and a float residual would hold junk in the interior
NON_DYADIC = WEIGHTS.filter(lambda w: w.denominator & (w.denominator - 1)).map(float)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.integers(-4, 4), NON_DYADIC, min_size=1, max_size=4), SIDES,
       st.integers(1, 24))
def test_a_float_series_is_bounded_by_the_exact_series_it_rounds(atoms, side, n):
    kernel = from_atoms(atoms, mode=FLOAT)
    exact = from_atoms({p: Fraction(w) for p, w in kernel.atoms.items()})
    assert series_inverse(kernel, side, n).boundary == series_inverse(exact, side, n).boundary
    assert symmetric_inverse(kernel, n).boundary == symmetric_inverse(exact, n).boundary


@settings(max_examples=100, deadline=None)
@given(kernels(mode=FLOAT), SIDES, st.integers(1, 24))
def test_float_series_is_the_exact_series_rounded_once(kernel, side, n):
    exact = from_atoms({p: Fraction(w) for p, w in kernel.atoms.items()}, dimension=1)
    want = {p: float(w) for p, w in series_inverse(exact, side, n).measure.atoms.items()}
    want = {p: w for p, w in want.items() if w}   # below float64's range rounds to 0
    assert view(series_inverse(kernel, side, n).measure) == repr(sorted(want.items()))
