"""One-sided and growing-coefficient inverses on the integer line.

Every nonzero finite kernel p on Z has two formal inverses, found by
power-series division by its end atom: a right series, supported from
minus p's lowest atom position rightward, and a left one, supported from
minus its highest leftward.  ``series_inverse`` truncates either, e.g.
``delta_0 - delta_1 + delta_2 - ...`` for ``delta_0 + delta_1``.  Their
mean is another inverse, ``symmetric_inverse``; for the binomial kernel
``1/4 delta_{-1} + 1/2 delta_0 + 1/4 delta_1`` it has weight
``2|n| (-1)^(|n|+1)`` at n, and that linear growth is the whole story of
the noise sensitivity quantified by ``perturbation_response``.

Everything here defaults to exact rational arithmetic so that "equals"
means equals; the series of a float kernel is its exact series, rounded
once.  A ``TruncatedSeries`` records, next to the measure itself, the
kernel it targets and the boundary atoms where ``kernel * series -
delta_0`` is nonzero; the boundary is computed by carrying out the
convolution.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    DimensionMismatch,
    InsufficientTruncation,
    ParameterOutOfRange,
    UnsupportedKernel,
)
from .grids import EXACT, GridSignal
from .measures import (
    AtomicMeasure,
    WindowSpec,
    _residual,
    apply_to_signal,
    coerce_weight,
    from_atoms,
)

Point = tuple[int, ...]


class Side(enum.Enum):
    """Which side of the origin a one-sided series lives on."""

    RIGHT = "right"
    LEFT = "left"


# --- kernel constructors ---------------------------------------------------


def pair_kernel(step: int, *, mode: str = EXACT) -> AtomicMeasure:
    """Unit pair kernel delta_0 + delta_step for step in {+1, -1}."""
    if step not in (1, -1):
        raise ParameterOutOfRange(f"pair kernels take step +1 or -1, got {step}")
    return from_atoms({0: 1, step: 1}, mode=mode)


def binomial_kernel(*, mode: str = EXACT) -> AtomicMeasure:
    """The smoothing kernel 1/4 delta_{-1} + 1/2 delta_0 + 1/4 delta_1."""
    q = Fraction(1, 4)
    return from_atoms({-1: q, 0: 2 * q, 1: q}, mode=mode)


def half_pair_kernel(*, mode: str = EXACT) -> AtomicMeasure:
    """The averaging kernel (delta_0 + delta_1) / 2."""
    h = Fraction(1, 2)
    return from_atoms({0: h, 1: h}, mode=mode)


# --- truncated series ------------------------------------------------------


@dataclass(frozen=True)
class TruncatedSeries:
    """A truncation of a formal inverse series.

    Attributes
    ----------
    measure : AtomicMeasure
        The truncated series itself.
    kernel : AtomicMeasure
        The kernel this series inverts (up to boundary junk).
    window : WindowSpec
        Nominal support window of the truncation.
    boundary : tuple of points
        Where ``kernel * measure - delta_0`` is nonzero.  Computed by
        direct convolution at construction time.
    """

    measure: AtomicMeasure
    kernel: AtomicMeasure
    window: WindowSpec
    boundary: tuple[Point, ...]

    @property
    def halfwidth(self) -> int:
        return max(abs(lo) for b in self.window.bounds for lo in b)

    def boundary_distance(self) -> int | None:
        """Distance from the origin to the nearest boundary atom (None if clean)."""
        if not self.boundary:
            return None
        return min(max(abs(c) for c in p) for p in self.boundary)

    def residual(self) -> AtomicMeasure:
        return _residual(self.kernel, self.measure)


def _finish(measure: AtomicMeasure, kernel: AtomicMeasure, window: WindowSpec) -> TruncatedSeries:
    boundary = tuple(sorted(_residual(kernel, measure).atoms))
    return TruncatedSeries(measure, kernel, window, boundary)


def recognize_kernel(measure: AtomicMeasure) -> tuple[str, object, int]:
    """Name a kernel the series here can invert: ``(family, scale, step)``.

    ``("pair", c, step)`` is ``c * (delta_0 + delta_step)`` with step +1 or
    -1; ``("binomial", c, 0)`` is ``c`` times :func:`binomial_kernel`.
    Anything else raises ``UnsupportedKernel``.
    """
    atoms = dict(measure.atoms)
    for step in (1, -1):
        if set(atoms) == {(0,), (step,)} and atoms[(0,)] == atoms[(step,)]:
            return "pair", atoms[(0,)], step
    if (set(atoms) == {(-1,), (0,), (1,)}
            and atoms[(-1,)] == atoms[(1,)]
            and atoms[(0,)] == 2 * atoms[(-1,)]):
        return "binomial", 4 * atoms[(-1,)], 0
    raise UnsupportedKernel(
        "expected c*(d0 + d1), c*(d-1 + d0) or c*(1/4, 1/2, 1/4) on {-1, 0, 1}, "
        f"got atoms {sorted(measure.atoms.items())}")


def _ends(kernel: AtomicMeasure) -> tuple[int, int]:
    """Lowest and highest atom position of a nonzero 1D kernel."""
    if kernel.dimension != 1:
        raise DimensionMismatch("one-sided series are one-dimensional")
    if kernel.is_zero:
        raise UnsupportedKernel("the zero kernel has no inverse")
    return kernel.bounding_box()[0]


def _float_quotient(num: int, den: int) -> float:
    """num / den correctly rounded, +-inf past float64 (which measures refuse)."""
    try:
        return num / den
    except OverflowError:
        return math.inf if (num < 0) == (den < 0) else -math.inf


def _end_series(kernel: AtomicMeasure, side: Side, terms: int, parts: int = 1,
                skip: int = 0) -> dict:
    """Atoms ``skip`` .. ``terms - 1`` of the ``side`` inverse of a 1D kernel, over ``parts``.

    Power-series division by the end atom on that side, on Python ints: with
    the weight at distance i from that end ``A_i / D`` (FLINT's ``fmpq_poly``
    layout), coefficient k is ``E_k D / A_0^(k+1)``, where ``E_0 = 1`` and
    ``E_k = -sum_{i>=1} A_i A_0^(i-1) E_{k-i}``."""
    lo, hi = _ends(kernel)
    end, step = (lo, 1) if side is Side.RIGHT else (hi, -1)
    ratios = {abs(p - end): w.as_integer_ratio() for (p,), w in kernel.atoms.items()}
    den = math.lcm(*(d for _, d in ratios.values()))
    nums = {i: n * (den // d) for i, (n, d) in ratios.items()}
    a0 = nums.pop(0)
    taps = [(i, a * a0 ** (i - 1)) for i, a in nums.items() if i < terms]
    quotient = Fraction if kernel.mode == EXACT else _float_quotient
    atoms, coeffs, power = {}, [], parts * a0
    for k in range(terms):
        e = 1 if k == 0 else 0
        for i, t in taps:
            if i <= k:
                e -= t * coeffs[k - i]
        coeffs.append(e)
        if k >= skip:
            atoms[(step * k - end,)] = quotient(e * den, power)
        power *= a0
    return atoms


def series_inverse(kernel: AtomicMeasure, side: Side, terms: int) -> TruncatedSeries:
    """First ``terms`` atoms of the right or left formal inverse of a nonzero 1D kernel."""
    if terms < 1:
        raise ParameterOutOfRange("a truncated series needs at least one term")
    atoms = _end_series(kernel, side, terms)
    return _finish(kernel._with_atoms(atoms), kernel, WindowSpec((min(atoms)[0], max(atoms)[0])))


def symmetric_inverse(kernel: AtomicMeasure, halfwidth: int) -> TruncatedSeries:
    """Mean of the right and left series of a nonzero 1D kernel, on [-halfwidth, halfwidth]."""
    if halfwidth < 1:
        raise ParameterOutOfRange("halfwidth must be >= 1")
    lo, hi = _ends(kernel)
    # each series is kept from where it enters [-halfwidth, halfwidth]; a one-atom
    # kernel's two series are the same atom, which is then their mean
    if lo == hi:
        atoms = _end_series(kernel, Side.RIGHT, halfwidth + lo + 1, 1, lo - halfwidth)
    else:
        atoms = _end_series(kernel, Side.RIGHT, halfwidth + lo + 1, 2, lo - halfwidth)
        atoms.update(_end_series(kernel, Side.LEFT, halfwidth - hi + 1, 2, -halfwidth - hi))
    return _finish(kernel._with_atoms(atoms), kernel, WindowSpec((-halfwidth, halfwidth)))


def unit_pair_inverse(kernel: AtomicMeasure, side: Side, terms: int) -> TruncatedSeries:
    """First ``terms`` atoms of the one-sided inverse series of a unit pair kernel."""
    if kernel.dimension == 1 and recognize_kernel(kernel)[:2] != ("pair", 1):
        raise UnsupportedKernel("expected delta_0 + delta_1 or delta_{-1} + delta_0, "
                                f"got atoms {sorted(kernel.atoms.items())}")
    return series_inverse(kernel, side, terms)


def cauchy_product(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Product of two truncated series, targeting the product kernel.

    The interior coefficients (those unaffected by either truncation
    edge) agree with the Cauchy product of the untruncated series.
    """
    measure = a.measure.convolve(b.measure)
    kernel = a.kernel.convolve(b.kernel)
    bounds = tuple(
        (ba[0] + bb[0], ba[1] + bb[1])
        for ba, bb in zip(a.window.bounds, b.window.bounds))
    return _finish(measure, kernel, WindowSpec(bounds))


def binomial_inverse(halfwidth: int, *, mode: str = EXACT) -> TruncatedSeries:
    """Truncated two-sided inverse of the binomial kernel.

    Carries weight ``2|n| (-1)^(|n|+1)`` at every nonzero n in
    [-halfwidth, halfwidth]; the weight at the origin is zero.  The
    largest coefficient magnitude is therefore exactly ``2 * halfwidth``.
    """
    return symmetric_inverse(binomial_kernel(mode=mode), halfwidth)


def half_pair_inverse(halfwidth: int, *, mode: str = EXACT) -> TruncatedSeries:
    """Truncated two-sided inverse of (delta_0 + delta_1) / 2.

    Weights are ``(-1)^n`` for n >= 0 and ``(-1)^(n+1)`` for n < 0: the
    coefficients never decay, but unlike the binomial case they do not
    grow either, so a single-sample perturbation of size eps moves the
    reconstruction by at most eps.
    """
    return symmetric_inverse(half_pair_kernel(mode=mode), halfwidth)


# --- reconstruction and its failure modes ---------------------------------


@dataclass(frozen=True)
class MarginReport:
    """Bookkeeping for one windowed reconstruction.

    ``boundary_distance`` is the exact distance from the origin to the
    nearest residual atom of the series; reconstruction is exact on
    [-s, s] precisely when that distance exceeds 2s.  The sufficient
    rule of thumb ``halfwidth > 2s + 2`` is reported alongside.
    """

    support_radius: int
    halfwidth: int
    boundary_distance: int | None
    sufficient_halfwidth: int
    contamination: tuple[tuple[Point, object], ...]
    max_contamination: object


def _require_margin(inverse: TruncatedSeries, radius: int) -> int | None:
    """The series' boundary distance, refused unless it exceeds 2 * radius."""
    dist = inverse.boundary_distance()
    if dist is not None and dist <= 2 * radius:
        raise InsufficientTruncation(
            f"series halfwidth {inverse.halfwidth} cannot separate boundary junk "
            f"from support radius {radius}: required N > {2 * radius + 2}",
            required_halfwidth=2 * radius + 3,
            support_radius=radius)
    return dist


def _margin_of(f: GridSignal, kernel: AtomicMeasure,
               inverse: TruncatedSeries) -> tuple[int, int | None]:
    """Support radius of f and boundary distance of a series fit to unblur it."""
    if f.dimension != 1:
        raise DimensionMismatch("series reconstruction works on 1D lattice signals")
    if kernel != inverse.kernel:
        raise UnsupportedKernel("this inverse was built for a different kernel")
    s = f.support_radius()
    return s, _require_margin(inverse, s)


def reconstruct(f: GridSignal, kernel: AtomicMeasure,
                inverse: TruncatedSeries) -> tuple[GridSignal, MarginReport]:
    """Blur ``f`` with ``kernel`` and unblur with a truncated series inverse.

    Returns the reconstruction restricted to the support window
    ``[-s, s]`` of ``f`` plus a margin report locating whatever boundary
    contamination landed outside that window.  In exact mode the
    restricted part reproduces ``f`` atom for atom whenever the margin
    precondition holds.
    """
    s, dist = _margin_of(f, kernel, inverse)
    blurred = apply_to_signal(f, kernel)
    full = apply_to_signal(blurred, inverse.measure)
    restricted = full.restrict((-s, s))
    spill = (full - f).lattice_dict()
    contamination = tuple(sorted(spill.items()))
    max_cont = max((abs(v) for v in spill.values()), default=f._zero())
    report = MarginReport(
        support_radius=s,
        halfwidth=inverse.halfwidth,
        boundary_distance=dist,
        sufficient_halfwidth=2 * s + 3,
        contamination=contamination,
        max_contamination=max_cont,
    )
    return restricted, report


@dataclass(frozen=True)
class PerturbationReport:
    """Effect of one noisy sample on a series reconstruction."""

    eps: object
    site: Point
    support_radius: int
    halfwidth: int
    margin: int | None
    max_deviation: object
    predicted_deviation: object


def perturbation_response(f: GridSignal, kernel: AtomicMeasure,
                          inverse: TruncatedSeries, eps,
                          site: int = 0) -> PerturbationReport:
    """Perturb one blurred sample by eps and measure the reconstruction shift.

    The deviation pattern is eps times the series coefficients
    translated to the perturbation site, so the worst-case deviation is
    ``|eps| * max |coefficient|``: ``2 N eps`` for the binomial inverse
    and plain ``eps`` for the half-pair inverse.  Reported next to the
    measured maximum for comparison.
    """
    s, dist = _margin_of(f, kernel, inverse)
    eps_w = coerce_weight(eps, kernel.mode)
    blurred = apply_to_signal(f, kernel)
    noisy = blurred.with_impulse(site, eps_w)
    clean_rec = apply_to_signal(blurred, inverse.measure)
    noisy_rec = apply_to_signal(noisy, inverse.measure)
    deviation = (noisy_rec - clean_rec).max_abs_exact()
    predicted = abs(eps_w) * inverse.measure.max_abs_weight()
    return PerturbationReport(
        eps=eps_w,
        site=(site,) if isinstance(site, int) else tuple(site),
        support_radius=s,
        halfwidth=inverse.halfwidth,
        margin=None if dist is None else dist - 2 * s,
        max_deviation=deviation,
        predicted_deviation=predicted,
    )


def growth_table(halfwidths, *, mode: str = EXACT) -> list[tuple[int, int]]:
    """Measured max |coefficient| of the binomial inverse per halfwidth."""
    rows = []
    for n in halfwidths:
        series = binomial_inverse(n, mode=mode)
        rows.append((n, int(series.measure.max_abs_weight())))
    return rows
