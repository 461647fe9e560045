"""Alternating-series inversion of near-identity kernels.

For a measure ``mu`` with total variation strictly below one, the kernel
``delta_0 + mu`` has the summable inverse

    nu = delta_0 + sum_{k >= 1} (-1)^k mu^{*k}.

Truncating after order n leaves the exactly computable residual

    (delta_0 + mu) * nu_n = delta_0 + (-1)^n mu^{*(n+1)},

whose total variation is bounded by ``tv(mu)^(n+1)``.  The functions here
materialize the truncation, report that residual honestly (by carrying out
the convolution, not by quoting the formula), and wrap the classic
fixed-point iteration that computes ``nu_n * g`` one kernel application at
a time.

An exact ``nu_n`` is the polynomial ``sum_k (-1)^k x^{*k}`` in x = mu on
the kernel's box (the kernel's array less delta_0), by Horner's rule on
integer numerators; it, the residual and the kernel's ``1/c`` become
``Fraction``s once, at the end.  Float series, and exact ones whose atoms
lie too far apart for an array over their box, take one ``convolve`` and
one measure sum per term.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .errors import NormNotLessThanOne, OrderCapExceeded, ParameterOutOfRange, UnsupportedKernel
from .grids import EXACT, GridSignal
from .measures import (
    AtomicMeasure,
    _Dense,
    _dense_powers,
    _horner,
    _residual,
    apply_to_signal,
    coerce_weight,
    dirac,
    from_atoms,
)


@dataclass(frozen=True)
class NeumannConfig:
    """Stopping rule for the alternating series.

    Exactly one of ``order`` (fixed truncation order) and
    ``residual_target`` (a priori bound: stop at the first n with
    ``tv(mu)^(n+1) <= residual_target``) must be set.  ``max_order``
    guards runaway loops in both modes.
    """

    order: int | None = None
    residual_target: Fraction | float | None = None
    max_order: int = 256

    def __post_init__(self):
        if (self.order is None) == (self.residual_target is None):
            raise ValueError("set exactly one of order and residual_target")
        if self.order is not None:
            if self.order < 0:
                raise ValueError("order must be >= 0")
            if self.order > self.max_order:
                raise ValueError(
                    f"order {self.order} exceeds max_order {self.max_order}")
        if self.residual_target is not None and not self.residual_target > 0:
            raise ValueError("residual_target must be positive")
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")


@dataclass(frozen=True)
class NeumannReport:
    """What a truncated series run actually did.

    ``residual`` is ``(delta_0 + mu) * nu_n - delta_0`` computed by
    convolution; ``bound`` is the a priori estimate ``tv(mu)^(n+1)``.
    """

    order: int
    mu_norm: Fraction | float
    bound: Fraction | float
    residual: AtomicMeasure
    residual_norm: Fraction | float


def _pick_order(norm, config: NeumannConfig) -> int:
    if config.order is not None:
        return config.order
    target = config.residual_target
    n = 0
    bound = norm
    while bound > target:
        n += 1
        if n > config.max_order:
            raise OrderCapExceeded(config.max_order, bound)
        bound = bound * norm
    return n


def neumann_inverse(mu: AtomicMeasure, config: NeumannConfig) -> tuple[AtomicMeasure, NeumannReport]:
    """Truncated alternating inverse of ``delta_0 + mu``.

    Returns the truncation ``nu_n`` and a report with the convolution
    residual and its a priori bound.  Raises ``NormNotLessThanOne`` when
    ``tv(mu) >= 1``.
    """
    return _inverse(mu, config)


def _inverse(mu: AtomicMeasure, config: NeumannConfig,
             scale=1) -> tuple[AtomicMeasure, NeumannReport]:
    """:func:`neumann_inverse`, with ``nu_n`` returned times ``scale``."""
    norm = mu.total_variation()
    if not norm < 1:
        raise NormNotLessThanOne(norm)
    n = _pick_order(norm, config)
    unit = AtomicMeasure.unit(mu.dimension, mu.mode)
    kernel = unit + mu
    if not mu.is_zero and _dense_powers(kernel):
        nu, residual = _dense_series(mu, kernel, n, scale)
    else:
        nu = term = unit
        for k in range(1, n + 1):
            term = term.convolve(mu)
            nu = nu + (term if k % 2 == 0 else -term)
        residual = _residual(kernel, nu)
        if scale != 1:
            nu = nu.scale(scale)
    return nu, NeumannReport(
        order=n,
        mu_norm=norm,
        bound=norm ** (n + 1),
        residual=residual,
        residual_norm=residual.total_variation(),
    )


def _dense_series(mu: AtomicMeasure, kernel: AtomicMeasure, n: int,
                  scale) -> tuple[AtomicMeasure, AtomicMeasure]:
    """``scale * nu_n`` and the residual ``kernel * nu_n - delta_0``, each on one array.

    ``nu_n`` is the polynomial ``sum_k (-1)^k x^{*k}`` in x = mu on the
    kernel's box (which holds the origin even when mu's atoms do not), by
    :func:`measures._horner`; the residual is ``nu_n`` convolved with the
    kernel, less delta_0.  Only the two results become ``Fraction``s.
    """
    kern = _Dense.of(kernel)
    nu = _horner(_Dense.of(kernel).add_unit(-1), [(-1) ** k for k in range(n + 1)])
    return nu.measure(mu, scale), nu.convolve(kern).add_unit(-1).measure(mu)


def factor_at_origin(kernel: AtomicMeasure) -> tuple[Fraction | float, AtomicMeasure]:
    """The factoring ``kernel = c (delta_0 + mu)``: the origin weight c, and mu."""
    origin = (0,) * kernel.dimension
    center = kernel.atoms.get(origin)
    if center is None:
        raise UnsupportedKernel("series inversion needs a kernel with weight at the origin")
    return center, (kernel - dirac(origin, center, mode=kernel.mode)).scale(1 / center)


def neumann(kernel: AtomicMeasure, config: NeumannConfig) -> tuple[AtomicMeasure, NeumannReport]:
    """Inverse of a kernel ``c (delta_0 + mu)``: :func:`neumann_inverse` of mu, over c."""
    center, mu = factor_at_origin(kernel)
    return _inverse(mu, config, 1 / center)


def three_point_kernel(a, *, mode: str = EXACT) -> AtomicMeasure:
    """The symmetric kernel (1-a)/2 delta_{-1} + a delta_0 + (1-a)/2 delta_1."""
    av = coerce_weight(a, mode)
    if not 0 < av <= 1:
        raise ParameterOutOfRange(f"three-point weight a must be in (0, 1], got {av}")
    side = (1 - av) / 2
    return from_atoms({-1: side, 0: av, 1: side}, mode=mode)


def invert_three_point(a, config: NeumannConfig, *, mode: str = EXACT) -> tuple[AtomicMeasure, NeumannReport]:
    """Series inverse of the three-point kernel for a in (1/2, 1).

    The kernel factors as ``a * (delta_0 + mu)`` (see :func:`factor_at_origin`) with
    ``mu = (1-a)/(2a) (delta_{-1} + delta_1)``, so ``tv(mu) = (1-a)/a < 1``
    exactly when a > 1/2.  At a = 1/2 the norm hits one and no summable
    two-sided inverse exists; the one-sided series in the ``onesided``
    module cover that edge.
    """
    av = coerce_weight(a, mode)
    if not (av > Fraction(1, 2) if mode == EXACT else av > 0.5) or not av < 1:
        raise ParameterOutOfRange(
            f"a={a!r} is outside (1/2, 1); at a=1/2 use the one-sided series instead")
    return neumann(three_point_kernel(av, mode=mode), config)


def van_cittert_deblur(g: GridSignal, mu: AtomicMeasure, iterations: int) -> list[GridSignal]:
    """Fixed-point deblurring iterates for the model g = f * (delta_0 + mu).

    Returns ``[f_0, ..., f_n]`` with ``f_0 = g`` and
    ``f_{k+1} = g - mu * f_k``; in exact arithmetic ``f_n`` equals
    ``nu_n * g`` for the truncated series ``nu_n``.  Convergence needs
    ``tv(mu) < 1``; larger norms only draw a warning since the iterates
    are still well defined.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    if not mu.total_variation() < 1:
        warnings.warn(
            "tv(mu) >= 1: the iteration is not guaranteed to converge",
            RuntimeWarning, stacklevel=2)
    iterates = [g]
    current = g
    for _ in range(iterations):
        current = g - apply_to_signal(current, mu)
        iterates.append(current)
    return iterates
