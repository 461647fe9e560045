"""Atom-by-atom convolution and series, kept as the oracle for the array code.

``convolve`` and ``apply_to_signal`` are the dict loops
``AtomicMeasure.convolve`` and ``apply_to_signal`` ran before they moved
onto one array core: every product is added to a ``Fraction`` or float
accumulator as it is formed, exact sums pay a gcd on each addition, and a
float sum adds its products in the order the loops meet them.
``neumann_inverse`` and ``power`` are the loops of measures that the
exact series ran before they moved onto one integer-numerator array,
``horner`` is the loop on that array that wide series ran before every
series was packed into one int, and ``reconstruct`` is the blur, unblur
and spill that ran on signals of ``Fraction``s before they moved onto one.
The tests compare the library with these results atom for atom in exact
mode and bit for bit in float mode, atom order included where floats are
summed.
"""
from __future__ import annotations

from fractions import Fraction

import numpy as np

from deconv import EXACT, AtomicMeasure, GridSignal, NeumannReport, NormNotLessThanOne
from deconv import apply_to_signal as library_apply
from deconv.grids import _zero_array
from deconv.measures import _Dense
from deconv.neumann import _pick_order
from deconv.onesided import MarginReport, _margin_of


def convolve(a: AtomicMeasure, b: AtomicMeasure) -> AtomicMeasure:
    """Convolution product: atom locations add, weights multiply."""
    a._check_compatible(b)
    out = {}
    zero = Fraction(0) if a.mode == EXACT else 0.0
    for p, wp in a.atoms.items():
        for q, wq in b.atoms.items():
            s = tuple(x + y for x, y in zip(p, q))
            out[s] = out.get(s, zero) + wp * wq
    return AtomicMeasure(a.dimension, out, a.mode)


def apply_to_signal(f: GridSignal, m: AtomicMeasure) -> GridSignal:
    """g(p) = sum_q m(q) f(p - q), one shifted copy of f per atom, atoms sorted."""
    if m.is_zero:
        return GridSignal(_zero_array(f.shape, f.mode), f.spacing, f.origin)
    f_lo = f.lattice_origin()
    d = f.dimension
    lo_m = tuple(min(q[ax] for q in m.atoms) for ax in range(d))
    hi_m = tuple(max(q[ax] for q in m.atoms) for ax in range(d))
    shape = tuple(f.shape[ax] + hi_m[ax] - lo_m[ax] for ax in range(d))
    out = _zero_array(shape, f.mode)
    for q, w in sorted(m.atoms.items()):
        sl = tuple(
            slice(q[ax] - lo_m[ax], q[ax] - lo_m[ax] + f.shape[ax]) for ax in range(d))
        with np.errstate(over="ignore", invalid="ignore"):  # GridSignal refuses inf and NaN
            out[sl] = out[sl] + f.values * w
    origin = tuple(float(f_lo[ax] + lo_m[ax]) for ax in range(d))
    return GridSignal(out, f.spacing, origin)


def power(m: AtomicMeasure, n: int) -> AtomicMeasure:
    """n-fold convolution power, one product with m at a time."""
    result = AtomicMeasure.unit(m.dimension, m.mode)
    for _ in range(n):
        result = result.convolve(m)
    return result


def horner(x: _Dense, coeffs) -> _Dense:
    """``sum_k coeffs[k] x^{*k}`` by Horner's rule on the array: one shifted sum
    per degree and, for a nonzero coefficient, one integer add at the origin."""
    value = _Dense((0,) * len(x.lo), np.full((1,) * len(x.lo), coeffs[-1], dtype=object), 1)
    for c in reversed(coeffs[:-1]):
        value = value.convolve(x)
        if c:
            value = value.add_unit(c)
    return value


def neumann_inverse(mu: AtomicMeasure, config) -> tuple[AtomicMeasure, NeumannReport]:
    """nu_n = sum (-1)^k mu^{*k}, one measure sum per term, and its convolution residual."""
    norm = mu.total_variation()
    if not norm < 1:
        raise NormNotLessThanOne(norm)
    n = _pick_order(norm, config)
    unit = AtomicMeasure.unit(mu.dimension, mu.mode)
    nu = unit
    term = unit
    for k in range(1, n + 1):
        term = term.convolve(mu)
        nu = nu + (term if k % 2 == 0 else -term)
    residual = (unit + mu).convolve(nu) - unit
    return nu, NeumannReport(
        order=n,
        mu_norm=norm,
        bound=norm ** (n + 1),
        residual=residual,
        residual_norm=residual.total_variation(),
    )


def reconstruct(f: GridSignal, kernel: AtomicMeasure, inverse):
    """Blur f, unblur it with the series, and read the spill off ``full - f``,
    each step a signal of ``Fraction``s (or floats) made by ``apply_to_signal``."""
    s, dist = _margin_of(f, kernel, inverse)
    blurred = library_apply(f, kernel)
    full = library_apply(blurred, inverse.measure)
    restricted = full.restrict((-s, s))
    spill = (full - f).lattice_dict()
    contamination = tuple(sorted(spill.items()))
    zero = Fraction(0) if f.mode == EXACT else 0.0
    max_cont = max((abs(v) for v in spill.values()), default=zero)
    report = MarginReport(
        support_radius=s,
        halfwidth=inverse.halfwidth,
        boundary_distance=dist,
        sufficient_halfwidth=2 * s + 3,
        contamination=contamination,
        max_contamination=max_cont,
    )
    return restricted, report
