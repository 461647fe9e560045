"""Atom-by-atom convolution, kept as the oracle for the array core.

These are the dict loops ``AtomicMeasure.convolve`` and ``apply_to_signal``
ran before they moved onto one array core: every product is added to a
``Fraction`` or float accumulator as it is formed, exact sums pay a gcd on
each addition, and a float sum adds its products in the order the loops
meet them.  The tests compare the core with these results atom for atom in
exact mode and bit for bit in float mode, atom order included.
"""
from __future__ import annotations

from fractions import Fraction

from deconv import EXACT, AtomicMeasure, GridSignal
from deconv.grids import _zero_array


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
        out[sl] = out[sl] + f.values * w
    origin = tuple(float(f_lo[ax] + lo_m[ax]) for ax in range(d))
    return GridSignal(out, f.spacing, origin)
