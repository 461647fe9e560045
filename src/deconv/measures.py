"""Finite signed atomic measures on the integer lattice.

The objects here are finite weighted sums of Dirac atoms sitting on Z^d
for d in {1, 2}:

* convolution multiplies weights and adds atom locations, with delta_0 as
  the unit;
* the total variation norm is the sum of absolute weights and is
  submultiplicative under convolution;
* every measure carries an arithmetic mode, either exact rationals
  (``fractions.Fraction``) or float64, and modes never mix silently;
* atoms with weight exactly zero are pruned on construction and after
  every operation.

Because truncated series are only inverses up to boundary junk, the
"is an inverse" question is always asked on an explicit window: the
residual ``t * v - delta_0`` is split into its inside-window and
outside-window parts and both are reported.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .errors import DimensionMismatch, ModeMismatch
from .grids import EXACT, FLOAT, GridSignal, _window_bounds, _zero_array

Point = tuple[int, ...]
Weight = Union[Fraction, float]


def as_point(point, dimension: int | None = None) -> Point:
    """Normalize an int or coordinate iterable to a lattice point tuple."""
    if isinstance(point, numbers.Integral):
        pt = (int(point),)
    else:
        pt = tuple(int(c) for c in point)
    if not 1 <= len(pt) <= 2:
        raise DimensionMismatch(f"lattice points must be 1D or 2D, got {pt!r}")
    if dimension is not None and len(pt) != dimension:
        raise DimensionMismatch(f"point {pt} is not {dimension}D")
    return pt


def coerce_weight(value, mode: str) -> Weight:
    """Carry a raw weight into the requested arithmetic mode.

    Exact mode accepts ints, Fractions, decimal strings like ``"0.6"`` or
    ``"3/5"``, and floats (taken at their exact binary value).
    """
    if mode == EXACT:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, (int, str, float, numbers.Rational)):
            return Fraction(value)
        raise TypeError(f"cannot represent {type(value).__name__} exactly")
    if mode == FLOAT:
        return float(value)
    raise ValueError(f"unknown arithmetic mode {mode!r}")


class AtomicMeasure:
    """A finite signed measure with atoms on the integer lattice.

    Instances are immutable.  All binary operations require both operands
    to share a dimension and an arithmetic mode.
    """

    __slots__ = ("_dimension", "_mode", "_atoms")

    def __init__(self, dimension: int, atoms=None, mode: str = EXACT):
        if dimension not in (1, 2):
            raise DimensionMismatch(f"supported dimensions are 1 and 2, got {dimension}")
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        store: dict[Point, Weight] = {}
        if atoms:
            items = atoms.items() if isinstance(atoms, Mapping) else atoms
            for p, w in items:
                pt = as_point(p, dimension)
                wv = coerce_weight(w, mode)
                if pt in store:
                    store[pt] = store[pt] + wv
                else:
                    store[pt] = wv
            store = {p: w for p, w in store.items() if w != 0}
        self._dimension = dimension
        self._mode = mode
        self._atoms = store

    # --- queries ---------------------------------------------------------

    @property
    def dimension(self) -> int:
        return self._dimension

    @property
    def mode(self) -> str:
        return self._mode

    @property
    def atoms(self) -> Mapping[Point, Weight]:
        return MappingProxyType(self._atoms)

    @property
    def is_zero(self) -> bool:
        return not self._atoms

    def __len__(self) -> int:
        return len(self._atoms)

    def support(self) -> tuple[Point, ...]:
        return tuple(sorted(self._atoms))

    def weight(self, point) -> Weight:
        pt = as_point(point, self._dimension)
        return self._atoms.get(pt, self._zero())

    def _zero(self) -> Weight:
        return Fraction(0) if self._mode == EXACT else 0.0

    def total_variation(self) -> Weight:
        return sum((abs(w) for w in self._atoms.values()), self._zero())

    def max_abs_weight(self) -> Weight:
        return max((abs(w) for w in self._atoms.values()), default=self._zero())

    def bounding_box(self) -> tuple[tuple[int, int], ...] | None:
        if not self._atoms:
            return None
        return tuple(
            (min(p[ax] for p in self._atoms), max(p[ax] for p in self._atoms))
            for ax in range(self._dimension)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        return self._dimension == other._dimension and self._atoms == other._atoms

    __hash__ = None

    def __repr__(self) -> str:
        return (f"AtomicMeasure(d={self._dimension}, mode={self._mode!r}, "
                f"{len(self._atoms)} atoms, tv={self.total_variation()})")

    # --- algebra -----------------------------------------------------------

    def _check_compatible(self, other: "AtomicMeasure") -> None:
        if not isinstance(other, AtomicMeasure):
            raise TypeError(f"expected AtomicMeasure, got {type(other).__name__}")
        if self._dimension != other._dimension:
            raise DimensionMismatch(
                f"cannot combine {self._dimension}D and {other._dimension}D measures")
        if self._mode != other._mode:
            raise ModeMismatch(
                f"cannot combine {self._mode} and {other._mode} mode measures")

    def __add__(self, other):
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self._atoms)
        for p, w in other._atoms.items():
            merged[p] = merged.get(p, self._zero()) + w
        return AtomicMeasure(self._dimension, merged, self._mode)

    def __sub__(self, other):
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor) -> "AtomicMeasure":
        c = coerce_weight(factor, self._mode)
        return AtomicMeasure(
            self._dimension, {p: w * c for p, w in self._atoms.items()}, self._mode)

    def __mul__(self, factor):
        if isinstance(factor, AtomicMeasure):
            return NotImplemented
        return self.scale(factor)

    __rmul__ = __mul__

    def convolve(self, other: "AtomicMeasure") -> "AtomicMeasure":
        """Convolution product: atom locations add, weights multiply."""
        self._check_compatible(other)
        out: dict[Point, Weight] = {}
        zero = self._zero()
        for p, wp in self._atoms.items():
            for q, wq in other._atoms.items():
                s = tuple(a + b for a, b in zip(p, q))
                out[s] = out.get(s, zero) + wp * wq
        return AtomicMeasure(self._dimension, out, self._mode)

    def power(self, n: int) -> "AtomicMeasure":
        """n-fold convolution power; n = 0 gives the unit delta_0."""
        if n < 0:
            raise ValueError("convolution powers need n >= 0")
        result = AtomicMeasure.unit(self._dimension, self._mode)
        for _ in range(n):
            result = result.convolve(self)
        return result

    def _split(self, window) -> tuple["AtomicMeasure", "AtomicMeasure"]:
        """(atoms inside the window, atoms outside it), in one pass."""
        bounds = _window_bounds(window, self._dimension)
        parts = ({}, {})
        for p, w in self._atoms.items():
            inside = all(lo <= c <= hi for c, (lo, hi) in zip(p, bounds))
            parts[not inside][p] = w
        return tuple(AtomicMeasure(self._dimension, part, self._mode) for part in parts)

    def restrict(self, window) -> "AtomicMeasure":
        """Atoms inside the window, dropped outside."""
        return self._split(window)[0]

    def outside(self, window) -> "AtomicMeasure":
        return self._split(window)[1]

    @classmethod
    def unit(cls, dimension: int = 1, mode: str = EXACT) -> "AtomicMeasure":
        return cls(dimension, {(0,) * dimension: 1}, mode)


def dirac(point=0, weight=1, *, mode: str = EXACT) -> AtomicMeasure:
    """Single-atom measure; dimension is inferred from the point."""
    pt = as_point(point)
    return AtomicMeasure(len(pt), {pt: weight}, mode)


def from_atoms(atoms, *, mode: str = EXACT, dimension: int | None = None) -> AtomicMeasure:
    """Measure from a point -> weight mapping or iterable of pairs."""
    pairs = list(atoms.items() if isinstance(atoms, Mapping) else atoms)
    if dimension is None:
        if not pairs:
            raise ValueError("dimension is required for an empty measure")
        dimension = len(as_point(pairs[0][0]))
    return AtomicMeasure(dimension, pairs, mode)


# --- windows and inverse checks ------------------------------------------


@dataclass(frozen=True)
class WindowSpec:
    """Axis-aligned lattice window, closed bounds per axis."""

    bounds: tuple[tuple[int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "bounds", _window_bounds(self.bounds))

    @property
    def dimension(self) -> int:
        return len(self.bounds)

    def contains(self, point) -> bool:
        pt = as_point(point, self.dimension)
        return all(lo <= c <= hi for c, (lo, hi) in zip(pt, self.bounds))

    @classmethod
    def centered(cls, radius: int, dimension: int = 1) -> "WindowSpec":
        if radius < 0:
            raise ValueError("window radius must be >= 0")
        return cls(((-radius, radius),) * dimension)

    def __str__(self) -> str:
        return "x".join(f"[{lo},{hi}]" for lo, hi in self.bounds)


@dataclass(frozen=True)
class InversionReport:
    """Outcome of a windowed inverse check.

    ``residual`` is the full measure ``t * v - delta_0``; ``inside`` and
    ``outside`` split it across the window.  The check passes when every
    inside-window weight is within ``tol`` of zero.
    """

    ok: bool
    window: WindowSpec
    tol: Weight
    residual: AtomicMeasure
    inside: AtomicMeasure
    outside: AtomicMeasure
    max_inside: Weight

    def __bool__(self) -> bool:
        return self.ok


def _window_and_tol(t: AtomicMeasure, other: AtomicMeasure, window, tol):
    """The window on t's axes and the tolerance in t's mode (0 or 1e-9 by default)."""
    t._check_compatible(other)
    win = WindowSpec(_window_bounds(window, t.dimension))
    if tol is None:
        return win, Fraction(0) if t.mode == EXACT else 1e-9
    return win, coerce_weight(tol, t.mode)


def is_inverse(t: AtomicMeasure, v: AtomicMeasure, window, tol=None) -> InversionReport:
    """Check whether v inverts t on a window around the origin.

    A bare ``(lo, hi)`` window is that interval on every axis of t.
    """
    win, tol = _window_and_tol(t, v, window, tol)
    if not win.contains((0,) * t.dimension):
        raise ValueError("inverse checks need a window covering the origin")
    residual = t.convolve(v) - AtomicMeasure.unit(t.dimension, t.mode)
    inside, outside = residual._split(win)
    max_inside = inside.max_abs_weight()
    return InversionReport(
        ok=max_inside <= tol,
        window=win,
        tol=tol,
        residual=residual,
        inside=inside,
        outside=outside,
        max_inside=max_inside,
    )


def is_zero_divisor_pair(t: AtomicMeasure, d: AtomicMeasure, window, tol=None) -> bool:
    """True when t * d vanishes (within tol) on the window."""
    win, tol = _window_and_tol(t, d, window, tol)
    if d.is_zero:
        raise ValueError("zero-divisor checks need a nonzero second factor")
    product = t.convolve(d).restrict(win)
    return product.max_abs_weight() <= tol


# --- measures acting on signals -------------------------------------------


def apply_to_signal(f: GridSignal, m: AtomicMeasure) -> GridSignal:
    """Convolve a lattice signal with a measure: g(p) = sum_q m(q) f(p - q)."""
    if not isinstance(f, GridSignal):
        raise TypeError("apply_to_signal expects a GridSignal first argument")
    if not f.is_lattice:
        raise ValueError("measures act on unit-spacing integer-origin signals")
    if f.dimension != m.dimension:
        raise DimensionMismatch(
            f"cannot apply a {m.dimension}D measure to a {f.dimension}D signal")
    if f.mode != m.mode:
        raise ModeMismatch(f"signal mode {f.mode} does not match measure mode {m.mode}")
    if m.is_zero:
        return GridSignal(_zero_array(f.shape, f.mode), f.spacing, f.origin)
    box = m.bounding_box()
    lo_m = tuple(b[0] for b in box)
    hi_m = tuple(b[1] for b in box)
    f_lo = f.lattice_origin()
    d = f.dimension
    shape = tuple(f.shape[ax] + hi_m[ax] - lo_m[ax] for ax in range(d))
    out = _zero_array(shape, f.mode)
    for q, w in sorted(m.atoms.items()):
        sl = tuple(
            slice(q[ax] - lo_m[ax], q[ax] - lo_m[ax] + f.shape[ax]) for ax in range(d))
        out[sl] = out[sl] + f.values * w
    origin = tuple(float(f_lo[ax] + lo_m[ax]) for ax in range(d))
    return GridSignal(out, f.spacing, origin)
