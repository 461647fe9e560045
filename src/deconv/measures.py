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
  every operation;
* convolution, of two measures or of a measure and a signal, runs on
  arrays: exact weights enter as Python-int numerators over one common
  denominator, and the products of each result are summed in the order
  the atom-by-atom definition gives, so float results keep their bytes;
* measures, signals and exact series are one array type, ``_Dense``; a
  convolution power and a Neumann series are polynomials in one such
  array, evaluated by one Horner loop, ``_horner``;
* measure * measure keeps ``_convolve_core``, whose float sums, atom order
  and sparse slots the oracles pin; the benchmark's exact Neumann steps
  ran 2.6 to 2.9 times slower through it (its 2D power steps about even).

Because truncated series are only inverses up to boundary junk, the
"is an inverse" question is always asked on an explicit window: the
residual ``t * v - delta_0`` is split into its inside-window and
outside-window parts and both are reported.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

import numpy as np

from .errors import DimensionMismatch, ModeMismatch, NonFiniteResult
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


def _pruned(store: dict, mode: str) -> dict:
    """The atoms of nonzero weight; in float mode every weight must be finite."""
    store = {p: w for p, w in store.items() if w != 0}
    if mode == FLOAT and not np.isfinite(np.fromiter(store.values(), float, len(store))).all():
        p = next(p for p, w in store.items() if not math.isfinite(w))
        raise NonFiniteResult(f"float weight {store[p]!r} at {p} is past float64's range")
    return store


# --- the convolution core ------------------------------------------------

_PASS_PRODUCTS = 1 << 16  # products formed per pass; bounds the core's scratch memory
_SPARSE_CELLS = 8         # a result box with more cells than this per product is
                          # indexed by the cells the products hit, not by all of them


def _box(points) -> tuple[Point, Point]:
    """Lower and upper corner of a nonempty point set."""
    axes = tuple(zip(*points))
    return tuple(map(min, axes)), tuple(map(max, axes))


def _strides(shape) -> tuple[int, ...]:
    """Row-major strides of a 1D or 2D box."""
    return (shape[1], 1) if len(shape) == 2 else (1,)


def _key_dtype(*numbers_seen) -> type:
    """int64 for cell numbers while every coordinate and count fits well inside it."""
    return np.int64 if max(map(abs, numbers_seen)) < 1 << 62 else object


def _cell_keys(points, lo, strides, dtype) -> np.ndarray:
    """Row-major cell numbers of lattice points in a box with lower corner lo."""
    coords = np.array(points, dtype=dtype).reshape(len(points), len(lo))
    return (coords - np.array(lo, dtype=dtype)) @ np.array(strides, dtype=dtype)


def _cell_points(cells: np.ndarray, lo, strides) -> list[Point]:
    """Lattice points of row-major cell numbers: the inverse of :func:`_cell_keys`."""
    axes = []
    for low, stride in zip(lo, strides):
        axes.append([index + low for index in (cells // stride).tolist()])
        cells = cells % stride
    return list(zip(*axes))


def _common_scale(weights, mode: str) -> tuple[np.ndarray, int]:
    """Weights as one array over one denominator.

    Float weights stay float64 over 1.  Exact ones become Python-int
    numerators over the lcm of their denominators, the layout FLINT's
    ``fmpq_poly`` uses, so the core multiplies and adds integers and pays
    for gcds only once per result atom or cell.
    """
    if mode == FLOAT:
        return np.asarray(weights, dtype=np.float64), 1
    den = math.lcm(*(w.denominator for w in weights))
    return np.array([w.numerator * (den // w.denominator) for w in weights], dtype=object), den


def _dense_box(cells: int, products: int) -> bool:
    """Whether a product box gets an array over all its cells.

    Past ``_SPARSE_CELLS`` cells per product most of such an array would
    stay zero, so the box is indexed by the cells the products hit instead.
    """
    return cells <= _SPARSE_CELLS * products


def _convolve_core(ka, va, kb, vb, cells: int):
    """Sum ``va[i] * vb[j]`` into cell ``ka[i] + kb[j]`` of a box of ``cells`` cells.

    The products are added one at a time in (i, j) order onto zeros
    (``np.add.at`` is unbuffered and keeps that order), so every float sum
    is the one an atom-by-atom loop over i, then j, makes.  Returns
    ``(keys, sums, first)`` over the result's slots: slot k is cell
    ``keys[k]``, and ``first[k]`` is the (i, j)-order index of the first
    product that lands in it.  A box with few cells per product gets a slot
    per cell (``keys`` is every cell); a sparser one gets a slot only for
    each cell the products hit, so widely spaced atoms cost what their
    count says.
    """
    step = max(1, _PASS_PRODUCTS // len(kb))
    passes = [slice(i, i + step) for i in range(0, len(ka), step)]
    keys = None
    if not _dense_box(cells, len(ka) * len(kb)):
        keys = np.unique(np.concatenate([np.unique(np.add.outer(ka[p], kb)) for p in passes]))
    size = cells if keys is None else len(keys)
    sums = np.zeros(size, dtype=va.dtype)
    first = np.full(size, len(ka) * len(kb))
    for p in passes:
        cell = np.add.outer(ka[p], kb).ravel()
        slot = cell.astype(np.intp) if keys is None else np.searchsorted(keys, cell)
        with np.errstate(over="ignore", invalid="ignore"):  # overflow gives inf, as in Python
            np.add.at(sums, slot, np.multiply.outer(va[p], vb).ravel())
        start = p.start * len(kb)
        np.minimum.at(first, slot, np.arange(start, start + slot.size))
    return np.arange(cells) if keys is None else keys, sums, first


def _shifted_sum(values: np.ndarray, taps: np.ndarray) -> np.ndarray:
    """The product of two arrays: one shifted copy of ``values`` per nonzero cell
    of ``taps``, taken in row-major (sorted atom) order, so a float cell adds
    its products in that order."""
    out = np.zeros(tuple(a + b - 1 for a, b in zip(values.shape, taps.shape)), values.dtype)
    cells = np.nonzero(taps)
    for q, w in zip(zip(*(c.tolist() for c in cells)), taps[cells].tolist()):
        out[tuple(slice(c, c + n) for c, n in zip(q, values.shape))] += values * w
    return out


class _Dense:
    """A measure, signal or series as one array over its box.

    The value at ``lo + i`` is ``nums[i] / den``, FLINT's ``fmpq_poly``
    layout on a box: Python-int numerators for exact values, float64 over 1
    for float ones.  Exact ``Fraction``s are formed once, by :meth:`measure`
    or :meth:`signal`.
    """

    __slots__ = ("lo", "nums", "den")

    def __init__(self, lo: Point, nums: np.ndarray, den: int):
        self.lo, self.nums, self.den = lo, nums, den

    @classmethod
    def of(cls, value: Union["AtomicMeasure", GridSignal]) -> "_Dense":
        """A nonzero measure on the box of its atoms, or a lattice signal on its grid."""
        if isinstance(value, GridSignal):
            nums, den = _common_scale(value.values.ravel(), value.mode)
            return cls(value.lattice_origin(), nums.reshape(value.shape), den)
        points, weights = zip(*value.atoms.items())
        lo, hi = _box(points)
        nums, den = _common_scale(weights, value.mode)
        box = np.zeros(tuple(h - l + 1 for l, h in zip(lo, hi)), nums.dtype)
        box[tuple(zip(*([c - low for c, low in zip(p, lo)] for p in points)))] = nums
        return cls(lo, box, den)

    def convolve(self, other: "_Dense") -> "_Dense":
        return _Dense(tuple(a + b for a, b in zip(self.lo, other.lo)),
                      _shifted_sum(self.nums, other.nums), self.den * other.den)

    def add_unit(self, c: int) -> "_Dense":
        """``c delta_0`` added in place, as one integer add; the box must hold the origin."""
        self.nums[tuple(-low for low in self.lo)] += c * self.den
        return self

    def measure(self, like: "AtomicMeasure", scale=1) -> "AtomicMeasure":
        """``scale`` times this exact value, as a measure of ``like``'s dimension."""
        num, den = scale.as_integer_ratio()
        den *= self.den
        cells = np.flatnonzero(self.nums)
        points = _cell_points(cells, self.lo, _strides(self.nums.shape))
        nums = self.nums.ravel()[cells].tolist()
        return like._with_atoms({p: Fraction(n * num, den) for p, n in zip(points, nums)})

    def signal(self, like: GridSignal) -> GridSignal:
        """This value as a signal on the grid from ``lo`` with ``like``'s spacing and mode."""
        out = self.nums
        if like.mode == EXACT:
            out = np.array([Fraction(n, self.den) for n in out.ravel().tolist()],
                           dtype=object).reshape(out.shape)
        return GridSignal._own(out, like.spacing, tuple(map(float, self.lo)))


def _horner(x: _Dense, coeffs) -> _Dense:
    """``sum_k coeffs[k] x^{*k}`` for exact x, by Horner's rule (Knuth, TAOCP 4.6.4).

    Each degree is one convolution with x and, for a nonzero coefficient,
    one integer add at the origin, which x's box must then hold.
    """
    value = _Dense((0,) * len(x.lo), np.full((1,) * len(x.lo), coeffs[-1], dtype=object), 1)
    for c in reversed(coeffs[:-1]):
        value = value.convolve(x)
        if c:
            value.add_unit(c)
    return value


def _dense_powers(m: "AtomicMeasure") -> bool:
    """Whether the powers of m are built on :class:`_Dense` arrays.

    They are when m is exact and nonzero and the box of ``m * m`` is one
    :func:`_convolve_core` would give an array, so atoms far apart keep
    going through :meth:`AtomicMeasure.convolve`.  Float powers always do:
    shifted copies add a cell's products in m's atom order, where
    ``convolve`` adds them in the order of the running power's atoms, and
    from three products per cell the last bits differ.
    """
    if m.mode != EXACT or m.is_zero:
        return False
    lo, hi = _box(m.atoms)
    return _dense_box(math.prod(2 * (h - l) + 1 for l, h in zip(lo, hi)), len(m) ** 2)


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
            store = _pruned(store, mode)
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
        """Sum of |weight|; a float sum past float64 raises ``NonFiniteResult``."""
        tv = self._abs_sum()
        if self._mode == FLOAT and tv == math.inf:
            raise NonFiniteResult(f"float total variation of {len(self)} atoms is past float64")
        return tv

    def _abs_sum(self) -> Weight:
        return sum((abs(w) for w in self._atoms.values()), self._zero())

    def max_abs_weight(self) -> Weight:
        return max((abs(w) for w in self._atoms.values()), default=self._zero())

    def bounding_box(self) -> tuple[tuple[int, int], ...] | None:
        if not self._atoms:
            return None
        return tuple(zip(*_box(self._atoms)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        return self._dimension == other._dimension and self._atoms == other._atoms

    __hash__ = None

    def __repr__(self) -> str:
        return (f"AtomicMeasure(d={self._dimension}, mode={self._mode!r}, "
                f"{len(self._atoms)} atoms, tv={self._abs_sum()})")

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

    def _with_atoms(self, store: dict) -> "AtomicMeasure":
        """A measure of this dimension and mode on atoms already in its form.

        The results of the algebra below have valid points and weights by
        construction, so they skip the public constructor's per-atom checks;
        only the zero weights are pruned, and float ones checked finite, here.
        """
        out = AtomicMeasure.__new__(AtomicMeasure)
        out._dimension = self._dimension
        out._mode = self._mode
        out._atoms = _pruned(store, self._mode)
        return out

    def __add__(self, other):
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        self._check_compatible(other)
        merged = dict(self._atoms)
        zero = self._zero()
        for p, w in other._atoms.items():
            merged[p] = merged.get(p, zero) + w
        return self._with_atoms(merged)

    def __sub__(self, other):
        if not isinstance(other, AtomicMeasure):
            return NotImplemented
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def scale(self, factor) -> "AtomicMeasure":
        c = coerce_weight(factor, self._mode)
        return self._with_atoms({p: w * c for p, w in self._atoms.items()})

    def __mul__(self, factor):
        if isinstance(factor, AtomicMeasure):
            return NotImplemented
        return self.scale(factor)

    __rmul__ = __mul__

    def convolve(self, other: "AtomicMeasure") -> "AtomicMeasure":
        """Convolution product: atom locations add, weights multiply.

        The result lists its atoms in the order products first reach them,
        taking this measure's atoms in their order and, within each, the
        other's; float sums add their products in the same order.
        """
        self._check_compatible(other)
        if not self._atoms or not other._atoms:
            return self._with_atoms({})
        pa, wa = zip(*self._atoms.items())
        pb, wb = zip(*other._atoms.items())
        (lo_a, hi_a), (lo_b, hi_b) = _box(pa), _box(pb)
        lo = tuple(a + b for a, b in zip(lo_a, lo_b))
        shape = tuple(ha - la + hb - lb + 1 for la, ha, lb, hb in zip(lo_a, hi_a, lo_b, hi_b))
        strides = _strides(shape)
        cells = math.prod(shape)
        dtype = _key_dtype(cells, *lo_a, *hi_a, *lo_b, *hi_b)
        va, da = _common_scale(wa, self._mode)
        vb, db = _common_scale(wb, self._mode)
        keys, sums, first = _convolve_core(
            _cell_keys(pa, lo_a, strides, dtype), va, _cell_keys(pb, lo_b, strides, dtype), vb,
            cells)
        hit = np.flatnonzero(sums)
        hit = hit[np.argsort(first[hit])]
        points = _cell_points(keys[hit], lo, strides)
        weights = sums[hit].tolist()
        if self._mode == EXACT:
            den = da * db
            weights = [Fraction(n, den) for n in weights]
        return self._with_atoms(dict(zip(points, weights)))

    def power(self, n: int) -> "AtomicMeasure":
        """n-fold convolution power; n = 0 gives the unit delta_0."""
        if n < 0:
            raise ValueError("convolution powers need n >= 0")
        if n and _dense_powers(self):
            return _horner(_Dense.of(self), [0] * n + [1]).measure(self)
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
        return tuple(self._with_atoms(part) for part in parts)

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


def _residual(t: AtomicMeasure, v: AtomicMeasure) -> AtomicMeasure:
    """``t * v - delta_0``, by carrying out the convolution."""
    return t.convolve(v) - AtomicMeasure.unit(t.dimension, t.mode)


def is_inverse(t: AtomicMeasure, v: AtomicMeasure, window, tol=None) -> InversionReport:
    """Check whether v inverts t on a window around the origin.

    A bare ``(lo, hi)`` window is that interval on every axis of t.
    """
    win, tol = _window_and_tol(t, v, window, tol)
    if not win.contains((0,) * t.dimension):
        raise ValueError("inverse checks need a window covering the origin")
    residual = _residual(t, v)
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
        return GridSignal._own(_zero_array(f.shape, f.mode), f.spacing, f.origin)
    with np.errstate(over="ignore", invalid="ignore"):  # GridSignal._own refuses inf and NaN
        return _Dense.of(f).convolve(_Dense.of(m)).signal(f)
