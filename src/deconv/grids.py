"""Uniformly sampled signals on 1D and 2D grids.

A :class:`GridSignal` is a dense array of samples together with a per-axis
spacing and the physical coordinate of the first sample.  Two storage modes
exist, mirroring the measure algebra:

* float mode: a float64 array, used by the Fourier pipeline;
* exact mode: an object array of ``fractions.Fraction`` values, used for
  bit-exact reconstruction work on the integer lattice (spacing 1, integer
  origin).

Signals are immutable: the public constructor copies the caller's array,
a result the library computes owns the array made for it, and both are
read-only.  An exact signal holds only ``Fraction`` values (integers are
carried in as ``Fraction``); a float one holds no inf or NaN.  The float
summaries (``max_abs``, ``l2_norm``, ``mass``) refuse a value past float64
with ``NonFiniteResult`` in both modes.

A function on Z^d of finite support is a measure's atoms or a lattice
signal's box.  Three rules carry it between the two, each coded once here:
``_summed`` gives a repeated point the sum of its weights in order,
``_on_box`` places distinct points' values on their box (a float sample is
``0.0 + v``), and ``_nonzero`` reads nonzero cells back as row-major points.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

import numpy as np

from .errors import DimensionMismatch, ModeMismatch, NonFiniteResult

EXACT = "exact"
FLOAT = "float"

Point = tuple[int, ...]


def _as_tuple(value, ndim: int, name: str) -> tuple[float, ...]:
    if value is None:
        return (1.0,) * ndim if name == "spacing" else (0.0,) * ndim
    if isinstance(value, (int, float, Fraction)):
        return (float(value),) * ndim
    out = tuple(float(v) for v in value)
    if len(out) != ndim:
        raise DimensionMismatch(f"{name} has {len(out)} entries for a {ndim}D signal")
    return out


def _exact_value(v) -> Fraction:
    if isinstance(v, Fraction):
        return v
    if isinstance(v, numbers.Integral):
        return Fraction(int(v))
    raise ModeMismatch(f"exact signals hold Fractions or ints, got {type(v).__name__}")


_as_exact = np.frompyfunc(_exact_value, 1, 1)


def _zero_array(shape, mode: str) -> np.ndarray:
    """Zeros in the arithmetic of ``mode``: Fraction(0) objects or float64."""
    if mode != EXACT:
        return np.zeros(shape)
    arr = np.empty(shape, dtype=object)
    arr[...] = Fraction(0)
    return arr


def _placed(values: np.ndarray, offset, shape) -> np.ndarray:
    """Zeros of ``shape`` in the arithmetic of ``values``, with ``values``
    pasted at the integer ``offset`` and clipped to the box."""
    return _pasted(values, offset, _zero_array(shape, EXACT if values.dtype == object else FLOAT))


def _pasted(values: np.ndarray, offset, out: np.ndarray) -> np.ndarray:
    """``out`` with ``values`` pasted at the integer ``offset``, clipped to its box."""
    src, dst = [], []
    for off, n, size in zip(offset, values.shape, out.shape):
        a, b = max(off, 0), min(off + n, size)
        if a >= b:
            return out
        src.append(slice(a - off, b - off))
        dst.append(slice(a, b))
    out[tuple(dst)] = values[tuple(src)]
    return out


def _summed(points, weights) -> dict:
    """Point -> weight, a repeated point taking the sum of its weights in order."""
    store = dict(zip(points, weights))
    if len(store) < len(points):
        store = {}
        for p, w in zip(points, weights):
            store[p] = store[p] + w if p in store else w
    return store


def _on_box(points, values, mode: str) -> "GridSignal":
    """The lattice signal with ``values`` at the distinct ``points`` (ints in
    1D, tuples in 1D or 2D) and zeros elsewhere in their box; a float sample
    is ``0.0 + v``, so ``-0.0`` reads as ``0.0``."""
    coords = np.array(points).reshape(len(points), -1)
    if coords.dtype.kind != "i":  # a coordinate past int64, read as uint64, float or object
        coords = np.array(points, dtype=object).reshape(len(points), -1)
    lo, hi = coords.min(axis=0).tolist(), coords.max(axis=0).tolist()
    samples = _zero_array(tuple(h - l + 1 for l, h in zip(lo, hi)), mode)
    samples[tuple((coords - lo).astype(np.intp).T)] = values
    if mode != EXACT:
        samples += 0.0
    return GridSignal._own(samples, None, tuple(map(float, lo)))


def _nonzero(values: np.ndarray, lo) -> tuple[list[Point], np.ndarray]:
    """The points ``lo + index`` of the nonzero cells of ``values``, in
    row-major order, and their values."""
    index = np.nonzero(values)
    axes = ([i + low for i in axis.tolist()] for axis, low in zip(index, lo))
    return list(zip(*axes)), values[index]


def _finite_summary(summary):
    """A float summary that refuses a value past float64 (inf, NaN, or an
    ``OverflowError`` on the way to it) with ``NonFiniteResult``."""
    @functools.wraps(summary)
    def checked(self) -> float:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                value = summary(self)
        except OverflowError:
            value = math.inf
        if not math.isfinite(value):
            raise NonFiniteResult(f"{summary.__name__} of the signal overflows float64")
        return value
    return checked


@dataclass(frozen=True, eq=False)
class GridSignal:
    """Dense samples on a regular grid.

    Parameters
    ----------
    values : array-like
        1D or 2D samples.  Object dtype means exact-rational mode and must
        hold Fractions or ints; anything else is cast to float64.
    spacing : float or tuple of float, optional
        Per-axis sample spacing, default 1.
    origin : float or tuple of float, optional
        Physical coordinate of ``values[0]`` (or ``values[0, 0]``), default 0.
    """

    values: np.ndarray
    spacing: tuple[float, ...] = None
    origin: tuple[float, ...] = None

    def __post_init__(self):
        raw = np.asarray(self.values)
        if raw.dtype == object:
            arr = _as_exact(raw)
        else:
            if np.iscomplexobj(raw):
                raise ValueError("signals are real; take .real explicitly before building one")
            arr = raw.astype(np.float64, copy=True)
        self._adopt(arr, self.spacing, self.origin)

    @classmethod
    def _own(cls, values: np.ndarray, spacing, origin) -> "GridSignal":
        """A signal that takes over an array only the library holds: no copy
        and no per-sample conversion, the shape and finiteness checks kept."""
        out = object.__new__(cls)
        out._adopt(values, spacing, origin)
        return out

    def _adopt(self, arr: np.ndarray, spacing, origin) -> None:
        if np.ndim(arr) not in (1, 2):  # np.ndim: a 0-d object array converts to a scalar
            raise DimensionMismatch(f"signals must be 1D or 2D, got {np.ndim(arr)}D")
        if arr.dtype != object and not np.isfinite(arr).all():
            raise NonFiniteResult("signal samples must be finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "spacing", _as_tuple(spacing, arr.ndim, "spacing"))
        object.__setattr__(self, "origin", _as_tuple(origin, arr.ndim, "origin"))
        if any(s <= 0 for s in self.spacing):
            raise ValueError("spacing must be positive")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GridSignal):
            return NotImplemented
        return (self.shape == other.shape and self.spacing == other.spacing
                and self.origin == other.origin and np.array_equal(self.values, other.values))

    __hash__ = None

    # --- basic queries -------------------------------------------------

    @property
    def dimension(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def mode(self) -> str:
        return EXACT if self.values.dtype == object else FLOAT

    @property
    def is_lattice(self) -> bool:
        """True when the grid is the integer lattice: unit spacing, integer origin."""
        return all(s == 1.0 for s in self.spacing) and all(
            float(o).is_integer() for o in self.origin
        )

    def lattice_origin(self) -> Point:
        if not self.is_lattice:
            raise ValueError("signal does not live on the integer lattice")
        return tuple(int(o) for o in self.origin)

    def axis_coordinates(self, axis: int) -> np.ndarray:
        return self.origin[axis] + self.spacing[axis] * np.arange(self.shape[axis])

    # --- lattice views -------------------------------------------------

    def lattice_dict(self) -> dict[Point, object]:
        """Nonzero samples as a point -> value mapping (lattice signals only)."""
        return dict(zip(*_nonzero(self.values, self.lattice_origin())))

    def support_radius(self) -> int:
        """Largest absolute coordinate carrying a nonzero sample (0 if none)."""
        points, _ = _nonzero(self.values, self.lattice_origin())
        return max((abs(c) for p in points for c in p), default=0)

    def restrict(self, bounds) -> "GridSignal":
        """Dense copy over an explicit lattice window, zero-filled where absent."""
        win = _window_bounds(bounds, self.dimension)
        offset = tuple(lo - lo_w for lo, (lo_w, _) in zip(self.lattice_origin(), win))
        shape = tuple(hi_w - lo_w + 1 for lo_w, hi_w in win)
        return GridSignal._own(_placed(self.values, offset, shape), self.spacing,
                               tuple(float(lo_w) for lo_w, _ in win))

    # --- arithmetic ----------------------------------------------------

    def _offset_from(self, other: "GridSignal") -> tuple[int, ...]:
        if self.dimension != other.dimension:
            raise DimensionMismatch("signals of different dimension")
        if self.mode != other.mode:
            raise ModeMismatch("signals in different arithmetic modes")
        offs = []
        for ax in range(self.dimension):
            if abs(self.spacing[ax] - other.spacing[ax]) > 1e-12 * self.spacing[ax]:
                raise ValueError("signals sampled at different spacings")
            shift = (other.origin[ax] - self.origin[ax]) / self.spacing[ax]
            nearest = round(shift)
            if abs(shift - nearest) > 1e-9:
                raise ValueError("grids are offset by a non-integer number of samples")
            offs.append(int(nearest))
        return tuple(offs)

    def _combined(self, other: "GridSignal", op) -> "GridSignal":
        offs = self._offset_from(other)
        lo = tuple(min(0, offs[ax]) for ax in range(self.dimension))
        hi = tuple(
            max(self.shape[ax] - 1, offs[ax] + other.shape[ax] - 1)
            for ax in range(self.dimension)
        )
        shape = tuple(hi[ax] - lo[ax] + 1 for ax in range(self.dimension))
        a = _placed(self.values, tuple(-n for n in lo), shape)
        b = _placed(other.values, tuple(o - n for o, n in zip(offs, lo)), shape)
        origin = tuple(
            self.origin[ax] + self.spacing[ax] * lo[ax] for ax in range(self.dimension)
        )
        with np.errstate(over="ignore", invalid="ignore"):  # _own refuses inf and NaN
            values = op(a, b)
        return GridSignal._own(values, self.spacing, origin)

    def __add__(self, other):
        if not isinstance(other, GridSignal):
            return NotImplemented
        return self._combined(other, lambda a, b: a + b)

    def __sub__(self, other):
        if not isinstance(other, GridSignal):
            return NotImplemented
        return self._combined(other, lambda a, b: a - b)

    def __neg__(self):
        return GridSignal._own(-self.values, self.spacing, self.origin)

    def scaled(self, factor) -> "GridSignal":
        c = Fraction(factor) if self.mode == EXACT else float(factor)
        with np.errstate(over="ignore", invalid="ignore"):  # _own refuses inf and NaN
            values = self.values * c
        return GridSignal._own(values, self.spacing, self.origin)

    def with_impulse(self, point, value) -> "GridSignal":
        """Add ``value`` at one lattice point, growing the extent if needed."""
        pt = (point,) if isinstance(point, int) else tuple(int(c) for c in point)
        if len(pt) != self.dimension:
            raise DimensionMismatch(f"point {pt} is not {self.dimension}D")
        spike_vals = _zero_array((1,) * self.dimension, self.mode)
        spike_vals[(0,) * self.dimension] = Fraction(value) if self.mode == EXACT else float(value)
        spike = GridSignal._own(spike_vals, self.spacing, tuple(float(c) for c in pt))
        return self + spike

    def on_grid_of(self, other: "GridSignal") -> "GridSignal":
        """Re-embed this signal on another signal's (larger) grid, zero elsewhere."""
        offs = self._offset_from(other)
        if any(o > 0 or n - o > size for o, n, size in zip(offs, self.shape, other.shape)):
            raise ValueError("target grid does not cover this signal")
        return GridSignal._own(_placed(self.values, tuple(-o for o in offs), other.shape),
                               other.spacing, other.origin)

    # --- summaries -----------------------------------------------------

    @_finite_summary
    def max_abs(self) -> float:
        return float(self.max_abs_exact())

    def max_abs_exact(self):
        """Largest absolute sample in the signal's own arithmetic."""
        if self.mode == EXACT:
            return max((abs(v) for v in self.values.flat), default=Fraction(0))
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    @_finite_summary
    def l2_norm(self) -> float:
        """Grid-weighted L2 norm, its squares summed in float64; where that sum
        overflows, the samples are first divided by the largest of them."""
        cell = float(np.prod(self.spacing))
        try:
            norm = (cell * self._sum_of_squares(1.0)) ** 0.5
        except OverflowError:  # the float square of an exact sample
            norm = math.inf
        if norm != math.inf:
            return norm
        top = float(self.max_abs_exact())
        return top * (cell * self._sum_of_squares(top)) ** 0.5

    def _sum_of_squares(self, scale: float) -> float:
        if self.mode == EXACT:
            return sum(((float(v) / scale) ** 2 for v in self.values.flat), 0.0)
        return float(np.sum((self.values / scale) ** 2))

    @_finite_summary
    def mass(self) -> float:
        cell = float(np.prod(self.spacing))
        if self.mode == EXACT:
            return cell * float(sum(self.values.flat, Fraction(0)))
        return cell * float(np.sum(self.values))

    def lattice_equal(self, other: "GridSignal") -> bool:
        """Equality of nonzero samples, ignoring zero padding differences."""
        return self.lattice_dict() == other.lattice_dict()

    # --- constructors ----------------------------------------------------

    @classmethod
    def zeros(cls, shape, spacing=None, origin=None, mode: str = FLOAT) -> "GridSignal":
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        return cls._own(_zero_array(shape, mode), spacing, origin)

    @classmethod
    def from_lattice_dict(cls, data: Mapping, dimension: int | None = None,
                          mode: str = EXACT) -> "GridSignal":
        """Dense lattice signal over the bounding box of a point -> value map."""
        points = [(int(p),) if isinstance(p, int) else tuple(int(c) for c in p) for p in data]
        if dimension is None:
            if not points:
                raise ValueError("dimension is required for an empty mapping")
            dimension = len(points[0])
        if any(len(p) != dimension for p in points):
            raise DimensionMismatch("points of mixed dimension")
        if not points:
            return cls.zeros((1,) * dimension, None, None, mode=mode)
        value = Fraction if mode == EXACT else float
        store = _summed(points, list(map(value, data.values())))
        return _on_box(list(store), list(store.values()), mode)


def _window_bounds(window, dimension: int | None = None) -> tuple[tuple[int, int], ...]:
    """Normalize a window argument to per-axis closed (lo, hi) integer pairs.

    Accepts ``((lo, hi), ...)`` per axis, any object with a ``bounds``
    attribute of that shape, or a bare ``(lo, hi)``, which is that interval
    on every axis of a ``dimension``-D operand (one axis when no dimension
    is given).
    """
    raw = tuple(getattr(window, "bounds", window))
    if len(raw) == 2 and all(isinstance(v, (int, np.integer)) for v in raw):
        raw = (raw,) * (dimension or 1)
    if dimension is not None and len(raw) != dimension:
        raise DimensionMismatch(f"window has {len(raw)} axes for a {dimension}D operand")
    if not 1 <= len(raw) <= 2:
        raise DimensionMismatch("windows must be 1D or 2D")
    bounds = tuple((int(b[0]), int(b[1])) for b in raw)
    if any(lo > hi for lo, hi in bounds):
        raise ValueError("window bounds must satisfy lo <= hi")
    return bounds
