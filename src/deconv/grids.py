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
carried in as ``Fraction``); a float one holds no inf or NaN.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

from .errors import DimensionMismatch, ModeMismatch, NonFiniteResult

EXACT = "exact"
FLOAT = "float"

Point = tuple[int, ...]

_is_nonzero = np.frompyfunc(lambda v: v != 0, 1, 1)


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
    out = _zero_array(shape, EXACT if values.dtype == object else FLOAT)
    src, dst = [], []
    for off, n, size in zip(offset, values.shape, shape):
        a, b = max(off, 0), min(off + n, size)
        if a >= b:
            return out
        src.append(slice(a - off, b - off))
        dst.append(slice(a, b))
    out[tuple(dst)] = values[tuple(src)]
    return out


@dataclass(frozen=True)
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

    def _zero(self):
        return Fraction(0) if self.mode == EXACT else 0.0

    def _nonzero_mask(self) -> np.ndarray:
        if self.mode == EXACT:
            return _is_nonzero(self.values).astype(bool)
        return self.values != 0.0

    # --- lattice views -------------------------------------------------

    def lattice_dict(self) -> dict[Point, object]:
        """Nonzero samples as a point -> value mapping (lattice signals only)."""
        lo = self.lattice_origin()
        out = {}
        mask = self._nonzero_mask()
        for idx in np.argwhere(mask):
            point = tuple(int(i) + lo[ax] for ax, i in enumerate(idx))
            out[point] = self.values[tuple(idx)]
        return out

    def value_at(self, point) -> object:
        """Sample value at a lattice point, zero outside the stored extent."""
        lo = self.lattice_origin()
        pt = (point,) if isinstance(point, int) else tuple(point)
        if len(pt) != self.dimension:
            raise DimensionMismatch(f"point {pt} is not {self.dimension}D")
        idx = tuple(int(p) - lo[ax] for ax, p in enumerate(pt))
        if any(i < 0 or i >= self.shape[ax] for ax, i in enumerate(idx)):
            return self._zero()
        return self.values[idx]

    def support_radius(self) -> int:
        """Largest absolute coordinate carrying a nonzero sample (0 if none)."""
        d = self.lattice_dict()
        if not d:
            return 0
        return max(abs(c) for p in d for c in p)

    def trim(self) -> "GridSignal":
        """Shrink the extent to the bounding box of the nonzero samples."""
        mask = self._nonzero_mask()
        if not mask.any():
            idx = tuple(slice(0, 1) for _ in range(self.dimension))
            return GridSignal._own(self.values[idx], self.spacing, self.origin)
        slices = []
        new_origin = []
        for ax in range(self.dimension):
            other = tuple(a for a in range(self.dimension) if a != ax)
            line = mask.any(axis=other) if other else mask
            hits = np.flatnonzero(line)
            lo, hi = int(hits[0]), int(hits[-1])
            slices.append(slice(lo, hi + 1))
            new_origin.append(self.origin[ax] + self.spacing[ax] * lo)
        return GridSignal._own(self.values[tuple(slices)], self.spacing, tuple(new_origin))

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

    def max_abs(self) -> float:
        return float(self.max_abs_exact())

    def max_abs_exact(self):
        """Largest absolute sample in the signal's own arithmetic."""
        if self.mode == EXACT:
            return max((abs(v) for v in self.values.flat), default=Fraction(0))
        return float(np.max(np.abs(self.values))) if self.values.size else 0.0

    def l2_norm(self) -> float:
        cell = float(np.prod(self.spacing))
        if self.mode == EXACT:
            total = sum((float(v) ** 2 for v in self.values.flat), 0.0)
        else:
            total = float(np.sum(self.values * self.values))
        return (cell * total) ** 0.5

    def mass(self) -> float:
        cell = float(np.prod(self.spacing))
        if self.mode == EXACT:
            return cell * float(sum(self.values.flat, Fraction(0)))
        return cell * float(np.sum(self.values))

    def central_second_moment(self, axis: int = 0) -> float:
        """Mass-normalized second central moment along one axis (float mode)."""
        if self.mode != FLOAT:
            raise ModeMismatch("moments are a float-mode diagnostic")
        w = np.abs(self.values)
        total = float(np.sum(w))
        if total == 0.0:
            raise ValueError("cannot take moments of the zero signal")
        x = self.axis_coordinates(axis)
        shape = [1] * self.dimension
        shape[axis] = self.shape[axis]
        x = x.reshape(shape)
        mean = float(np.sum(w * x)) / total
        return float(np.sum(w * (x - mean) ** 2)) / total

    def max_abs_diff(self, other: "GridSignal") -> float:
        return (self - other).max_abs()

    def allclose(self, other: "GridSignal", tol: float = 1e-9) -> bool:
        return self.max_abs_diff(other) <= tol

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
        items = []
        for p, v in data.items():
            pt = (int(p),) if isinstance(p, int) else tuple(int(c) for c in p)
            items.append((pt, v))
        if dimension is None:
            if not items:
                raise ValueError("dimension is required for an empty mapping")
            dimension = len(items[0][0])
        if any(len(p) != dimension for p, _ in items):
            raise DimensionMismatch("points of mixed dimension")
        if not items:
            return cls.zeros((1,) * dimension, None, None, mode=mode)
        lo = tuple(min(p[ax] for p, _ in items) for ax in range(dimension))
        hi = tuple(max(p[ax] for p, _ in items) for ax in range(dimension))
        shape = tuple(hi[ax] - lo[ax] + 1 for ax in range(dimension))
        vals = _zero_array(shape, mode)
        for p, v in items:
            idx = tuple(p[ax] - lo[ax] for ax in range(dimension))
            vals[idx] = vals[idx] + (Fraction(v) if mode == EXACT else float(v))
        return cls._own(vals, None, tuple(float(v) for v in lo))


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
