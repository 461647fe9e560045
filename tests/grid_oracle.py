"""Hand-written loops, kept as the oracle for the grid primitives.

The paste loops are the bodies ``GridSignal.restrict``, ``_combined``
(behind ``+`` and ``-``), ``on_grid_of`` and ``gaussian.padded_for_blur``
ran before all four moved onto one placement primitive, ``grids._placed``:
each fills zeros of the result box and pastes its operand at an offset of
its own working out.  Results are built by the public constructor, as they
were then.

The per-item loops below them are the bodies ``from_lattice_dict``,
``lattice_dict`` and ``support_radius`` ran, and the loop of the
``AtomicMeasure`` constructor, before each lattice rule got one helper in
``grids``: ``_summed`` for repeated points, ``_on_box`` for placing values
on the box of their points, and ``_nonzero`` for reading nonzero cells.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from deconv import EXACT, GridSignal
from deconv.errors import DimensionMismatch
from deconv.grids import _window_bounds, _zero_array
from deconv.measures import _pruned, as_point, coerce_weight


def restrict(self: GridSignal, bounds) -> GridSignal:
    win = _window_bounds(bounds, self.dimension)
    lo = self.lattice_origin()
    out = _zero_array(tuple(hi_w - lo_w + 1 for lo_w, hi_w in win), self.mode)
    src = []
    dst = []
    for ax, (lo_w, hi_w) in enumerate(win):
        a = max(lo_w, lo[ax])
        b = min(hi_w, lo[ax] + self.shape[ax] - 1)
        if a > b:
            src = None
            break
        src.append(slice(a - lo[ax], b - lo[ax] + 1))
        dst.append(slice(a - lo_w, b - lo_w + 1))
    if src is not None:
        out[tuple(dst)] = self.values[tuple(src)]
    return GridSignal(out, self.spacing, tuple(float(lo_w) for lo_w, _ in win))


def combined(self: GridSignal, other: GridSignal, op) -> GridSignal:
    offs = self._offset_from(other)
    lo = tuple(min(0, offs[ax]) for ax in range(self.dimension))
    hi = tuple(
        max(self.shape[ax] - 1, offs[ax] + other.shape[ax] - 1)
        for ax in range(self.dimension)
    )
    shape = tuple(hi[ax] - lo[ax] + 1 for ax in range(self.dimension))
    a = _zero_array(shape, self.mode)
    b = _zero_array(shape, self.mode)
    sl_self = tuple(slice(-lo[ax], -lo[ax] + self.shape[ax]) for ax in range(self.dimension))
    sl_other = tuple(
        slice(offs[ax] - lo[ax], offs[ax] - lo[ax] + other.shape[ax])
        for ax in range(self.dimension)
    )
    a[sl_self] = self.values
    b[sl_other] = other.values
    origin = tuple(
        self.origin[ax] + self.spacing[ax] * lo[ax] for ax in range(self.dimension)
    )
    return GridSignal(op(a, b), self.spacing, origin)


def on_grid_of(self: GridSignal, other: GridSignal) -> GridSignal:
    offs = self._offset_from(other)
    out = _zero_array(other.shape, self.mode)
    sl = []
    for ax in range(self.dimension):
        start = -offs[ax]
        stop = start + self.shape[ax]
        if start < 0 or stop > other.shape[ax]:
            raise ValueError("target grid does not cover this signal")
        sl.append(slice(start, stop))
    out[tuple(sl)] = self.values
    return GridSignal(out, other.spacing, other.origin)


def padded_for_blur(f: GridSignal, margin: float = 6.0) -> GridSignal:
    pads = []
    for ax in range(f.dimension):
        base = math.ceil(margin / f.spacing[ax])
        total = f.shape[ax] + 2 * base
        size = 1 << max(1, (total - 1).bit_length())
        extra = size - total
        left = base + extra // 2
        pads.append((left, size - f.shape[ax] - left))
    out = np.zeros(tuple(
        f.shape[ax] + pads[ax][0] + pads[ax][1] for ax in range(f.dimension)))
    sl = tuple(slice(pads[ax][0], pads[ax][0] + f.shape[ax]) for ax in range(f.dimension))
    out[sl] = f.values
    origin = tuple(
        f.origin[ax] - pads[ax][0] * f.spacing[ax] for ax in range(f.dimension))
    return GridSignal(out, f.spacing, origin)


# --- per-item lattice loops ----------------------------------------------------

_is_nonzero = np.frompyfunc(lambda v: v != 0, 1, 1)


def _nonzero_mask(self: GridSignal) -> np.ndarray:
    if self.mode == EXACT:
        return _is_nonzero(self.values).astype(bool)
    return self.values != 0.0


def lattice_dict(self: GridSignal) -> dict:
    lo = self.lattice_origin()
    out = {}
    mask = _nonzero_mask(self)
    for idx in np.argwhere(mask):
        point = tuple(int(i) + lo[ax] for ax, i in enumerate(idx))
        out[point] = self.values[tuple(idx)]
    return out


def support_radius(self: GridSignal) -> int:
    d = lattice_dict(self)
    if not d:
        return 0
    return max(abs(c) for p in d for c in p)


def from_lattice_dict(data, dimension=None, mode=EXACT) -> GridSignal:
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
        return GridSignal.zeros((1,) * dimension, None, None, mode=mode)
    lo = tuple(min(p[ax] for p, _ in items) for ax in range(dimension))
    hi = tuple(max(p[ax] for p, _ in items) for ax in range(dimension))
    shape = tuple(hi[ax] - lo[ax] + 1 for ax in range(dimension))
    vals = _zero_array(shape, mode)
    for p, v in items:
        idx = tuple(p[ax] - lo[ax] for ax in range(dimension))
        vals[idx] = vals[idx] + (Fraction(v) if mode == EXACT else float(v))
    return GridSignal(vals, None, tuple(float(v) for v in lo))


def atomic_measure(dimension: int, atoms, mode: str) -> dict:
    """The atoms ``AtomicMeasure(dimension, atoms, mode)`` holds."""
    store = {}
    for p, w in atoms:
        pt = as_point(p, dimension)
        wv = coerce_weight(w, mode)
        if pt in store:
            store[pt] = store[pt] + wv
        else:
            store[pt] = wv
    return _pruned(store, mode)
