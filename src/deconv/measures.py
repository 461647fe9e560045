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
  array, evaluated by Horner's rule, ``_horner``, on one packed integer
  while its slots are narrow (Kronecker substitution) and on the array
  otherwise;
* exact values become ``Fraction``s through one helper, ``_fractions``: one
  gcd per distinct numerator, each value built already reduced; a measure
  keeps its array, built once (or handed over by the array it came from)
  and read-only;
* an exact product of two such arrays runs on int64 while its bound,
  ``max|a| sum|b|``, stays below 2^62 (FLINT's ``fmpz`` keeps a machine
  word up to that size too), and on the object arrays past it;
* measure * measure keeps ``_convolve_core``, whose float sums, atom order
  and sparse slots the oracles pin; the benchmark's exact Neumann steps
  ran 2.6 to 2.9 times slower through it (its 2D power steps about even).
  An exact residual ``t * v - delta_0`` whose box is dense is the one
  product of measures that runs on ``_Dense`` instead (``_residual``).

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
from .grids import EXACT, FLOAT, GridSignal, _nonzero, _pasted, _summed, _window_bounds

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
    return _finite({p: w for p, w in store.items() if w != 0}, mode)


def _finite(atoms: dict, mode: str) -> dict:
    """``atoms``, refused in float mode unless every weight is finite."""
    if mode == FLOAT and not np.isfinite(np.fromiter(atoms.values(), float, len(atoms))).all():
        p = next(p for p, w in atoms.items() if not math.isfinite(w))
        raise NonFiniteResult(f"float weight {atoms[p]!r} at {p} is past float64's range")
    return atoms


# --- the convolution core ------------------------------------------------

_PASS_PRODUCTS = 1 << 16  # products formed per pass; bounds the core's scratch memory
_SPARSE_CELLS = 8         # a result box with more cells than this per product is
                          # indexed by the cells the products hit, not by all of them
_PACKED_BITS = (896, 256)  # widest slot, in bits, of a series packed into one int, in 1D
                           # and 2D; the arrays were faster from about 1,000 to 1,750 bits
                           # in 1D and from 280 to 500 bits in 2D, by series


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


def _fractions(nums, den: int) -> list[Fraction]:
    """``Fraction(n, den)`` for each int n of ``nums``, over a positive ``den``.

    Each distinct numerator costs one gcd, and equal numerators share one
    (immutable) ``Fraction``.  Each value is built already reduced, as
    CPython 3.12's ``Fraction._from_coprime_ints`` builds one, so the
    constructor's own gcd is not paid again.
    """
    made = {}
    for n in nums:
        if n not in made:
            g = math.gcd(n, den)
            made[n] = q = object.__new__(Fraction)
            q._numerator, q._denominator = n // g, den // g
    return [made[n] for n in nums]


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


def _int64_product(values: np.ndarray, taps: np.ndarray) -> np.ndarray | None:
    """The product of two object arrays of Python ints, computed on int64, or
    None when it might not fit there.

    Every cell of the product, and every partial sum of it, is at most
    ``max|values| * sum|taps|`` in magnitude.  While that bound, ``max|values|``
    and ``sum|taps|`` (which bounds ``max|taps|``) are all below 2^62, both
    operands convert to int64 and no sum wraps; the product is then
    ``np.convolve`` in 1D and :func:`_shifted_sum` in 2D, handed back as Python
    ints.  Past the bound the caller keeps the object-array :func:`_shifted_sum`.
    """
    top = max(map(abs, values.ravel().tolist()))
    total = sum(map(abs, taps.ravel().tolist()))
    if max(top, total, top * total) >> 62:
        return None
    values, taps = values.astype(np.int64), taps.astype(np.int64)
    out = np.convolve(values, taps) if values.ndim == 1 else _shifted_sum(values, taps)
    return out.astype(object)


class _Dense:
    """A measure, signal or series as one array over its box.

    The value at ``lo + i`` is ``nums[i] / den``, FLINT's ``fmpq_poly``
    layout on a box: Python-int numerators for exact values, float64 over 1
    for float ones.  Products, differences and re-boxings (:meth:`convolve`,
    :meth:`minus`, :meth:`on_box`) keep that layout, so a chain of them, such
    as ``onesided.reconstruct``'s blur, unblur and spill, adds and multiplies
    integers; exact ``Fraction``s are formed once, by :meth:`measure` or
    :meth:`signal`, through :func:`_fractions`.  A measure keeps its array:
    :meth:`of` builds it once, read-only, and :meth:`measure` hands its result
    the array :meth:`of` would build, so no measure the library makes is read
    back into an array.  An exact product runs on int64 while the numbers fit
    (:func:`_int64_product` states the bound) and on the object arrays past
    it; a float one is always :func:`_shifted_sum`, whose order fixes its
    bytes.  A series may run on one packed int instead (see :func:`_horner`
    for the slot width and when, :func:`_packed_horner` for the slots), which
    is unpacked into this layout.
    """

    __slots__ = ("lo", "nums", "den")

    def __init__(self, lo: Point, nums: np.ndarray, den: int):
        self.lo, self.nums, self.den = lo, nums, den

    @classmethod
    def of(cls, value: Union["AtomicMeasure", GridSignal]) -> "_Dense":
        """A measure on the box of its atoms (a zero one on the origin), built
        once per measure and read-only, or a lattice signal on its grid."""
        if isinstance(value, GridSignal):
            nums, den = _common_scale(value.values.ravel(), value.mode)
            return cls(value.lattice_origin(), nums.reshape(value.shape), den)
        if value._dense is not None:
            return value._dense
        if value.is_zero:
            dtype = object if value.mode == EXACT else np.float64
            lo, box, den = (0,) * value.dimension, np.zeros((1,) * value.dimension, dtype), 1
        else:
            points, weights = zip(*value.atoms.items())
            axes = tuple(zip(*points))
            lo = tuple(map(min, axes))
            nums, den = _common_scale(weights, value.mode)
            box = np.zeros(tuple(max(a) - l + 1 for a, l in zip(axes, lo)), nums.dtype)
            box[tuple([c - low for c in axis] for axis, low in zip(axes, lo))] = nums
        box.setflags(write=False)
        value._dense = cls(lo, box, den)
        return value._dense

    def convolve(self, other: "_Dense") -> "_Dense":
        nums = _int64_product(self.nums, other.nums) if self.nums.dtype == object else None
        if nums is None:
            nums = _shifted_sum(self.nums, other.nums)
        return _Dense(tuple(a + b for a, b in zip(self.lo, other.lo)), nums,
                      self.den * other.den)

    def add_unit(self, c: int) -> "_Dense":
        """A copy with ``c delta_0`` added, as one integer add; the box must hold the origin."""
        nums = self.nums.copy()
        nums[tuple(-low for low in self.lo)] += c * self.den
        return _Dense(self.lo, nums, self.den)

    def on_box(self, lo: Point, shape) -> "_Dense":
        """This value on the box of ``shape`` from ``lo``: zero where it has no
        cell, and cut off outside the box."""
        offset = tuple(a - b for a, b in zip(self.lo, lo))
        return _Dense(lo, _pasted(self.nums, offset, np.zeros(shape, self.nums.dtype)), self.den)

    def minus(self, other: "_Dense") -> "_Dense":
        """``self - other`` on the box of both, over the lcm of the denominators;
        a float cell is ``a - b`` with 0.0 for a missing cell, as in ``GridSignal``."""
        lo = tuple(map(min, self.lo, other.lo))
        shape = tuple(max(a + m, b + n) - c for a, m, b, n, c in
                      zip(self.lo, self.nums.shape, other.lo, other.nums.shape, lo))
        den = math.lcm(self.den, other.den)
        nums = self.on_box(lo, shape).nums * (den // self.den)
        nums -= other.on_box(lo, shape).nums * (den // other.den)
        return _Dense(lo, nums, den)

    def measure(self, like: "AtomicMeasure", scale=1) -> "AtomicMeasure":
        """``scale`` (nonzero) times this exact value, as a measure of ``like``'s dimension.

        The measure keeps the array :meth:`of` would build for it: its atoms'
        box, with the numerators and the denominator divided by
        ``gcd(den, *nums)``, which leaves the lcm of the reduced denominators.
        """
        num, den = scale.as_integer_ratio()
        cells = np.nonzero(self.nums)
        if not cells[0].size:
            return like._with_atoms({})
        corner = [int(c.min()) for c in cells]
        box = self.nums[tuple(slice(a, int(c.max()) + 1) for a, c in zip(corner, cells))] * num
        den *= self.den
        common = math.gcd(den, *box.ravel().tolist())
        box //= common
        box.setflags(write=False)
        lo = tuple(low + a for low, a in zip(self.lo, corner))
        points, nums = _nonzero(box, lo)
        out = like._with_atoms(dict(zip(points, _fractions(nums.tolist(), den // common))),
                               nonzero=True)
        out._dense = _Dense(lo, box, den // common)
        return out

    def signal(self, like: GridSignal) -> GridSignal:
        """This value as a signal on the grid from ``lo`` with ``like``'s spacing and mode."""
        out = self.nums
        if like.mode == EXACT:
            out = np.array(_fractions(out.ravel().tolist(), self.den),
                           dtype=object).reshape(out.shape)
        return GridSignal._own(out, like.spacing, tuple(map(float, self.lo)))


def _horner(x: _Dense, coeffs) -> _Dense:
    """``sum_k coeffs[k] x^{*k}`` for nonzero exact x, by Horner's rule (Knuth,
    TAOCP 4.6.4).

    Each degree is one convolution with x and, for a nonzero coefficient,
    one integer add at the origin, which x's box must then hold.  The result
    is ``N / den^n`` on n times x's box, where every numerator has
    ``|N| <= sum|c| max(l1(x), den)^n`` (l1 over x's numerators), so a slot
    of ``width`` bits holds it with its sign.  While ``width`` is at most
    ``_PACKED_BITS`` for x's dimension the sum runs on one packed integer
    (:func:`_packed_horner`); past that, on the array, one shifted sum per
    degree, which is then faster.
    """
    n = len(coeffs) - 1
    width = (n * max(sum(map(abs, x.nums.ravel().tolist())), x.den).bit_length()
             + sum(map(abs, coeffs)).bit_length() + 2)
    if width <= _PACKED_BITS[len(x.lo) - 1]:
        return _packed_horner(x, coeffs, -(-width // 8))
    value = _Dense((0,) * len(x.lo), np.full((1,) * len(x.lo), coeffs[-1], dtype=object), 1)
    for c in reversed(coeffs[:-1]):
        value = value.convolve(x)
        if c:
            value = value.add_unit(c)
    return value


def _packed_horner(x: _Dense, coeffs, slot_bytes: int) -> _Dense:
    """:func:`_horner` on one Python int with slots of ``slot_bytes`` bytes, by
    Kronecker substitution (as FLINT's ``fmpz_poly`` multiplication; Harvey,
    J. Symb. Comput. 44, 2009).

    Cell i of the result's box, row-major with rows strided by the final
    box's width, is the i-th slot of ``w = 8 slot_bytes`` bits, and the
    degree-k value occupies the same layout from slot 0.  A degree is one
    ``(value * v) << shift`` per nonzero cell of x (one product per distinct
    numerator v) and one shifted add at the origin.  The int is unpacked
    once: ``2^(w-1)`` added to every slot makes each one nonnegative, so one
    ``to_bytes`` splits it into slots, which numpy reads as ``<u8`` while they
    are narrower than 8 bytes (at 8, ``2^(w-1)`` is past int64).
    """
    n = len(coeffs) - 1
    shape = tuple(n * (m - 1) + 1 for m in x.nums.shape)
    strides = _strides(shape)
    bits = 8 * slot_bytes
    cells = np.nonzero(x.nums)
    shifts = {}  # numerator -> shifts of the cells of x that hold it
    for q, v in zip(zip(*(c.tolist() for c in cells)), x.nums[cells].tolist()):
        shifts.setdefault(v, []).append(bits * sum(c * s for c, s in zip(q, strides)))
    origin = bits * sum(-low * s for low, s in zip(x.lo, strides))
    value, den = coeffs[-1], 1
    for k, c in enumerate(reversed(coeffs[:-1]), 1):
        terms = []
        for v, at in shifts.items():
            product = value * v
            terms += [product << shift for shift in at]
        value = sum(terms[1:], terms[0])
        den *= x.den
        if c:
            value += c * den << k * origin
    size = math.prod(shape)
    half = 1 << bits - 1
    raw = (value + int.from_bytes((bytes(slot_bytes - 1) + b"\x80") * size, "little")
           ).to_bytes(slot_bytes * size, "little")
    if slot_bytes < 8:
        wide = np.zeros((size, 8), np.uint8)
        wide[:, :slot_bytes] = np.frombuffer(raw, np.uint8).reshape(size, slot_bytes)
        nums = (wide.view("<u8").astype(np.int64) - half).astype(object)
    else:
        nums = np.array([int.from_bytes(raw[i:i + slot_bytes], "little") - half
                         for i in range(0, len(raw), slot_bytes)], dtype=object)
    return _Dense(tuple(n * low for low in x.lo), nums.reshape(shape), den)


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

    __slots__ = ("_dimension", "_mode", "_atoms", "_dense")

    def __init__(self, dimension: int, atoms=None, mode: str = EXACT):
        if dimension not in (1, 2):
            raise DimensionMismatch(f"supported dimensions are 1 and 2, got {dimension}")
        if mode not in (EXACT, FLOAT):
            raise ValueError(f"unknown arithmetic mode {mode!r}")
        items = atoms.items() if isinstance(atoms, Mapping) else atoms or ()
        pairs = [(as_point(p, dimension), coerce_weight(w, mode)) for p, w in items]
        self._dimension = dimension
        self._mode = mode
        self._atoms = _pruned(_summed(*zip(*pairs)), mode) if pairs else {}
        self._dense = None  # its _Dense array, built on first use

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
        return sum(map(abs, self._atoms.values()), self._zero())

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

    def _with_atoms(self, store: dict, nonzero: bool = False) -> "AtomicMeasure":
        """A measure of this dimension and mode on atoms already in its form.

        The results of the algebra below have valid points and weights by
        construction, so they skip the public constructor's per-atom checks;
        only the zero weights are pruned, and float ones checked finite, here.
        With ``nonzero`` the weights are known to be nonzero, as the cells
        that ``np.flatnonzero`` or ``grids._nonzero`` picks, and are not
        tested again.
        """
        return _checked(self._dimension, self._mode, store, nonzero)

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
            weights = _fractions(weights, da * db)
        return self._with_atoms(dict(zip(points, weights)), nonzero=True)

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


def _checked(dimension: int, mode: str, store: dict, nonzero: bool = False) -> AtomicMeasure:
    """The measure on ``store``, whose points and weights are in their form,
    and with ``nonzero`` known to be nonzero."""
    out = AtomicMeasure.__new__(AtomicMeasure)
    out._dimension = dimension
    out._mode = mode
    out._atoms = _finite(store, mode) if nonzero else _pruned(store, mode)
    out._dense = None
    return out


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
    """``t * v - delta_0``, by carrying out the convolution.

    Exact nonzero measures whose product box, widened to hold the origin,
    :func:`_dense_box` accepts run on :class:`_Dense` numerators: one product
    (on int64 while it fits), one :meth:`_Dense.minus` of delta_0, and
    ``Fraction``s for the nonzero residual atoms only, listed in row-major
    order.  Float measures and sparse boxes go through
    :meth:`AtomicMeasure.convolve`, so float sums keep their order and atoms
    far apart their sparse slots.
    """
    t._check_compatible(v)
    if t.mode == EXACT and t._atoms and v._atoms:
        (lo_t, hi_t), (lo_v, hi_v) = _box(t._atoms), _box(v._atoms)
        cells = math.prod(max(ht + hv, 0) - min(lt + lv, 0) + 1
                          for lt, ht, lv, hv in zip(lo_t, hi_t, lo_v, hi_v))
        if _dense_box(cells, len(t) * len(v)):
            values, taps = sorted((t, v), key=len, reverse=True)  # a shifted copy per tap
            product = _Dense.of(values).convolve(_Dense.of(taps))
            unit = _Dense((0,) * t.dimension, np.ones((1,) * t.dimension, dtype=object), 1)
            return product.minus(unit).measure(t)
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
    _check_applicable(f, m)
    with np.errstate(over="ignore", invalid="ignore"):  # GridSignal._own refuses inf and NaN
        return _Dense.of(f).convolve(_Dense.of(m)).signal(f)


def _check_applicable(f: GridSignal, m: AtomicMeasure) -> None:
    """Refuse a signal that m cannot act on: not a lattice signal, or not of m's
    dimension and mode."""
    if not isinstance(f, GridSignal):
        raise TypeError("apply_to_signal expects a GridSignal first argument")
    if not f.is_lattice:
        raise ValueError("measures act on unit-spacing integer-origin signals")
    if f.dimension != m.dimension:
        raise DimensionMismatch(
            f"cannot apply a {m.dimension}D measure to a {f.dimension}D signal")
    if f.mode != m.mode:
        raise ModeMismatch(f"signal mode {f.mode} does not match measure mode {m.mode}")
