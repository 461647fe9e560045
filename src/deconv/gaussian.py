"""Blur and naive unblur with the standard Gaussian kernel.

Conventions (probabilist): the kernel is the unit-variance density

    h(x) = (2 pi)^(-d/2) exp(-|x|^2 / 2),

the forward transform uses the positive exponent

    F(u) = integral exp(+i <u, v>) phi(v) dv,

and the inverse carries the (2 pi)^(-d) factor and the negative exponent.
Under these choices the transform of h is exp(-|u|^2 / 2), so formally
deblurring is multiplication by exp(+|u|^2 / 2).  That amplifier is what
makes the problem ill posed: it is stored in log space throughout and
materialized only where it stays below the float64 overflow line.

Two deblur routes are offered:

* ``analytic-amplifier``: multiply by exp(|u|^2 / 2) at the grid
  frequencies, optionally band-limited, which is the only way to keep the
  numbers finite on purpose;
* ``discrete-reciprocal``: divide by the actual DFT of the sampled
  kernel, undoing the discrete blur bin by bin.  Bins whose spectrum
  magnitude sits below a spectral floor (default 1e-8) are zeroed: at
  float64 precision those bins were destroyed by the forward blur and
  dividing by them would only amplify representation noise.

All convolution is periodic with mandatory zero padding (at least the
kernel reach of 6 on each side, grown to a power of two), so the wrapped
part of the circle never touches the retained window.

Blur and deblur share one filter step on real FFTs: multiply the half
spectrum by a real half-layout table.  The step makes the passes of
``rfftn`` and ``irfftn`` itself, in their order, so its bytes are theirs:
an rfft of the last axis, then the complex FFTs of the leading axes in
place on that one half spectrum, and back.  ``rfftn`` and ``irfftn``
allocate a fresh complex grid per pass, two more 2 MB half spectra per
step on a 512^2 grid, whose pages the process faults in again; in place,
a 2D step holds one complex half spectrum and its real output.  The
in-place passes use ``numpy.fft``'s ``out=``, hence numpy 2.0 or later.
The step skips the passes that zeros make dead, and each skip keeps the
bytes, because numpy's FFTs transform their lines one by one.  A deblur's
table covers only the columns of its band (every bin past it is zeroed),
so the leading-axis passes and the multiply run on those columns alone,
and the rest are set to zero before the last irfft: 50 of 257 columns for
the reciprocal at its 1e-8 floor on a 512^2 grid at spacing 0.1, 41 for
the analytic amplifier at band 5.  The full passes would have multiplied
those columns by 0.0, so only the sign of an output zero can differ; two
fallbacks run the full passes instead, when ``max|g| * g.size`` is past
``PRUNE_BOUND`` (2^960, where a skipped value could overflow and 0.0 turn
it into a refused NaN) and when the pruned output holds an exact zero.
Blur's table is the transfer function of the discrete blur, real because
the kernel sampled at the wrapped offsets of a grid is even and separable:
the outer product of one real 1D spectrum per axis.  A deblur's table
comes from a plan that reads the grid, never the samples (checks, mask,
multiplier, diagnostics), so a noise experiment plans once and filters
both the clean blur and the noise.  Every multiplier is even in
frequency, so the origin phase factors of :func:`dft_forward` and
:func:`dft_inverse` cancel and are never formed.  Those two functions stay
as the quadrature transform and its left inverse for callers that need the
full complex spectrum.

The blur's transfer function depends only on a grid's ``(shape,
spacing)``; its half layout is built once per grid and kept read-only in
one ``functools.lru_cache`` of ``TABLE_CACHE_GRIDS`` grids: a blur and the
deblurs after it on the same grid, or a noise ladder, reuse one table.  On
a 512^2 grid it takes 1.05 MB; a 4096^2 grid's takes 67 MB, hence the small
bound.  :func:`kernel_spectrum` builds its full-layout transfer function
afresh on every call.

FFTW's split of planning from execution (Frigo and Johnson, Proc. IEEE
93(2), 2005) applies to the filter step too.  A deblur's plan is kept
read-only in a second ``lru_cache``, keyed by the grid's ``(shape,
spacing)``, the method, the band limit and the floor (none for the analytic
amplifier), of ``TABLE_CACHE_GRIDS * len(DEBLUR_METHODS)`` plans: one per
method on each warm grid.  What only a plan reads, |u|^2 / 2 in the half
layout and the rfft bin multiplicities of the last axis, the plan builds on
its own miss and drops.  Its multiplier is cropped to the columns of its
band, about ``n * s`` of an ``n``-sample last axis at spacing ``s`` for the
reciprocal at its default floor (|u| <= 6.1): 0.2 MB on a 512^2 grid at
spacing 0.1, where the full half layout took 1 MB, and 13 MB on a 4096^2
grid at that spacing.  Its diagnostics are scalars, so a plan holds no
array but its multiplier.  The checks of the arguments run on every call,
and a refusal is never cached.  The filter step keeps one free complex
half-spectrum buffer per half shape for the last ``TABLE_CACHE_GRIDS``
shapes, 2.1 MB on a 512^2 grid and 134 MB on a 4096^2 grid; a call owns
its buffer while it runs.  So on a warm grid a deblur builds no table,
plan or half spectrum; it allocates its result.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    GridTooCoarse,
    GridTooNarrow,
    ModeMismatch,
    ParameterOutOfRange,
    ReciprocalUnderflow,
)
from .grids import FLOAT, GridSignal, _placed

KERNEL_REACH = 6.0
MAX_KERNEL_SPACING = 0.5
OVERFLOW_LOG = 700.0
DEFAULT_RECIPROCAL_FLOOR = 1e-8

DEBLUR_METHODS = ("discrete-reciprocal", "analytic-amplifier")
TABLE_CACHE_GRIDS = 2        # grids per table cache: a 2D image and a 1D line stay warm together


@dataclass(frozen=True)
class GaussianKernelSpec:
    """Unit-variance, zero-mean, isotropic Gaussian in 1 or 2 dimensions."""

    dimension: int = 1

    def __post_init__(self):
        if self.dimension not in (1, 2):
            raise DimensionMismatch("kernels are 1D or 2D")

    def density(self, *coords) -> np.ndarray:
        if len(coords) != self.dimension:
            raise DimensionMismatch(
                f"{self.dimension}D kernel evaluated at {len(coords)} coordinates")
        out = None
        for c in coords:
            part = np.exp(-np.asarray(c, dtype=float) ** 2 / 2.0) / math.sqrt(2.0 * math.pi)
            out = part if out is None else out * part
        return out


_UNIT_1D = GaussianKernelSpec(1)


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT values in numpy's fftfreq bin layout, plus grid metadata."""

    values: np.ndarray
    spacing: tuple[float, ...]
    origin: tuple[float, ...]

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "spacing", tuple(float(s) for s in self.spacing))
        object.__setattr__(self, "origin", tuple(float(o) for o in self.origin))

    def freqs(self, axis: int) -> np.ndarray:
        n = self.values.shape[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing[axis])


def _require_float(f: GridSignal) -> None:
    if f.mode != FLOAT:
        raise ModeMismatch("the Fourier pipeline works in float64 only")
    if any(n < 2 for n in f.shape):
        raise ValueError("Fourier grids need at least 2 samples per axis")


def _outer(parts, combine) -> np.ndarray:
    """Broadcast one 1D array per axis into a grid, folding the axes with ``combine``."""
    d = len(parts)
    return functools.reduce(combine, [part.reshape([-1 if a == ax else 1 for a in range(d)])
                                      for ax, part in enumerate(parts)])


def dft_forward(f: GridSignal) -> Spectrum:
    """Quadrature approximation of the positive-exponent transform."""
    _require_float(f)
    vals = np.fft.ifftn(f.values) * f.values.size * float(np.prod(f.spacing))
    for ax in range(f.dimension):
        u = 2.0 * np.pi * np.fft.fftfreq(f.shape[ax], d=f.spacing[ax])
        view = [1] * f.dimension
        view[ax] = -1
        vals = vals * np.exp(1j * u * f.origin[ax]).reshape(view)
    return Spectrum(vals, f.spacing, f.origin)


def dft_inverse(spectrum: Spectrum) -> GridSignal:
    """Left inverse of :func:`dft_forward` on the same grid."""
    vals = np.asarray(spectrum.values, dtype=complex)
    d = vals.ndim
    for ax in range(d):
        u = spectrum.freqs(ax)
        view = [1] * d
        view[ax] = -1
        vals = vals * np.exp(-1j * u * spectrum.origin[ax]).reshape(view)
    out = np.fft.fftn(vals) / (vals.size * float(np.prod(spectrum.spacing)))
    return GridSignal._own(out.real.copy(), spectrum.spacing, spectrum.origin)


def _validate_kernel_grid(shape, spacing) -> None:
    for s in spacing:
        if s > MAX_KERNEL_SPACING:
            raise GridTooCoarse(f"spacing {s} > {MAX_KERNEL_SPACING} undersamples the kernel")
    for ax, (n, s) in enumerate(zip(shape, spacing)):
        if n * s / 2.0 < KERNEL_REACH:
            raise GridTooNarrow(
                f"axis {ax} spans {n * s}; the wrapped kernel needs at least {2 * KERNEL_REACH}")


def _axis_transfer(n: int, spacing: float) -> np.ndarray:
    """Real DFT of the 1D unit Gaussian sampled at the wrapped offsets of an axis.

    The wrapped samples are even, so their transform is real; the spacing
    is the axis's quadrature weight.  Layout is fftfreq order.
    """
    offsets = spacing * np.fft.fftfreq(n) * n
    return np.fft.fft(_UNIT_1D.density(offsets)).real * spacing


@functools.lru_cache(maxsize=TABLE_CACHE_GRIDS)
def _transfer(shape, spacing) -> np.ndarray:
    """The blur's transfer function on a ``(shape, spacing)`` grid, in the
    rfftn half layout, cached and read-only."""
    parts = [_axis_transfer(n, s) for n, s in zip(shape, spacing)]
    parts[-1] = parts[-1][: shape[-1] // 2 + 1]
    transfer = _outer(parts, np.multiply)
    transfer.setflags(write=False)
    return transfer


def _half_log_amplification(shape, spacing) -> tuple[np.ndarray, np.ndarray]:
    """|u|^2 / 2 on a ``(shape, spacing)`` grid in the rfftn half layout, and
    how many full-layout bins each rfft bin of the last axis stands for.  Rfft
    bin k of a length-n axis stands for k and n - k, which coincide when
    2k = 0 (mod n).  Built afresh for each plan, never cached."""
    k = np.arange(shape[-1] // 2 + 1)
    squares = [(2.0 * np.pi * np.fft.fftfreq(n, d=s)) ** 2 for n, s in zip(shape, spacing)]
    squares[-1] = squares[-1][: k.size]
    log_amp = _outer(squares, np.add)
    log_amp /= 2.0
    return log_amp, np.where(2 * k % shape[-1] == 0, 1, 2)


def kernel_spectrum(spec: GaussianKernelSpec, like: GridSignal) -> np.ndarray:
    """DFT of the kernel sampled at the wrapped offsets of a signal's grid.

    This is the transfer function of the discrete periodic blur on that
    grid, in fftfreq layout, including the quadrature weight Delta^d.  It
    is real; the array is complex for callers that combine it with
    :func:`dft_forward` spectra.
    """
    if spec.dimension != like.dimension:
        raise DimensionMismatch("kernel and grid dimension differ")
    _validate_kernel_grid(like.shape, like.spacing)
    return _outer([_axis_transfer(n, s) for n, s in zip(like.shape, like.spacing)],
                  np.multiply).astype(complex)


def padded_for_blur(f: GridSignal, margin: float = KERNEL_REACH) -> GridSignal:
    """Zero-pad by at least ``margin`` per side, growing to a power of two.

    The extra power-of-two slack is split evenly between the two sides,
    which keeps the padded grid deterministic for a given input grid.  The
    samples are pasted into one fresh zero grid, which the result owns.
    A negative, infinite or NaN margin is refused.
    """
    _require_float(f)
    if not 0 <= margin < math.inf:
        raise ParameterOutOfRange("margin must be finite and >= 0")
    lefts, sizes = [], []
    for ax in range(f.dimension):
        base = math.ceil(margin / f.spacing[ax])
        total = f.shape[ax] + 2 * base
        size = 1 << max(1, (total - 1).bit_length())
        lefts.append(base + (size - total) // 2)
        sizes.append(size)
    origin = tuple(o - left * s for o, left, s in zip(f.origin, lefts, f.spacing))
    return GridSignal._own(_placed(f.values, lefts, sizes), f.spacing, origin)


# Free half-spectrum buffers of _filtered by half shape, least recently used first.
_SPECTRA: dict[tuple[int, ...], np.ndarray] = {}
_SPECTRA_LOCK = threading.Lock()
# Every DFT value of g is at most sum|g| <= max|g| * g.size, and the partial
# sums of numpy's FFT passes exceed that by far less than the 2^64 left below
# float64's 2^1024; so under this bound the full passes multiply every column
# a narrow table leaves out into a signed zero, never an inf into a NaN.
PRUNE_BOUND = 2.0 ** 960


def _filtered(g: GridSignal, table: np.ndarray) -> GridSignal:
    """``g`` with its rfftn half spectrum multiplied by ``table``, on ``g``'s grid.

    The passes are those of ``rfftn`` and ``irfftn``, in their order: an
    rfft of the last axis, a complex FFT of each leading axis, the multiply,
    the inverse FFTs of the leading axes and an irfft of the last axis, so
    the output bytes are theirs.  The complex passes run in place on the one
    half spectrum (``out=``, numpy 2.0+), where ``rfftn``/``irfftn`` allocate
    a fresh complex grid per pass: a 2D step holds one complex half spectrum
    and the real output, not three complex grids and the output.

    Passes that zeros make dead are skipped; each FFT of numpy transforms
    its lines one by one, so a line's bytes do not depend on which others
    run.  A ``table`` narrower than the half spectrum stands for itself
    followed by zeros (a deblur's band): the leading-axis passes and the
    multiply run on its columns only, and the other columns are set to
    zero before the irfft.  That is exact up to the sign of zeros, where
    the full passes would have multiplied those columns by 0.0: every
    nonzero output is the same, and an output of zero may differ in sign.
    So the full passes run instead when ``max|g| * g.size`` is past
    :data:`PRUNE_BOUND`, where a skipped value could have been an inf that
    0.0 turns into NaN and the step refused, or run again when the pruned
    output holds an exact zero.

    The half spectrum is taken from the free buffers of its shape, or made
    when none is free, and put back after the passes; the rfft pass fills
    all of it.  A call owns its buffer while it runs, so concurrent or
    nested calls never share one.  The last ``TABLE_CACHE_GRIDS`` shapes
    keep one buffer each.  The returned samples are fresh.
    """
    half = g.shape[:-1] + (g.shape[-1] // 2 + 1,)
    with _SPECTRA_LOCK:
        spectrum = _SPECTRA.pop(half, None)
    if spectrum is None:
        spectrum = np.empty(half, dtype=complex)
    prune = (table.shape[-1] < half[-1]
             and max(g.values.max(), -g.values.min()) <= PRUNE_BOUND / g.values.size)
    with np.errstate(over="ignore", invalid="ignore"):  # GridSignal._own refuses inf and NaN
        values = _passes(g, spectrum, table, prune)
        if prune and not values.all():
            values = _passes(g, spectrum, table, False)
    with _SPECTRA_LOCK:
        _SPECTRA[half] = spectrum
        if len(_SPECTRA) > TABLE_CACHE_GRIDS:
            del _SPECTRA[next(iter(_SPECTRA))]
    return GridSignal._own(values, g.spacing, g.origin)


def _passes(g: GridSignal, spectrum: np.ndarray, table: np.ndarray, prune: bool) -> np.ndarray:
    """The passes of :func:`_filtered` through ``spectrum``; the real output.
    The columns past the table's width are multiplied by 0.0; with ``prune``
    the leading-axis passes skip them."""
    np.fft.rfft(g.values, out=spectrum)
    width = table.shape[-1]
    kept, rest = spectrum[..., :width], spectrum[..., width:]
    lines = kept if prune else spectrum
    leading = range(g.dimension - 1)
    for axis in reversed(leading):
        np.fft.fft(lines, axis=axis, out=lines)
    kept *= table
    rest *= 0.0
    for axis in leading:
        np.fft.ifft(lines, axis=axis, out=lines)
    return np.fft.irfft(spectrum, n=g.shape[-1])


def blur(f: GridSignal) -> GridSignal:
    """Gaussian blur by spectrum multiplication on a zero-padded grid.

    The result lives on the padded grid; its spectrum is exactly the
    input spectrum times the discrete transfer function, so mass is
    preserved up to the kernel's quadrature error.
    """
    padded = padded_for_blur(f)
    _validate_kernel_grid(padded.shape, padded.spacing)
    return _filtered(padded, _transfer(padded.shape, padded.spacing))


@dataclass(frozen=True)
class SpectrumDiagnostics:
    """Amplification bookkeeping for one deblur run.

    ``max_log_amplification`` is the largest ``|u|^2 / 2`` over the bins
    that were applied; the analytic amplifier multiplies a bin by
    exp(|u|^2 / 2).  ``noise_gain_log`` is the log of the factor mapping white
    per-sample noise of unit standard deviation to the expected L2 error
    of the reconstruction, over the bins that were actually applied.
    ``applied_bins`` and ``suppressed_bins`` count full-layout bins and sum
    to the grid's size.  Error fields are filled in by
    :func:`noise_blowup_experiment`.  Every field is a scalar.
    """

    method: str
    band_limit: float | None
    reciprocal_floor: float | None
    max_log_amplification: float
    noise_gain_log: float | None
    applied_bins: int
    suppressed_bins: int
    sigma: float | None = None
    seed: int | None = None
    total_error: float | None = None
    noise_error: float | None = None
    baseline_error: float | None = None
    ratio: float | None = None


def _logsumexp(values: np.ndarray, weights: np.ndarray) -> float:
    """log(sum(weights * exp(values))) of a non-empty array, without overflow."""
    m = float(np.max(values))
    terms = values - m
    np.exp(terms, out=terms)
    terms *= weights
    return m + math.log(float(np.sum(terms)))


def _deblur_plan(g: GridSignal, method: str, band_limit: float | None,
                 reciprocal_floor: float | None) -> tuple[np.ndarray, SpectrumDiagnostics]:
    """The checks, half-layout multiplier and diagnostics of a deblur on ``g``'s grid.

    The plan reads only the grid, never the samples, so one plan deblurs
    every signal on that grid.  The arguments are checked on every call;
    the plan itself comes from :func:`_grid_plan`'s cache, with the band
    and the floor as floats so that 5 and 5.0 share one plan, and no floor
    for the analytic amplifier, which reads none.
    """
    _require_float(g)
    if method not in DEBLUR_METHODS:
        raise ParameterOutOfRange(
            f"unknown deblur method {method!r}; expected one of {DEBLUR_METHODS}")
    if band_limit is not None and not band_limit > 0:
        raise ParameterOutOfRange("band_limit must be positive")
    if reciprocal_floor is not None and math.isnan(reciprocal_floor):
        raise ParameterOutOfRange("reciprocal_floor must not be NaN")
    if method == "analytic-amplifier" or reciprocal_floor is None:
        floor = None
    else:
        floor = float(reciprocal_floor)
    return _grid_plan(g.shape, g.spacing, method,
                      None if band_limit is None else float(band_limit), floor)


@functools.lru_cache(maxsize=TABLE_CACHE_GRIDS * len(DEBLUR_METHODS))
def _grid_plan(shape, spacing, method: str, band_limit: float | None,
               reciprocal_floor: float | None) -> tuple[np.ndarray, SpectrumDiagnostics]:
    """The cached plan of a checked deblur on a ``(shape, spacing)`` grid; a
    refusal of the grid is raised, never cached.  It reads the grid's cached
    transfer function and builds its own |u|^2 / 2.  The multiplier is
    read-only and made only on the half-layout columns up to the last one
    that holds an applied bin, which :func:`_filtered` reads as zero past
    its width."""
    transfer = _transfer(shape, spacing)
    log_amp, multiplicity = _half_log_amplification(shape, spacing)
    try:
        edge = (math.inf if band_limit is None else band_limit) ** 2 / 2.0
    except OverflowError:  # a band limit past 1.3e154 bounds no bin
        edge = math.inf
    mask = log_amp <= edge
    if method == "discrete-reciprocal":
        _validate_kernel_grid(shape, spacing)
        magnitude = np.abs(transfer)
        if reciprocal_floor is None or reciprocal_floor <= 0:
            lowest = float(np.min(magnitude[mask])) if mask.any() else 1.0
            if lowest < 1e-300:
                raise ReciprocalUnderflow(lowest)
            floor_used = None
        else:
            mask &= magnitude >= reciprocal_floor
            floor_used = reciprocal_floor
        source, apply = transfer, functools.partial(np.divide, 1.0)
        gain = -np.log(magnitude[mask])
    else:
        mask &= log_amp < OVERFLOW_LOG
        floor_used = None
        source, apply = log_amp, np.exp
        gain = log_amp[mask]
    columns = np.flatnonzero(mask.reshape(-1, mask.shape[-1]).any(axis=0))
    kept = mask[..., : columns[-1] + 1 if columns.size else 0]
    multiplier = apply(source[..., : kept.shape[-1]], out=np.zeros(kept.shape), where=kept)
    counts = np.broadcast_to(multiplicity, mask.shape)[mask]
    applied = int(counts.sum())
    if applied:
        cell = float(np.prod(spacing))
        noise_gain_log = 0.5 * (math.log(cell) + _logsumexp(2.0 * gain, counts))
        max_log = float(np.max(log_amp[mask]))
    else:
        noise_gain_log = None
        max_log = 0.0
    diagnostics = SpectrumDiagnostics(
        method=method,
        band_limit=band_limit,
        reciprocal_floor=floor_used,
        max_log_amplification=max_log,
        noise_gain_log=noise_gain_log,
        applied_bins=applied,
        suppressed_bins=math.prod(shape) - applied,
    )
    multiplier.setflags(write=False)
    return multiplier, diagnostics


def naive_deblur(g: GridSignal, method: str, *, band_limit: float | None = None,
                 reciprocal_floor: float | None = DEFAULT_RECIPROCAL_FLOOR
                 ) -> tuple[GridSignal, SpectrumDiagnostics]:
    """Invert a Gaussian blur by direct spectral amplification.

    ``discrete-reciprocal`` divides by the sampled kernel's DFT and is the
    exact inverse of :func:`blur` on the same grid wherever the transfer
    function stays above ``reciprocal_floor``; pass a floor of 0 or None
    to divide unconditionally, which raises ``ReciprocalUnderflow`` when
    a spectrum magnitude sits below 1e-300.  ``analytic-amplifier``
    multiplies by exp(|u|^2/2), zeroing bins past ``band_limit`` or the
    float64 overflow line.  A NaN floor or band limit is refused; a band
    limit whose square overflows float64 bounds no bin, as inf does.

    The work happens in the rfftn half layout; bin counts and the noise
    gain weigh each half-layout bin by the full-layout bins it stands for.
    """
    multiplier, diagnostics = _deblur_plan(g, method, band_limit, reciprocal_floor)
    return _filtered(g, multiplier), diagnostics


def noise_blowup_experiment(f: GridSignal, sigma: float, seed: int,
                            band_limit: float) -> tuple[SpectrumDiagnostics, list[dict]]:
    """Blur, add white noise, deblur band-limited, and compare with prediction.

    The reported ``observed_error`` is the part of the reconstruction
    error attributable to the injected noise, in grid-weighted L2, which
    is the quantity the predicted gain ``sigma * exp(noise_gain_log)``
    estimates.  By linearity that part is the deblur of ``sigma * noise``
    alone, and it is computed so: a noisy minus a clean reconstruction
    would also carry the rounding noise each of the two amplifies.  The
    total error against the true signal (clean reconstruction plus noise
    part) and the noiseless band-limitation baseline are carried in the
    diagnostics.  With ``sigma = 0`` the noise part vanishes and the
    total error is the baseline alone.

    The noise realization depends only on ``seed`` and the grid, never on
    ``sigma``, so error curves across a sigma ladder share one draw.
    """
    if not sigma >= 0:
        raise ParameterOutOfRange("sigma must be >= 0")
    blurred = blur(f)
    rng = np.random.default_rng(seed)
    noise = GridSignal._own(sigma * rng.standard_normal(blurred.shape),
                            blurred.spacing, blurred.origin)
    amplifier, diag = _deblur_plan(blurred, "analytic-amplifier", band_limit, None)
    rec_clean = _filtered(blurred, amplifier)
    rec_noise = _filtered(noise, amplifier)
    reference = f.on_grid_of(blurred)
    total_error = (rec_clean + rec_noise - reference).l2_norm()
    baseline_error = (rec_clean - reference).l2_norm()
    noise_error = rec_noise.l2_norm()
    gain_log = diag.noise_gain_log
    if sigma > 0 and gain_log is not None:
        predicted = sigma * math.exp(gain_log)
        ratio = noise_error / predicted
    else:
        ratio = 0.0
    diagnostics = dataclasses.replace(
        diag, sigma=float(sigma), seed=int(seed), total_error=total_error,
        noise_error=noise_error, baseline_error=baseline_error, ratio=ratio)
    row = {
        "band_limit": float(band_limit),
        "sigma": float(sigma),
        "predicted_gain_log": gain_log,
        "observed_error": noise_error,
        "ratio": ratio,
    }
    return diagnostics, [row]


def two_bump_signal() -> GridSignal:
    """Canonical smooth test signal for the blur/deblur experiments.

    Two gaussian bumps, 512 samples at spacing 0.05 on [0, 25.6); the
    values decay to numerical zero well before both edges, the bump
    widths keep the spectrum inside the usable float64 band, and the
    grid pads to 1024 power-of-two samples.  The geometry is part of the
    experiment contract, hence no knobs.
    """
    x = 0.05 * np.arange(512)
    values = (np.exp(-0.5 * ((x - 10.0) / 1.2) ** 2)
              + 0.6 * np.exp(-0.5 * ((x - 16.0) / 1.5) ** 2))
    return GridSignal._own(values, 0.05, 0.0)

