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

Blur and deblur run on real FFTs (``rfftn``/``irfftn``) in the half
spectrum layout.  The kernel sampled at the wrapped offsets of a grid is
even and separable, so the transfer function of the discrete blur is real:
the outer product of one real 1D spectrum per axis.  Every multiplier is
even in frequency, so the origin phase factors of :func:`dft_forward` and
:func:`dft_inverse` cancel and are never formed.  Those two functions stay
as the quadrature transform and its left inverse for callers that need
the full complex spectrum.
"""
from __future__ import annotations

import dataclasses
import math
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

    @property
    def dimension(self) -> int:
        return self.values.ndim

    def freqs(self, axis: int) -> np.ndarray:
        n = self.values.shape[axis]
        return 2.0 * np.pi * np.fft.fftfreq(n, d=self.spacing[axis])


def _require_float(f: GridSignal) -> None:
    if f.mode != FLOAT:
        raise ModeMismatch("the Fourier pipeline works in float64 only")
    if any(n < 2 for n in f.shape):
        raise ValueError("Fourier grids need at least 2 samples per axis")


def _outer(parts, combine, half: bool) -> np.ndarray:
    """Broadcast one fftfreq-layout 1D array per axis into a grid.

    Axes are folded together with ``combine``; ``half`` keeps only the
    bins of the last axis that the rfftn layout holds.
    """
    total = None
    d = len(parts)
    for ax, part in enumerate(parts):
        if half and ax == d - 1:
            part = part[: part.size // 2 + 1]
        view = [1] * d
        view[ax] = -1
        part = part.reshape(view)
        total = part if total is None else combine(total, part)
    return total


def _freq_norm_sq(shape, spacing, half: bool = False) -> np.ndarray:
    """|u|^2 per bin; ``half`` gives the rfftn layout."""
    return _outer([(2.0 * np.pi * np.fft.fftfreq(n, d=s)) ** 2
                   for n, s in zip(shape, spacing)], np.add, half)


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
    return GridSignal._own(out.real, spectrum.spacing, spectrum.origin)


def fourier_at(f: GridSignal, u) -> complex:
    """Direct quadrature evaluation of the transform at one frequency."""
    _require_float(f)
    if f.dimension == 1:
        coords = f.axis_coordinates(0)
        phase = np.exp(1j * float(u) * coords)
    else:
        u = tuple(float(v) for v in u)
        if len(u) != 2:
            raise DimensionMismatch("2D signals need a 2-component frequency")
        x = f.axis_coordinates(0)[:, None]
        y = f.axis_coordinates(1)[None, :]
        phase = np.exp(1j * (u[0] * x + u[1] * y))
    return complex(np.sum(f.values * phase) * float(np.prod(f.spacing)))


def _require_fine(spacing) -> None:
    for s in spacing:
        if s > MAX_KERNEL_SPACING:
            raise GridTooCoarse(f"spacing {s} > {MAX_KERNEL_SPACING} undersamples the kernel")


def sample_gaussian(spec: GaussianKernelSpec, shape, spacing, origin=None) -> GridSignal:
    """Sample the density on a grid covering at least [-6, 6] per axis."""
    shape = (shape,) if isinstance(shape, int) else tuple(int(n) for n in shape)
    if len(shape) != spec.dimension:
        raise DimensionMismatch("grid shape does not match the kernel dimension")
    if isinstance(spacing, (int, float)):
        spacing = (float(spacing),) * spec.dimension
    else:
        spacing = tuple(float(s) for s in spacing)
    if origin is None:
        origin = tuple(-(n - 1) * s / 2.0 for n, s in zip(shape, spacing))
    else:
        origin = tuple(float(o) for o in origin)
    _require_fine(spacing)
    for ax in range(spec.dimension):
        hi = origin[ax] + (shape[ax] - 1) * spacing[ax]
        if origin[ax] > -KERNEL_REACH or hi < KERNEL_REACH:
            raise GridTooNarrow(
                f"axis {ax} covers [{origin[ax]}, {hi}]; the kernel needs "
                f"[-{KERNEL_REACH}, {KERNEL_REACH}]")
    coords = [origin[ax] + spacing[ax] * np.arange(shape[ax]) for ax in range(spec.dimension)]
    if spec.dimension == 1:
        vals = spec.density(coords[0])
    else:
        vals = spec.density(coords[0][:, None], coords[1][None, :])
    return GridSignal._own(vals, spacing, origin)


def _validate_kernel_grid(like: GridSignal) -> None:
    _require_fine(like.spacing)
    for ax in range(like.dimension):
        if like.shape[ax] * like.spacing[ax] / 2.0 < KERNEL_REACH:
            raise GridTooNarrow(
                f"axis {ax} spans {like.shape[ax] * like.spacing[ax]}; the wrapped "
                f"kernel needs at least {2 * KERNEL_REACH}")


def _irfftn(spectrum: np.ndarray, shape) -> np.ndarray:
    """Real grid of the given shape from its rfftn half spectrum."""
    return np.fft.irfftn(spectrum, s=shape, axes=tuple(range(len(shape))))


def _axis_transfer(n: int, spacing: float) -> np.ndarray:
    """Real DFT of the 1D unit Gaussian sampled at the wrapped offsets of an axis.

    The wrapped samples are even, so their transform is real; the spacing
    is the axis's quadrature weight.  Layout is fftfreq order.
    """
    offsets = spacing * np.fft.fftfreq(n) * n
    return np.fft.fft(_UNIT_1D.density(offsets)).real * spacing


def _transfer(like: GridSignal, half: bool) -> np.ndarray:
    """Real transfer function of the discrete periodic blur on ``like``'s grid.

    The outer product of the per-axis spectra; ``half`` gives the rfftn
    layout.
    """
    _validate_kernel_grid(like)
    return _outer([_axis_transfer(n, s) for n, s in zip(like.shape, like.spacing)],
                  np.multiply, half)


def kernel_spectrum(spec: GaussianKernelSpec, like: GridSignal) -> np.ndarray:
    """DFT of the kernel sampled at the wrapped offsets of a signal's grid.

    This is the transfer function of the discrete periodic blur on that
    grid, in fftfreq layout, including the quadrature weight Delta^d.  It
    is real; the array is complex for callers that combine it with
    :func:`dft_forward` spectra.
    """
    if spec.dimension != like.dimension:
        raise DimensionMismatch("kernel and grid dimension differ")
    return _transfer(like, half=False).astype(complex)


def padded_for_blur(f: GridSignal, margin: float = KERNEL_REACH) -> GridSignal:
    """Zero-pad by at least ``margin`` per side, growing to a power of two.

    The extra power-of-two slack is split evenly between the two sides,
    which keeps the padded grid deterministic for a given input grid.  The
    samples are pasted into one fresh zero grid, which the result owns.
    """
    _require_float(f)
    lefts, sizes = [], []
    for ax in range(f.dimension):
        base = math.ceil(margin / f.spacing[ax])
        total = f.shape[ax] + 2 * base
        size = 1 << max(1, (total - 1).bit_length())
        lefts.append(base + (size - total) // 2)
        sizes.append(size)
    origin = tuple(o - left * s for o, left, s in zip(f.origin, lefts, f.spacing))
    return GridSignal._own(_placed(f.values, lefts, sizes), f.spacing, origin)


def blur(f: GridSignal) -> GridSignal:
    """Gaussian blur by spectrum multiplication on a zero-padded grid.

    The result lives on the padded grid; its spectrum is exactly the
    input spectrum times the discrete transfer function, so mass is
    preserved up to the kernel's quadrature error.
    """
    _require_float(f)
    padded = padded_for_blur(f)
    transfer = _transfer(padded, half=True)
    with np.errstate(over="ignore", invalid="ignore"):  # GridSignal._own refuses inf and NaN
        spectrum = np.fft.rfftn(padded.values)
        spectrum *= transfer
        values = _irfftn(spectrum, padded.shape)
    return GridSignal._own(values, padded.spacing, padded.origin)


@dataclass(frozen=True)
class SpectrumDiagnostics:
    """Amplification bookkeeping for one deblur run.

    ``log_amplification`` holds ``|u|^2 / 2`` per frequency bin; the
    analytic amplifier is its exponential.  ``noise_gain_log`` is the log
    of the factor mapping white per-sample noise of unit standard
    deviation to the expected L2 error of the reconstruction, over the
    bins that were actually applied.  Error fields are filled in by
    :func:`noise_blowup_experiment`.
    """

    method: str
    band_limit: float | None
    reciprocal_floor: float | None
    log_amplification: np.ndarray
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

    def __post_init__(self):
        arr = np.asarray(self.log_amplification, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "log_amplification", arr)


def _logsumexp(values: np.ndarray, weights: np.ndarray) -> float:
    """log(sum(weights * exp(values))) of a non-empty array, without overflow."""
    m = float(np.max(values))
    terms = values - m
    np.exp(terms, out=terms)
    terms *= weights
    return m + math.log(float(np.sum(terms)))


def _half_multiplicity(n: int) -> np.ndarray:
    """How many full-layout bins each rfft bin of a length-n axis stands for.

    Bin k stands for itself and its mirror n - k; the two coincide when
    2k = 0 (mod n), i.e. at DC and, for even n, at Nyquist.
    """
    k = np.arange(n // 2 + 1)
    return np.where(2 * k % n == 0, 1, 2)


def naive_deblur(g: GridSignal, method: str, *, band_limit: float | None = None,
                 reciprocal_floor: float | None = DEFAULT_RECIPROCAL_FLOOR
                 ) -> tuple[GridSignal, SpectrumDiagnostics]:
    """Invert a Gaussian blur by direct spectral amplification.

    ``discrete-reciprocal`` divides by the sampled kernel's DFT and is the
    exact inverse of :func:`blur` on the same grid wherever the transfer
    function stays above ``reciprocal_floor``; pass a floor of 0 or None
    to divide unconditionally, which raises ``ReciprocalUnderflow`` when
    a spectrum magnitude sits below 1e-300; a NaN floor or band limit is
    refused.  ``analytic-amplifier``
    multiplies by exp(|u|^2/2), zeroing bins past ``band_limit`` or the
    float64 overflow line.

    The work happens in the rfftn half layout; bin counts and the noise
    gain weigh each half-layout bin by the full-layout bins it stands for.
    """
    _require_float(g)
    if method not in DEBLUR_METHODS:
        raise ParameterOutOfRange(
            f"unknown deblur method {method!r}; expected one of {DEBLUR_METHODS}")
    if band_limit is not None and not band_limit > 0:
        raise ParameterOutOfRange("band_limit must be positive")
    if reciprocal_floor is not None and math.isnan(reciprocal_floor):
        raise ParameterOutOfRange("reciprocal_floor must not be NaN")
    usq = _freq_norm_sq(g.shape, g.spacing, half=True)
    if band_limit is None:
        mask = np.ones(usq.shape, dtype=bool)
    else:
        mask = usq <= float(band_limit) ** 2
    if method == "discrete-reciprocal":
        transfer = _transfer(g, half=True)
        magnitude = np.abs(transfer)
        if reciprocal_floor is None or reciprocal_floor <= 0:
            lowest = float(np.min(magnitude[mask])) if mask.any() else 1.0
            if lowest < 1e-300:
                raise ReciprocalUnderflow(lowest)
            floor_used = None
        else:
            mask &= magnitude >= reciprocal_floor
            floor_used = float(reciprocal_floor)
        multiplier = np.divide(1.0, transfer, out=np.zeros_like(transfer), where=mask)
        gain = -np.log(magnitude[mask])
    else:
        log_amp = usq / 2.0
        mask &= log_amp < OVERFLOW_LOG
        floor_used = None
        multiplier = np.exp(log_amp, out=np.zeros_like(log_amp), where=mask)
        gain = log_amp[mask]
    counts = np.broadcast_to(_half_multiplicity(g.shape[-1]), mask.shape)[mask]
    applied = int(counts.sum())
    if applied:
        cell = float(np.prod(g.spacing))
        noise_gain_log = 0.5 * (math.log(cell) + _logsumexp(2.0 * gain, counts))
        max_log = float(np.max(usq[mask])) / 2.0
    else:
        noise_gain_log = None
        max_log = 0.0
    full_log_amp = _freq_norm_sq(g.shape, g.spacing)
    full_log_amp /= 2.0
    diagnostics = SpectrumDiagnostics(
        method=method,
        band_limit=None if band_limit is None else float(band_limit),
        reciprocal_floor=floor_used,
        log_amplification=full_log_amp,
        max_log_amplification=max_log,
        noise_gain_log=noise_gain_log,
        applied_bins=applied,
        suppressed_bins=g.values.size - applied,
    )
    with np.errstate(over="ignore", invalid="ignore"):  # GridSignal._own refuses inf and NaN
        spectrum = np.fft.rfftn(g.values)
        spectrum *= multiplier
        values = _irfftn(spectrum, g.shape)
    recovered = GridSignal._own(values, g.spacing, g.origin)
    return recovered, diagnostics


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
    if sigma < 0:
        raise ParameterOutOfRange("sigma must be >= 0")
    blurred = blur(f)
    rng = np.random.default_rng(seed)
    noise = GridSignal._own(sigma * rng.standard_normal(blurred.shape),
                            blurred.spacing, blurred.origin)
    rec_clean, diag = naive_deblur(blurred, "analytic-amplifier", band_limit=band_limit)
    rec_noise, _ = naive_deblur(noise, "analytic-amplifier", band_limit=band_limit)
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


@dataclass(frozen=True)
class ProbeReport:
    """Best least-squares attempt at a compactly supported convolution inverse."""

    radius: float
    spacing: float
    taps: int
    relative_residual: float


def inverse_probe(radius: float, spacing: float = 0.05,
                  domain_radius: float = 16.0) -> ProbeReport:
    """Least-squares search for a kernel k with h * k close to a unit spike.

    Discretizes candidate taps on [-radius, radius] and measures the best
    achievable relative L2 residual against a discrete delta on the fixed
    domain [-domain_radius, domain_radius].  Nested tap sets make the
    residual non-increasing in the radius; observed values plateau well
    above zero, consistent with no compactly supported inverse existing.
    """
    if radius <= 0:
        raise ParameterOutOfRange("radius must be positive")
    _require_fine((spacing,))
    if radius > domain_radius - KERNEL_REACH:
        raise ParameterOutOfRange(
            f"radius {radius} leaves no kernel reach inside domain {domain_radius}")
    half_taps = int(math.floor(radius / spacing + 1e-9))
    taps = spacing * np.arange(-half_taps, half_taps + 1)
    half_grid = int(round(domain_radius / spacing))
    x = spacing * np.arange(-half_grid, half_grid + 1)
    density = GaussianKernelSpec(1).density
    matrix = spacing * density(x[:, None] - taps[None, :])
    target = np.zeros(x.size)
    target[half_grid] = 1.0 / spacing
    coeffs, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    residual = matrix @ coeffs - target
    rel = float(np.linalg.norm(residual) / np.linalg.norm(target))
    return ProbeReport(
        radius=float(radius), spacing=float(spacing),
        taps=2 * half_taps + 1, relative_residual=rel)
