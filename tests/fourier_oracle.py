"""Reference oracle: the complex Fourier route of the Gaussian pipeline.

These are ``blur`` and ``naive_deblur`` as computed before the real-FFT
pipeline: a full complex ``ifftn``/``fftn`` round trip with origin phase
factors, and a transfer function taken as the complex DFT of the kernel
density sampled along each axis of the grid, multiplied out.
``test_fourier_oracle`` checks the library against them.

:func:`filtered` is the filter step as it was before its FFT passes ran in
place: ``rfftn``, an in-place multiply and ``irfftn``, each pass on a fresh
array.  The library's step must give its bytes.
"""
from __future__ import annotations

import math

import numpy as np

from deconv import GaussianKernelSpec, GridSignal, padded_for_blur
from deconv.gaussian import OVERFLOW_LOG


def _freq_norm_sq(shape, spacing) -> np.ndarray:
    total = None
    d = len(shape)
    for ax in range(d):
        u = 2.0 * np.pi * np.fft.fftfreq(shape[ax], d=spacing[ax])
        view = [1] * d
        view[ax] = -1
        part = (u ** 2).reshape(view)
        total = part if total is None else total + part
    return total


def filtered(g: GridSignal, table: np.ndarray) -> GridSignal:
    """``g`` with its rfftn half spectrum multiplied by ``table``, on ``g``'s grid."""
    with np.errstate(over="ignore", invalid="ignore"):  # GridSignal._own refuses inf and NaN
        spectrum = np.fft.rfftn(g.values)
        spectrum *= table
        values = np.fft.irfftn(spectrum, s=g.shape, axes=tuple(range(g.dimension)))
    return GridSignal._own(values, g.spacing, g.origin)


def dft_forward(f: GridSignal) -> np.ndarray:
    vals = np.fft.ifftn(f.values) * f.values.size * float(np.prod(f.spacing))
    for ax in range(f.dimension):
        u = 2.0 * np.pi * np.fft.fftfreq(f.shape[ax], d=f.spacing[ax])
        view = [1] * f.dimension
        view[ax] = -1
        vals = vals * np.exp(1j * u * f.origin[ax]).reshape(view)
    return vals


def dft_inverse(vals: np.ndarray, like: GridSignal) -> GridSignal:
    d = vals.ndim
    for ax in range(d):
        u = 2.0 * np.pi * np.fft.fftfreq(vals.shape[ax], d=like.spacing[ax])
        view = [1] * d
        view[ax] = -1
        vals = vals * np.exp(-1j * u * like.origin[ax]).reshape(view)
    out = np.fft.fftn(vals) / (vals.size * float(np.prod(like.spacing)))
    return GridSignal(out.real, like.spacing, like.origin)


def kernel_spectrum(spec: GaussianKernelSpec, like: GridSignal) -> np.ndarray:
    """DFT of the kernel sampled at the wrapped offsets of ``like``'s grid.  The
    kernel is separable, so in 2D this is the outer product of the axes' 1D
    DFTs, which keeps bins far below the rounding of one 2D FFT."""
    transfer = np.ones(())
    for n, s in zip(like.shape, like.spacing):
        axis = np.fft.ifft(GaussianKernelSpec(1).density(s * np.fft.fftfreq(n) * n)) * n * s
        transfer = np.multiply.outer(transfer, axis)
    return transfer


def periodic_blur(f: GridSignal) -> GridSignal:
    """The discrete periodic blur on ``f``'s own grid, without padding."""
    transfer = kernel_spectrum(GaussianKernelSpec(f.dimension), f)
    return dft_inverse(dft_forward(f) * transfer, f)


def blur(f: GridSignal) -> GridSignal:
    return periodic_blur(padded_for_blur(f))


def _logsumexp(values: np.ndarray) -> float:
    m = float(np.max(values))
    return m + math.log(float(np.sum(np.exp(values - m))))


def naive_deblur(g: GridSignal, method: str, band_limit=None,
                 reciprocal_floor: float = 1e-8) -> tuple[GridSignal, dict]:
    """(recovered, diagnostics) with a positive floor for the reciprocal."""
    forward = dft_forward(g)
    usq = _freq_norm_sq(g.shape, g.spacing)
    log_amp = usq / 2.0
    mask = np.ones(g.shape, dtype=bool)
    if band_limit is not None:
        mask &= usq <= float(band_limit) ** 2
    if method == "discrete-reciprocal":
        transfer = kernel_spectrum(GaussianKernelSpec(g.dimension), g)
        magnitude = np.abs(transfer)
        mask &= magnitude >= reciprocal_floor
        rec_vals = np.where(mask, forward / np.where(mask, transfer, 1.0), 0.0)
        gain_bins = -np.log(np.where(mask, magnitude, 1.0))[mask]
    else:
        mask &= log_amp < OVERFLOW_LOG
        amp = np.where(mask, np.exp(np.where(mask, log_amp, 0.0)), 0.0)
        rec_vals = forward * amp
        gain_bins = log_amp[mask]
    cell = float(np.prod(g.spacing))
    diagnostics = {
        "noise_gain_log": (0.5 * (math.log(cell) + _logsumexp(2.0 * gain_bins))
                           if mask.any() else None),
        "max_log_amplification": float(np.max(log_amp[mask])) if mask.any() else 0.0,
        "applied_bins": int(mask.sum()),
        "suppressed_bins": int((~mask).sum()),
    }
    return dft_inverse(rec_vals, g), diagnostics
