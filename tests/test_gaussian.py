"""Sampling, transforming, blurring, and naively deblurring the gaussian."""
import math
import tracemalloc

import numpy as np
import pytest

from deconv import (
    GaussianKernelSpec,
    GridSignal,
    GridTooCoarse,
    GridTooNarrow,
    ModeMismatch,
    ParameterOutOfRange,
    ReciprocalUnderflow,
    Spectrum,
    blur,
    dft_forward,
    dft_inverse,
    gaussian,
    kernel_spectrum,
    naive_deblur,
    noise_blowup_experiment,
    padded_for_blur,
    two_bump_signal,
)

SPEC_1D = GaussianKernelSpec(1)
SPEC_2D = GaussianKernelSpec(2)


def _centered_gaussian(n=321, spacing=0.05):
    origin = -(n - 1) * spacing / 2
    return GridSignal(SPEC_1D.density(origin + spacing * np.arange(n)), spacing, origin)


def _variance(f):
    """Second central moment of a 1D float signal, normalized by its mass."""
    x, w = f.axis_coordinates(0), np.abs(f.values)
    mean = np.sum(w * x) / np.sum(w)
    return float(np.sum(w * (x - mean) ** 2) / np.sum(w))


def test_density_values():
    assert SPEC_1D.density(0.0) == pytest.approx(1 / math.sqrt(2 * math.pi))
    assert SPEC_1D.density(1.0) == pytest.approx(math.exp(-0.5) / math.sqrt(2 * math.pi))
    assert SPEC_2D.density(0.0, 0.0) == pytest.approx(1 / (2 * math.pi))
    assert SPEC_2D.density(3.0, 4.0) == pytest.approx(
        math.exp(-12.5) / (2 * math.pi))


def test_sampled_kernel_has_unit_mass_and_variance():
    h = _centered_gaussian()
    assert h.mass() == pytest.approx(1.0, abs=1e-12)
    assert _variance(h) == pytest.approx(1.0, abs=1e-9)
    assert h.values[160] == pytest.approx(1 / math.sqrt(2 * math.pi))


def test_kernel_grid_validation():
    with pytest.raises(GridTooCoarse):
        kernel_spectrum(SPEC_1D, GridSignal(np.zeros(100), 0.6, 0.0))
    with pytest.raises(GridTooNarrow):
        kernel_spectrum(SPEC_1D, GridSignal(np.zeros(8), 0.5, 0.0))  # wraps only to 2
    with pytest.raises(ModeMismatch):
        blur(GridSignal.from_lattice_dict({(0,): 1}, dimension=1))


def test_transform_roundtrip():
    rng = np.random.default_rng(7)
    f = GridSignal(rng.standard_normal(64), 0.1, -3.2)
    back = dft_inverse(dft_forward(f))
    assert (back - f).max_abs() <= 1e-10
    g2 = GridSignal(rng.standard_normal((16, 16)), (0.25, 0.5), (-2.0, 0.0))
    assert (dft_inverse(dft_forward(g2)) - g2).max_abs() <= 1e-10


def test_transform_normalization_convention():
    h = _centered_gaussian()
    H = dft_forward(h)
    # zero frequency carries the plain integral
    assert H.values[0].real == pytest.approx(h.mass(), abs=1e-12)
    assert abs(H.values[0].imag) <= 1e-12


def test_kernel_spectrum_matches_analytic_transform():
    f = two_bump_signal()
    padded = padded_for_blur(f)
    transfer = kernel_spectrum(SPEC_1D, padded)
    freqs = 2 * math.pi * np.fft.fftfreq(padded.shape[0], padded.spacing[0])
    band = np.abs(freqs) <= 6.0
    expected = np.exp(-0.5 * freqs[band] ** 2)
    assert np.max(np.abs(transfer[band].real - expected)) <= 1e-4
    assert np.max(np.abs(transfer.imag)) <= 1e-12


def test_padding_rule_is_deterministic():
    f = two_bump_signal()
    padded = padded_for_blur(f)
    assert padded.shape == (1024,)
    assert padded.origin[0] == pytest.approx(-12.8, abs=1e-9)
    assert padded.spacing == (0.05,)
    assert padded.values[256] == f.values[0]


@pytest.mark.parametrize("margin", [-3.0, math.nan, math.inf])
def test_padding_refuses_a_negative_nan_or_infinite_margin(margin):
    f = GridSignal(np.ones(100), 0.1, 0.0)
    with pytest.raises(ParameterOutOfRange, match="margin must be finite and >= 0"):
        padded_for_blur(f, margin)
    assert padded_for_blur(f, 0.0).values.sum() == 100.0  # a zero margin keeps every sample


def test_a_filter_step_holds_one_half_spectrum_its_output_and_a_mask():
    """numpy reports its buffers to tracemalloc.  On a 256^2 grid the half
    spectrum takes 256 * 129 complex128, the output 256^2 float64 and
    ``GridSignal._own``'s finiteness mask 256^2 bools.  Measured under numpy
    2.4.6: 1,119,770 bytes, 1,562 above those three; the slack of 64 KiB is
    far below the 0.5 MB complex grid that rfftn and irfftn add per pass
    (1,583,384 bytes)."""
    g = GridSignal(np.random.default_rng(0).standard_normal((256, 256)), 0.1, 0.0)
    table = gaussian._transfer(g.shape, g.spacing)
    gaussian._filtered(g, table)
    tracemalloc.start()
    try:
        gaussian._filtered(g, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 256 * 129 * 16 + 256 * 256 * (8 + 1) + 64 * 1024


def test_blur_of_impulse_is_sampled_kernel():
    vals = np.zeros(128)
    vals[64] = 1.0 / 0.1  # unit-mass discrete spike
    f = GridSignal(vals, 0.1, -6.4)
    g = blur(f)
    x = np.asarray(g.axis_coordinates(0))
    expected = SPEC_1D.density(x)
    assert np.max(np.abs(g.values - expected)) <= 1e-6
    assert g.mass() == pytest.approx(f.mass(), abs=1e-8)


def test_blur_flattens_and_preserves_mass():
    f = GridSignal(np.ones(256), 0.1, -12.8)
    g = blur(f)
    # interior of a wide constant block stays near 1
    center = g.values[np.abs(np.asarray(g.axis_coordinates(0))) <= 3.0]
    assert np.max(np.abs(center - 1.0)) <= 1e-6
    assert g.mass() == pytest.approx(f.mass(), abs=1e-8)


def test_blur_adds_unit_variance():
    f = blur(two_bump_signal())  # smooth, compactly supported, positive
    g = blur(f)
    assert _variance(g) == pytest.approx(_variance(f) + 1.0, abs=1e-6)


def test_reciprocal_roundtrip_and_floor():
    f = two_bump_signal()
    g = blur(f)
    rec, diag = naive_deblur(g, "discrete-reciprocal")
    reference = f.on_grid_of(g)
    rel = (rec - reference).l2_norm() / reference.l2_norm()
    assert rel <= 1e-6
    assert diag.method == "discrete-reciprocal"
    assert diag.reciprocal_floor == 1e-8
    assert diag.applied_bins + diag.suppressed_bins == g.shape[0]
    assert diag.suppressed_bins > 0  # the far spectrum is unusable in float64
    assert diag.max_log_amplification == pytest.approx(
        -math.log(1e-8), rel=0.05)


def test_reciprocal_without_floor_underflows():
    g = blur(two_bump_signal())
    with pytest.raises(ReciprocalUnderflow):
        naive_deblur(g, "discrete-reciprocal", reciprocal_floor=None)
    with pytest.raises(ReciprocalUnderflow):
        naive_deblur(g, "discrete-reciprocal", reciprocal_floor=0.0)


def test_band_limit_controls_amplification():
    g = blur(two_bump_signal())
    _, wide = naive_deblur(g, "analytic-amplifier", band_limit=8.0)
    _, narrow = naive_deblur(g, "analytic-amplifier", band_limit=4.0)
    assert narrow.applied_bins < wide.applied_bins
    assert narrow.max_log_amplification <= 4.0 ** 2 / 2 + 1e-9
    assert wide.max_log_amplification <= 8.0 ** 2 / 2 + 1e-9
    assert wide.noise_gain_log > narrow.noise_gain_log
    # amplification is exp(u^2/2) >= 1, equality only at u = 0
    multiplier, _ = gaussian._deblur_plan(g, "analytic-amplifier", 8.0, None)
    assert np.min(multiplier[multiplier != 0.0]) >= 1.0
    assert multiplier[0] == 1.0


@pytest.mark.parametrize("method", ["discrete-reciprocal", "analytic-amplifier"])
def test_a_band_limit_whose_square_overflows_bounds_no_bin(method):
    # 1e300 ** 2 overflows a Python float: the band then bounds nothing, as inf does
    g = blur(two_bump_signal())
    huge, huge_diag = naive_deblur(g, method, band_limit=1e300)
    unbounded, unbounded_diag = naive_deblur(g, method, band_limit=math.inf)
    assert np.array_equal(huge.values, unbounded.values)
    assert huge_diag.applied_bins == unbounded_diag.applied_bins
    assert huge_diag.noise_gain_log == unbounded_diag.noise_gain_log


def test_analytic_amplifier_overflow_guard():
    # spacing small enough that the top frequency would overflow exp()
    vals = np.zeros(4096)
    vals[2048] = 1.0
    g = GridSignal(vals, 0.01, -20.48)
    _, diag = naive_deblur(g, "analytic-amplifier")
    assert diag.suppressed_bins > 0
    assert diag.max_log_amplification < 700.0


def test_unknown_method_rejected():
    g = blur(two_bump_signal())
    with pytest.raises(ParameterOutOfRange):
        naive_deblur(g, "wiener")


def test_noise_experiment_prediction_and_linearity():
    f = two_bump_signal()
    diag, rows = noise_blowup_experiment(f, 1e-12, seed=3, band_limit=6.0)
    assert len(rows) == 1
    row = rows[0]
    assert row["band_limit"] == 6.0
    assert 0.1 <= row["ratio"] <= 10.0
    assert row["observed_error"] == pytest.approx(
        row["ratio"] * 1e-12 * math.exp(row["predicted_gain_log"]))
    diag2, rows2 = noise_blowup_experiment(f, 2e-12, seed=3, band_limit=6.0)
    assert rows2[0]["observed_error"] == pytest.approx(
        2 * row["observed_error"], rel=1e-3)
    assert diag2.baseline_error == pytest.approx(diag.baseline_error)


def test_noise_experiment_measures_the_deblur_of_the_noise_alone():
    """By linearity the noise part of the error is the deblur of sigma * noise;
    the difference of two reconstructions carries their amplified rounding."""
    f, sigma, seed, band = two_bump_signal(), 1e-12, 0, 8.0
    diag, rows = noise_blowup_experiment(f, sigma, seed=seed, band_limit=band)
    blurred = blur(f)
    noise = np.random.default_rng(seed).standard_normal(blurred.shape)
    rec_noise, _ = naive_deblur(GridSignal(sigma * noise, blurred.spacing, blurred.origin),
                                "analytic-amplifier", band_limit=band)
    assert rows[0]["observed_error"] == pytest.approx(rec_noise.l2_norm(), rel=1e-12)
    assert diag.noise_error == rows[0]["observed_error"]


def test_noise_experiment_sigma_zero_is_baseline():
    f = two_bump_signal()
    diag, rows = noise_blowup_experiment(f, 0.0, seed=0, band_limit=6.0)
    assert rows[0]["observed_error"] == 0.0
    assert rows[0]["ratio"] == 0.0
    assert diag.total_error == pytest.approx(diag.baseline_error)
    with pytest.raises(ParameterOutOfRange):
        noise_blowup_experiment(f, -1.0, seed=0, band_limit=6.0)


def test_noise_experiment_refuses_a_nan_sigma_up_front():
    with pytest.raises(ParameterOutOfRange, match="sigma must be >= 0") as err:
        noise_blowup_experiment(two_bump_signal(), math.nan, seed=0, band_limit=6.0)
    assert err.value.exit_code == 4


def _least_squares_residual(radius, spacing=0.25):
    """Taps and relative L2 residual of the best kernel on [-radius, radius]
    whose blur approximates a unit spike on [-16, 16]."""
    half = round(radius / spacing)
    taps = spacing * np.arange(-half, half + 1)
    x = spacing * np.arange(-64, 65)
    matrix = spacing * SPEC_1D.density(x[:, None] - taps)
    target = (x == 0) / spacing
    coeffs, *_ = np.linalg.lstsq(matrix, target, rcond=None)
    return taps.size, np.linalg.norm(matrix @ coeffs - target) / np.linalg.norm(target)


def test_inverse_probe_residual_plateaus():
    # nested tap sets make the residual non-increasing in the radius; it
    # plateaus well above zero: no compactly supported inverse exists
    reports = [_least_squares_residual(r) for r in (2.0, 4.0, 8.0)]
    residuals = [residual for _, residual in reports]
    assert residuals == sorted(residuals, reverse=True)
    assert residuals[-1] > 0.5  # nowhere near an inverse
    assert reports[0][0] == 17


def test_spectrum_container_freqs():
    f = GridSignal(np.ones(8), 0.5, 0.0)
    F = dft_forward(f)
    assert isinstance(F, Spectrum)
    freqs = F.freqs(0)
    assert freqs[0] == 0.0
    assert freqs.shape == (8,)
    assert np.max(np.abs(freqs)) == pytest.approx(2 * math.pi * 1.0, rel=1e-12)
