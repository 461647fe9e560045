"""The real-FFT Gaussian pipeline against the complex-route oracle."""
import dataclasses
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fourier_oracle as oracle
from deconv import (
    EXACT,
    DeconvError,
    GaussianKernelSpec,
    GridSignal,
    GridTooCoarse,
    ModeMismatch,
    NonFiniteResult,
    ParameterOutOfRange,
    ReciprocalUnderflow,
    SpectrumDiagnostics,
    blur,
    gaussian,
    kernel_spectrum,
    naive_deblur,
    noise_blowup_experiment,
    padded_for_blur,
)
from deconv.gaussian import (
    DEBLUR_METHODS,
    DEFAULT_RECIPROCAL_FLOOR,
    KERNEL_REACH,
    TABLE_CACHE_GRIDS,
)

SPACINGS = (0.1, 0.25, 0.4, 0.5)
EPS = float(np.finfo(float).eps)


def _grid(draw, dimension, min_span):
    spacing = tuple(draw(st.sampled_from(SPACINGS)) for _ in range(dimension))
    extra = 100 if dimension == 1 else 24
    lows = [max(2, math.ceil(min_span / s)) for s in spacing]
    shape = tuple(draw(st.integers(n, n + extra)) for n in lows)
    origin = tuple(draw(st.sampled_from((-3.3, 0.0, 1.7))) for _ in range(dimension))
    return shape, spacing, origin


@st.composite
def noise(draw, dimension):
    """White normal samples on a grid of any shape, odd or even."""
    shape, spacing, origin = _grid(draw, dimension, 0.0)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return GridSignal(rng.standard_normal(shape), spacing, origin)


@st.composite
def bumps(draw, dimension):
    """A few smooth bumps on a grid wide enough to sample the kernel (span >= 12)."""
    shape, spacing, origin = _grid(draw, dimension, 2 * KERNEL_REACH)
    axes = [o + s * np.arange(n) for n, s, o in zip(shape, spacing, origin)]
    coords = np.meshgrid(*axes, indexing="ij")
    values = np.zeros(shape)
    for _ in range(draw(st.integers(1, 3))):
        amplitude = draw(st.sampled_from((-1, 1))) * draw(st.floats(0.5, 1.5))
        width = draw(st.floats(0.7, 1.5))
        r2 = sum((c - (a[0] + draw(st.floats(0, 1)) * (a[-1] - a[0]))) ** 2
                 for c, a in zip(coords, axes))
        values += amplitude * np.exp(-0.5 * r2 / width ** 2)
    return GridSignal(values, spacing, origin)


def _close(new: GridSignal, old: GridSignal, peak: float = 0.0, tol: float = 1e-9):
    """Within ``tol`` of the larger of ``peak`` and the oracle output's peak."""
    assert new.shape == old.shape
    assert new.spacing == old.spacing and new.origin == old.origin
    scale = max(peak, _peak(old))
    assert float(np.max(np.abs(new.values - old.values))) <= tol * scale


def _peak(f: GridSignal) -> float:
    return float(np.max(np.abs(f.values)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(noise))
def test_blur_matches_oracle(f):
    _close(blur(f), oracle.blur(f))


def _deblur_matches(g, method, band_limit, peak, amplified=False, reciprocal_floor=1e-8):
    """Compare values and diagnostics; return the deblur.  With ``amplified``,
    the value tolerance grows to the forward transform's rounding error (eps
    of the peak) times the largest gain applied, when that exceeds 1e-9."""
    new, diag = naive_deblur(g, method, band_limit=band_limit, reciprocal_floor=reciprocal_floor)
    old, want = oracle.naive_deblur(g, method, band_limit=band_limit,
                                    reciprocal_floor=reciprocal_floor)
    gain = math.exp(want["max_log_amplification"])
    _close(new, old, peak, max(1e-9, EPS * gain) if amplified else 1e-9)
    assert diag.applied_bins == want["applied_bins"]
    assert diag.suppressed_bins == want["suppressed_bins"]
    assert diag.max_log_amplification == want["max_log_amplification"]
    if want["noise_gain_log"] is None:
        assert diag.noise_gain_log is None
    else:
        assert diag.noise_gain_log == pytest.approx(want["noise_gain_log"], rel=1e-9)
    return new, diag


# Deblurring a periodic blur of smooth bumps on their own grid recovers the
# bumps.  The reciprocal at its 1e-8 floor multiplies the rounding error of
# the forward transform by up to 1e8, so there the two routes differ by a
# few 1e-9 of the peak (measured: at most 2.8e-9 over 200 random grids,
# against 1e-13 at band limit 4); that case is held to eps times the gain.
# The analytic amplifier is band-limited here: past the bumps' spectrum it
# only amplifies rounding noise (the test on any grid below covers
# the unlimited amplifier on white noise, whose spectrum is all signal).
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 2).flatmap(bumps),
       st.sampled_from([("discrete-reciprocal", b) for b in (None, 1.5, 4.0, 8.0)]
                       + [("analytic-amplifier", b) for b in (1.5, 4.0, 5.0)]))
def test_deblur_matches_oracle(f, case):
    method, band_limit = case
    _deblur_matches(oracle.periodic_blur(f), method, band_limit, _peak(f), amplified=True)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(noise), st.sampled_from((None, 0.5, 3.0)))
def test_analytic_deblur_on_any_grid_matches_oracle(g, band_limit):
    _deblur_matches(g, "analytic-amplifier", band_limit, 0.0)


@pytest.mark.parametrize("shape", [(47,), (48,), (31, 33), (32, 31), (33, 32)])
def test_odd_and_even_shapes_count_mirror_bins(shape):
    axes = [0.5 * np.arange(n) - 8.0 for n in shape]
    r2 = sum(np.meshgrid(*[a ** 2 for a in axes], indexing="ij"))
    f = GridSignal(np.exp(-0.5 * r2), (0.5,) * len(shape), (0.0,) * len(shape))
    g = oracle.periodic_blur(f)
    for method, band_limit in (("discrete-reciprocal", None), ("discrete-reciprocal", 4.0),
                               ("analytic-amplifier", 4.0)):
        _deblur_matches(g, method, band_limit, 1.0, amplified=True)


# On a spacing-0.5 grid every bin of the transfer function stays above 1e-300,
# so a floor of None or 0 divides by every bin.  In 2D the corner bins fall to
# 1e-17; the oracle takes them, as deconv does, from an outer product of 1D
# spectra, and on 24x27 the noise gains agree to 1.5e-11 relative (37.688312
# on both sides), while the values differ by at most 0.012 on a 0.97 peak at
# a gain of 3.3e16, inside eps times the gain.
@pytest.mark.parametrize("shape", [(32,), (33,), (24, 27)])
def test_reciprocal_without_a_floor_divides_every_bin_as_the_oracle_does(shape):
    f = _smooth(shape, (0.5,) * len(shape))
    g = oracle.periodic_blur(f)
    zero = _deblur_matches(g, "discrete-reciprocal", None, _peak(f), amplified=True,
                           reciprocal_floor=0.0)
    none = naive_deblur(g, "discrete-reciprocal", reciprocal_floor=None)
    assert _bytes(none) == _bytes(zero)
    assert none[1].reciprocal_floor is None


@pytest.mark.parametrize("shape", [(32,), (24, 27)])
def test_a_floor_above_every_transfer_bin_applies_none(shape):
    f = _smooth(shape, (0.5,) * len(shape))
    out, diag = _deblur_matches(oracle.periodic_blur(f), "discrete-reciprocal", None,
                                _peak(f), reciprocal_floor=2.0)
    assert not out.values.any()
    assert (diag.applied_bins, diag.noise_gain_log, diag.max_log_amplification) == (0, None, 0.0)
    assert diag.reciprocal_floor == 2.0


@pytest.mark.parametrize("shape", [(64,), (47,), (32, 40), (31, 33)])
def test_kernel_spectrum_matches_oracle(shape):
    like = GridSignal(np.zeros(shape), (0.4,) * len(shape), (0.0,) * len(shape))
    spec = GaussianKernelSpec(len(shape))
    new = kernel_spectrum(spec, like)
    old = oracle.kernel_spectrum(spec, like)
    assert new.dtype == complex and new.shape == shape
    assert float(np.max(np.abs(new - old))) <= 1e-14


def test_dft_inverse_returns_contiguous_samples_with_the_bytes_of_the_complex_route():
    rng = np.random.default_rng(3)
    for shape in ((64,), (64, 64), (15, 22)):
        f = GridSignal(rng.standard_normal(shape), 0.25, -1.5)
        spectrum = gaussian.dft_forward(f)
        back = gaussian.dft_inverse(spectrum)
        assert back.values.flags.c_contiguous and back.values.base is None
        assert back.values.tobytes() == oracle.dft_inverse(spectrum.values, f).values.tobytes()


# --- the filter step -------------------------------------------------------------


@st.composite
def filter_steps(draw):
    """A 1D or 2D signal with 2 to 40 samples per axis and a half-layout table
    whose entries are zero, or of either sign with gains from 1 to 1e8."""
    shape = tuple(draw(st.lists(st.integers(2, 40), min_size=1, max_size=2)))
    spacing = tuple(draw(st.sampled_from(SPACINGS)) for _ in shape)
    origin = tuple(draw(st.sampled_from((-3.3, 0.0, 1.7))) for _ in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    table = rng.choice((-1.0, 1.0), half) * 10.0 ** rng.uniform(0.0, 8.0, half)
    table[rng.random(half) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
    return GridSignal(rng.standard_normal(shape), spacing, origin), table


@settings(max_examples=200, deadline=None)
@given(filter_steps())
def test_filter_step_gives_the_bytes_of_rfftn_and_irfftn(step):
    new, old = gaussian._filtered(*step), oracle.filtered(*step)
    assert (new.spacing, new.origin) == (old.spacing, old.origin)
    assert new.values.shape == old.values.shape
    assert new.values.tobytes() == old.values.tobytes()


@pytest.mark.parametrize("shape", [(7,), (8,), (5, 6), (6, 5)])
def test_filter_step_refuses_a_table_that_overflows_as_the_oracle_does(shape):
    g = GridSignal(np.full(shape, 1e300), 0.5, 0.0)
    table = np.full(shape[:-1] + (shape[-1] // 2 + 1,), 1e10)
    for step in (gaussian._filtered, oracle.filtered):
        with pytest.raises(NonFiniteResult):
            step(g, table)


def test_a_refused_filter_step_leaves_the_next_one_on_its_shape_right():
    """The refused step puts its half spectrum, full of inf and NaN, back
    among the free buffers; the next step on that shape takes it."""
    shape = (6, 5)
    with pytest.raises(NonFiniteResult):
        gaussian._filtered(GridSignal(np.full(shape, 1e300), 0.5, 0.0), np.full((6, 3), 1e10))
    assert not np.isfinite(gaussian._SPECTRA[(6, 3)]).all()
    rng = np.random.default_rng(5)
    f = GridSignal(rng.standard_normal(shape), 0.5, 0.0)
    table = rng.standard_normal((6, 3))
    assert gaussian._filtered(f, table).values.tobytes() \
        == oracle.filtered(f, table).values.tobytes()


def _outcome(step, *args):
    """The output bytes of a filter step, or the refusal it raises."""
    try:
        out = step(*args)
    except NonFiniteResult as exc:
        return "refused", str(exc)
    return out.spacing, out.origin, out.values.shape, out.values.tobytes()


def _zero_padded(table: np.ndarray, shape) -> np.ndarray:
    full = np.zeros(shape[:-1] + (shape[-1] // 2 + 1,))
    full[..., : table.shape[-1]] = table
    return full


def _signed_zeros(rng, shape) -> np.ndarray:
    return rng.choice((-0.0, 0.0), shape)


@st.composite
def narrow_filter_steps(draw):
    """A 1D or 2D signal with 2 to 40 samples per axis and a table narrower
    than its half spectrum, entries as in :func:`filter_steps`.  The samples
    are normal, all +-0.0, +-0.0 with one spike of +-5e-324, near 1e300 or
    up to 1.6e308 and alternating in sign, whose highest bins overflow."""
    shape = tuple(draw(st.lists(st.integers(2, 40), min_size=1, max_size=2)))
    spacing = tuple(draw(st.sampled_from(SPACINGS)) for _ in shape)
    origin = tuple(draw(st.sampled_from((-3.3, 0.0, 1.7))) for _ in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("normal", "zeros", "spike", "huge", "alternating")))
    if kind == "normal":
        values = rng.standard_normal(shape)
    elif kind == "huge":
        values = rng.standard_normal(shape) * 10.0 ** rng.uniform(299.0, 301.0)
    elif kind == "alternating":
        values = (-1.0) ** np.indices(shape).sum(axis=0) * 10.0 ** rng.uniform(305.0, 308.2)
    else:
        values = _signed_zeros(rng, shape)
        if kind == "spike":
            values.flat[rng.integers(values.size)] = rng.choice((-5e-324, 5e-324))
    narrow = shape[:-1] + (draw(st.integers(0, shape[-1] // 2)),)
    table = rng.choice((-1.0, 1.0), narrow) * 10.0 ** rng.uniform(0.0, 8.0, narrow)
    table[rng.random(narrow) < draw(st.sampled_from((0.0, 0.3, 1.0)))] = 0.0
    return GridSignal(values, spacing, origin), table


# A narrow table skips the leading-axis passes of the columns past its width;
# the refusals, the exact zeros whose sign those passes set, and the 5e-324
# spikes that round to such zeros must come out as the full passes give them.
@settings(max_examples=300, deadline=None)
@given(narrow_filter_steps())
def test_a_narrow_table_filters_as_the_oracle_does_with_it_zero_padded(step):
    g, table = step
    assert _outcome(gaussian._filtered, g, table) \
        == _outcome(oracle.filtered, g, _zero_padded(table, g.shape))


def _pruned_calls(monkeypatch) -> list[bool]:
    """The ``prune`` flag of every pass set :func:`gaussian._filtered` runs from now on."""
    calls = []
    passes = gaussian._passes

    def spy(*args):
        calls.append(bool(args[-1]))
        return passes(*args)

    monkeypatch.setattr(gaussian, "_passes", spy)
    return calls


def test_signals_past_the_overflow_bound_take_the_full_passes(monkeypatch):
    """Rows 1 to 7 alternate in sign, so their rfft is all in the last column,
    and its column pass overflows; column 0 holds row 0's 1.0 and stays finite."""
    calls = _pruned_calls(monkeypatch)
    table = np.ones((8, 1))
    for peak, pruned in ((gaussian.PRUNE_BOUND / 48, True),
                         (np.nextafter(gaussian.PRUNE_BOUND / 48, math.inf), False)):
        g = GridSignal(np.full((8, 6), peak), 0.5, 0.0)
        assert _outcome(gaussian._filtered, g, table) \
            == _outcome(oracle.filtered, g, _zero_padded(table, g.shape))
        assert calls[-1:] == [pruned]
    values = np.zeros((8, 6))
    values[1:] = 1e307 * (-1.0) ** np.arange(6)
    values[0, 0] = 1.0
    g = GridSignal(values, 0.5, 0.0)
    for step, used in ((gaussian._filtered, table), (oracle.filtered, _zero_padded(table, (8, 6)))):
        with pytest.raises(NonFiniteResult):
            step(g, used)
    assert calls[-1:] == [False]


@pytest.mark.parametrize("shape", [(9,), (12,), (6, 7), (8, 10)])
def test_an_exact_zero_output_takes_the_full_passes(monkeypatch, shape):
    """Signed zeros, one of them a 5e-324 spike that the narrow band rounds
    away: the pruned passes give exact zeros, so the full ones run again."""
    calls = _pruned_calls(monkeypatch)
    values = _signed_zeros(np.random.default_rng(4), shape)
    values.flat[1] = -5e-324
    g = GridSignal(values, 0.5, 0.0)
    table = np.full(shape[:-1] + (2,), 3.0)
    assert _outcome(gaussian._filtered, g, table) \
        == _outcome(oracle.filtered, g, _zero_padded(table, shape))
    assert calls == [True, False]


@st.composite
def padded_blurs(draw):
    """A 2D signal of 2 to 40 samples per axis, normal, all +-0.0, or +-0.0
    with one spike, on a grid that samples the kernel."""
    shape = tuple(draw(st.lists(st.integers(2, 40), min_size=2, max_size=2)))
    spacing = tuple(draw(st.sampled_from((0.25, 0.4, 0.5))) for _ in shape)
    origin = tuple(draw(st.sampled_from((-3.3, 0.0, 1.7))) for _ in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(("normal", "zeros", "spike")))
    values = rng.standard_normal(shape) if kind == "normal" else _signed_zeros(rng, shape)
    if kind == "spike":
        values.flat[rng.integers(values.size)] = rng.choice((-5e-324, 5e-324))
    return GridSignal(values, spacing, origin)


# Blur skips the rfft of the rows its padding leaves zero and copies the
# cached rfft of a zero row, -0.0 imaginary parts and all, into them.
@settings(max_examples=100, deadline=None)
@given(padded_blurs())
def test_blur_gives_the_bytes_of_the_full_filter_step_on_its_padded_grid(f):
    padded = padded_for_blur(f)
    transfer = gaussian._transfer(padded.shape, padded.spacing)
    assert _outcome(blur, f) == _outcome(oracle.filtered, padded, transfer)


# Found by search: with +0.0 in place of the rfft of a zero row, an exact zero
# of each of these blurs flips its sign.
@pytest.mark.parametrize("shape, spacing, index, spike", [
    ((2, 2), 0.4, 3, -5e-324), ((3, 4), 0.5, 4, 5e-324), ((6, 5), 0.5, 8, -5e-324)])
def test_a_blurred_lone_spike_keeps_the_signed_zeros_of_the_full_filter_step(shape, spacing,
                                                                            index, spike):
    values = np.zeros(shape)
    values.flat[index] = spike
    f = GridSignal(values, spacing, 0.0)
    padded = padded_for_blur(f)
    want = oracle.filtered(padded, gaussian._transfer(padded.shape, padded.spacing))
    assert blur(f).values.tobytes() == want.values.tobytes()


def test_the_zero_row_spectrum_is_the_rfft_of_zeros_and_read_only():
    for n in (2, 8, 512):
        row = gaussian._zero_row(n)
        assert row.tobytes() == np.fft.rfft(np.zeros(n)).tobytes()
        with pytest.raises(ValueError):
            row[0] = 1.0
    assert np.signbit(gaussian._zero_row(512).imag).any()


# Four threads, more than the cores of most test machines, with a short switch
# interval: a buffer that two steps shared would mix their spectra.
def test_threads_filtering_on_one_grid_give_the_bytes_of_serial_steps():
    rng = np.random.default_rng(9)
    table = gaussian._transfer((96, 80), (0.25, 0.25))
    signals = [GridSignal(rng.standard_normal((96, 80)), 0.25, 0.0) for _ in range(4)]
    want = [gaussian._filtered(f, table).values.tobytes() for f in signals]
    steps = []

    def run(f, expected):
        for _ in range(50):
            steps.append(gaussian._filtered(f, table).values.tobytes() == expected)

    threads = [threading.Thread(target=run, args=pair) for pair in zip(signals, want)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(steps) == 200 and all(steps)


# --- the grid tables cached by (shape, spacing) ---------------------------------


def _clear_tables():
    for table in vars(gaussian).values():
        if hasattr(table, "cache_clear"):
            table.cache_clear()


def _bytes(value):
    """Every value and diagnostic of a result, arrays as dtype, shape and bytes."""
    if isinstance(value, GridSignal):
        return ("grid", value.spacing, value.origin, _bytes(value.values))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _bytes(getattr(value, f.name))) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return tuple(_bytes(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _bytes(v)) for k, v in value.items()))
    return repr(value)


def _smooth(shape, spacing):
    axes = [s * np.arange(n) for n, s in zip(shape, spacing)]
    r2 = sum(np.meshgrid(*[(a - a[-1] / 2) ** 2 for a in axes], indexing="ij"))
    return GridSignal(np.exp(-0.5 * r2), spacing, (0.0,) * len(shape))


def _pipeline(f):
    blurred = blur(f)
    return (blurred,
            naive_deblur(blurred, "discrete-reciprocal"),
            naive_deblur(blurred, "analytic-amplifier", band_limit=4.0),
            noise_blowup_experiment(f, 1e-9, 3, 4.0))


@pytest.mark.parametrize("shape, spacing", [((200,), (0.1,)), ((60, 52), (0.25, 0.4))])
def test_cold_and_warm_tables_give_the_same_bytes_and_match_the_oracle(shape, spacing):
    f = _smooth(shape, spacing)
    _clear_tables()
    cold = _pipeline(f)
    warm = _pipeline(f)
    assert _bytes(cold) == _bytes(warm)
    blurred, _, _, (noise_diag, _) = warm
    _close(blurred, oracle.blur(f))
    for method, band_limit in (("discrete-reciprocal", None), ("analytic-amplifier", 4.0)):
        _deblur_matches(blurred, method, band_limit, _peak(f), amplified=True)
    _, want = oracle.naive_deblur(blurred, "analytic-amplifier", band_limit=4.0)
    assert noise_diag.applied_bins == want["applied_bins"]


def test_a_blur_both_deblurs_and_a_noise_run_on_one_grid_build_one_table_set():
    f = _smooth((200,), (0.1,))
    _clear_tables()
    _pipeline(f)
    info = gaussian._transfer.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # a reciprocal plan and one analytic plan at band 4, which the noise run reuses
    info = gaussian._grid_plan.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 1, 2)
    naive_deblur(blur(f), "analytic-amplifier", band_limit=4, reciprocal_floor=0.5)
    assert gaussian._grid_plan.cache_info().misses == 2


def test_grids_of_one_shape_and_different_spacings_get_their_own_tables():
    spec = GaussianKernelSpec(1)
    likes = [GridSignal(np.zeros(64), s, 0.0) for s in (0.25, 0.4, 0.25, 0.4)]
    spectra = [kernel_spectrum(spec, like) for like in likes]
    diags = [naive_deblur(like, "discrete-reciprocal")[1] for like in likes]
    transfers = [gaussian._transfer(like.shape, like.spacing) for like in likes]
    assert not np.array_equal(spectra[0], spectra[1])
    assert not np.array_equal(transfers[0], transfers[1])
    assert diags[0].noise_gain_log != diags[1].noise_gain_log
    for like, spectrum, diag, transfer in zip(likes, spectra, diags, transfers):
        want = oracle.kernel_spectrum(spec, like)
        assert float(np.max(np.abs(spectrum - want))) <= 1e-14
        assert float(np.max(np.abs(transfer - want[: transfer.size].real))) <= 1e-14
        _, want_diag = oracle.naive_deblur(like, "discrete-reciprocal")
        assert diag.applied_bins == want_diag["applied_bins"]
        assert diag.max_log_amplification == want_diag["max_log_amplification"]


def test_cached_tables_refuse_writes_and_kernel_spectrum_returns_a_copy():
    f = _smooth((200,), (0.1,))
    before = blur(f)
    padded = padded_for_blur(f)
    with pytest.raises(ValueError):
        gaussian._transfer(padded.shape, padded.spacing)[0] = 1.0
    for method in DEBLUR_METHODS:
        multiplier, _ = gaussian._deblur_plan(before, method, 4.0, None)
        with pytest.raises(ValueError):
            multiplier[0] = 1.0
    spectrum = kernel_spectrum(GaussianKernelSpec(1), padded)
    spectrum[:] = 0.0
    assert kernel_spectrum(GaussianKernelSpec(1), padded)[0] != 0.0
    assert _bytes(blur(f)) == _bytes(before)


# --- the deblur plans cached by grid and method ---------------------------------

PLAN_GRIDS = (((48,), (0.5,)), ((64,), (0.25,)), ((24, 27), (0.5, 0.5)),
              ((32, 30), (0.4, 0.5)), ((1024,), (0.05,)))
PLAN_KEYS = st.tuples(st.sampled_from(PLAN_GRIDS), st.sampled_from(DEBLUR_METHODS),
                      st.sampled_from((None, 2, 3.5, 5.0, math.inf)),
                      st.sampled_from((None, 0.0, 1e-8, 1e-3)))
PLAN_BOUND = TABLE_CACHE_GRIDS * len(DEBLUR_METHODS)


def _cache_key(key):
    """The arguments :func:`gaussian._grid_plan` caches a plan under."""
    (shape, spacing), method, band_limit, floor = key
    return (shape, spacing, method, None if band_limit is None else float(band_limit),
            None if method == "analytic-amplifier" or floor is None else floor)


def _plan_or_error(plan, *args):
    try:
        return _bytes(plan(*args))
    except DeconvError as exc:  # a refusal must be the same on both sides
        return type(exc), str(exc)


# More distinct keys than the cache holds, then a revisit of them in any
# order: every plan, cold, warm or rebuilt after eviction, and every
# refusal (1024 samples at 0.05 underflow without a floor) equals the
# uncached plan's.
@settings(max_examples=40, deadline=None)
@given(st.lists(PLAN_KEYS, min_size=PLAN_BOUND + 1, max_size=10, unique_by=_cache_key).flatmap(
    lambda keys: st.lists(st.sampled_from(keys), min_size=5, max_size=20).map(
        lambda order: keys + order)))
def test_cached_plans_equal_the_uncached_plan_byte_for_byte(keys):
    _clear_tables()
    for key in keys:
        (shape, spacing), method, band_limit, floor = key
        g = GridSignal(np.zeros(shape), spacing, 0.0)
        want = _plan_or_error(gaussian._grid_plan.__wrapped__, *_cache_key(key))
        assert _plan_or_error(gaussian._deblur_plan, g, method, band_limit, floor) == want
    info = gaussian._grid_plan.cache_info()
    assert info.currsize <= PLAN_BOUND < info.misses


def test_a_band_of_5_and_of_5_0_share_one_plan():
    g = GridSignal(np.zeros(64), 0.25, 0.0)
    _clear_tables()
    plans = [gaussian._deblur_plan(g, "analytic-amplifier", band, None) for band in (5, 5.0)]
    assert plans[0] is plans[1]
    assert type(plans[0][1].band_limit) is float
    assert gaussian._grid_plan.cache_info().misses == 1


# A plan's multiplier ends with the last half-layout column that holds an
# applied bin: that column holds a nonzero, and the nonzero bins it keeps,
# counted with their multiplicities, are every applied bin.
@settings(max_examples=40, deadline=None)
@given(PLAN_KEYS)
def test_a_plan_multiplier_is_read_only_and_ends_at_its_last_applied_column(key):
    (shape, spacing), method, band_limit, floor = key
    try:
        multiplier, diag = gaussian._grid_plan(*_cache_key(key))
    except DeconvError:
        return
    half = shape[:-1] + (shape[-1] // 2 + 1,)
    width = multiplier.shape[-1]
    assert multiplier.shape[:-1] == half[:-1] and width <= half[-1]
    assert not multiplier.flags.writeable and multiplier.flags.c_contiguous
    assert width == 0 or multiplier[..., -1].any()
    multiplicity = gaussian._half_log_amplification(shape, spacing)[1][:width]
    assert int(np.sum((multiplier != 0) * multiplicity)) == diag.applied_bins


def _arrays(value):
    """Every array in a plan, its diagnostics' fields included."""
    if isinstance(value, np.ndarray):
        return [value]
    if dataclasses.is_dataclass(value):
        value = [getattr(value, f.name) for f in dataclasses.fields(value)]
    if isinstance(value, (tuple, list)):
        return [a for v in value for a in _arrays(v)]
    return []


# A plan's diagnostics once carried its grid's full-layout |u|^2 / 2, which
# kept that array alive in the plan cache after the grid's tables were evicted.
def test_cached_plans_hold_only_their_cropped_multipliers():
    assert not any("ndarray" in str(f.type) for f in dataclasses.fields(SpectrumDiagnostics))
    keys = [((512, 512), (0.1, 0.1)), ((64,), (0.25,)), ((24, 27), (0.5, 0.5))]
    assert len(keys) == TABLE_CACHE_GRIDS + 1
    _clear_tables()
    for shape, spacing in keys:
        gaussian._deblur_plan(GridSignal(np.zeros(shape), spacing, 0.0), "discrete-reciprocal",
                              None, DEFAULT_RECIPROCAL_FLOOR)
    assert gaussian._transfer.cache_info().currsize <= TABLE_CACHE_GRIDS
    misses = gaussian._grid_plan.cache_info().misses
    plans = [gaussian._grid_plan(shape, spacing, "discrete-reciprocal", None,
                                 DEFAULT_RECIPROCAL_FLOOR) for shape, spacing in keys]
    assert gaussian._grid_plan.cache_info().misses == misses  # every plan is the cached one
    for multiplier, diag in plans:
        arrays = _arrays((multiplier, diag))
        assert len(arrays) == 1 and arrays[0] is multiplier and multiplier.base is None
    assert plans[0][0].nbytes == 204_800


@pytest.mark.parametrize("method, band_limit, width", [
    ("discrete-reciprocal", None, 50), ("analytic-amplifier", 5.0, 41)])
def test_the_spectral_benchmark_plans_keep_a_fifth_of_the_columns(method, band_limit, width):
    g = GridSignal(np.zeros((512, 512)), 0.1, 0.0)
    multiplier, _ = gaussian._deblur_plan(g, method, band_limit, 1e-8)
    assert multiplier.shape == (512, width)


@pytest.mark.parametrize("g, method, band_limit, floor, error", [
    (GridSignal(np.zeros(64), 0.25, 0.0), "analytic-amplifier", math.nan, None,
     ParameterOutOfRange),
    (GridSignal(np.zeros(64), 0.25, 0.0), "analytic-amplifier", 0.0, None, ParameterOutOfRange),
    (GridSignal(np.zeros(64), 0.25, 0.0), "analytic-amplifier", -2, None, ParameterOutOfRange),
    (GridSignal(np.zeros(64), 0.25, 0.0), "discrete-reciprocal", None, math.nan,
     ParameterOutOfRange),
    (GridSignal(np.zeros(64), 0.25, 0.0), "wiener", None, None, ParameterOutOfRange),
    (GridSignal.from_lattice_dict({(0,): 1, (1,): 2}, dimension=1, mode=EXACT),
     "analytic-amplifier", None, None, ModeMismatch),
    (GridSignal(np.zeros(64), 0.75, 0.0), "discrete-reciprocal", None, 1e-8, GridTooCoarse),
    (GridSignal(np.zeros(1024), 0.05, 0.0), "discrete-reciprocal", None, 0.0,
     ReciprocalUnderflow),
])
def test_a_refused_plan_is_refused_again_on_an_identical_call(g, method, band_limit, floor,
                                                              error):
    _clear_tables()
    messages = []
    for _ in range(2):
        with pytest.raises(error) as caught:
            gaussian._deblur_plan(g, method, band_limit, floor)
        messages.append(str(caught.value))
    assert messages[0] == messages[1]
    assert gaussian._grid_plan.cache_info().currsize == 0


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(2, 300), min_size=1, max_size=2).flatmap(
    lambda shape: st.tuples(st.just(tuple(shape)),
                            st.tuples(*[st.floats(1e-3, 0.5) for _ in shape]))))
def test_log_amplification_is_the_oracle_norm_halved(grid):
    shape, spacing = grid
    full = oracle._freq_norm_sq(shape, spacing) / 2.0
    k = np.arange(shape[-1] // 2 + 1)
    half = full[..., k]
    log_amp, multiplicity = gaussian._half_log_amplification(shape, spacing)
    assert log_amp.dtype == half.dtype and log_amp.shape == half.shape
    assert log_amp.tobytes() == half.tobytes()
    # rfft bin k stands for the full-layout bins k and n - k, which hold its bytes
    mirror = (-k) % shape[-1]
    assert full[..., mirror].tobytes() == half.tobytes()
    assert multiplicity.tolist() == [len({a, b}) for a, b in zip(k, mirror)]


# The noise experiment plans its amplifier once and filters the clean blur
# and the noise with it; two public deblurs, one per signal, are the oracle.
@settings(max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(bumps), st.floats(0.5, 8.0),
       st.sampled_from((0.0, 1e-12, 1e-9, 1e-6, 1e-3)), st.integers(0, 2 ** 32 - 1))
def test_noise_experiment_errors_equal_two_public_deblurs(f, band_limit, sigma, seed):
    diag, _ = noise_blowup_experiment(f, sigma, seed, band_limit)
    blurred = blur(f)
    noise = GridSignal(sigma * np.random.default_rng(seed).standard_normal(blurred.shape),
                       blurred.spacing, blurred.origin)
    rec_clean, want = naive_deblur(blurred, "analytic-amplifier", band_limit=band_limit)
    rec_noise, _ = naive_deblur(noise, "analytic-amplifier", band_limit=band_limit)
    reference = f.on_grid_of(blurred)
    assert diag.noise_error == rec_noise.l2_norm()
    assert diag.baseline_error == (rec_clean - reference).l2_norm()
    assert diag.total_error == (rec_clean + rec_noise - reference).l2_norm()
    assert _bytes(dataclasses.replace(diag, sigma=None, seed=None, total_error=None,
                                      noise_error=None, baseline_error=None, ratio=None)) \
        == _bytes(want)
