"""End-to-end behavior of the command line interface."""
import contextlib
import io
import os
import subprocess
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import deconv
from deconv import (
    EXACT,
    FLOAT,
    AtomicMeasure,
    GridSignal,
    InsufficientTruncation,
    apply_to_signal,
    binomial_inverse,
    binomial_kernel,
    from_atoms,
    half_pair_inverse,
    reconstruct,
    three_point_kernel,
    two_bump_signal,
)
from deconv import cli
from deconv import io as dio
from deconv.cli import main
from deconv.neumann import factor_at_origin, van_cittert_deblur


@pytest.fixture
def three_point_file(tmp_path):
    path = tmp_path / "kernel.txt"
    dio.write_measure(path, three_point_kernel(Fraction(3, 4)))
    return path


def _rows(path):
    return [line for line in path.read_text().splitlines()
            if line and not line.startswith("#")]


def _run_module(cwd, argv):
    """``python -m deconv.cli argv`` in ``cwd``, with this package on the path."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(deconv.__file__)))
    return subprocess.run([sys.executable, "-m", "deconv.cli", *argv], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True)


def test_console_entry_point_exists(tmp_path):
    out = _run_module(tmp_path, ["--help"])
    assert out.returncode == 0
    assert "convolve" in out.stdout


def test_module_entry_point_returns_the_verify_verdict(tmp_path, three_point_file):
    # the README walkthrough through ``cli.run``: confirmed exits 0, refuted exits 1
    assert main(["invert", str(three_point_file), "-o", str(tmp_path / "inverse.txt"),
                 "--method", "neumann", "--N", "8"]) == 0
    argv = ["verify", "kernel.txt", "inverse.txt", "--window", "-8:8", "--tol"]
    confirmed = _run_module(tmp_path, argv + ["1/19683"])
    assert confirmed.returncode == 0
    assert "ok=true max_inside=7/559872 " in confirmed.stdout
    refuted = _run_module(tmp_path, argv + ["0"])
    assert refuted.returncode == 1
    assert "ok=false" in refuted.stdout


# the exit codes the README lists; every other refusal exits 4
DOCUMENTED_EXIT_CODES = {"FormatError": 2, "DimensionMismatch": 3, "ModeMismatch": 3,
                         "InsufficientTruncation": 5}


def test_every_exported_error_carries_its_documented_exit_code():
    errors = {name: obj for name, obj in vars(deconv).items()
              if isinstance(obj, type) and issubclass(obj, deconv.DeconvError)}
    assert len(errors) == 13   # the base class and its twelve subclasses
    for name, error in errors.items():
        assert error.exit_code == DOCUMENTED_EXIT_CODES.get(name, 4), name


def test_a_bare_deconv_error_in_a_command_exits_4(monkeypatch, capsys):
    def refuse(args):
        raise deconv.DeconvError("refused")
    monkeypatch.setattr(cli, "_cmd_verify", refuse)
    assert main(["verify", "k.txt", "i.txt", "--window", "0:1"]) == 4
    assert capsys.readouterr().err == "error: refused\n"


@pytest.mark.parametrize("argv", [
    ["deblur", "in.csv", "--method", "binomial", "--N", "12", "--window", "-4:4",
     "--reference", "huge.csv"],
], ids=["deblur-reference-past-float64"])
def test_summaries_past_float64_print_only_the_refusal(tmp_path, argv):
    (tmp_path / "in.csv").write_text("index,value\n0,1\n")
    (tmp_path / "huge.csv").write_text("index,value\n0,1e400\n")
    run = _run_module(tmp_path, argv + ["-o", "out.csv"])
    assert run.returncode == 4
    assert run.stderr.endswith(" of the signal overflows float64\n")
    assert run.stderr.startswith("error: ") and run.stderr.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("argv,summary", [
    (["experiment", "noise-gaussian", "--band-limit", "inf"], "rows=1 output=out.csv"),
    (["deblur", "in.csv", "--method", "binomial", "--N", "12", "--window", "-4:4",
      "--mode", "float", "--reference", "big.csv"], "max_err=1e+200 l2_err=1e+200"),
], ids=["noise-gaussian-band-inf", "deblur-reference-1e200"])
def test_norms_whose_squares_overflow_are_reported(tmp_path, argv, summary):
    # the squares of the samples overflow float64, their norm does not
    (tmp_path / "in.csv").write_text("index,value\n0,1\n")
    (tmp_path / "big.csv").write_text("index,value\n0,1e200\n")
    run = _run_module(tmp_path, argv + ["-o", "out.csv"])
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout.endswith(f" {summary}\n")
    if argv[0] == "experiment":
        *_, err, ratio = _rows(tmp_path / "out.csv")[-1].split(",")
        assert 1e280 < float(err) < 1e300 and 0.1 <= float(ratio) <= 10.0


def test_missing_subcommand_is_usage_error():
    assert main([]) == 2
    assert main(["frobnicate"]) == 2


def test_convolve_roundtrip(tmp_path, three_point_file, capsys):
    out = tmp_path / "out.txt"
    assert main(["convolve", str(three_point_file), str(three_point_file),
                 "-o", str(out)]) == 0
    expected = three_point_kernel(Fraction(3, 4)).power(2)
    assert dio.read_measure(out) == expected
    assert "tv=1" in capsys.readouterr().out


def test_invert_neumann_then_verify(tmp_path, three_point_file, capsys):
    inv = tmp_path / "inv.txt"
    assert main(["invert", str(three_point_file), "-o", str(inv),
                 "--method", "neumann", "--N", "8"]) == 0
    assert "order=8" in capsys.readouterr().out
    assert main(["verify", str(three_point_file), str(inv),
                 "--window", "-8:8", "--tol", "1/19683"]) == 0
    assert "ok=true" in capsys.readouterr().out
    # exact-zero tolerance must reject the same pair: residual sits inside
    assert main(["verify", str(three_point_file), str(inv),
                 "--window", "-8:8"]) == 1
    assert "ok=false" in capsys.readouterr().out


def test_invert_neumann_tolerance_mode(tmp_path, three_point_file):
    inv = tmp_path / "inv.txt"
    assert main(["invert", str(three_point_file), "-o", str(inv),
                 "--method", "neumann", "--tol", "1/1000000"]) == 0
    kernel = three_point_kernel(Fraction(3, 4))
    residual = kernel.convolve(dio.read_measure(inv)) - AtomicMeasure.unit(1)
    assert residual.total_variation() <= Fraction(1, 10 ** 6)


@pytest.mark.parametrize("mode", [EXACT, "float"])
def test_invert_neumann_zero_tolerance_is_refused(tmp_path, three_point_file, mode):
    # a zero target is a violated precondition, not a request for the default
    inv = tmp_path / "inv.txt"
    assert main(["invert", str(three_point_file), "-o", str(inv), "--method",
                 "neumann", "--tol", "0", "--mode", mode]) == 4
    assert not inv.exists()


def test_invert_precondition_failures(tmp_path):
    binom = tmp_path / "b.txt"
    dio.write_measure(binom, binomial_kernel())
    out = tmp_path / "o.txt"
    # neumann factoring leaves tv exactly 1: refused
    assert main(["invert", str(binom), "-o", str(out),
                 "--method", "neumann", "--N", "4"]) == 4
    # missing N for a series method is a usage error
    assert main(["invert", str(binom), "-o", str(out),
                 "--method", "binomial"]) == 2
    # wrong kernel shape for the chosen method
    pair = tmp_path / "p.txt"
    dio.write_measure(pair, from_atoms({0: 1, 1: 1}))
    assert main(["invert", str(pair), "-o", str(out),
                 "--method", "binomial", "--N", "4"]) == 4


def test_invert_series_methods_scale_kernels(tmp_path):
    scaled = tmp_path / "s.txt"
    dio.write_measure(scaled, from_atoms({0: 3, 1: 3}))
    out = tmp_path / "o.txt"
    assert main(["invert", str(scaled), "-o", str(out),
                 "--method", "onesided", "--N", "4", "--side", "left"]) == 0
    inv = dio.read_measure(out)
    product = from_atoms({0: 3, 1: 3}).convolve(inv)
    assert dict(product.restrict((-3, 3)).atoms) == {(0,): 1}
    assert main(["invert", str(scaled), "-o", str(out),
                 "--method", "halfpair", "--N", "5"]) == 0
    inv = dio.read_measure(out)
    residual = from_atoms({0: 3, 1: 3}).convolve(inv) - AtomicMeasure.unit(1)
    assert residual.restrict((-4, 5)).is_zero


@pytest.mark.parametrize("mode", [EXACT, "float"])
@pytest.mark.parametrize("side, reach", [("right", (0, 11)), ("left", (-11, 0))])
def test_invert_onesided_takes_any_1d_kernel(tmp_path, mode, side, reach):
    kernel = tmp_path / "k.txt"
    kernel.write_text("-1 1/5\n0 1/2\n2 3/10\n")
    inv = tmp_path / "inv.txt"
    assert main(["invert", str(kernel), "-o", str(inv), "--method", "onesided",
                 "--N", "12", "--side", side, "--mode", mode]) == 0
    if mode == EXACT:   # 12 terms make the product exactly delta_0 on 12 positions
        lo, hi = reach
        assert main(["verify", str(kernel), str(inv), "--window", f"{lo}:{hi}"]) == 0
        wider = f"{lo}:{hi + 1}" if side == "right" else f"{lo - 1}:{hi}"
        assert main(["verify", str(kernel), str(inv), "--window", wider]) == 1


def test_invert_float_pair_scaled_by_49_is_the_unit_series_over_49(tmp_path, capsys):
    # the kernel is divided by its lead atom: multiplied by fl(1/49) it would not
    # be the unit pair, and its series would not be the unit series over 49
    assert 49 * (1 / 49) != 1
    kernel = tmp_path / "k.txt"
    kernel.write_text("0 49\n1 49\n")
    out = tmp_path / "o.txt"
    assert main(["invert", str(kernel), "-o", str(out), "--method", "onesided",
                 "--N", "9", "--mode", "float"]) == 0
    assert "boundary_distance=9" in capsys.readouterr().out
    assert _rows(out) == [f"{k} {(-1) ** k * (1 / 49)!r}" for k in range(9)]


def test_file_errors_map_to_exit_codes(tmp_path, three_point_file):
    bad = tmp_path / "bad.txt"
    bad.write_text("1 2 3 4 5\n")
    out = tmp_path / "o.txt"
    assert main(["convolve", str(bad), str(three_point_file), "-o", str(out)]) == 2
    assert main(["convolve", str(tmp_path / "missing.txt"),
                 str(three_point_file), "-o", str(out)]) == 2
    flat = tmp_path / "2d.txt"
    dio.write_measure(flat, from_atoms({(0, 0): 1}))
    assert main(["convolve", str(flat), str(three_point_file), "-o", str(out)]) == 3


@pytest.mark.parametrize("token", ["1e400", "inf", "-inf", "nan"])
def test_convolve_rejects_non_finite_float_weights(tmp_path, token):
    lhs, rhs = tmp_path / "lhs.txt", tmp_path / "rhs.txt"
    lhs.write_text(f"0 {token}\n")
    rhs.write_text("0 1.0\n")
    out = tmp_path / "o.txt"
    assert main(["convolve", str(lhs), str(rhs), "-o", str(out), "--mode", "float"]) == 2
    assert not out.exists()


def test_convolve_refuses_a_float_product_that_overflows(tmp_path, capsys):
    # finite weights whose products leave float64: inf is refused, not written
    m = tmp_path / "m.txt"
    m.write_text("0 1e200\n1 -1e200\n")
    out = tmp_path / "o.txt"
    assert main(["convolve", str(m), str(m), "-o", str(out), "--mode", "float"]) == 4
    assert not out.exists()
    assert "inf" in capsys.readouterr().err


@pytest.mark.parametrize("rows, command", [
    (40, ["blur"]),
    (200, ["deblur", "--method", "reciprocal"]),
    (200, ["deblur", "--method", "analytic"]),
])
def test_fourier_steps_past_float64_print_only_the_refusal(tmp_path, rows, command):
    # the FFT of samples near 1e308 overflows: the result is refused with exit 4,
    # and no numpy warning reaches stderr before the error line
    (tmp_path / "big.csv").write_text(
        "x,value\n" + "".join(f"{i / 10},1e308\n" for i in range(rows)))
    run = _run_module(tmp_path, [command[0], "big.csv", "-o", "out.csv", *command[1:]])
    assert run.returncode == 4
    assert run.stderr == "error: signal samples must be finite\n"
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("side", ["right", "left"])
def test_invert_onesided_float_series_that_overflows_is_refused(tmp_path, side):
    kernel = tmp_path / "k.txt"
    kernel.write_text("0 1e-300\n1 1\n")
    out = tmp_path / "o.txt"
    code = main(["invert", str(kernel), "-o", str(out), "--method", "onesided",
                 "--N", "6", "--side", side, "--mode", "float"])
    if side == "right":   # the normalised kernel (1, 1e300) has series (-1e300)^k
        assert code == 4
        assert not out.exists()
    else:                 # the left series decays: 1e-300^k underflows to 0
        assert code == 0


def test_deblur_vancittert_recovers_signal(tmp_path, capsys):
    f = GridSignal.from_lattice_dict({(-2,): 2, (0,): -3, (3,): 1}, dimension=1)
    g = apply_to_signal(f, three_point_kernel(Fraction(3, 4)))
    fpath, gpath = tmp_path / "f.csv", tmp_path / "g.csv"
    dio.write_signal_csv(fpath, f)
    dio.write_signal_csv(gpath, g)
    out = tmp_path / "rec.csv"
    metrics = tmp_path / "metrics.csv"
    assert main(["deblur", str(gpath), "-o", str(out), "--method", "vancittert",
                 "--a", "3/4", "--iterations", "14",
                 "--reference", str(fpath), "--metrics", str(metrics)]) == 0
    rec = dio.read_signal_csv(out)
    err = (rec - f).max_abs()
    assert err <= float(Fraction(1, 3) ** 14) * 10
    lines = _rows(metrics)
    assert lines[0] == "method,params,max_err,l2_err"
    method, params, max_err, l2_err = lines[1].split(",")
    assert method == "vancittert"
    assert params == "a=3/4;iterations=14"
    assert float(max_err) == pytest.approx(err)
    assert float(l2_err) >= float(max_err)


def test_deblur_vancittert_float_uses_the_shared_origin_factoring(tmp_path):
    # at a = 0.9, (1-a)/(2a) and ((1-a)/2) * fl(1/a) differ in the last bit
    a = 0.9
    assert (1 - a) / (2 * a) != ((1 - a) / 2) * (1 / a)
    walk = np.cumsum(np.random.default_rng(5).normal(0.0, 0.1, 200))
    g = GridSignal(walk, 1.0, 0.0)
    gpath, out = tmp_path / "g.csv", tmp_path / "o.csv"
    gpath.write_text("index,value\n" + "".join(f"{i},{v!r}\n" for i, v in enumerate(walk.tolist())))
    assert main(["deblur", str(gpath), "-o", str(out), "--method", "vancittert",
                 "--a", repr(a), "--iterations", "6", "--mode", "float"]) == 0
    center, mu = factor_at_origin(three_point_kernel(a, mode=FLOAT))
    want = van_cittert_deblur(g.scaled(1 / center), mu, 6)[-1]
    assert dio.read_signal_csv(out, FLOAT).values.tolist() == want.values.tolist()


@pytest.mark.parametrize("method", ["binomial", "halfpair"])
@pytest.mark.parametrize("flags,message", [
    (["--window", "-3:3"], "--N is required"),
    (["--N", "7"], "--window is required"),
    (["--N", "7", "--window", "0:x"], "window bounds must be integers"),
    (["--N", "7", "--window", "1.5:3"], "window bounds must be integers"),
    (["--N", "7", "--window", "3:-3"], "has lo > hi"),
    (["--N", "7", "--window", "-3.5:3"], "window bounds must be integers, got '-3.5:3'"),
    (["--N", "7", "--window", "-3:x"], "window bounds must be integers, got '-3:x'"),
], ids=["no-N", "no-window", "window-x", "window-float", "window-reversed",
        "window-negative-float", "window-negative-x"])
def test_deblur_series_usage_errors_write_nothing(tmp_path, capsys, method, flags, message):
    g = tmp_path / "g.csv"
    g.write_text("index,value\n0,1\n")
    out = tmp_path / "o.csv"
    assert main(["deblur", str(g), "-o", str(out), "--method", method, *flags]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("action", ["default", "error"])
def test_a_library_warning_is_one_stderr_line_under_any_filter(tmp_path, capsys, action):
    # a = 1/2 is the paper's edge case, tv(mu) = 1, where Van Cittert warns
    g, out = tmp_path / "g.csv", tmp_path / "rec.csv"
    g.write_text("index,value\n0,1\n1,2\n2,1\n")
    with warnings.catch_warnings():
        warnings.simplefilter(action)
        code = main(["deblur", str(g), "-o", str(out), "--method", "vancittert", "--a", "1/2"])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.out == "method=vancittert iterations=8 a=1/2\n"
    assert captured.err == "warning: tv(mu) >= 1: the iteration is not guaranteed to converge\n"
    assert _rows(out)[0] == "index,value"


def test_reference_metrics_score_the_rows_outside_the_window(tmp_path, capsys):
    # out - reference spans the union of both boxes, so a reference row far
    # outside the output window counts toward the error
    f = GridSignal.from_lattice_dict({(-1,): 1, (0,): 2, (1,): 3}, dimension=1)
    g = tmp_path / "g.csv"
    dio.write_signal_csv(g, apply_to_signal(f, binomial_kernel()))
    near = "index,value\n-1,1\n0,2\n1,3\n"
    for name, text, errors in (("near", near, "max_err=0.0 l2_err=0.0"),
                               ("far", near + "50,7\n", "max_err=7.0 l2_err=7.0")):
        ref = tmp_path / f"{name}.csv"
        ref.write_text(text)
        assert main(["deblur", str(g), "-o", str(tmp_path / f"{name}.out.csv"),
                     "--method", "binomial", "--N", "8", "--window", "-1:1",
                     "--reference", str(ref)]) == 0
        assert capsys.readouterr().out \
            == f"method=binomial halfwidth=8 window=-1:1 {errors}\n"


def test_deblur_vancittert_needs_a(tmp_path):
    g = tmp_path / "g.csv"
    dio.write_signal_csv(g, GridSignal.from_lattice_dict({(0,): 1}, dimension=1))
    assert main(["deblur", str(g), "-o", str(tmp_path / "o.csv"),
                 "--method", "vancittert"]) == 2
    assert main(["deblur", str(g), "-o", str(tmp_path / "o.csv"),
                 "--method", "vancittert", "--a", "3/2"]) == 4


def test_deblur_series_margin_exit_code(tmp_path, capsys):
    f = GridSignal.from_lattice_dict({(-3,): 2, (2,): 5}, dimension=1)
    g = apply_to_signal(f, binomial_kernel())
    gpath = tmp_path / "g.csv"
    dio.write_signal_csv(gpath, g)
    out = tmp_path / "rec.csv"
    assert main(["deblur", str(gpath), "-o", str(out), "--method", "binomial",
                 "--N", "6", "--window", "-3:3"]) == 5
    # the library's margin rule and message, with the window radius
    with pytest.raises(InsufficientTruncation) as err:
        reconstruct(f, binomial_kernel(), binomial_inverse(6))
    assert capsys.readouterr().err == f"error: {err.value}\n"
    assert main(["deblur", str(gpath), "-o", str(out), "--method", "binomial",
                 "--N", "7", "--window", "-3:3"]) == 0
    assert dio.read_signal_csv(out).lattice_equal(f)


def test_blur_deblur_float_pipeline(tmp_path, capsys):
    clean = tmp_path / "clean.csv"
    dio.write_signal_csv(clean, two_bump_signal())
    blurred = tmp_path / "blurred.csv"
    assert main(["blur", str(clean), "-o", str(blurred)]) == 0
    rec = tmp_path / "rec.csv"
    assert main(["deblur", str(blurred), "-o", str(rec), "--method",
                 "reciprocal", "--reference", str(clean)]) == 0
    out = capsys.readouterr().out
    assert "suppressed_bins=" in out
    l2 = float(out.rsplit("l2_err=", 1)[1].split()[0])
    assert l2 <= 1e-5
    assert main(["deblur", str(blurred), "-o", str(rec),
                 "--method", "reciprocal", "--floor", "0"]) == 4
    # metrics without a reference is a usage error
    assert main(["deblur", str(blurred), "-o", str(rec), "--method",
                 "reciprocal", "--metrics", str(tmp_path / "m.csv")]) == 2


def test_deblur_metrics_without_reference_writes_nothing(tmp_path):
    g = tmp_path / "g.csv"
    dio.write_signal_csv(g, apply_to_signal(
        GridSignal.from_lattice_dict({(0,): 1}, dimension=1), binomial_kernel()))
    out, metrics = tmp_path / "rec.csv", tmp_path / "m.csv"
    assert main(["deblur", str(g), "-o", str(out), "--method", "binomial",
                 "--N", "7", "--window", "-3:3", "--metrics", str(metrics)]) == 2
    assert not out.exists() and not metrics.exists()


def _deblur_in_process(folder, name, text, argv):
    """Exit code, stdout, stderr and output body of ``deblur`` on a CSV of ``text``."""
    (folder / name).write_text(text)
    out = folder / f"{name}.out.csv"
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(["deblur", str(folder / name), "-o", str(out), *argv])
    return code, stdout.getvalue(), stderr.getvalue(), out.exists() and _rows(out)


FAR_INDICES = st.one_of(st.integers(-2 ** 63, -2 ** 62), st.integers(2 ** 62, 2 ** 63 - 1))


@settings(max_examples=60, deadline=None)
@given(mode=st.sampled_from([EXACT, "float"]), method=st.sampled_from(["binomial", "halfpair"]),
       n=st.integers(1, 12), lo=st.integers(-6, 6), width=st.integers(0, 4),
       start=st.integers(-12, 12), values=st.lists(st.integers(-9, 9), min_size=1, max_size=12),
       far=st.lists(st.tuples(FAR_INDICES, st.integers(-9, 9), st.booleans()),
                    min_size=1, max_size=3, unique_by=lambda row: row[0]))
def test_series_deblur_ignores_rows_past_its_reach(tmp_path_factory, mode, method, n, lo, width,
                                                   start, values, far):
    # the rows a window needs lie within N of it; rows at |i| >= 2^62 change
    # no byte and no exit code, and are never placed on the box they span
    folder = tmp_path_factory.mktemp("far")
    near = [f"{i},{v}" for i, v in enumerate(values, start)]
    before = [f"{i},{v}" for i, v, first in far if first]
    after = [f"{i},{v}" for i, v, first in far if not first]
    argv = ["--method", method, "--N", str(n), "--window", f"{lo}:{lo + width}", "--mode", mode]
    compact = _deblur_in_process(folder, "compact.csv", "\n".join(["index,value", *near]), argv)
    spread = _deblur_in_process(folder, "spread.csv",
                                "\n".join(["index,value", *before, *near, *after]), argv)
    assert spread == compact


def _run_under_address_limit(folder, argv):
    """``deconv argv`` in a child that bounds its own address space to 2 GiB,
    so a huge allocation fails whatever the host's overcommit setting; one
    BLAS thread keeps numpy's import well inside that bound on a machine with
    many cores."""
    code = ("import resource, runpy\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (2 * 1024 ** 3, hard))\n"
            "runpy.run_module('deconv.cli', run_name='__main__', alter_sys=True)\n")
    src = os.path.dirname(os.path.dirname(os.path.abspath(deconv.__file__)))
    return subprocess.run([sys.executable, "-c", code, *argv], cwd=folder,
                          env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True)


def _span_refusal(path, first, last) -> str:
    return (f"error: {path}: indices {first} to {last} span {last - first + 1} cells, "
            f"past the {dio.MAX_INDEX_CELLS} an index CSV may place\n")


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_a_vancittert_span_past_the_cell_cap_exits_2(tmp_path):
    # vancittert places the whole span of an index CSV; its 10^12 + 1 cells
    # are refused before any allocation, which the address limit would fail
    (tmp_path / "span.csv").write_text("index,value\n0,1\n1000000000000,2\n")
    run = _run_under_address_limit(tmp_path, ["deblur", "span.csv", "-o", "out.csv",
                                              "--method", "vancittert", "--a", "3/4"])
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr == _span_refusal("span.csv", 0, 10 ** 12)
    assert not (tmp_path / "out.csv").exists()


def test_a_reference_span_past_the_cell_cap_exits_2(tmp_path, capsys):
    # a reference is placed on its whole span; 2^64 + 1 cells are refused
    (tmp_path / "g.csv").write_text("index,value\n-1,1\n0,2\n1,1\n")
    (tmp_path / "ref.csv").write_text(f"index,value\n0,1\n{2 ** 64},2\n")
    out = tmp_path / "out.csv"
    assert main(["deblur", str(tmp_path / "g.csv"), "-o", str(out), "--method", "binomial",
                 "--N", "8", "--window", "-1:1", "--reference", str(tmp_path / "ref.csv")]) == 2
    assert capsys.readouterr().err == _span_refusal(tmp_path / "ref.csv", 0, 2 ** 64)
    assert not out.exists()


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS bounds the address space on Linux")
def test_an_allocation_past_the_address_limit_exits_4(tmp_path):
    # the noise-lateral window 0:10^12 asks numpy for 10^12 + 1 cells
    run = _run_under_address_limit(tmp_path, ["experiment", "noise-lateral", "-o", "out.csv",
                                              "--window", "0:1000000000000",
                                              "--n-from", "1", "--n-to", "1"])
    assert run.returncode == 4
    assert run.stderr.startswith("error: Unable to allocate") and "Traceback" not in run.stderr
    assert not (tmp_path / "out.csv").exists()


@pytest.mark.parametrize("mode", [EXACT, "float"])
@pytest.mark.parametrize("method", ["binomial", "halfpair"])
@pytest.mark.parametrize("first,last", [(-600, 6), (-6, 600), (100, 700)])
def test_windowed_deblur_of_long_input_matches_full_convolution(tmp_path, mode, method,
                                                                first, last):
    # nonzero rows over a long input that ends inside the windows' reach on one
    # side, or lies wholly outside it
    rng = np.random.default_rng(11)
    g = GridSignal.from_lattice_dict(
        {(i,): int(v) for i, v in zip(range(first, last + 1), rng.integers(1, 10, 1000))},
        dimension=1)
    gpath = tmp_path / "g.csv"
    dio.write_signal_csv(gpath, g)
    series = (binomial_inverse(11, mode=mode) if method == "binomial"
              else half_pair_inverse(11, mode=mode))
    full = apply_to_signal(dio.read_signal_csv(gpath, mode), series.measure)
    for lo, hi in ((-2, 2), (-4, 4), (-4, -4), (1, 4)):
        out = tmp_path / f"{lo}_{hi}.csv"
        assert main(["deblur", str(gpath), "-o", str(out), "--method", method,
                     "--N", "11", "--window", f"{lo}:{hi}", "--mode", mode]) == 0
        want = full.restrict((lo, hi))
        got = dio.read_signal_csv(out, mode)
        assert got.origin == want.origin
        assert [dio.format_weight(v) for v in got.values] == \
            [dio.format_weight(v) for v in want.values]


def test_blur_rejects_coarse_lattice(tmp_path):
    path = tmp_path / "s.csv"
    dio.write_signal_csv(path, GridSignal.from_lattice_dict({(0,): 1}, dimension=1))
    assert main(["blur", str(path), "-o", str(tmp_path / "o.csv")]) == 4


def test_experiment_growth_csv(tmp_path):
    out = tmp_path / "growth.csv"
    assert main(["experiment", "growth", "-o", str(out)]) == 0
    lines = _rows(out)
    assert lines[0] == "N,max_abs_coefficient"
    rows = [tuple(int(v) for v in line.split(",")) for line in lines[1:]]
    assert rows == [(n, 2 * n) for n in range(10, 101, 10)]


def test_experiment_noise_lateral_csv(tmp_path):
    out = tmp_path / "nl.csv"
    assert main(["experiment", "noise-lateral", "-o", str(out),
                 "--n-from", "10", "--n-to", "20", "--n-step", "10",
                 "--sigma", "1/100", "--window", "-2:2"]) == 0
    lines = _rows(out)
    assert lines[0] == "N,margin,max_dev,predicted_dev"
    first = lines[1].split(",")
    assert first[0] == "10"
    assert int(first[1]) >= 10 - 4  # margin = N - 2s with s <= 2
    assert Fraction(first[2]) == Fraction(first[3]) == 2 * 10 * Fraction(1, 100)
    # the README's row: seed 0 on -6:6 (radius 6) leaves margin 50 - 12 at N = 50
    assert main(["experiment", "noise-lateral", "-o", str(out), "--window", "-6:6",
                 "--n-from", "50", "--n-to", "50", "--sigma", "1/1000"]) == 0
    assert _rows(out)[1:] == ["50,38,1/10,1/10"]


def test_experiment_noise_lateral_takes_one_sigma(tmp_path, capsys):
    out = tmp_path / "nl.csv"
    assert main(["experiment", "noise-lateral", "-o", str(out),
                 "--sigma", "0.1", "--sigma", "0.2"]) == 2
    assert not out.exists()
    assert "one --sigma" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["noise-lateral", "noise-gaussian"])
def test_experiment_non_numeric_sigma_is_a_format_error(tmp_path, capsys, name):
    out = tmp_path / "x.csv"
    assert main(["experiment", name, "-o", str(out), "--sigma", "abc",
                 "--n-from", "10", "--n-to", "10"]) == 2
    assert not out.exists()
    assert "bad weight 'abc'" in capsys.readouterr().err


def test_experiment_noise_gaussian_csv(tmp_path):
    out = tmp_path / "ng.csv"
    assert main(["experiment", "noise-gaussian", "-o", str(out),
                 "--sigma", "1e-12", "--band-limit", "4", "--band-limit", "8",
                 "--seed", "0"]) == 0
    lines = _rows(out)
    assert lines[0] == "band_limit,sigma,predicted_gain_log,observed_error,ratio"
    assert len(lines) == 3
    for line in lines[1:]:
        band, sigma, gain, err, ratio = line.split(",")
        assert float(sigma) == 1e-12
        assert 0.1 <= float(ratio) <= 10.0


def test_one_parser_serves_every_call_in_a_process(tmp_path, monkeypatch):
    """Repeatable options start empty on every call, and the command that
    runs is the ``_cmd_*`` the module holds at that call."""
    first, second = tmp_path / "two.csv", tmp_path / "default.csv"
    assert main(["experiment", "noise-gaussian", "-o", str(first), "--sigma", "1e-6",
                 "--sigma", "1e-3", "--band-limit", "4"]) == 0
    assert main(["experiment", "noise-gaussian", "-o", str(second)]) == 0
    assert [row.split(",")[:2] for row in _rows(first)[1:]] == \
        [["4.0", "1e-06"], ["4.0", "0.001"]]
    assert [row.split(",")[:2] for row in _rows(second)[1:]] == \
        [["4.0", "1e-12"], ["8.0", "1e-12"]]
    assert cli._build_parser() is cli._build_parser()
    windows = []
    monkeypatch.setattr(cli, "_cmd_verify", lambda args: windows.append(args.window) or 7)
    assert main(["verify", "k.txt", "i.txt", "--window", "0:1"]) == 7
    assert main(["verify", "k.txt", "i.txt", "--window", "-2:2"]) == 7
    assert windows == [(0, 1), (-2, 2)]


@pytest.mark.parametrize("argv", [
    ["deblur", "b.csv", "--method", "analytic", "--band-limit", "nan"],
    ["deblur", "b.csv", "--method", "reciprocal", "--floor", "nan"],
    ["experiment", "noise-gaussian", "--band-limit", "nan"],
], ids=["analytic-band", "reciprocal-floor", "noise-gaussian-band"])
def test_nan_spectral_parameters_are_refused(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    dio.write_signal_csv("b.csv", two_bump_signal())
    assert main(argv + ["-o", "out.csv"]) == 4
    assert not (tmp_path / "out.csv").exists()
    assert "must" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["growth", "noise-lateral"])
@pytest.mark.parametrize("ladder", [
    ["--n-step", "0"],
    ["--n-step", "-5"],
    ["--n-from", "20", "--n-to", "10"],
], ids=["step-zero", "step-negative", "from-past-to"])
def test_experiment_ladder_is_validated(tmp_path, capsys, name, ladder):
    out = tmp_path / "x.csv"
    assert main(["experiment", name, "-o", str(out)] + ladder) == 2
    assert not out.exists()
    assert "--n-step >= 1 and --n-from <= --n-to" in capsys.readouterr().err


def test_experiment_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["experiment", "noise-gaussian", "--sigma", "1e-10", "--seed", "42"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    # outputs start with the echoed configuration
    assert a.read_text().startswith("# band_limit=")


def test_invert_reruns_are_byte_identical(tmp_path, three_point_file):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["invert", str(three_point_file), "--method", "neumann", "--N", "6"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_window_syntax_error():
    assert main(["verify", "x", "y", "--window", "oops"]) == 2


@pytest.mark.parametrize("window", ["-3.5:3", "-3:x"])
def test_verify_negative_window_reaches_the_window_parser(capsys, window):
    assert main(["verify", "x", "y", "--window", window]) == 2
    assert f"window bounds must be integers, got '{window}'" in capsys.readouterr().err
