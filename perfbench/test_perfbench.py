"""The benchmark's own tests: short runs complete, and every check catches a wrong result.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""
import gc
import json
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import deconv  # noqa: E402
import pace  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from run import DEADLINE_S  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def _run(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=DEADLINE_S + 10)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run_completes(workload, trace):
    out = _run(ROOT, "--workload", workload, "--seed", "7", "--seconds", "0.5",
               "--trace", str(trace))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"] for m in wanted} == set(result["metrics"])


def test_without_source_tree_no_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    out = _run(str(tmp_path), "--workload", "lattice-exact", "--seed", "1",
               "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def _job(name, seed=3, workdir=None):
    _, prepare, run, check = workloads.WORKLOADS[name]
    job = prepare(random.Random(seed), np.random.default_rng(seed), workdir)
    return job, run(job), check


# --- lattice-exact --------------------------------------------------------------


@pytest.fixture(scope="module")
def lattice():
    job, results, check = _job("lattice-exact")
    assert check(job, results) == []
    return job, results


def test_neumann_residual_off(lattice):
    job, (report, *_) = lattice
    atoms = dict(report.residual.atoms)
    atoms[(0,)] = atoms.get((0,), 0) + Fraction(1, 10 ** 9)
    assert not checks.neumann_residual_ok(job["a"], workloads.NEUMANN_ORDER, atoms)


def test_binomial_weight_off_by_one(lattice):
    _, (_, series, *_) = lattice
    atoms = dict(series.measure.atoms)
    atoms[(5,)] += 1
    assert not checks.binomial_weights_ok(series.halfwidth, atoms)


def test_reconstruction_sample_off(lattice):
    job, _ = lattice
    rec = dict(job["signal"])
    rec[0] += Fraction(1, 4)
    assert not checks.reconstruction_ok(job["signal"], rec)


def test_power_coefficient_off(lattice):
    job, (*_, power, _) = lattice
    atoms = dict(power.atoms)
    atoms[(0, 0)] += Fraction(1, workloads.POWER_DEN ** workloads.POWER)
    assert not checks.power_ok(job["numerators"], workloads.POWER_DEN, workloads.POWER, atoms)


def test_windowed_max_off(lattice):
    job, (*_, verdict) = lattice
    args = (job["a"], workloads.NEUMANN_ORDER, workloads.WINDOW_RADIUS)
    assert checks.windowed_max_ok(*args, verdict.max_inside, True)
    assert not checks.windowed_max_ok(*args, verdict.max_inside * 2, True)
    assert not checks.windowed_max_ok(*args, verdict.max_inside, False)


# --- spectral-float -------------------------------------------------------------


@pytest.fixture(scope="module")
def spectral():
    job, results, check = _job("spectral-float")
    assert check(job, results) == []
    return job, results


def test_blur_shifted_one_sample(spectral):
    job, (blurred, *_) = spectral
    for axis in (0, 1):
        shifted = np.roll(blurred.values, 1, axis=axis)
        assert not checks.blur_ok(job["bumps"], shifted, blurred.spacing, blurred.origin)


def test_reciprocal_off(spectral):
    job, (_, rec, *_) = spectral
    assert not checks.reciprocal_ok(job["bumps"], rec.values * (1 + 1e-4), rec.spacing,
                                    rec.origin)


def test_analytic_wrong_band(spectral):
    job, (_, _, analytic, _) = spectral
    other = checks.band_limited(analytic.values, analytic.spacing, workloads.ANALYTIC_BAND - 1)
    assert not checks.analytic_ok(job["bumps"], other, analytic.spacing, analytic.origin,
                                  workloads.ANALYTIC_BAND)


def test_noise_ratio_gate(spectral):
    *_, noise = spectral[1]
    assert all(checks.noise_ratio_ok(d.ratio) for d in noise)
    assert not checks.noise_ratio_ok(0.05) and not checks.noise_ratio_ok(11.0)


# --- cli-files --------------------------------------------------------------------


@pytest.fixture
def cli_job(tmp_path):
    job, done, check = _job("cli-files", workdir=str(tmp_path))
    assert check(job, done) == []
    return job, done, check


def _flip_one_byte(path, offset=-2):
    data = bytearray(open(path, "rb").read())
    data[offset] ^= 1
    open(path, "wb").write(bytes(data))


@pytest.mark.parametrize("name", ["conv.txt", "inv.txt", "vc_out.csv", "bin_out.csv",
                                  "rec.f64"])
def test_cli_output_one_byte_changed(cli_job, tmp_path, name):
    job, done, check = cli_job
    _flip_one_byte(tmp_path / name)
    assert "byte_identical_rerun" in check(job, done)


def test_convolve_output_off():
    lhs, rhs = {0: 1.0, 1: 2.0, 2: -1.0}, {-1: 0.5, 0: 0.25}
    good = dict(zip(range(-1, 3), np.convolve([1.0, 2.0, -1.0], [0.5, 0.25]).tolist()))
    assert checks.convolve_ok(lhs, rhs, good)
    assert not checks.convolve_ok(lhs, rhs, {**good, 0: good[0] + 1e-9})
    assert not checks.convolve_ok(lhs, rhs, {k + 1: v for k, v in good.items()})


def test_inverse_confirmed_needs_tolerance():
    kernel = {-1: Fraction(1, 8), 0: Fraction(3, 4), 1: Fraction(1, 8)}
    inverse, _ = deconv.invert_three_point(Fraction(3, 4), deconv.NeumannConfig(order=8))
    atoms = {p[0]: w for p, w in inverse.atoms.items()}
    assert checks.inverse_confirmed(kernel, atoms, -8, 8, Fraction(1, 19683))
    assert not checks.inverse_confirmed(kernel, atoms, -8, 8, Fraction(0))


def test_van_cittert_iterations_off():
    g = np.linspace(0.0, 1.0, 50)
    eight = checks.van_cittert(g, 0.8, 8)
    assert checks.float_close(dict(zip(range(-8, 58), eight.tolist())), -8, eight)
    seven = checks.van_cittert(g, 0.8, 7)
    assert not checks.float_close(dict(zip(range(-7, 57), seven.tolist())), -8, eight)


# --- tracing ----------------------------------------------------------------------


def test_self_time_subtracts_children_and_overhead():
    def span(i, name, parent, wall, overhead=0.0, **attrs):
        return {"trace": 0, "id": i, "name": name, "parent": parent, "start_ms": 0.0,
                "wall_ms": wall, "overhead_ms": overhead, "attrs": attrs}
    spans = [
        span(0, "cli.main", None, 10.0, overhead=1.0),
        span(1, "io.read_measure", 0, 2.0, bytes=100),
        span(2, "neumann.neumann_inverse", 0, 5.0, overhead=0.5),
        span(3, "measures.AtomicMeasure.convolve", 2, 3.0, pairs=6, den_bits=9),
        span(4, "measures.AtomicMeasure.convolve", 2, 1.0, pairs=4, den_bits=12),
    ]
    got = tracer.aggregate(spans, jobs=2)
    assert got["cli.self_ms"] == pytest.approx((10.0 - 1.0 - 2.0 - 4.5) / 2)
    assert got["neumann.self_ms"] == pytest.approx((5.0 - 0.5 - 4.0) / 2)
    assert got["measures.convolve_ms"] == pytest.approx(2.0)
    assert got["measures.convolve_pairs"] == 5
    assert got["measures.den_bits_max"] == 12
    assert got["io.read_bytes"] == 50
    assert got["gaussian.spectrum_reuse"] == 1.0


# --- worker -----------------------------------------------------------------------


def test_checks_run_in_a_child():
    import worker

    parent = os.getpid()
    assert worker.checked(lambda job, res: [] if os.getpid() != parent else ["same"],
                          None, None) == []
    assert worker.checked(lambda job, res: ["power"], None, None) == ["power"]
    assert worker.checked(lambda job, res: 1 / 0, None, None) == [
        "check raised ZeroDivisionError('division by zero')"]


def test_calibration_leaves_the_collector_on():
    assert pace.calibration_ms() > 0
    assert gc.isenabled()
