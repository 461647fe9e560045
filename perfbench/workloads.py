"""The three workloads: seeded inputs, the timed calls, and the checks.

Each workload has one job shape.  ``prepare`` draws a job's inputs from the
run's random streams (untimed), ``run`` makes the calls into deconv's public
API (timed), and ``check`` turns the results into plain data and hands them
to :mod:`checks`, returning the names of the checks that failed.  Every job
of a workload makes the same calls at the same sizes, so job latencies are
like samples and a percentile of them never falls on a boundary between sizes.
"""
from __future__ import annotations

import contextlib
import io
import os
import random
from fractions import Fraction
from math import gcd

import numpy as np

import checks
import deconv
from deconv import cli

# --- shared input makers ------------------------------------------------------


def three_point_weight(rng: random.Random) -> Fraction:
    """a = p/q in lowest terms with q of 10 bits and a in [0.55, 0.9]."""
    while True:
        q = rng.randrange(1 << 9, 1 << 10)
        p = rng.randint(-(-55 * q // 100), 90 * q // 100)
        if gcd(p, q) == 1:
            return Fraction(p, q)


def small_signal(rng: random.Random, radius: int) -> dict:
    """Integers in [-9, 9] on [-radius, radius], nonzero at both ends so the
    support radius is exactly ``radius``."""
    vals = {i: rng.randint(-9, 9) for i in range(-radius, radius + 1)}
    for end in (-radius, radius):
        vals[end] = rng.choice((-1, 1)) * rng.randint(1, 9)
    return vals


def bumps(nrng: np.random.Generator, count: int, lo: float, hi: float,
          widths: tuple[float, float]) -> list[tuple[float, float, float, float]]:
    """(amplitude, cx, cy, s) for ``count`` isotropic 2D bumps centred in [lo, hi]^2."""
    return [(float(nrng.uniform(0.5, 1.5)), float(nrng.uniform(lo, hi)),
             float(nrng.uniform(lo, hi)), float(nrng.uniform(*widths)))
            for _ in range(count)]


# --- lattice-exact --------------------------------------------------------------

NEUMANN_ORDER = 32
WINDOW_RADIUS = 12           # is_inverse window [-12, 12]
SIGNAL_RADIUS = 16           # reconstruct: binomial halfwidth 2*16 + 3 = 35
POWER = 6                    # 2D power of a 3x3 measure with weights k/7
POWER_DEN = 7


def lattice_prepare(rng, nrng, workdir):
    a = three_point_weight(rng)
    c = (1 - a) / (2 * a)
    return {
        "a": a,
        "tol": (2 * c) ** (NEUMANN_ORDER + 1),   # the a priori bound tv(mu)^(n+1)
        "signal": small_signal(rng, SIGNAL_RADIUS),
        "numerators": [[rng.randint(1, POWER_DEN - 1) for _ in range(3)] for _ in range(3)],
    }


def lattice_run(job):
    a = job["a"]
    inverse, report = deconv.invert_three_point(a, deconv.NeumannConfig(order=NEUMANN_ORDER))
    f = deconv.GridSignal.from_lattice_dict(job["signal"], dimension=1)
    series = deconv.binomial_inverse(2 * SIGNAL_RADIUS + 3)
    recovered, _ = deconv.reconstruct(f, deconv.binomial_kernel(), series)
    m = deconv.from_atoms(
        {(i - 1, j - 1): Fraction(v, POWER_DEN)
         for i, row in enumerate(job["numerators"]) for j, v in enumerate(row)},
        dimension=2)
    power = m.power(POWER)
    window = deconv.WindowSpec(((-WINDOW_RADIUS, WINDOW_RADIUS),))
    verdict = deconv.is_inverse(deconv.three_point_kernel(a), inverse, window,
                                tol=job["tol"])
    return report, series, recovered, power, verdict


def lattice_check(job, results):
    report, series, recovered, power, verdict = results
    a = job["a"]
    lo = int(recovered.origin[0])
    rec = {lo + i: v for i, v in enumerate(recovered.values)}
    return [name for name, ok in (
        ("neumann_residual", checks.neumann_residual_ok(a, NEUMANN_ORDER, report.residual.atoms)),
        ("binomial_weights", checks.binomial_weights_ok(series.halfwidth, series.measure.atoms)),
        ("reconstruction", checks.reconstruction_ok(job["signal"], rec)),
        ("power", checks.power_ok(job["numerators"], POWER_DEN, POWER, power.atoms)),
        ("is_inverse", checks.windowed_max_ok(a, NEUMANN_ORDER, WINDOW_RADIUS,
                                              verdict.max_inside, verdict.ok)),
    ) if not ok]


# --- spectral-float ---------------------------------------------------------------

IMAGE_SIZE = 384             # 384^2 samples at spacing 0.1 pad to a 512^2 grid
IMAGE_SPACING = 0.1
IMAGE_BUMPS = 3
BUMP_WIDTHS = (0.9, 1.3)
BUMP_EDGE = 8.0              # bump centres stay this far inside the image
ANALYTIC_BAND = 5.0
LINE_SIZE = 4096             # 4096 samples at spacing 0.25 pad to 8192: enough bins
LINE_SPACING = 0.25          # near each band limit that observed/predicted stays near 1
NOISE_SIGMA = 1e-6
NOISE_BANDS = (4.0, 6.0)


def spectral_prepare(rng, nrng, workdir):
    extent = IMAGE_SIZE * IMAGE_SPACING
    image = bumps(nrng, IMAGE_BUMPS, BUMP_EDGE, extent - BUMP_EDGE, BUMP_WIDTHS)
    x = LINE_SPACING * np.arange(LINE_SIZE)
    line = np.zeros(LINE_SIZE)
    for _ in range(2):
        c = nrng.uniform(8.0, LINE_SIZE * LINE_SPACING - 8.0)
        line += nrng.uniform(0.5, 1.5) * np.exp(-0.5 * ((x - c) / nrng.uniform(1.0, 1.5)) ** 2)
    values = checks.bumps_on_grid(image, (IMAGE_SIZE, IMAGE_SIZE),
                                  (IMAGE_SPACING,) * 2, (0.0, 0.0))
    return {"bumps": image, "image": values, "line": line,
            "noise_seed": int(nrng.integers(1 << 31))}


def spectral_run(job):
    f = deconv.GridSignal(job["image"], IMAGE_SPACING, 0.0)
    blurred = deconv.blur(f)
    reciprocal, _ = deconv.naive_deblur(blurred, "discrete-reciprocal")
    analytic, _ = deconv.naive_deblur(blurred, "analytic-amplifier", band_limit=ANALYTIC_BAND)
    line = deconv.GridSignal(job["line"], LINE_SPACING, 0.0)
    noise = [deconv.noise_blowup_experiment(line, NOISE_SIGMA, job["noise_seed"], band)[0]
             for band in NOISE_BANDS]
    return blurred, reciprocal, analytic, noise


def spectral_check(job, results):
    blurred, reciprocal, analytic, noise = results
    b = job["bumps"]
    return [name for name, ok in (
        ("blur", checks.blur_ok(b, blurred.values, blurred.spacing, blurred.origin)),
        ("reciprocal", checks.reciprocal_ok(b, reciprocal.values, reciprocal.spacing,
                                            reciprocal.origin)),
        ("analytic", checks.analytic_ok(b, analytic.values, analytic.spacing,
                                        analytic.origin, ANALYTIC_BAND)),
        ("noise_ratio", all(checks.noise_ratio_ok(d.ratio) for d in noise)),
    ) if not ok]


# --- cli-files ----------------------------------------------------------------------

CONVOLVE_ATOMS = 2000        # long float measure, convolved with a 7-atom one
INVERT_ORDER = 16
VERIFY_RADIUS = 8
VC_ROWS = 2000               # Van Cittert input CSV rows
VC_A = "0.8"
VC_ITERATIONS = 8
LONG_ROWS = 601              # binomial deblur input rows, indices -300..300
BIN_N = 8
BIN_RADIUS = 3
GRID_SIZE = 100              # raw grid 100^2 at spacing 0.2 pads to 256^2
GRID_SPACING = 0.2


def _write(path, lines):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def cli_prepare(rng, nrng, workdir):
    p = {name: os.path.join(workdir, name) for name in (
        "lhs.txt", "rhs.txt", "kernel.txt", "vc.csv", "long.csv", "grid.f64")}
    start = rng.randint(-50, 50)
    lhs = nrng.uniform(-1.0, 1.0, CONVOLVE_ATOMS)
    _write(p["lhs.txt"], [f"{start + i} {v!r}" for i, v in enumerate(lhs.tolist())])
    rhs = nrng.uniform(0.1, 1.0, 7)
    _write(p["rhs.txt"], [f"{i - 3} {v!r}" for i, v in enumerate(rhs.tolist())])

    a = three_point_weight(rng)
    side = (1 - a) / 2
    _write(p["kernel.txt"], [f"-1 {side}", f"0 {a}", f"1 {side}"])
    c = (1 - a) / (2 * a)
    tol = (2 * c) ** (INVERT_ORDER + 1)      # the a priori bound tv(mu)^(n+1)

    walk = np.cumsum(nrng.normal(0.0, 0.1, VC_ROWS))
    _write(p["vc.csv"], ["index,value"] + [f"{i},{v!r}" for i, v in enumerate(walk.tolist())])

    clean = small_signal(rng, BIN_RADIUS)
    q = Fraction(1, 4)
    blurred = {}
    for i, v in clean.items():
        for d, w in ((-1, q), (0, 2 * q), (1, q)):
            blurred[i + d] = blurred.get(i + d, 0) + w * v
    half = LONG_ROWS // 2
    _write(p["long.csv"], ["index,value"] + [f"{i},{blurred.get(i, 0)}"
                                             for i in range(-half, half + 1)])

    grid_bumps = bumps(nrng, 2, 8.0, GRID_SIZE * GRID_SPACING - 8.0, (0.9, 1.2))
    grid = checks.bumps_on_grid(grid_bumps, (GRID_SIZE, GRID_SIZE), (GRID_SPACING,) * 2,
                                (0.0, 0.0))
    grid.astype("<f8").tofile(p["grid.f64"])
    _write(p["grid.f64"] + ".desc", ["dtype float64-le", f"shape {GRID_SIZE} {GRID_SIZE}",
                                      f"spacing {GRID_SPACING!r} {GRID_SPACING!r}",
                                      "origin 0.0 0.0"])

    def out(name):
        return os.path.join(workdir, name)

    commands = [
        ["convolve", p["lhs.txt"], p["rhs.txt"], "-o", out("conv.txt"), "--mode", "float"],
        ["invert", p["kernel.txt"], "-o", out("inv.txt"), "--method", "neumann",
         "--N", str(INVERT_ORDER)],
        ["verify", p["kernel.txt"], out("inv.txt"), "--window",
         f"-{VERIFY_RADIUS}:{VERIFY_RADIUS}", "--tol", str(tol)],
        ["deblur", p["vc.csv"], "-o", out("vc_out.csv"), "--method", "vancittert",
         "--mode", "float", "--a", VC_A, "--iterations", str(VC_ITERATIONS)],
        ["deblur", p["long.csv"], "-o", out("bin_out.csv"), "--method", "binomial",
         "--N", str(BIN_N), "--window", f"-{BIN_RADIUS}:{BIN_RADIUS}"],
        ["blur", p["grid.f64"], "-o", out("blurred.f64")],
        ["deblur", out("blurred.f64"), "-o", out("rec.f64"), "--method", "reciprocal"],
    ]
    return {"paths": p, "commands": commands, "tol": tol, "clean": clean,
            "vc": walk, "grid": grid, "grid_bumps": grid_bumps}


def run_commands(commands):
    """Run each argv through deconv.cli.main in process; (exit code, stdout) each."""
    done = []
    for argv in commands:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        done.append((code, buf.getvalue()))
    return done


def _output(argv):
    return argv[argv.index("-o") + 1] if "-o" in argv else None


def _read_bytes(path):
    """The file's bytes plus those of a raw grid's descriptor, if it has one."""
    with open(path, "rb") as fh:
        data = fh.read()
    if path.endswith(".f64"):
        with open(path + ".desc", "rb") as fh:
            data += b"\0" + fh.read()
    return data


def rerun_identical(commands, done) -> bool:
    """Run every command again into fresh outputs; files and stdout must match."""
    again = []
    for argv in commands:
        out = _output(argv)
        again.append(argv if out is None else
                     [out + ".again" + os.path.splitext(out)[1] if a == out else a
                      for a in argv])
    redo = run_commands(again)
    for argv, argv2, first, second in zip(commands, again, done, redo):
        if not checks.same_bytes(first[1].encode(), second[1].encode()) or second[0] != 0:
            return False
        out = _output(argv)
        if out is not None and not checks.same_bytes(_read_bytes(out), _read_bytes(_output(argv2))):
            return False
    return True


def read_raw(path):
    """(values, spacing, origin) of a raw float64 grid and its descriptor."""
    fields = {}
    with open(path + ".desc", encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                key, *rest = line.split()
                fields[key] = rest
    shape = tuple(int(n) for n in fields["shape"])
    values = np.fromfile(path, dtype="<f8").reshape(shape)
    return (values, tuple(float(s) for s in fields["spacing"]),
            tuple(float(o) for o in fields["origin"]))


def _text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def cli_check(job, done):
    cmds, p = job["commands"], job["paths"]
    conv_out = checks.parse_measure(_text(_output(cmds[0])), float)
    kernel = checks.parse_measure(_text(p["kernel.txt"]))
    inverse = checks.parse_measure(_text(_output(cmds[1])))
    vc = checks.parse_index_csv(_text(_output(cmds[3])), float)
    vc_want = checks.van_cittert(job["vc"], float(VC_A), VC_ITERATIONS)
    window = checks.parse_index_csv(_text(_output(cmds[4])))
    blurred = read_raw(_output(cmds[5]))
    rec = read_raw(_output(cmds[6]))
    return [name for name, ok in (
        ("convolve", checks.convolve_ok(checks.parse_measure(_text(p["lhs.txt"]), float),
                                        checks.parse_measure(_text(p["rhs.txt"]), float),
                                        conv_out)),
        ("verify", done[2][1].startswith("ok=true ")
         and checks.inverse_confirmed(kernel, inverse, -VERIFY_RADIUS, VERIFY_RADIUS, job["tol"])),
        ("vancittert", checks.float_close(vc, -VC_ITERATIONS, vc_want)),
        ("binomial_window", checks.reconstruction_ok(job["clean"], window)),
        ("blur", checks.blur_ok(job["grid_bumps"], *blurred)),
        ("reciprocal", checks.grid_close(rec[0], rec[2], job["grid"], (0.0, 0.0), rec[1],
                                         checks.RECIPROCAL_REL_L2)),
        ("byte_identical_rerun", rerun_identical(cmds, done)),
    ) if not ok]


def cli_run(job):
    done = run_commands(job["commands"])
    for argv, (code, _) in zip(job["commands"], done):
        if code != 0:
            raise RuntimeError(f"deconv {argv[0]} exited {code}")
    return done


# name -> (nominal jobs per second on the reference machine, prepare, run, check).
# A run makes round(seconds * rate) jobs, so runs of one length do identical work.
WORKLOADS = {
    "lattice-exact": (19.0, lattice_prepare, lattice_run, lattice_check),
    "spectral-float": (10.0, spectral_prepare, spectral_run, spectral_check),
    "cli-files": (7.5, cli_prepare, cli_run, cli_check),
}
