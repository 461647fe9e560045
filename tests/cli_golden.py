"""Recorded runs of every `deconv` command: exit code, stdout and output files.

``run_in_dir`` writes a run's input files into an empty directory and calls
``deconv.cli.main`` there with relative paths, so the echoed headers are the
same on every machine; it returns the exit code, stdout, every file the run
wrote and stderr.  The inputs are built here from integers and exact
fractions only, never by deconv, so a change to a deconv writer cannot move
them.  The refusals of ``test_malformed_inputs.CORPUS`` are recorded too,
as runs named ``refusal/<case>``; they alone keep their stderr, which pins
the ``path:line: message`` text of every malformed-file refusal.

``tests/cli_golden.json`` holds the records together with the numpy version
that wrote them; ``tests/test_cli_golden.py`` replays them.  Output files
are stored in full, except those of runs marked spectral (blur, the
reciprocal and analytic deblurs, ``experiment noise-gaussian``), whose bytes
come from numpy's FFT and are stored as sha256 and length.  To rebuild the
records:

    PYTHONPATH=src python3 tests/cli_golden.py
"""
import contextlib
import hashlib
import io
import json
import os
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np

GOLDEN = Path(__file__).with_name("cli_golden.json")


def run_in_dir(inputs: dict, argv) -> tuple[int, str, dict[str, bytes], str]:
    """Exit code, stdout, the files written and stderr of ``main(argv)`` in a
    directory holding only ``inputs`` (file name -> text or bytes)."""
    from deconv.cli import main

    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            for name, body in inputs.items():
                data = body.encode("utf-8") if isinstance(body, str) else body
                Path(name).write_bytes(data)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            written = {p.name: p.read_bytes() for p in sorted(Path().iterdir())
                       if p.name not in inputs}
        finally:
            os.chdir(cwd)
    return code, out.getvalue(), written, err.getvalue()


# --- inputs -----------------------------------------------------------------


def _bump(k: int) -> Fraction:
    """(1 - (k/16)^2)^2 on |k| < 16, else 0: a smooth bump sampled exactly."""
    return max(Fraction(0), 1 - Fraction(k, 16) ** 2) ** 2


BUMP = [_bump(k) for k in range(-26, 27)]            # at x = k/4
LONG = {i: (7 * i * i + 3 * i) % 19 - 9 for i in range(-300, 301)}
IMAGE = [[(5 * i + 3 * j * j) % 17 for j in range(28)] for i in range(26)]


def _csv_x(values, spacing: Fraction, first: int) -> str:
    rows = [f"{float((first + n) * spacing)!r},{float(v)!r}" for n, v in enumerate(values)]
    return "x,value\n" + "\n".join(rows) + "\n"


def _csv_index(data: dict) -> str:
    return "index,value\n" + "".join(f"{i},{v}\n" for i, v in sorted(data.items()))


def _blurred(clean: dict, kernel: dict) -> dict:
    out = {}
    for i, v in clean.items():
        for j, w in kernel.items():
            out[i + j] = out.get(i + j, 0) + v * w
    return out


def _neumann(kernel: dict, n: int) -> dict:
    """``sum_{k <= n} (-mu)^{*k} / c`` for ``kernel = c (delta_0 + mu)``, c the
    weight at 0, by Horner's rule."""
    c = kernel[0]
    minus_mu = {i: -w / c for i, w in kernel.items() if i != 0}
    nu = {0: Fraction(1)}
    for _ in range(n):
        nu = _blurred(nu, minus_mu)
        nu[0] = nu.get(0, 0) + 1
    return {i: w / c for i, w in nu.items()}


def _raw(values, shape, spacing: str, origin: str) -> tuple[bytes, str]:
    data = np.asarray([float(v) for v in values], dtype="<f8").tobytes()
    desc = (f"dtype float64-le\nshape {' '.join(map(str, shape))}\n"
            f"spacing {spacing}\norigin {origin}\n")
    return data, desc


CLEAN = {-2: 1, 0: 3, 1: -2}
BINOMIAL = {-1: Fraction(1, 4), 0: Fraction(1, 2), 1: Fraction(1, 4)}
HALF_PAIR = {0: Fraction(1, 2), 1: Fraction(1, 2)}
# a = (3 * 2^64 + 1) / 2^66: its order-16 Neumann series has slots 1,079 bits wide
WIDE = {-1: Fraction(2**64 - 1, 2**67), 0: Fraction(3 * 2**64 + 1, 2**66),
        1: Fraction(2**64 - 1, 2**67)}
RAW_1D, RAW_1D_DESC = _raw(BUMP, (53,), "0.25", "-6.5")
RAW_2D, RAW_2D_DESC = _raw([v / 16 for row in IMAGE for v in row], (26, 28), "0.5 0.5",
                           "-6.0 -7.0")
P2 = ("P2\n# a comment\n28 26\n16\n"
      + "\n".join(" ".join(str(v) for v in row) for row in IMAGE) + "\n")
P5 = b"P5\n28 26\n16\n" + bytes(v for row in IMAGE for v in row)
PGM_META = "spacing 0.5 0.5\norigin -6.0 -7.0\nvmin -1.0\nvmax 1.0\n"

INPUTS = {
    "kernel.txt": "-1 1/8\n0 3/4\n1 1/8\n",
    "pair.txt": "0 1\n1 1\n",
    "pair_inverse.txt": "# right series, four terms\n0 1\n1 -1\n2 1\n3 -1\n",
    "pair2d.txt": "0 0 1/2\n0 1 1/2\n",
    "empty.txt": "# no atoms\n",
    "wide.txt": "".join(f"{i} {w}\n" for i, w in WIDE.items()),
    "wide_inverse.txt": "".join(f"{i} {w}\n" for i, w in sorted(_neumann(WIDE, 16).items())),
    "clean_lattice.csv": _csv_index(CLEAN),
    "blurred_lattice.csv": _csv_index(_blurred(CLEAN, BINOMIAL)),
    "halfpair_lattice.csv": _csv_index(_blurred(CLEAN, HALF_PAIR)),
    "three_point.csv": _csv_index(_blurred(CLEAN, {-1: Fraction(1, 8), 0: Fraction(3, 4),
                                                   1: Fraction(1, 8)})),
    "long.csv": _csv_index(LONG),
    "far.csv": _csv_index({i: i % 7 - 3 for i in range(100, 105)}),
    "big.csv": "index,value\n0,1e200\n",
    "bump.csv": _csv_x(BUMP, Fraction(1, 4), -26),
    "bump.f64": RAW_1D,
    "bump.f64.desc": RAW_1D_DESC,
    "image.f64": RAW_2D,
    "image.f64.desc": RAW_2D_DESC,
    "image.pgm": P2,
    "image.pgm.meta": PGM_META,
    "binary.pgm": P5,
    "binary.pgm.meta": PGM_META,
    "coarse.pgm": P5,
}


# --- runs -------------------------------------------------------------------

MODES = ("exact", "float")


def _runs():
    """(name, input names, argv, spectral) for every recorded run."""
    for mode in MODES:
        m = ["--mode", mode]
        yield f"convolve/pair*kernel/{mode}", ["pair.txt", "kernel.txt"], \
            ["convolve", "pair.txt", "kernel.txt", "-o", "out.txt", *m], False
        yield f"convolve/empty*kernel/{mode}", ["empty.txt", "kernel.txt"], \
            ["convolve", "empty.txt", "kernel.txt", "-o", "out.txt", *m], False
        yield f"convolve/2d/{mode}", ["pair2d.txt"], \
            ["convolve", "pair2d.txt", "pair2d.txt", "-o", "out.txt", *m], False
        for window, verdict in (("0:3", "confirmed"), ("0:4", "refuted")):
            yield f"verify/{verdict}/{mode}", ["pair.txt", "pair_inverse.txt"], \
                ["verify", "pair.txt", "pair_inverse.txt", "--window", window, *m], False
        yield f"deblur/vancittert/{mode}", ["three_point.csv", "clean_lattice.csv"], \
            ["deblur", "three_point.csv", "-o", "out.csv", "--method", "vancittert",
             "--a", "3/4", "--iterations", "5", "--reference", "clean_lattice.csv",
             "--metrics", "metrics.csv", *m], False
        for method, source in (("binomial", "blurred_lattice.csv"),
                               ("halfpair", "halfpair_lattice.csv")):
            yield f"deblur/{method}/{mode}", [source, "clean_lattice.csv"], \
                ["deblur", source, "-o", "out.csv", "--method", method, "--N", "12",
                 "--window", "-4:4", "--reference", "clean_lattice.csv",
                 "--metrics", "metrics.csv", *m], False
            yield f"deblur/{method}-margin/{mode}", [source], \
                ["deblur", source, "-o", "out.csv", "--method", method, "--N", "3",
                 "--window", "-4:4", *m], False
            for source, window in (("long.csv", "-5:5"), ("long.csv", "-4:-4"),
                                   ("long.csv", "1:4"), ("long.csv", "-6:6"),
                                   ("far.csv", "-2:2")):
                yield f"deblur/{method}@{window}/{source}/{mode}", [source], \
                    ["deblur", source, "-o", "out.csv", "--method", method,
                     "--N", "11", "--window", window, *m], False
    yield "deblur/binomial-huge-reference/float", ["blurred_lattice.csv", "big.csv"], \
        ["deblur", "blurred_lattice.csv", "-o", "out.csv", "--method", "binomial",
         "--N", "12", "--window", "-4:4", "--mode", "float", "--reference", "big.csv"], False
    for source, files in (("bump.csv", ["bump.csv"]),
                          ("bump.f64", ["bump.f64", "bump.f64.desc"]),
                          ("image.f64", ["image.f64", "image.f64.desc"]),
                          ("image.pgm", ["image.pgm", "image.pgm.meta"]),
                          ("binary.pgm", ["binary.pgm", "binary.pgm.meta"]),
                          ("coarse.pgm", ["coarse.pgm"])):
        suffix = source.rsplit(".", 1)[1]
        yield f"blur/{source}", files, ["blur", source, "-o", f"out.{suffix}"], True
    for method, flags in (("reciprocal", []), ("reciprocal", ["--floor", "1e-3"]),
                          ("analytic", ["--band-limit", "4"])):
        tag = "-".join([method, *flags])
        yield f"deblur/{tag}/bump.csv", ["bump.csv"], \
            ["deblur", "bump.csv", "-o", "out.csv", "--method", method, *flags,
             "--reference", "bump.csv", "--metrics", "metrics.csv"], True
        yield f"deblur/{tag}/image.f64", ["image.f64", "image.f64.desc"], \
            ["deblur", "image.f64", "-o", "out.f64", "--method", method, *flags], True
        yield f"deblur/{tag}/binary.pgm", ["binary.pgm", "binary.pgm.meta"], \
            ["deblur", "binary.pgm", "-o", "out.pgm", "--method", method, *flags], True
    yield "experiment/growth", [], \
        ["experiment", "growth", "-o", "out.csv", "--n-from", "1", "--n-to", "9",
         "--n-step", "4"], False
    yield "experiment/noise-lateral", [], \
        ["experiment", "noise-lateral", "-o", "out.csv", "--window", "-2:2",
         "--n-from", "5", "--n-to", "7", "--n-step", "2", "--sigma", "1/100",
         "--seed", "3"], False
    yield "experiment/noise-gaussian", [], \
        ["experiment", "noise-gaussian", "-o", "out.csv", "--sigma", "1e-9",
         "--band-limit", "3"], True
    yield "invert/neumann-wide/exact", ["wide.txt"], \
        ["invert", "wide.txt", "-o", "out.txt", "--method", "neumann", "--N", "16",
         "--mode", "exact"], False
    yield "verify/neumann-wide/exact", ["wide.txt", "wide_inverse.txt"], \
        ["verify", "wide.txt", "wide_inverse.txt", "--window", "-8:8",
         "--tol", "1/129140163"], False


REFUSAL = "refusal/"


def cases():
    """(name, inputs, argv, spectral) for every recorded run."""
    from test_malformed_inputs import CORPUS

    for name, files, argv, spectral in _runs():
        yield name, {f: INPUTS[f] for f in files}, argv, spectral
    for case, (argv, files, _) in sorted(CORPUS.items()):
        yield REFUSAL + case, files, argv, False


def _stored(data: bytes, spectral: bool):
    if not spectral:
        try:
            return data.decode("utf-8")
        except UnicodeDecodeError:
            pass
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


def run(name: str, inputs: dict, argv, spectral: bool) -> dict:
    """Exit code, stdout and stored form of every output file of one run, and
    the stderr of a refusal."""
    code, stdout, written, stderr = run_in_dir(inputs, argv)
    got = {"exit": code, "stdout": stdout,
           "files": {file: _stored(data, spectral) for file, data in written.items()}}
    if name.startswith(REFUSAL):
        got["stderr"] = stderr
    return got


def record() -> dict:
    runs = {name: {"argv": argv, "spectral": spectral, **run(name, inputs, argv, spectral)}
            for name, inputs, argv, spectral in cases()}
    return {"numpy": np.__version__, "runs": runs}


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
