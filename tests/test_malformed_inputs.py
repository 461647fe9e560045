"""Every reader refuses malformed files with its documented exit code.

Each row names the input files, the command that reads them and the
expected exit code of ``deconv``; no row may leave an output file behind
or change an input.
"""
import struct

import pytest

from deconv.cli import main

NAN = struct.pack("<d", float("nan"))
ONE = struct.pack("<d", 1.0)
META = "spacing 0.25 0.25\norigin 0.0 0.0\nvmin 0.0\nvmax 1.0\n"
DESC_1D = "dtype float64-le\nshape 2\nspacing 0.25\norigin 0.0\n"
DESC_2D = "dtype float64-le\nshape 2 2\nspacing 0.25 0.25\norigin 0.0 0.0\n"

MEASURE = ["convolve", "in.txt", "in.txt", "-o", "out.txt"]
INDEX_CSV = ["deblur", "in.csv", "-o", "out.csv", "--method", "binomial",
             "--N", "12", "--window", "-4:4"]
X_CSV = ["blur", "in.csv", "-o", "out.csv"]
REFERENCE = INDEX_CSV + ["--reference", "ref.csv"]
METRICS = INDEX_CSV[:2] + INDEX_CSV[4:] + ["--reference", "ref.csv"]
ONE_ROW = "index,value\n0,1\n"
PGM = ["blur", "in.pgm", "-o", "out.pgm"]
RAW = ["blur", "in.f64", "-o", "out.f64"]

CORPUS = {
    # measure text
    "measure-fields": (MEASURE, {"in.txt": "0 1 2 3\n"}, 2),
    "measure-coordinate": (MEASURE, {"in.txt": "a 1\n"}, 2),
    "measure-weight": (MEASURE, {"in.txt": "0 1/0\n"}, 2),
    "measure-mixed-dimension": (MEASURE, {"in.txt": "0 1\n0 0 1\n"}, 2),
    "measure-float-overflow": (MEASURE + ["--mode", "float"], {"in.txt": "0 1e400\n"}, 2),
    "measure-missing": (MEASURE, {}, 2),
    "measure-float-product-overflow": (MEASURE + ["--mode", "float"],
                                       {"in.txt": "0 1e200\n1 -1e200\n"}, 4),
    "measure-float-tv-overflow": (["convolve", "in.txt", "one.txt", "-o", "out.txt",
                                   "--mode", "float"],
                                  {"in.txt": "0 1e308\n1 1e308\n", "one.txt": "0 1\n"}, 4),
    # CSV on the lattice
    "index-empty": (INDEX_CSV, {"in.csv": ""}, 2),
    "index-header": (INDEX_CSV, {"in.csv": "i,v\n0,1\n"}, 2),
    "index-no-rows": (INDEX_CSV, {"in.csv": "index,value\n"}, 2),
    "index-three-fields": (INDEX_CSV, {"in.csv": "index,value\n0,1,2\n"}, 2),
    "index-bad-index": (INDEX_CSV, {"in.csv": "index,value\nhalf,1\n"}, 2),
    "index-bad-value": (INDEX_CSV, {"in.csv": "index,value\n0,one\n"}, 2),
    "index-repeated": (INDEX_CSV, {"in.csv": "index,value\n0,1\n0,5\n"}, 2),
    "index-float-result-overflow": (INDEX_CSV + ["--mode", "float"],
                                    {"in.csv": "index,value\n" + "0,1e308\n1,1e308\n"}, 4),
    # vancittert places the whole span: 10^12 + 1 cells are past the cap
    "index-span-vancittert": (["deblur", "in.csv", "-o", "out.csv", "--method", "vancittert",
                               "--a", "3/4"], {"in.csv": "index,value\n0,1\n1000000000000,2\n"},
                              2),
    # a reference is read before the deblurred output is written
    "deblur-reference-missing": (REFERENCE, {"in.csv": ONE_ROW}, 2),
    "deblur-reference-bad-value": (REFERENCE, {"in.csv": ONE_ROW,
                                               "ref.csv": "index,value\n0,one\n"}, 2),
    "deblur-reference-mode": (REFERENCE, {"in.csv": ONE_ROW, "ref.csv": "x,value\n0.0,1\n"}, 3),
    # a metrics file that would overwrite a file written for -o
    "deblur-metrics-is-output": (METRICS + ["-o", "same.csv", "--metrics", "same.csv"],
                                 {"in.csv": ONE_ROW, "ref.csv": ONE_ROW}, 2),
    "deblur-metrics-is-raw-descriptor": (METRICS + ["-o", "r.f64", "--metrics", "r.f64.desc",
                                                    "--mode", "float"],
                                         {"in.csv": ONE_ROW, "ref.csv": ONE_ROW}, 2),
    "deblur-metrics-is-pgm-sidecar": (["deblur", "in.f64", "-o", "r.pgm", "--method",
                                       "analytic", "--band-limit", "3", "--reference",
                                       "in.f64", "--metrics", "r.pgm.meta"],
                                      {"in.f64": ONE * 4, "in.f64.desc": DESC_2D}, 2),
    # an output that is a file the run reads
    "deblur-metrics-is-reference": (METRICS + ["-o", "out.csv", "--metrics", "ref.csv"],
                                    {"in.csv": ONE_ROW, "ref.csv": ONE_ROW}, 2),
    "deblur-output-is-input": (INDEX_CSV[:3] + ["in.csv"] + INDEX_CSV[4:],
                               {"in.csv": ONE_ROW}, 2),
    "deblur-output-is-reference-descriptor": (["deblur", "in.csv", "-o", "ref.f64.desc",
                                               "--method", "analytic", "--reference",
                                               "ref.f64"],
                                              {"in.csv": ONE_ROW, "ref.f64": ONE * 2,
                                               "ref.f64.desc": DESC_1D}, 2),
    "convolve-output-is-input": (["convolve", "in.txt", "one.txt", "-o", "in.txt"],
                                 {"in.txt": "0 1\n", "one.txt": "0 1\n"}, 2),
    # an output format that cannot hold the result
    "deblur-1d-to-pgm": (INDEX_CSV[:3] + ["out.pgm"] + INDEX_CSV[4:], {"in.csv": ONE_ROW}, 2),
    "deblur-exact-to-raw": (INDEX_CSV[:3] + ["out.f64"] + INDEX_CSV[4:],
                            {"in.csv": ONE_ROW}, 2),
    # CSV on a general grid
    "x-not-uniform": (X_CSV, {"in.csv": "x,value\n0.0,1\n0.1,1\n0.3,1\n"}, 2),
    "x-bad-abscissa": (X_CSV, {"in.csv": "x,value\nzero,1\n"}, 2),
    "x-nan-value": (X_CSV, {"in.csv": "x,value\n0.0,nan\n0.1,1\n"}, 2),
    # PGM, ASCII P2 and binary P5, with and without a sidecar
    "pgm-empty": (PGM, {"in.pgm": b""}, 2),
    "pgm-magic": (PGM, {"in.pgm": b"P3\n2 2\n255\n"}, 2),
    "pgm-width-zero": (PGM, {"in.pgm": b"P2\n0 2\n255\n"}, 2),
    "pgm-header": (PGM, {"in.pgm": b"P2\n2\n"}, 2),
    "pgm-p2-sample": (PGM, {"in.pgm": b"P2\n2 2\n255\n1 2 x 4\n"}, 2),
    "pgm-p2-count": (PGM, {"in.pgm": b"P2\n2 2\n255\n1 2 3\n"}, 2),
    "pgm-p2-maxval": (PGM, {"in.pgm": b"P2\n2 2\n10\n1 2 3 11\n"}, 2),
    "pgm-p2-maxval-above-65535": (PGM, {"in.pgm": b"P2\n2 2\n70000\n1 2 3 69999\n",
                                        "in.pgm.meta": META}, 2),
    "pgm-p2-negative": (PGM, {"in.pgm": b"P2\n2 2\n255\n-5 1 2 3\n"}, 2),
    "pgm-p5-truncated": (PGM, {"in.pgm": b"P5\n2 2\n255\nxx"}, 2),
    "pgm-meta-missing-key": (PGM, {"in.pgm": b"P5\n2 2\n255\nabcd",
                                   "in.pgm.meta": "spacing 0.25 0.25\norigin 0 0\n"}, 2),
    "pgm-meta-vmin-nan": (PGM, {"in.pgm": b"P5\n2 2\n255\nabcd",
                                "in.pgm.meta": META.replace("vmin 0.0", "vmin nan")}, 2),
    "pgm-meta-repeated-key": (PGM, {"in.pgm": b"P5\n2 2\n255\nabcd",
                                    "in.pgm.meta": META + "spacing 0.5 0.5\n"}, 2),
    "pgm-meta-spacing-inf": (PGM, {"in.pgm": b"P2\n2 2\n255\n1 2 3 4\n",
                                   "in.pgm.meta": META.replace("0.25 0.25", "inf 0.25")}, 2),
    # raw float64 grid and its descriptor
    "raw-no-descriptor": (RAW, {"in.f64": ONE * 2}, 2),
    "raw-dtype": (RAW, {"in.f64": ONE * 2,
                        "in.f64.desc": DESC_1D.replace("float64-le", "float32")}, 2),
    "raw-shape-token": (RAW, {"in.f64": ONE * 2,
                              "in.f64.desc": DESC_1D.replace("shape 2", "shape two")}, 2),
    "raw-shape-negative": (RAW, {"in.f64": ONE * 6,
                                 "in.f64.desc": DESC_2D.replace("shape 2 2", "shape -2 -3")}, 2),
    "raw-shape-zero": (RAW, {"in.f64": b"",
                             "in.f64.desc": DESC_2D.replace("shape 2 2", "shape 0 5")}, 2),
    "raw-byte-count": (RAW, {"in.f64": ONE * 3, "in.f64.desc": DESC_1D}, 2),
    "raw-nan": (RAW, {"in.f64": ONE + NAN, "in.f64.desc": DESC_1D}, 2),
    "raw-spacing-axes": (RAW, {"in.f64": ONE * 2,
                               "in.f64.desc": DESC_1D.replace("0.25", "0.25 0.25")}, 2),
    "raw-negative-spacing": (RAW, {"in.f64": ONE * 2,
                                   "in.f64.desc": DESC_1D.replace("0.25", "-0.25")}, 2),
    "raw-repeated-key": (RAW, {"in.f64": ONE * 2,
                               "in.f64.desc": DESC_1D + "spacing 0.5\n"}, 2),
    "raw-origin-nan": (RAW, {"in.f64": ONE * 2,
                             "in.f64.desc": DESC_1D.replace("origin 0.0", "origin nan")}, 2),
}


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_malformed_input_exit_code(tmp_path, monkeypatch, case):
    argv, files, code = CORPUS[case]
    files = {name: c if isinstance(c, bytes) else c.encode() for name, c in files.items()}
    for name, content in files.items():
        (tmp_path / name).write_bytes(content)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files
