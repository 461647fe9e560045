"""Every reader refuses malformed files with its documented exit code.

Each row names the input files, the command that reads them and the
expected exit code of ``deconv``; no row may leave an output file behind.
"""
import struct

import pytest

from deconv.cli import main

NAN = struct.pack("<d", float("nan"))
ONE = struct.pack("<d", 1.0)
META = "spacing 0.25 0.25\norigin 0.0 0.0\nvmin 0.0\nvmax 1.0\n"
DESC_1D = "dtype float64-le\nshape 2\nspacing 0.25\norigin 0.0\n"

MEASURE = ["convolve", "in.txt", "in.txt", "-o", "out.txt"]
INDEX_CSV = ["deblur", "in.csv", "-o", "out.csv", "--method", "binomial",
             "--N", "12", "--window", "-4:4"]
X_CSV = ["blur", "in.csv", "-o", "out.csv"]
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
    "index-header": (INDEX_CSV, {"in.csv": "i,v\n0,1\n"}, 2),
    "index-no-rows": (INDEX_CSV, {"in.csv": "index,value\n"}, 2),
    "index-three-fields": (INDEX_CSV, {"in.csv": "index,value\n0,1,2\n"}, 2),
    "index-bad-index": (INDEX_CSV, {"in.csv": "index,value\nhalf,1\n"}, 2),
    "index-bad-value": (INDEX_CSV, {"in.csv": "index,value\n0,one\n"}, 2),
    "index-repeated": (INDEX_CSV, {"in.csv": "index,value\n0,1\n0,5\n"}, 2),
    "index-float-result-overflow": (INDEX_CSV + ["--mode", "float"],
                                    {"in.csv": "index,value\n" + "0,1e308\n1,1e308\n"}, 4),
    # CSV on a general grid
    "x-not-uniform": (X_CSV, {"in.csv": "x,value\n0.0,1\n0.1,1\n0.3,1\n"}, 2),
    "x-bad-abscissa": (X_CSV, {"in.csv": "x,value\nzero,1\n"}, 2),
    "x-nan-value": (X_CSV, {"in.csv": "x,value\n0.0,nan\n0.1,1\n"}, 2),
    # PGM, ASCII P2 and binary P5, with and without a sidecar
    "pgm-magic": (PGM, {"in.pgm": b"P3\n2 2\n255\n"}, 2),
    "pgm-header": (PGM, {"in.pgm": b"P2\n2\n"}, 2),
    "pgm-p2-sample": (PGM, {"in.pgm": b"P2\n2 2\n255\n1 2 x 4\n"}, 2),
    "pgm-p2-count": (PGM, {"in.pgm": b"P2\n2 2\n255\n1 2 3\n"}, 2),
    "pgm-p2-maxval": (PGM, {"in.pgm": b"P2\n2 2\n10\n1 2 3 11\n"}, 2),
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
    for name, content in files.items():
        target = tmp_path / name
        if isinstance(content, bytes):
            target.write_bytes(content)
        else:
            target.write_text(content)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)
