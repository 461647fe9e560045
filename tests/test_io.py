"""File formats: measure text, signal CSV, PGM images, raw float grids."""
from fractions import Fraction

import numpy as np
import pytest

from deconv import EXACT, FLOAT, FormatError, GridSignal, from_atoms
from deconv import io as dio


def test_measure_text_roundtrip_exact(tmp_path):
    path = tmp_path / "m.txt"
    m = from_atoms({-3: Fraction(1, 3), 0: -2, 5: Fraction(7, 2)})
    dio.write_measure(path, m, header=("made by a test",))
    text = path.read_text()
    assert text.splitlines()[0] == "# made by a test"
    assert "1/3" in text
    assert dio.read_measure(path) == m


def test_measure_text_roundtrip_float(tmp_path):
    path = tmp_path / "m.txt"
    m = from_atoms({0: 0.1, 2: -3.5e-7}, mode=FLOAT)
    dio.write_measure(path, m)
    assert dio.read_measure(path, FLOAT) == m


def test_measure_text_two_dimensional(tmp_path):
    path = tmp_path / "m.txt"
    m = from_atoms({(0, 1): 2, (-1, -4): Fraction(1, 8)})
    dio.write_measure(path, m)
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    assert lines == ["-1 -4 1/8", "0 1 2"]
    assert dio.read_measure(path) == m


def test_measure_parser_details(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("# comment\n1 1/2  # trailing comment\n\n1 1/2\n-2 0.25\n")
    m = dio.read_measure(path)
    assert dict(m.atoms) == {(1,): Fraction(1), (-2,): Fraction(1, 4)}


def test_measure_parser_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "m.txt"
    path.write_text("0 1\n1 2 3 4 5\n")
    with pytest.raises(FormatError) as err:
        dio.read_measure(path)
    assert ":2:" in str(err.value)

    path.write_text("0 1\n0 0 1\n")
    with pytest.raises(FormatError, match="mixed"):
        dio.read_measure(path)

    path.write_text("x 1\n")
    with pytest.raises(FormatError, match="coordinate"):
        dio.read_measure(path)

    path.write_text("0 1/0\n")
    with pytest.raises(FormatError):
        dio.read_measure(path)

    path.write_text("# nothing but comments\n")
    assert dio.read_measure(path).is_zero


@pytest.mark.parametrize("token", ["1e400", "-1e400", "inf", "-inf", "nan",
                                   "1" + "0" * 400 + "/3"])
def test_float_weights_must_be_finite(tmp_path, token):
    path = tmp_path / "m.txt"
    path.write_text(f"0 1\n1 {token}\n")
    with pytest.raises(FormatError, match=":2:"):
        dio.read_measure(path, FLOAT)


def test_signal_csv_lattice_roundtrip(tmp_path):
    path = tmp_path / "s.csv"
    f = GridSignal.from_lattice_dict({(-1,): Fraction(2, 3), (3,): -1}, dimension=1)
    dio.write_signal_csv(path, f, header=("config a=1",))
    text = path.read_text().splitlines()
    assert text[0] == "# config a=1"
    assert text[1] == "index,value"
    back = dio.read_signal_csv(path)
    assert back.mode == EXACT
    assert back.lattice_equal(f)


def test_signal_csv_float_grid_roundtrip(tmp_path):
    path = tmp_path / "s.csv"
    f = GridSignal(np.array([0.5, -1.25, 2.0]), 0.05, -3.1)
    dio.write_signal_csv(path, f)
    assert path.read_text().splitlines()[0] == "x,value"
    back = dio.read_signal_csv(path)
    assert back.mode == FLOAT
    # repr round-trips values exactly; spacing is re-inferred from the
    # abscissas, so it only has to land within alignment tolerance
    assert np.array_equal(back.values, f.values)
    assert back.spacing[0] == pytest.approx(f.spacing[0], rel=1e-13)
    assert back.origin[0] == f.origin[0]
    assert (back - f).max_abs() == 0.0


def test_signal_csv_errors(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("value,stuff\n1,2\n")
    with pytest.raises(FormatError, match="header"):
        dio.read_signal_csv(path)
    path.write_text("index,value\n")
    with pytest.raises(FormatError, match="no data"):
        dio.read_signal_csv(path)
    path.write_text("index,value\n1,2,3\n")
    with pytest.raises(FormatError):
        dio.read_signal_csv(path)
    path.write_text("x,value\n0.0,1\n0.1,1\n0.3,1\n")
    with pytest.raises(FormatError, match="uniform"):
        dio.read_signal_csv(path)
    path.write_text("index,value\n0,1\n0,5\n")
    with pytest.raises(FormatError, match=":3: repeated index 0"):
        dio.read_signal_csv(path)
    path.write_text("index,value\nbad,1\n")
    with pytest.raises(FormatError) as err:
        dio.read_signal_csv(path)
    assert ":2:" in str(err.value)


def test_signal_csv_fills_lattice_holes(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("index,value\n-1,4\n2,1/2\n")
    back = dio.read_signal_csv(path)
    assert back.shape == (4,)
    assert back.lattice_dict() == {(-1,): Fraction(4), (2,): Fraction(1, 2)}
    # past int64 the box is placed on object coordinates
    path.write_text(f"index,value\n{2 ** 63},4\n{2 ** 63 + 3},1/2\n")
    back = dio.read_signal_csv(path)
    assert back.shape == (4,)
    assert back.lattice_dict() == {(2 ** 63,): Fraction(4), (2 ** 63 + 3,): Fraction(1, 2)}


@pytest.mark.parametrize("binary", [True, False])
@pytest.mark.parametrize("maxval", [255, 65535])
def test_pgm_roundtrip(tmp_path, binary, maxval):
    path = tmp_path / "img.pgm"
    rng = np.random.default_rng(5)
    f = GridSignal(rng.uniform(-1.0, 2.0, size=(7, 11)), (0.5, 0.25), (-1.0, 3.0))
    dio.write_pgm(path, f, maxval=maxval, binary=binary)
    back = dio.read_pgm(path)
    assert back.shape == f.shape
    assert back.spacing == f.spacing
    assert back.origin == f.origin
    # quantization error bounded by half a level of the 3-unit range
    assert back.max_abs_diff(f) <= 3.0 / maxval
    assert path.with_suffix(".pgm.meta").exists() or (str(path) + ".meta")


@pytest.mark.parametrize("binary", [True, False])
def test_pgm_roundtrip_of_a_span_past_float64(tmp_path, binary):
    # 1e308 - (-1e308) overflows; counts and values still span the grid, no warning
    path = tmp_path / "img.pgm"
    f = GridSignal(np.array([[-1e308, -2e307], [5e307, 1e308]]), (1.0, 1.0), (0.0, 0.0))
    dio.write_pgm(path, f, binary=binary)
    back = dio.read_pgm(path)
    assert back.values[0, 0] == -1e308 and back.values[1, 1] == 1e308
    assert back.max_abs_diff(f) <= 2e308 / 255 / 2 * (1 + 1e-9)


def test_pgm_sidecar_span_past_float64(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n2 2\n3\n0 1\n2 3\n")
    meta = tmp_path / "img.pgm.meta"
    meta.write_text("spacing 1 1\norigin 0 0\nvmin -1e308\nvmax 1e308\n")
    assert np.allclose(dio.read_pgm(path).values,
                       [[-1e308, -1e308 / 3], [1e308 / 3, 1e308]], rtol=1e-15, atol=0)
    meta.write_text("spacing 1 1\norigin 0 0\nvmin 0\nvmax inf\n")
    with pytest.raises(FormatError, match="vmin and vmax must be finite"):
        dio.read_pgm(path)


def test_pgm_without_sidecar_reads_counts(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P2\n# a comment\n2 2\n255\n0 128\n255 64\n")
    back = dio.read_pgm(path)
    assert back.spacing == (1.0, 1.0)
    assert back.values.tolist() == [[0.0, 128.0], [255.0, 64.0]]


def test_pgm_constant_image(tmp_path):
    path = tmp_path / "img.pgm"
    f = GridSignal(np.full((3, 3), 2.5), (1.0, 1.0), (0.0, 0.0))
    dio.write_pgm(path, f)
    assert dio.read_pgm(path).max_abs_diff(f) == 0.0


def test_pgm_errors(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_bytes(b"P3\n2 2\n255\n")
    with pytest.raises(FormatError, match="magic"):
        dio.read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\nxx")
    with pytest.raises(FormatError, match="truncated"):
        dio.read_pgm(path)
    path.write_bytes(b"P2\n2 2\n255\n1 2 3\n")
    with pytest.raises(FormatError, match="expected 4 samples"):
        dio.read_pgm(path)
    path.write_bytes(b"P2\n2 2\n10\n1 2 3 11\n")
    with pytest.raises(FormatError, match="maxval"):
        dio.read_pgm(path)
    path.write_bytes(b"P2\n2 2\n255\n-5 1 2 3\n")
    with pytest.raises(FormatError, match="negative sample"):
        dio.read_pgm(path)
    path.write_bytes(b"P2\n2 2\n255\n5 1 2 3\n")
    (tmp_path / "img.pgm.meta").write_text(
        "spacing 0.1 0.1\norigin 0 0\nvmin 0\nvmax 1\nspacing 0.2 0.2\n")
    with pytest.raises(FormatError, match=r"img\.pgm\.meta:5: repeated key 'spacing'"):
        dio.read_pgm(path)
    with pytest.raises(FormatError, match="maxval must be 255 or 65535"):
        dio.write_pgm(tmp_path / "out.pgm", GridSignal(np.zeros((2, 2)), (1.0, 1.0), (0.0, 0.0)),
                      maxval=1000)
    assert not (tmp_path / "out.pgm").exists()


def test_raw_grid_roundtrip(tmp_path):
    path = tmp_path / "g.f64"
    rng = np.random.default_rng(11)
    f = GridSignal(rng.standard_normal((5, 9)), (0.05, 0.1), (-2.0, 1.5))
    dio.write_raw_grid(path, f)
    back = dio.read_raw_grid(path)
    assert back.max_abs_diff(f) == 0.0
    assert back.spacing == f.spacing and back.origin == f.origin


def test_raw_grid_errors(tmp_path):
    path = tmp_path / "g.f64"
    path.write_bytes(b"\x00" * 8)
    with pytest.raises(FormatError, match="descriptor"):
        dio.read_raw_grid(path)
    (tmp_path / "g.f64.desc").write_text(
        "dtype float64-le\nshape 2\nspacing 1.0\norigin 0.0\n")
    with pytest.raises(FormatError, match="bytes"):
        dio.read_raw_grid(path)
    (tmp_path / "g.f64.desc").write_text(
        "dtype float64-le\nshape 1\nspacing 0.1\nspacing 0.2\norigin 0.0\n")
    with pytest.raises(FormatError, match=r"g\.f64\.desc:4: repeated key 'spacing'"):
        dio.read_raw_grid(path)


def test_dispatch_by_extension(tmp_path):
    f = GridSignal(np.array([1.0, 2.0]), 0.5, 0.0)
    path = tmp_path / "sig.f64"
    dio.save_signal(path, f)
    assert dio.load_signal(path).max_abs_diff(f) == 0.0
    with pytest.raises(FormatError, match="extension"):
        dio.save_signal(tmp_path / "sig.xyz", f)
    with pytest.raises(FormatError, match="extension"):
        dio.load_signal(tmp_path / "sig.xyz")


def test_writers_are_deterministic(tmp_path):
    m = from_atoms({3: Fraction(1, 7), -2: 5, 0: -1})
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    dio.write_measure(a, m, header=("k=v",))
    dio.write_measure(b, m, header=("k=v",))
    assert a.read_bytes() == b.read_bytes()
