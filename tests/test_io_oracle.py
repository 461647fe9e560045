"""The column readers and writers of ``deconv.io`` against the ones they replaced.

``io_oracle`` keeps the per-line ``read_measure`` and ``read_signal_csv``.
On random files that mix comments, blank lines, CRLF and CR endings,
``\\x0b``/``\\x0c``/``\\u2028`` inside a line, repeated points and indices,
``p/q`` weights, ``-0.0``, ``1e400``, ``nan``, ``1_0``, bad tokens, 1D and
2D lines and header variants, both readers give the same measure (the same
atoms in the same order, weights of the same ``repr``) or the same signal
(values of the same dtype and ``repr``, origin and spacing), or both refuse
the file with the same error class and text.

``io_oracle`` also keeps the per-row ``write_measure`` and ``write_signal_csv`` and the
copying ``write_raw_grid``.  On random 1D and 2D measures in both modes,
lattice and ``x,value`` signals, and raw grids whose arrays are strided,
transposed, big-endian or float32, both writers write the same bytes.
"""
from fractions import Fraction

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import io_oracle as oracle
from deconv import io as dio
from deconv.errors import DeconvError
from deconv.grids import GridSignal
from deconv.measures import AtomicMeasure

SEPARATORS = [" ", " ", "  ", "\t", "\x0b", "\x0c", "\u2028"]
ENDINGS = ["\n", "\n", "\n", "\r\n", "\r"]
GOOD_INTS = ["0", "1", "-1", "2", "-2", "3", "1_0", "+2", "007"]
BAD_INTS = ["a", "1.5", "half", "1e2", "--1", ""]
GOOD_WEIGHTS = ["1", "-2", "3/4", "-7/2", "0", "-0.0", "0.0", "0.5", "1e-3", "2.5e3",
                "1/3", "0.1", "-1e-300", "1e308", "+4"]
EDGE_WEIGHTS = ["-0.0", "3/4", "1e308"]  # drawn as often as all the others together
BAD_WEIGHTS = ["1e400", "-1e400", "nan", "inf", "-inf", "1_0", "1/0", "x", "1//2",
               "1" + "0" * 400 + "/3", "0x10"]
HEADERS = ["index,value", "Index, Value", " INDEX ,value ", "x,value", "X , Value",
           "i,v", "index,value,extra", "value"]
MODES = [dio.EXACT, dio.FLOAT]


def _token(draw, good, bad, clean):
    return draw(st.sampled_from(good if clean else good + bad))


def _weight(draw, clean):
    if draw(st.booleans()):
        return draw(st.sampled_from(EDGE_WEIGHTS))
    return _token(draw, GOOD_WEIGHTS, BAD_WEIGHTS, clean)


@st.composite
def measure_files(draw):
    clean = draw(st.booleans())
    dimension = draw(st.sampled_from([1, 2]))
    kinds = ["atom"] * 6 + ["comment", "blank"] + ([] if clean else ["other-dimension",
                                                                       "fields"])
    lines = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(kinds))
        sep = draw(st.sampled_from(SEPARATORS))
        if kind in ("atom", "other-dimension"):
            d = dimension if kind == "atom" else 3 - dimension
            tokens = [_token(draw, GOOD_INTS, BAD_INTS, clean) for _ in range(d)]
            tokens.append(_weight(draw, clean))
            line = sep.join(tokens)
            if draw(st.booleans()):
                line = draw(st.sampled_from(SEPARATORS)) + line + sep + "# note"
        elif kind == "comment":
            line = draw(st.sampled_from(["# a comment", "  # indented", "#"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", "  ", "\t", "\x0c"]))
        else:
            line = sep.join(draw(st.lists(st.sampled_from(GOOD_INTS), min_size=1,
                                          max_size=4).filter(lambda t: len(t) != 2)))
        lines.append(line)
    return _joined(draw, lines)


@st.composite
def csv_files(draw):
    clean = draw(st.booleans())
    header = draw(st.sampled_from(HEADERS[:5] if clean else HEADERS))
    uniform = header.strip().lower().startswith("x") and draw(st.booleans())
    lines = [draw(st.sampled_from(["# leading comment", ""])) for _ in
             range(draw(st.integers(0, 2)))] + [header]
    kinds = ["row"] * 6 + ["comment", "blank"] + ([] if clean else ["fields"])
    step = draw(st.sampled_from(["0.25", "0.1", "1"]))
    start = draw(st.integers(-4, 4))
    for n in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind == "row":
            if uniform:
                x = repr((start + n) * float(step))
            else:
                x = _token(draw, GOOD_INTS, BAD_INTS + ["0.5"], clean)
            v = _weight(draw, clean)
            left, right = draw(st.sampled_from([("", ""), (" ", " "), ("\x0b", "\t"),
                                                ("", "\x0c"), ("\x1c", "\x1f")]))
            line = f"{x}{left},{right}{v}"
        elif kind == "comment":
            line = draw(st.sampled_from(["# a comment", "  # indented", "1,2 # trailing"]))
        elif kind == "blank":
            line = draw(st.sampled_from(["", "  ", "\x0b"]))
        else:
            line = draw(st.sampled_from(["5", "1,2,3", ",", "1;2"]))
        lines.append(line)
    return _joined(draw, lines)


def _joined(draw, lines) -> str:
    text = "".join(line + draw(st.sampled_from(ENDINGS)) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


def _outcome(read, path, mode, describe):
    try:
        return describe(read(path, mode))
    except DeconvError as exc:
        return type(exc).__name__, str(exc)


def _measure(m):
    return m.dimension, m.mode, [(p, repr(w)) for p, w in m.atoms.items()]


def _signal(s):
    return (s.values.dtype, [repr(v) for v in s.values.tolist()], s.origin, s.spacing)


def _agree(tmp_path, text, read_new, read_old, mode, describe):
    path = tmp_path / "in.txt"
    path.write_bytes(text.encode("utf-8"))
    want = _outcome(read_old, path, mode, describe)
    assert _outcome(read_new, path, mode, describe) == want


@settings(max_examples=300, deadline=None)
@given(text=measure_files(), mode=st.sampled_from(MODES))
@example(text="0 1\n0 -1/2\r\n1\x0b3/4 # note\n\n", mode=dio.FLOAT)
@example(text="0 1\n1 2 3\n0 x\n", mode=dio.EXACT)
@example(text="0 1/3\n1 1/3 # again\n2 0.5\n3 1/3\n", mode=dio.EXACT)
@example(text="0 1\n1 y\n2 x\n3 y\n4 x\n", mode=dio.EXACT)
@example(text="0 1/2\n1 1/0\n2 1/0\n", mode=dio.EXACT)
def test_read_measure_matches_the_per_line_reader(tmp_path_factory, text, mode):
    _agree(tmp_path_factory.mktemp("m"), text, dio.read_measure, oracle.read_measure,
           mode, _measure)


@settings(max_examples=300, deadline=None)
@given(text=csv_files(), mode=st.sampled_from([None, *MODES]))
@example(text="Index, Value\n0,-0.0\n2,1e400\n", mode=None)
@example(text="Index, Value\n0,-0.0\n2,1e400\n", mode=dio.FLOAT)
@example(text="index,value\n2,1\n0,-0.0\n", mode=dio.FLOAT)
@example(text="x,value\n0.0,1\n0.25,nan\n", mode=None)
@example(text="index,value\n0,1/3\n1,1/3\n2,0.5\n3,1/3\n", mode=None)
@example(text="index,value\n0,1\n1,y\n2,x\n3,y\n4,x\n", mode=None)
@example(text="index,value\n0,1/2\n1,1/0\n2,1/0\n", mode=None)
@example(text="index,value\n0\x1c,\x1f1/2\n1 , 3\n", mode=None)
@example(text="index,value\n0\x1c,\x1f1/2\n1 , 3\n", mode=dio.FLOAT)
def test_read_signal_csv_matches_the_per_line_reader(tmp_path_factory, text, mode):
    _agree(tmp_path_factory.mktemp("s"), text, dio.read_signal_csv, oracle.read_signal_csv,
           mode, _signal)



# --- writers ----------------------------------------------------------------

FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e16, 1e-5, float(2**53 + 1), 1e308, 0.1,
               -2.5, 1e15, 9999999999999998.0]
EXACT_EDGES = [Fraction(0), Fraction(2**53 + 1), Fraction(-1, 3),
               Fraction(2**300 + 1, 3**189), Fraction(-(3**189), 2**300 - 1)]
HEADERS_OUT = [(), ("mode=float",), ("cmd=convolve", "note=caf\u00e9")]


def _float_values():
    return st.one_of(st.sampled_from(FLOAT_EDGES),
                     st.floats(allow_nan=False, allow_infinity=False))


def _exact_values():
    big = st.integers(-(2**300), 2**300)
    return st.one_of(st.sampled_from(EXACT_EDGES),
                     st.builds(Fraction, st.integers(-99, 99), st.integers(1, 99)),
                     st.builds(Fraction, big, big.filter(bool)))


@st.composite
def measures(draw):
    dimension = draw(st.sampled_from([1, 2]))
    mode = draw(st.sampled_from(MODES))
    point = st.tuples(*[st.integers(-(10**12), 10**12)] * dimension)
    weight = _exact_values() if mode == dio.EXACT else _float_values()
    atoms = draw(st.dictionaries(point, weight, max_size=12))  # no sum past float64
    return "measure", AtomicMeasure(dimension, atoms, mode)


@st.composite
def csv_signals(draw):
    exact = draw(st.booleans())
    values = draw(st.lists(_exact_values() if exact else _float_values(),
                           min_size=1, max_size=12))
    if exact or draw(st.booleans()):
        spacing, origin = 1.0, draw(st.integers(-(10**6), 10**6))
    else:
        spacing = draw(st.sampled_from([0.25, 0.1, 3.0]))
        origin = draw(st.sampled_from([0.0, -1.5, 0.1, 1e-5]))
    array = np.array(values, dtype=object if exact else float)
    return "csv", GridSignal(array, spacing, origin)


@st.composite
def raw_grids(draw):
    shape = draw(st.sampled_from([(5,), (3, 4), (1, 1), (4, 1)]))
    size = int(np.prod(shape))
    base = np.array(draw(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=32),
                                  min_size=2 * size, max_size=2 * size)))
    layout = draw(st.sampled_from(["c", "strided", "transposed", "big-endian", "float32"]))
    if layout == "strided":  # every other sample along the last axis
        array = base.reshape(*shape[:-1], 2 * shape[-1])[..., ::2]
    elif layout == "transposed":
        array = base[:size].reshape(shape[::-1]).T
    else:
        dtype = {"c": "<f8", "big-endian": ">f8", "float32": "<f4"}[layout]
        array = base[:size].reshape(shape).astype(dtype)
    spacing = draw(st.sampled_from([1.0, 0.2, 1e-5]))
    return "raw", GridSignal._own(array, spacing, draw(st.sampled_from([0.0, -0.5])))


_WRITERS = {"measure": (dio.write_measure, oracle.write_measure, ()),
            "csv": (dio.write_signal_csv, oracle.write_signal_csv, ()),
            "raw": (dio.write_raw_grid, oracle.write_raw_grid, (".desc",))}


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(measures(), csv_signals(), raw_grids()),
       header=st.sampled_from(HEADERS_OUT))
@example(case=("measure", AtomicMeasure(1, {}, dio.EXACT)), header=())
@example(case=("measure", AtomicMeasure(2, {}, dio.FLOAT)), header=("mode=float",))
@example(case=("measure", AtomicMeasure(1, [((i,), w) for i, w in enumerate(FLOAT_EDGES)],
                                        dio.FLOAT)), header=())
@example(case=("measure", AtomicMeasure(2, [((i, -i), w) for i, w in enumerate(EXACT_EDGES)],
                                        dio.EXACT)), header=())
@example(case=("csv", GridSignal(np.array(FLOAT_EDGES), 1.0, -3)), header=())
@example(case=("csv", GridSignal(np.array(FLOAT_EDGES), 0.25, 0.1)), header=())
@example(case=("csv", GridSignal(np.array(EXACT_EDGES, dtype=object), 1.0, 7)), header=())
@example(case=("raw", GridSignal._own(np.arange(12.0).reshape(3, 4)[:, ::2], 1.0, 0.0)),
         header=())
@example(case=("raw", GridSignal._own(np.arange(6.0, dtype=">f8").reshape(2, 3), 0.5, 0.0)),
         header=())
def test_writers_write_the_bytes_of_the_per_row_writers(tmp_path_factory, case, header):
    kind, value = case
    new, old, sidecars = _WRITERS[kind]
    folder = tmp_path_factory.mktemp("w")
    new(folder / "new", value, header)
    old(folder / "old", value, header)
    for suffix in ("", *sidecars):
        assert (folder / f"new{suffix}").read_bytes() == (folder / f"old{suffix}").read_bytes()
