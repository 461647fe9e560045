"""The column readers of ``deconv.io`` against the per-line ones they replaced.

``io_oracle`` keeps the per-line ``read_measure`` and ``read_signal_csv``.
On random files that mix comments, blank lines, CRLF and CR endings,
``\\x0b``/``\\x0c``/``\\u2028`` inside a line, repeated points and indices,
``p/q`` weights, ``-0.0``, ``1e400``, ``nan``, ``1_0``, bad tokens, 1D and
2D lines and header variants, both readers give the same measure (the same
atoms in the same order, weights of the same ``repr``) or the same signal
(values of the same dtype and ``repr``, origin and spacing), or both refuse
the file with the same error class and text.
"""
from hypothesis import example, given, settings
from hypothesis import strategies as st

import io_oracle as oracle
from deconv import io as dio
from deconv.errors import DeconvError

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
                                                ("", "\x0c")]))
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
def test_read_measure_matches_the_per_line_reader(tmp_path_factory, text, mode):
    _agree(tmp_path_factory.mktemp("m"), text, dio.read_measure, oracle.read_measure,
           mode, _measure)


@settings(max_examples=300, deadline=None)
@given(text=csv_files(), mode=st.sampled_from([None, *MODES]))
@example(text="Index, Value\n0,-0.0\n2,1e400\n", mode=None)
@example(text="Index, Value\n0,-0.0\n2,1e400\n", mode=dio.FLOAT)
@example(text="index,value\n2,1\n0,-0.0\n", mode=dio.FLOAT)
@example(text="x,value\n0.0,1\n0.25,nan\n", mode=None)
def test_read_signal_csv_matches_the_per_line_reader(tmp_path_factory, text, mode):
    _agree(tmp_path_factory.mktemp("s"), text, dio.read_signal_csv, oracle.read_signal_csv,
           mode, _signal)

