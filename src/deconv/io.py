"""Reading and writing measures, signals, and images.

Formats:

* measures: UTF-8 text, one atom per line, ``<i> <w>`` in 1D and
  ``<i> <j> <w>`` in 2D; weights are decimals or ``p/q`` rationals;
  ``#`` starts a comment.
* 1D signals: CSV with an ``index,value`` header on the integer lattice
  or ``x,value`` for general grids.  An index CSV is placed on the box
  from its first to its last index, at most ``MAX_INDEX_CELLS`` cells.
* 2D images: PGM, read as ASCII ``P2`` or binary ``P5`` and written as
  ``P5``, maxval 255 or 65535, with a small ``<file>.meta`` sidecar
  recording spacing, origin, and the linear value range so float data
  survives the round trip.
* float grids: raw little-endian float64 next to a ``<file>.desc`` text
  descriptor.

Each format has one reader.  The measure and CSV readers read the file
once, split it into lines on ``"\\n"`` and each line into fields, then
convert whole columns (``int``, ``float`` or ``Fraction`` over a column,
one finiteness check for float weights); an exact column parses each
distinct token once, and measure comments are cut in one pass over the
text.  Line numbers are counted only when a column fails: the rows are
then checked one by one by the same single-token rules, and the first row
refused names its line in the ``FormatError``, as a line-by-line reader
would.

Writers emit keys in a fixed order and shortest-round-trip floats, so a
rerun with the same inputs produces byte-identical files.  Each row is
one f-string, a weight in it ``str(w)`` in both modes (a float's ``str``
is its ``repr``), the text ``format_weight`` gives.  Every text file but
the PGM raster goes through :func:`write_text`, which puts the
``# key=value`` echo of a run's configuration first; the raster keeps its
comments after the magic number, where the format wants them.
"""
from __future__ import annotations

import math
import os
import re
from fractions import Fraction
from typing import NoReturn

import numpy as np

from .errors import DimensionMismatch, FormatError
from .grids import EXACT, FLOAT, GridSignal, _on_box, _summed
from .measures import AtomicMeasure, _checked

MAX_INDEX_CELLS = 2 ** 24  # an index CSV's box: 16,777,216 cells, 128 MiB of 8-byte cells

# --- text files -------------------------------------------------------------


def write_text(path, header: tuple[str, ...], lines) -> None:
    """Write ``# `` echo lines for ``header``, then ``lines``, in UTF-8 with
    ``\n`` endings; the text is formed before the file is opened."""
    rows = [f"# {h}" for h in header] + list(lines)
    text = "\n".join(rows) + "\n" if rows else ""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _text(path) -> str:
    r"""A text file's text, to be split into lines on ``"\n"`` alone.

    Universal newlines make ``"\r\n"`` and ``"\r"`` into ``"\n"``;
    ``str.splitlines`` would also end a line at ``"\x0b"``, ``"\x0c"`` or
    ``"\u2028"``, whitespace inside one.
    """
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _refuse_first(path, lines, check, after: int = 0) -> NoReturn:
    """Raise the ``FormatError`` of the first line with fields past line
    ``after`` that ``check`` refuses, with its path and line number.

    A reader calls this where a column parse failed: the per-row rules then
    name the line that a line-by-line reader would have refused first.
    """
    for lineno, row in enumerate(lines[after:], after + 1):
        if row:
            try:
                check(row)
            except FormatError as exc:
                raise FormatError(exc.args[0], line=lineno, path=str(path)) from exc
    raise AssertionError(f"{path}: a column parse failed where every row is good")


# --- weights ----------------------------------------------------------------


def format_weight(w) -> str:
    """A weight as text: ``str`` of a ``Fraction``, ``repr`` of a float."""
    return str(w) if isinstance(w, Fraction) else repr(float(w))


def _float_weight(token: str) -> float:
    return float(Fraction(token)) if "/" in token else float(token)


_WEIGHT_VALUE = {EXACT: Fraction, FLOAT: _float_weight}  # a weight token in each mode
_BAD_TOKEN = (ValueError, ZeroDivisionError, OverflowError)


def parse_weight(token: str, mode: str):
    """A weight in the given mode; float weights must be finite."""
    try:
        value = _WEIGHT_VALUE[mode](token)
    except _BAD_TOKEN as exc:
        raise FormatError(f"bad weight {token!r}: {exc}") from exc
    if mode == FLOAT and not math.isfinite(value):
        raise FormatError(f"bad weight {token!r}: not a finite float64")
    return value


def _weights(tokens, mode: str) -> list:
    """``parse_weight`` of every token, by one map and one finiteness check;
    ``ValueError`` (or the error of the bad token) where one is refused.  An
    exact token is parsed once, its immutable ``Fraction`` shared by repeats."""
    if mode == EXACT:
        return list(map({t: Fraction(t) for t in set(tokens)}.__getitem__, tokens))
    try:
        values = list(map(float, tokens))  # the float weights of tokens without a "/"
    except ValueError:
        values = list(map(_float_weight, tokens))
    if not np.isfinite(values).all():
        raise ValueError("a weight is not a finite float64")
    return values


# --- measures ---------------------------------------------------------------


def write_measure(path, measure: AtomicMeasure, header: tuple[str, ...] = ()) -> None:
    items = sorted(measure.atoms.items())
    if measure.dimension == 1:
        lines = [f"{i} {w!s}" for (i,), w in items]
    else:
        lines = [f"{i} {j} {w!s}" for (i, j), w in items]
    write_text(path, header, lines)


_COMMENT = re.compile("#[^\n]*")  # a measure comment, to the end of its line


def _check_atom(tokens, dimension: int, mode: str) -> None:
    """Refuse an atom line the way the column parse of ``read_measure`` does."""
    if len(tokens) not in (2, 3):
        raise FormatError(f"expected '<i> <w>' or '<i> <j> <w>', got {len(tokens)} fields")
    if len(tokens) - 1 != dimension:
        raise FormatError(f"mixed {dimension}D and {len(tokens) - 1}D atom lines")
    try:
        for tok in tokens[:-1]:
            int(tok)
    except ValueError as exc:
        raise FormatError(f"bad coordinate: {exc}") from exc
    parse_weight(tokens[-1], mode)


def read_measure(path, mode: str = EXACT) -> AtomicMeasure:
    lines = list(map(str.split, _COMMENT.sub("", _text(path)).split("\n")))
    rows = list(filter(None, lines))
    if not rows:
        # an all-comment file is the zero measure on the line
        return AtomicMeasure(1, {}, mode)
    dimension = len(rows[0]) - 1
    try:
        if dimension not in (1, 2) or set(map(len, rows)) != {dimension + 1}:
            raise ValueError("atom lines of several lengths")
        *coords, weights = zip(*rows)
        points = list(zip(*(map(int, column) for column in coords)))
        weights = _weights(weights, mode)
    except _BAD_TOKEN:
        _refuse_first(path, lines, lambda row: _check_atom(row, dimension, mode))
    return _checked(dimension, mode, _summed(points, weights))


# --- 1D signal CSV ----------------------------------------------------------


def write_signal_csv(path, signal: GridSignal, header: tuple[str, ...] = ()) -> None:
    if signal.dimension != 1:
        raise FormatError("CSV serialization is for 1D signals; use PGM or raw for 2D")
    values = signal.values.tolist()
    if signal.is_lattice:
        lines = ["index,value"] + [f"{i},{v!s}" for i, v in
                                   enumerate(values, signal.lattice_origin()[0])]
    else:
        xs = signal.axis_coordinates(0).tolist()
        lines = ["x,value"] + [f"{x!r},{v!s}" for x, v in zip(xs, values)]
    write_text(path, header, lines)


def _csv_fields(line: str) -> list[str]:
    text = line.strip()
    return text.split(",") if text and text[0] != "#" else []


def _check_two_fields(fields) -> None:
    if len(fields) != 2:
        raise FormatError(f"expected two fields, got {len(fields)}")


def _check_row(fields, kind: str, mode: str, seen: set) -> None:
    """Refuse a data row the way the column parse of ``read_signal_csv`` does."""
    xtok, vtok = (t.strip() for t in fields)
    try:
        x = int(xtok) if kind == "index" else float(xtok)
    except ValueError as exc:
        raise FormatError(f"bad {'index' if kind == 'index' else 'abscissa'} {xtok!r}") from exc
    if kind == "index" and x in seen:
        raise FormatError(f"repeated index {x}")
    seen.add(x)
    parse_weight(vtok, mode)


def read_signal_csv(path, mode: str | None = None, rows=None) -> GridSignal:
    """A signal CSV.  Every row is parsed and checked; with ``rows=(a, b)`` an
    index CSV places only its indices in [a, b], or one zero cell at a.  A
    box past ``MAX_INDEX_CELLS`` is refused before it is allocated."""
    lines = list(map(_csv_fields, _text(path).split("\n")))
    fields = list(filter(None, lines))
    if not fields:
        raise FormatError("missing header row", path=str(path))
    head = next(n for n, row in enumerate(lines, 1) if row)
    kind = {("index", "value"): "index", ("x", "value"): "x"}.get(
        tuple(t.strip().lower() for t in fields[0]))
    if kind is None:
        text = ",".join(fields[0])
        raise FormatError(f"expected header 'index,value' or 'x,value', got {text!r}",
                          line=head, path=str(path))
    fields = fields[1:]
    if set(map(len, fields)) - {2}:
        _refuse_first(path, lines, _check_two_fields, head)
    if not fields:
        raise FormatError("no data rows", path=str(path))
    if kind == "x":
        mode = FLOAT  # samples on a general grid are float in every mode
    elif mode is None:
        mode = EXACT
    xtoks, vtoks = (list(map(str.strip, column)) for column in zip(*fields))
    try:
        xs = list(map(int if kind == "index" else float, xtoks))
        if kind == "index" and len(set(xs)) < len(xs):
            raise ValueError("repeated index")
        values = _weights(vtoks, mode)
    except _BAD_TOKEN:
        seen = set()
        _refuse_first(path, lines, lambda row: _check_row(row, kind, mode, seen), head)
    if kind == "index":
        if rows is not None:
            a, b = rows
            kept = [(x, v) for x, v in zip(xs, values) if a <= x <= b]
            xs, values = zip(*kept) if kept else ((a,), (parse_weight("0", mode),))
        first, last = min(xs), max(xs)
        if last - first >= MAX_INDEX_CELLS:
            raise FormatError(f"indices {first} to {last} span {last - first + 1} cells, "
                              f"past the {MAX_INDEX_CELLS} an index CSV may place",
                              path=str(path))
        return _on_box(xs, values, mode)
    if len(xs) == 1:
        return GridSignal._own(np.asarray(values), 1.0, xs[0])
    step = (xs[-1] - xs[0]) / (len(xs) - 1)  # endpoint fit beats the first gap
    if step <= 0 or not np.allclose(np.diff(xs), step, rtol=1e-6, atol=1e-12):
        raise FormatError("abscissas are not uniformly increasing", path=str(path))
    return GridSignal._own(np.asarray(values), float(step), xs[0])


# --- PGM images -------------------------------------------------------------

_META, _DESC = ".meta", ".desc"  # the sidecars of a PGM image and of a raw float grid


def _read_fields(sidecar) -> dict[str, list[str]]:
    """The ``key value...`` lines of a sidecar file; '#' starts a comment line.

    A key given twice is a ``FormatError``: neither value may silently win.
    """
    fields = {}
    with open(sidecar, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            text = raw.strip()
            if text and not text.startswith("#"):
                key, *values = text.split()
                if key in fields:
                    raise FormatError(f"repeated key {key!r}", line=lineno, path=str(sidecar))
                fields[key] = values
    return fields


def _grid_from_file(values, spacing, origin, path) -> GridSignal:
    """The signal a grid file and its sidecar describe.

    Non-finite numbers and axis counts that disagree are malformed files,
    so they raise ``FormatError`` rather than a signal's own errors.
    """
    if not np.all(np.isfinite(spacing + origin)):
        raise FormatError("spacing and origin must be finite", path=str(path))
    try:
        return GridSignal(values, spacing, origin)
    except (ValueError, DimensionMismatch) as exc:
        raise FormatError(str(exc), path=str(path)) from exc


def _span_scale(vmin: float, vmax: float) -> float:
    """1, or 1/2 where ``vmax - vmin`` is past float64's range.

    Counts map to ``vmin .. vmax`` through values times this scale, where
    the span is finite; halving finite values is exact down to the
    subnormals, which no count of such a span can tell apart.
    """
    return 0.5 if np.isinf(vmax - vmin) else 1.0


def write_pgm(path, signal: GridSignal, maxval: int = 255,
              header: tuple[str, ...] = ()) -> None:
    if signal.dimension != 2:
        raise FormatError("PGM serialization needs a 2D signal")
    if maxval not in (255, 65535):
        raise FormatError("maxval must be 255 or 65535")
    vals = np.asarray(signal.values, dtype=float)
    vmin = float(vals.min())
    vmax = float(vals.max())
    s = _span_scale(vmin, vmax)
    if vmax > vmin:
        counts = np.rint((vals * s - vmin * s) / (vmax * s - vmin * s) * maxval)
        counts = counts.astype(np.uint32)
    else:
        counts = np.zeros(vals.shape, dtype=np.uint32)
    h, w = vals.shape
    head = ["P5", *(f"# {text}" for text in header), f"{w} {h}", str(maxval)]
    with open(path, "wb") as fh:
        fh.write(("\n".join(head) + "\n").encode("ascii"))
        fh.write(counts.astype(">u1" if maxval <= 255 else ">u2").tobytes(order="C"))
    write_text(str(path) + _META, (), [
        f"spacing {repr(signal.spacing[0])} {repr(signal.spacing[1])}",
        f"origin {repr(signal.origin[0])} {repr(signal.origin[1])}",
        f"vmin {repr(vmin)}",
        f"vmax {repr(vmax)}",
    ])


def _pgm_tokens(data: bytes):
    """Yield (offset_after, token) over the ASCII header, honoring comments: a
    ``#`` that starts a token comments out the rest of its line."""
    for m in re.finditer(rb"#[^\r\n]*|[^ \t\r\n]+", data):
        if not m[0].startswith(b"#"):
            yield m.end(), m[0].decode("ascii")


def read_pgm(path) -> GridSignal:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data)
    try:
        _, magic = next(tokens)
    except StopIteration:
        raise FormatError("empty file", path=str(path)) from None
    if magic not in ("P2", "P5"):
        raise FormatError(f"not a PGM file (magic {magic!r})", path=str(path))
    try:
        _, wtok = next(tokens)
        _, htok = next(tokens)
        end, mtok = next(tokens)
        w, h, maxval = int(wtok), int(htok), int(mtok)
    except (StopIteration, ValueError):
        raise FormatError("bad PGM header", path=str(path)) from None
    if w <= 0 or h <= 0 or maxval <= 0:
        raise FormatError("bad PGM dimensions", path=str(path))
    if maxval > 65535:
        raise FormatError(f"maxval {maxval} exceeds the PGM limit 65535", path=str(path))
    if magic == "P5":
        start = end + 1  # single whitespace byte after maxval
        width = 1 if maxval <= 255 else 2
        need = w * h * width
        raster = data[start:start + need]
        if len(raster) != need:
            raise FormatError("truncated P5 raster", path=str(path))
        dtype = ">u1" if width == 1 else ">u2"
        counts = np.frombuffer(raster, dtype=dtype).reshape(h, w).astype(float)
    else:
        vals = []
        for _, tok in tokens:
            try:
                vals.append(int(tok))
            except ValueError:
                raise FormatError(f"bad P2 sample {tok!r}", path=str(path)) from None
        if len(vals) != w * h:
            raise FormatError(
                f"expected {w * h} samples, found {len(vals)}", path=str(path))
        counts = np.asarray(vals, dtype=float).reshape(h, w)
    if counts.min(initial=0.0) < 0:
        raise FormatError("negative sample", path=str(path))
    if counts.max(initial=0.0) > maxval:
        raise FormatError("sample exceeds maxval", path=str(path))
    spacing = (1.0, 1.0)
    origin = (0.0, 0.0)
    meta = str(path) + _META
    if os.path.exists(meta):
        fields = _read_fields(meta)
        try:
            spacing = (float(fields["spacing"][0]), float(fields["spacing"][1]))
            origin = (float(fields["origin"][0]), float(fields["origin"][1]))
            vmin = float(fields["vmin"][0])
            vmax = float(fields["vmax"][0])
        except (KeyError, IndexError, ValueError) as exc:
            raise FormatError(f"bad sidecar {meta}: {exc}", path=str(path)) from exc
        if not np.isfinite([vmin, vmax]).all():
            raise FormatError("vmin and vmax must be finite", path=str(path))
        s = _span_scale(vmin, vmax)
        values = (vmin * s + counts / maxval * (vmax * s - vmin * s)) / s
    else:
        values = counts
    return _grid_from_file(values, spacing, origin, path)


# --- raw float grids --------------------------------------------------------


def write_raw_grid(path, signal: GridSignal, header: tuple[str, ...] = ()) -> None:
    if signal.mode != FLOAT:
        raise FormatError("raw grids are float64 only")
    with open(path, "wb") as fh:
        fh.write(memoryview(np.ascontiguousarray(signal.values, dtype="<f8")).cast("B"))
    write_text(str(path) + _DESC, header, [
        "dtype float64-le",
        "shape " + " ".join(str(n) for n in signal.shape),
        "spacing " + " ".join(repr(s) for s in signal.spacing),
        "origin " + " ".join(repr(o) for o in signal.origin),
    ])


def read_raw_grid(path) -> GridSignal:
    desc = str(path) + _DESC
    if not os.path.exists(desc):
        raise FormatError(f"missing descriptor {desc}", path=str(path))
    fields = _read_fields(desc)
    try:
        if fields["dtype"] != ["float64-le"]:
            raise FormatError(f"unsupported dtype {fields['dtype']}", path=str(path))
        shape = tuple(int(n) for n in fields["shape"])
        if any(n < 1 for n in shape):
            raise ValueError(f"shape entries must be >= 1, got {' '.join(fields['shape'])}")
        spacing = tuple(float(s) for s in fields["spacing"])
        origin = tuple(float(o) for o in fields["origin"])
    except (KeyError, ValueError) as exc:
        raise FormatError(f"bad descriptor {desc}: {exc}", path=str(path)) from exc
    with open(path, "rb") as fh:
        raw = fh.read()
    expected = int(np.prod(shape)) * 8
    if len(raw) != expected:
        raise FormatError(
            f"raster holds {len(raw)} bytes, descriptor wants {expected}", path=str(path))
    values = np.frombuffer(raw, dtype="<f8").reshape(shape)
    return _grid_from_file(values, spacing, origin, path)


# --- extension dispatch -----------------------------------------------------


def load_signal(path, mode: str | None = None) -> GridSignal:
    """Read a signal by file extension: .csv, .pgm, or raw .f64."""
    suffix = os.path.splitext(str(path))[1].lower()
    if suffix == ".csv":
        return read_signal_csv(path, mode)
    if suffix == ".pgm":
        return read_pgm(path)
    if suffix in (".f64", ".raw", ".bin"):
        return read_raw_grid(path)
    raise FormatError(f"unknown signal extension {suffix!r}", path=str(path))


def save_signal(path, signal: GridSignal, header: tuple[str, ...] = ()) -> None:
    suffix = os.path.splitext(str(path))[1].lower()
    if suffix == ".csv":
        write_signal_csv(path, signal, header)
    elif suffix == ".pgm":
        write_pgm(path, signal, header=header)
    elif suffix in (".f64", ".raw", ".bin"):
        write_raw_grid(path, signal, header)
    else:
        raise FormatError(f"unknown signal extension {suffix!r}", path=str(path))


def saved_files(path) -> tuple[str, ...]:
    """The files :func:`save_signal` writes for ``path``: it and an image's or a
    raw grid's sidecar."""
    suffix = os.path.splitext(str(path))[1].lower()
    sidecar = {".pgm": _META, ".f64": _DESC, ".raw": _DESC, ".bin": _DESC}.get(suffix)
    return (str(path),) if sidecar is None else (str(path), str(path) + sidecar)
