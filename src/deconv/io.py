"""Reading and writing measures, signals, and images.

Formats:

* measures: UTF-8 text, one atom per line, ``<i> <w>`` in 1D and
  ``<i> <j> <w>`` in 2D; weights are decimals or ``p/q`` rationals;
  ``#`` starts a comment.
* 1D signals: CSV with an ``index,value`` header on the integer lattice
  or ``x,value`` for general grids.
* 2D images: PGM, both ASCII ``P2`` and binary ``P5``, maxval 255 or
  65535, with a small ``<file>.meta`` sidecar recording spacing, origin,
  and the linear value range so float data survives the round trip.
* float grids: raw little-endian float64 next to a ``<file>.desc`` text
  descriptor.

Writers emit keys in a fixed order and shortest-round-trip floats, so a
rerun with the same inputs produces byte-identical files.
"""
from __future__ import annotations

import os
from fractions import Fraction

import numpy as np

from .errors import DimensionMismatch, FormatError
from .grids import EXACT, FLOAT, GridSignal
from .measures import AtomicMeasure, from_atoms

# --- measures ---------------------------------------------------------------


def format_weight(w) -> str:
    if isinstance(w, Fraction):
        return str(w)
    return repr(float(w))


def parse_weight(token: str, mode: str):
    """A weight in the given mode; float weights must be finite."""
    try:
        if mode == EXACT:
            return Fraction(token)
        value = float(Fraction(token)) if "/" in token else float(token)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise FormatError(f"bad weight {token!r}: {exc}") from exc
    if not -float("inf") < value < float("inf"):  # false for nan as well
        raise FormatError(f"bad weight {token!r}: not a finite float64")
    return value


def write_measure(path, measure: AtomicMeasure, header: tuple[str, ...] = ()) -> None:
    lines = []
    for text in header:
        lines.append(f"# {text}")
    for point in sorted(measure.atoms):
        coords = " ".join(str(c) for c in point)
        lines.append(f"{coords} {format_weight(measure.atoms[point])}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))


def read_measure(path, mode: str = EXACT) -> AtomicMeasure:
    atoms = []
    dimension = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            tokens = text.split()
            if len(tokens) not in (2, 3):
                raise FormatError(
                    f"expected '<i> <w>' or '<i> <j> <w>', got {len(tokens)} fields",
                    line=lineno, path=str(path))
            d = len(tokens) - 1
            if dimension is None:
                dimension = d
            elif dimension != d:
                raise FormatError(
                    f"mixed {dimension}D and {d}D atom lines", line=lineno, path=str(path))
            try:
                point = tuple(int(tok) for tok in tokens[:-1])
            except ValueError as exc:
                raise FormatError(f"bad coordinate: {exc}", line=lineno, path=str(path)) from exc
            try:
                weight = parse_weight(tokens[-1], mode)
            except FormatError as exc:
                raise FormatError(str(exc), line=lineno, path=str(path)) from exc
            atoms.append((point, weight))
    if dimension is None:
        # an all-comment file is the zero measure on the line
        return AtomicMeasure(1, {}, mode)
    return from_atoms(atoms, mode=mode, dimension=dimension)


# --- 1D signal CSV ----------------------------------------------------------


def write_signal_csv(path, signal: GridSignal, header: tuple[str, ...] = ()) -> None:
    if signal.dimension != 1:
        raise FormatError("CSV serialization is for 1D signals; use PGM or raw for 2D")
    lines = [f"# {text}" for text in header]
    if signal.is_lattice:
        lines.append("index,value")
        lo = signal.lattice_origin()[0]
        for i, v in enumerate(signal.values):
            lines.append(f"{lo + i},{format_weight(v)}")
    else:
        lines.append("x,value")
        xs = signal.axis_coordinates(0)
        for x, v in zip(xs, signal.values):
            lines.append(f"{repr(float(x))},{format_weight(v)}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_signal_csv(path, mode: str | None = None) -> GridSignal:
    rows = []
    kind = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            if kind is None:
                head = [t.strip().lower() for t in text.split(",")]
                if head == ["index", "value"]:
                    kind = "index"
                elif head == ["x", "value"]:
                    kind = "x"
                else:
                    raise FormatError(
                        f"expected header 'index,value' or 'x,value', got {text!r}",
                        line=lineno, path=str(path))
                continue
            parts = text.split(",")
            if len(parts) != 2:
                raise FormatError(f"expected two fields, got {len(parts)}",
                                  line=lineno, path=str(path))
            rows.append((lineno, parts[0].strip(), parts[1].strip()))
    if kind is None:
        raise FormatError("missing header row", path=str(path))
    if not rows:
        raise FormatError("no data rows", path=str(path))
    if mode is None:
        mode = EXACT if kind == "index" else FLOAT
    if kind == "index":
        data = {}
        for lineno, xtok, vtok in rows:
            try:
                idx = int(xtok)
            except ValueError as exc:
                raise FormatError(f"bad index {xtok!r}", line=lineno, path=str(path)) from exc
            if idx in data:
                raise FormatError(f"repeated index {idx}", line=lineno, path=str(path))
            try:
                data[idx] = parse_weight(vtok, mode)
            except FormatError as exc:
                raise FormatError(str(exc), line=lineno, path=str(path)) from exc
        return GridSignal.from_lattice_dict(data, dimension=1, mode=mode)
    xs = []
    vs = []
    for lineno, xtok, vtok in rows:
        try:
            xs.append(float(xtok))
        except ValueError as exc:
            raise FormatError(f"bad abscissa {xtok!r}", line=lineno, path=str(path)) from exc
        try:
            vs.append(parse_weight(vtok, FLOAT))
        except FormatError as exc:
            raise FormatError(str(exc), line=lineno, path=str(path)) from exc
    if len(xs) == 1:
        return GridSignal(np.asarray(vs), 1.0, xs[0])
    step = (xs[-1] - xs[0]) / (len(xs) - 1)  # endpoint fit beats the first gap
    if step <= 0 or not np.allclose(np.diff(xs), step, rtol=1e-6, atol=1e-12):
        raise FormatError("abscissas are not uniformly increasing", path=str(path))
    return GridSignal(np.asarray(vs), float(step), xs[0])


# --- PGM images -------------------------------------------------------------


def _meta_path(path) -> str:
    return str(path) + ".meta"


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


def write_pgm(path, signal: GridSignal, maxval: int = 255, binary: bool = True,
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
    magic = "P5" if binary else "P2"
    head = [magic]
    head += [f"# {text}" for text in header]
    head.append(f"{w} {h}")
    head.append(str(maxval))
    if binary:
        with open(path, "wb") as fh:
            fh.write(("\n".join(head) + "\n").encode("ascii"))
            if maxval <= 255:
                fh.write(counts.astype(">u1").tobytes(order="C"))
            else:
                fh.write(counts.astype(">u2").tobytes(order="C"))
    else:
        body = "\n".join(" ".join(str(c) for c in row) for row in counts)
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("\n".join(head) + "\n" + body + "\n")
    meta = [
        f"spacing {repr(signal.spacing[0])} {repr(signal.spacing[1])}",
        f"origin {repr(signal.origin[0])} {repr(signal.origin[1])}",
        f"vmin {repr(vmin)}",
        f"vmax {repr(vmax)}",
    ]
    with open(_meta_path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(meta) + "\n")


def _pgm_tokens(data: bytes, path: str):
    """Yield (offset_after, token) over the ASCII header, honoring comments."""
    i = 0
    n = len(data)
    while i < n:
        c = data[i:i + 1]
        if c in b" \t\r\n":
            i += 1
            continue
        if c == b"#":
            while i < n and data[i:i + 1] not in b"\r\n":
                i += 1
            continue
        j = i
        while j < n and data[j:j + 1] not in b" \t\r\n":
            j += 1
        yield j, data[i:j].decode("ascii")
        i = j


def read_pgm(path) -> GridSignal:
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = _pgm_tokens(data, str(path))
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
    meta = _meta_path(path)
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


def _desc_path(path) -> str:
    return str(path) + ".desc"


def write_raw_grid(path, signal: GridSignal, header: tuple[str, ...] = ()) -> None:
    if signal.mode != FLOAT:
        raise FormatError("raw grids are float64 only")
    with open(path, "wb") as fh:
        fh.write(np.asarray(signal.values, dtype="<f8").tobytes(order="C"))
    lines = [f"# {text}" for text in header]
    lines.append("dtype float64-le")
    lines.append("shape " + " ".join(str(n) for n in signal.shape))
    lines.append("spacing " + " ".join(repr(s) for s in signal.spacing))
    lines.append("origin " + " ".join(repr(o) for o in signal.origin))
    with open(_desc_path(path), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_raw_grid(path) -> GridSignal:
    desc = _desc_path(path)
    if not os.path.exists(desc):
        raise FormatError(f"missing descriptor {desc}", path=str(path))
    fields = _read_fields(desc)
    try:
        if fields["dtype"] != ["float64-le"]:
            raise FormatError(f"unsupported dtype {fields['dtype']}", path=str(path))
        shape = tuple(int(n) for n in fields["shape"])
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
