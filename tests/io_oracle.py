"""The per-line text readers and per-row writers that ``deconv.io`` replaced.

``read_measure`` and ``read_signal_csv`` below are the readers as they
were before the column parse, kept verbatim (with the ``parse_weight``
they called) as the reference that ``tests/test_io_oracle.py`` holds the
present readers to: the same measure or signal, or the same
``FormatError`` text, on every file.  They iterate the file object line by
line, so only ``"\\n"`` (after universal newlines) ends a line.

``write_measure``, ``write_signal_csv`` and ``write_raw_grid`` are the
writers as they were before each row became one f-string, kept verbatim
(with the ``write_text`` and weight-to-text table they called): the
present writers must write the same bytes.
"""
from fractions import Fraction

import numpy as np

from deconv.errors import FormatError
from deconv.grids import EXACT, FLOAT, GridSignal
from deconv.measures import AtomicMeasure, from_atoms

_DESC = ".desc"
_WEIGHT_TEXT = {EXACT: str, FLOAT: float.__repr__}  # a weight of each mode as text


def write_text(path, header: tuple[str, ...], lines) -> None:
    """Write ``# `` echo lines for ``header``, then ``lines``, in UTF-8 with
    ``\n`` endings; the text is formed before the file is opened."""
    rows = [f"# {h}" for h in header] + list(lines)
    text = "\n".join(rows) + "\n" if rows else ""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def write_measure(path, measure: AtomicMeasure, header: tuple[str, ...] = ()) -> None:
    text = _WEIGHT_TEXT[measure.mode]
    row = "{} {}".format if measure.dimension == 1 else "{} {} {}".format
    write_text(path, header, [row(*p, text(w)) for p, w in sorted(measure.atoms.items())])


def write_signal_csv(path, signal: GridSignal, header: tuple[str, ...] = ()) -> None:
    if signal.dimension != 1:
        raise FormatError("CSV serialization is for 1D signals; use PGM or raw for 2D")
    values = map(_WEIGHT_TEXT[signal.mode], signal.values.tolist())
    if signal.is_lattice:
        lines = ["index,value"] + [f"{i},{v}" for i, v in
                                   enumerate(values, signal.lattice_origin()[0])]
    else:
        xs = signal.axis_coordinates(0).tolist()
        lines = ["x,value"] + [f"{x!r},{v}" for x, v in zip(xs, values)]
    write_text(path, header, lines)


def write_raw_grid(path, signal: GridSignal, header: tuple[str, ...] = ()) -> None:
    if signal.mode != FLOAT:
        raise FormatError("raw grids are float64 only")
    with open(path, "wb") as fh:
        fh.write(np.asarray(signal.values, dtype="<f8").tobytes(order="C"))
    write_text(str(path) + _DESC, header, [
        "dtype float64-le",
        "shape " + " ".join(str(n) for n in signal.shape),
        "spacing " + " ".join(repr(s) for s in signal.spacing),
        "origin " + " ".join(repr(o) for o in signal.origin),
    ])


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
