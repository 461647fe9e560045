"""Spans around deconv's public functions, and their per-layer aggregation.

The benchmark wraps the library from outside: ``install`` replaces each
function in ``TARGETS`` by a wrapper that records a span, in every deconv
module namespace that holds it, so calls between modules are traced too.
Spans are kept in memory and written out as JSON lines when the run ends.
Each record has the shape a tracer inside the program would give
(``name``, ``parent``, ``wall_ms``, ``attrs``), plus ``trace`` (the job it
belongs to), ``id``, ``start_ms`` and ``overhead_ms``: the time the tracer
itself spent inside the span on bookkeeping and on attrs of child spans,
which ``aggregate`` takes off so that it is not charged to the layer.
"""
from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter


def _size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


def _file_bytes(sidecar=None):
    def attrs(result, path, *args, **kwargs):
        extra = _size(str(path) + sidecar) if sidecar else 0
        return {"bytes": _size(path) + extra}
    return attrs


def _convolve_attrs(result, a, b):
    weights = result.atoms.values()
    bits = max((w.denominator.bit_length() for w in weights), default=0) \
        if result.mode == "exact" else 0
    return {"pairs": len(a) * len(b), "den_bits": bits}


def _grid_mode(result, self, *args, **kwargs):
    return {"mode": self.mode}


_FILES = {"read_pgm": ".meta", "write_pgm": ".meta",
          "read_raw_grid": ".desc", "write_raw_grid": ".desc"}

# (module, attribute path, attrs of the span or None)
TARGETS = [
    ("measures", "AtomicMeasure.convolve", _convolve_attrs),
    ("measures", "apply_to_signal", lambda r, f, m: {"products": len(m) * f.values.size}),
    ("neumann", "neumann_inverse", None),
    ("neumann", "invert_three_point", None),
    ("neumann", "van_cittert_deblur", None),
    ("onesided", "binomial_inverse", None),
    ("onesided", "half_pair_inverse", None),
    ("onesided", "unit_pair_inverse", None),
    ("onesided", "cauchy_product", None),
    ("onesided", "reconstruct", None),
    *[("grids", f"GridSignal.{m}", _grid_mode)
      for m in ("__add__", "__sub__", "__neg__", "scaled", "restrict", "lattice_dict")],
    ("grids", "GridSignal.from_lattice_dict", lambda r, *a, **k: {"mode": r.mode}),
    ("gaussian", "dft_forward", None),
    ("gaussian", "dft_inverse", None),
    ("gaussian", "kernel_spectrum",
     lambda r, spec, like: {"grid": [list(like.shape), list(like.spacing)]}),
    ("gaussian", "padded_for_blur", None),
    ("gaussian", "blur", lambda r, f, *a, **k: {"grid_points": int(f.values.size)}),
    ("gaussian", "naive_deblur", lambda r, g, *a, **k: {"grid_points": int(g.values.size)}),
    ("gaussian", "noise_blowup_experiment", None),
    *[("io", name, _file_bytes(_FILES.get(name)))
      for name in ("read_measure", "read_signal_csv", "read_pgm", "read_raw_grid",
                   "write_measure", "write_signal_csv", "write_pgm", "write_raw_grid")],
    ("cli", "main", None),
]


class Tracer:
    """Records spans while ``trace`` holds a job number; passes calls through otherwise."""

    def __init__(self):
        self.spans: list[dict] = []
        self.trace: int | None = None
        self._stack: list[dict] = []
        self._overhead = 0.0
        self._origin = perf_counter()

    def wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.trace is None:
                return fn(*args, **kwargs)
            enter = perf_counter()
            stack = tracer._stack
            rec = {"trace": tracer.trace, "id": len(tracer.spans), "name": name,
                   "parent": stack[-1]["id"] if stack else None, "attrs": {}}
            tracer.spans.append(rec)
            stack.append(rec)
            before = tracer._overhead
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec["start_ms"] = (start - tracer._origin) * 1e3
                rec["wall_ms"] = (end - start) * 1e3
                rec["overhead_ms"] = (tracer._overhead - before) * 1e3
            if attrs is not None:
                rec["attrs"] = attrs(result, *args, **kwargs)
            tracer._overhead += (start - enter) + (perf_counter() - end)
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded deconv module that refers to it."""
        mods = [m for n, m in sys.modules.items() if n == "deconv" or n.startswith("deconv.")]
        for module, path, attrs in TARGETS:
            owner = sys.modules[f"deconv.{module}"]
            name = f"{module}.{path}"
            if "." in path:
                cls_name, meth = path.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth, classmethod(self.wrap(name, raw.__func__, attrs)))
                else:
                    setattr(cls, meth, self.wrap(name, raw, attrs))
                continue
            original = getattr(owner, path)
            wrapped = self.wrap(name, original, attrs)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# --- aggregation ---------------------------------------------------------------

_GRIDS = {f"grids.GridSignal.{m}" for m in (
    "__add__", "__sub__", "__neg__", "scaled", "restrict", "lattice_dict", "from_lattice_dict")}
_READS = {f"io.read_{k}" for k in ("measure", "signal_csv", "pgm", "raw_grid")}
_WRITES = {f"io.write_{k}" for k in ("measure", "signal_csv", "pgm", "raw_grid")}
_SERIES = {f"onesided.{k}" for k in (
    "binomial_inverse", "half_pair_inverse", "unit_pair_inverse", "cauchy_product")}
_CONVOLVE = "measures.AtomicMeasure.convolve"
_APPLY = "measures.apply_to_signal"
_SPECTRUM = "gaussian.kernel_spectrum"


def _mode_is(mode):
    return lambda rec: rec["name"] in _GRIDS and rec["attrs"].get("mode") == mode


def _named(names):
    names = set(names)
    return lambda rec: rec["name"] in names


# busy time: outermost spans the predicate selects, less tracer overhead
BUSY = {
    "measures.convolve_ms": _named({_CONVOLVE}),
    "measures.apply_ms": _named({_APPLY}),
    "onesided.series_ms": _named(_SERIES),
    "grids.exact_ms": _mode_is("exact"),
    "grids.float_ms": _mode_is("float"),
    "gaussian.dft_ms": _named({"gaussian.dft_forward", "gaussian.dft_inverse"}),
    "gaussian.spectrum_ms": _named({_SPECTRUM}),
    "io.read_ms": _named(_READS),
    "io.write_ms": _named(_WRITES),
}
# self time: span time not covered by child spans
SELF = {
    "neumann.self_ms": _named({"neumann.neumann_inverse", "neumann.invert_three_point",
                               "neumann.van_cittert_deblur"}),
    "onesided.reconstruct_self_ms": _named({"onesided.reconstruct"}),
    "gaussian.self_ms": _named({"gaussian.blur", "gaussian.naive_deblur",
                                "gaussian.padded_for_blur",
                                "gaussian.noise_blowup_experiment"}),
    "cli.self_ms": _named({"cli.main"}),
}
# work counts: an attr summed over every span of the given names
COUNTS = {
    "measures.convolve_pairs": ({_CONVOLVE}, "pairs"),
    "measures.apply_products": ({_APPLY}, "products"),
    "gaussian.grid_points": ({"gaussian.blur", "gaussian.naive_deblur"}, "grid_points"),
    "io.read_bytes": (_READS, "bytes"),
    "io.write_bytes": (_WRITES, "bytes"),
}


def aggregate(spans: list[dict], jobs: int) -> dict[str, float]:
    """Per-layer metrics, as totals per job (den_bits_max and spectrum_reuse as is).

    ``gaussian.spectrum_reuse`` is distinct grids per job over kernel_spectrum
    calls, summed over jobs; it reads 1 when no spectrum is computed at all.
    """
    by_id = {rec["id"]: rec for rec in spans}
    child_time: dict[int, float] = {}
    for rec in spans:
        if rec["parent"] is not None:
            child_time[rec["parent"]] = (child_time.get(rec["parent"], 0.0)
                                         + rec["wall_ms"] - rec["overhead_ms"])

    def outermost(rec, pick):
        parent = rec["parent"]
        while parent is not None:
            up = by_id[parent]
            if pick(up):
                return False
            parent = up["parent"]
        return True

    out: dict[str, float] = {}
    for metric, pick in BUSY.items():
        out[metric] = sum(rec["wall_ms"] - rec["overhead_ms"] for rec in spans
                          if pick(rec) and outermost(rec, pick))
    for metric, pick in SELF.items():
        out[metric] = sum(rec["wall_ms"] - rec["overhead_ms"] - child_time.get(rec["id"], 0.0)
                          for rec in spans if pick(rec))
    for metric, (names, key) in COUNTS.items():
        out[metric] = sum(rec["attrs"][key] for rec in spans if rec["name"] in names)
    out = {k: v / max(jobs, 1) for k, v in out.items()}
    out["measures.den_bits_max"] = max(
        (rec["attrs"]["den_bits"] for rec in spans if rec["name"] == _CONVOLVE), default=0)
    grids: dict[int, set] = {}
    calls = 0
    for rec in spans:
        if rec["name"] == _SPECTRUM:
            calls += 1
            grids.setdefault(rec["trace"], set()).add(json.dumps(rec["attrs"]["grid"]))
    out["gaussian.spectrum_reuse"] = (sum(map(len, grids.values())) / calls) if calls else 1.0
    return out
