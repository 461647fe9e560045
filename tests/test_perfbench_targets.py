"""Every function the benchmark's tracer wraps still exists under its name.

``perfbench/tracer.py`` times each layer by wrapping deconv functions it
names in ``TARGETS``; a rename or move here would drop a layer's metrics
(``measures.convolve_ms``, ``apply_ms``, ``den_bits_max``, ...) from the
traced run instead of failing.  These tests read that list and leave the
benchmark as it is.
"""
import importlib
import importlib.util
from fractions import Fraction
from pathlib import Path

import pytest

from deconv import GridSignal, apply_to_signal, three_point_kernel

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
pytestmark = pytest.mark.skipif(not TRACER.exists(), reason="no perfbench/ in this tree")


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TARGETS


def test_every_tracer_target_resolves():
    for module, path, _ in _targets():
        owner = importlib.import_module(f"deconv.{module}")
        if "." in path:
            cls_name, method = path.split(".")
            assert method in vars(getattr(owner, cls_name)), f"{module}.{path}"
        else:
            assert callable(getattr(owner, path, None)), f"{module}.{path}"


def test_lattice_span_attrs_read_real_results():
    attrs = {f"{module}.{path}": fn for module, path, fn in _targets()}
    k = three_point_kernel(Fraction(3, 4))
    assert attrs["measures.AtomicMeasure.convolve"](k.convolve(k), k, k) == \
        {"pairs": 9, "den_bits": 7}                       # weights over 64
    f = GridSignal.from_lattice_dict({0: 1, 1: 2}, dimension=1)
    assert attrs["measures.apply_to_signal"](apply_to_signal(f, k), f, k) == {"products": 6}
