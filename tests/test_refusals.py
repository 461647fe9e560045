"""Library calls refused for their arguments: each raises its error class,
with a message naming what was wrong."""
import numpy as np
import pytest

from deconv import (
    EXACT,
    AtomicMeasure,
    DimensionMismatch,
    FormatError,
    GaussianKernelSpec,
    GridSignal,
    WindowSpec,
    dirac,
    from_atoms,
    kernel_spectrum,
)
from deconv.io import write_signal_csv
from deconv.measures import as_point, coerce_weight

SIGNAL_1D = GridSignal.from_lattice_dict({(0,): 1}, dimension=1)
SIGNAL_2D = GridSignal.from_lattice_dict({(0, 0): 1}, dimension=2)

REFUSALS = {
    "as_point/3d": (lambda: as_point((1, 2, 3)), DimensionMismatch, "must be 1D or 2D"),
    "as_point/dimension": (lambda: as_point((1, 2), 1), DimensionMismatch, "is not 1D"),
    "coerce_weight/object": (lambda: coerce_weight(object(), EXACT), TypeError,
                             "cannot represent object exactly"),
    "coerce_weight/mode": (lambda: coerce_weight(1, "bogus"), ValueError,
                           "unknown arithmetic mode 'bogus'"),
    "measure/3d": (lambda: AtomicMeasure(3), DimensionMismatch, "dimensions are 1 and 2, got 3"),
    "measure/mode": (lambda: AtomicMeasure(1, mode="bogus"), ValueError,
                     "unknown arithmetic mode 'bogus'"),
    "measure/convolve-int": (lambda: dirac(0).convolve(5), TypeError,
                             "expected AtomicMeasure, got int"),
    "measure/add-int": (lambda: dirac(0) + 1, TypeError, "unsupported operand type(s) for +"),
    "measure/sub-int": (lambda: dirac(0) - 1, TypeError, "unsupported operand type(s) for -"),
    "from_atoms/empty": (lambda: from_atoms([]), ValueError, "dimension is required"),
    "signal/add-int": (lambda: SIGNAL_1D + 1, TypeError, "unsupported operand type(s) for +"),
    "signal/sub-int": (lambda: SIGNAL_1D - 1, TypeError, "unsupported operand type(s) for -"),
    "signal/impulse-2d-on-1d": (lambda: SIGNAL_1D.with_impulse((0, 0), 1), DimensionMismatch,
                                "point (0, 0) is not 1D"),
    "from_lattice_dict/mixed": (lambda: GridSignal.from_lattice_dict({(0,): 1, (0, 1): 2}),
                                DimensionMismatch, "points of mixed dimension"),
    "window/3d": (lambda: WindowSpec(((0, 1),) * 3), DimensionMismatch,
                  "windows must be 1D or 2D"),
    "gaussian/3d": (lambda: GaussianKernelSpec(3), DimensionMismatch, "kernels are 1D or 2D"),
    "gaussian/density-coords": (lambda: GaussianKernelSpec(1).density(0.0, 0.0),
                                DimensionMismatch, "1D kernel evaluated at 2 coordinates"),
    "gaussian/spectrum-2d-on-1d": (
        lambda: kernel_spectrum(GaussianKernelSpec(2), GridSignal(np.zeros(8), 0.5, -2.0)),
        DimensionMismatch, "kernel and grid dimension differ"),
    "io/csv-2d": (lambda: write_signal_csv("out.csv", SIGNAL_2D), FormatError,
                  "CSV serialization is for 1D signals"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refused_call(name, tmp_path, monkeypatch):
    call, error, fragment = REFUSALS[name]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(error) as raised:
        call()
    assert fragment in str(raised.value)
    assert list(tmp_path.iterdir()) == []


def test_empty_measure_has_no_box_and_equals_no_number():
    assert AtomicMeasure(1).bounding_box() is None
    assert (dirac(0) == 1) is False
