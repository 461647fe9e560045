"""The host's pace: a fixed calibration task timed beside deconv's work.

The reference machine is a shared virtual machine whose speed drifts by
tens of percent over minutes, and every kind of work slows down together.
So each run times ``calibrate`` (a fixed mix of Fraction arithmetic, dict
updates, string formatting and parsing, and a small FFT, none of it
deconv's) right beside each measured piece of deconv's work, in the same
process, and scales its figures by the ratio of the calibration's time to
``REFERENCE_MS``: a figure then reads as it would at the reference pace.
deconv's own speed moves the figures one for one; the host's drift, which
moves both timings, cancels.  Times are the process's CPU times, so that
time the host spends elsewhere (other tenants, the disk) does not count
either; work that deconv moved to other threads would still count.
"""
from __future__ import annotations

import gc
from fractions import Fraction
from time import process_time

import numpy as np

# calibrate()'s median CPU time on the reference machine (README), in ms
REFERENCE_MS = 2.2

_GRID = np.cos(np.arange(128 * 128, dtype=float)).reshape(128, 128)


def calibrate():
    """A fixed few milliseconds of mixed work that deconv does not call."""
    total, counts, text = Fraction(0), {}, []
    for i in range(1, 300):
        total += Fraction(i, i + 7)
        counts[i % 37] = counts.get(i % 37, 0) + i * i
        text.append(f"{i} {i / 7!r}")
    parsed = sum(float(line.split()[1]) for line in text)
    return total, counts, parsed, np.fft.rfft2(_GRID)


def calibration_ms() -> float:
    """calibrate()'s CPU time in ms, with the collector off so that
    the heap deconv leaves behind does not slow the calibration down."""
    gc.disable()
    try:
        start = process_time()
        calibrate()
        return (process_time() - start) * 1e3
    finally:
        gc.enable()
