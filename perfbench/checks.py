"""Output checks computed apart from deconv.

Every function here uses the standard library and numpy only, takes
plain data (dicts of exact weights, float arrays, file bytes) and returns
True when the program's output is right.  None of them compares against a
stored copy of an earlier output: each expectation is derived from the
job's inputs by an independent route.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb

import numpy as np

# Fixed tolerances; the README quotes them.
BLUR_REL_MAX_ERR = 1e-6          # blur vs closed-form bump of variance s^2 + 1
RECIPROCAL_REL_L2 = 1e-5         # reciprocal round trip vs the original image
ANALYTIC_REL_L2 = 1e-7           # band-limited amplifier vs numpy band limit
NOISE_RATIO_GATE = (0.1, 10.0)   # observed/predicted noise, the acceptance gate's range
FLOAT_REL = 1e-12                # float-mode lattice results vs numpy


# --- lattice-exact -------------------------------------------------------------


def three_point_c(a: Fraction) -> tuple[int, int]:
    """c = (1 - a) / (2a) of the three-point kernel, as (numerator, denominator) ints."""
    return a.denominator - a.numerator, 2 * a.numerator


def neumann_residual(a: Fraction, order: int) -> dict:
    """(-1)^n mu^(n+1) for mu = c (delta_-1 + delta_1): the binomial expansion.

    Weight (-1)^n c^(n+1) C(n+1, k) at offset 2k - (n+1), in Python ints.
    """
    cn, cd = three_point_c(a)
    n1 = order + 1
    sign = -1 if order % 2 else 1
    num, den = sign * cn ** n1, cd ** n1
    return {(2 * k - n1,): Fraction(num * comb(n1, k), den) for k in range(n1 + 1)}


def neumann_residual_ok(a: Fraction, order: int, residual: dict) -> bool:
    return dict(residual) == neumann_residual(a, order)


def windowed_max_ok(a: Fraction, order: int, radius: int, max_inside, ok: bool) -> bool:
    """An is_inverse report on [-radius, radius] names the largest in-window residual."""
    inside = [abs(w) for (p,), w in neumann_residual(a, order).items() if abs(p) <= radius]
    expected = max(inside, default=Fraction(0))
    return ok and max_inside == expected


def binomial_weights_ok(halfwidth: int, atoms: dict) -> bool:
    """Weights 2|n| (-1)^(|n|+1) at every nonzero n in [-halfwidth, halfwidth]."""
    expected = {(n,): 2 * abs(n) * (-1) ** (abs(n) + 1)
                for n in range(-halfwidth, halfwidth + 1) if n}
    return dict(atoms) == expected


def reconstruction_ok(signal: dict, recovered: dict) -> bool:
    """The recovered window equals the input signal sample for sample."""
    return dict(recovered) == dict(signal)


def dense_power(numerators, power: int) -> list[list[int]]:
    """Integer coefficients of p(x, y)^power for a 3x3 integer polynomial p.

    ``numerators[i][j]`` is the coefficient at offset (i - 1, j - 1); the
    result's entry [i][j] sits at offset (i - power, j - power).
    """
    out = [[1]]
    for _ in range(power):
        size = len(out) + 2
        nxt = [[0] * size for _ in range(size)]
        for i, row in enumerate(out):
            for j, v in enumerate(row):
                if v:
                    for di in range(3):
                        for dj in range(3):
                            nxt[i + di][j + dj] += v * numerators[di][dj]
        out = nxt
    return out


def power_ok(numerators, denominator: int, power: int, atoms: dict) -> bool:
    """The 2D convolution power equals the dense integer polynomial power."""
    scale = denominator ** power
    expected = {}
    for i, row in enumerate(dense_power(numerators, power)):
        for j, v in enumerate(row):
            if v:
                expected[(i - power, j - power)] = Fraction(v, scale)
    return dict(atoms) == expected


# --- spectral-float ------------------------------------------------------------


def bumps_on_grid(bumps, shape, spacing, origin, extra_variance: float = 0.0) -> np.ndarray:
    """Sum of isotropic 2D bumps A exp(-|x - c|^2 / (2 s^2)), each blurred in
    closed form by a Gaussian of variance ``extra_variance``: the variance
    becomes s^2 + v and the amplitude gains s^2 / (s^2 + v)."""
    x = origin[0] + spacing[0] * np.arange(shape[0])
    y = origin[1] + spacing[1] * np.arange(shape[1])
    out = np.zeros(shape)
    for amp, cx, cy, s in bumps:
        var = s * s + extra_variance
        gain = amp * (s * s / var)
        out += gain * np.outer(np.exp(-(x - cx) ** 2 / (2 * var)),
                               np.exp(-(y - cy) ** 2 / (2 * var)))
    return out


def blur_ok(bumps, blurred: np.ndarray, spacing, origin) -> bool:
    """A unit-variance blur of each bump is the bump of variance s^2 + 1."""
    expected = bumps_on_grid(bumps, blurred.shape, spacing, origin, 1.0)
    err = float(np.max(np.abs(blurred - expected)))
    return err <= BLUR_REL_MAX_ERR * float(np.max(np.abs(expected)))


def rel_l2(got: np.ndarray, want: np.ndarray) -> float:
    return float(np.linalg.norm(got - want) / np.linalg.norm(want))


def reciprocal_ok(bumps, recovered: np.ndarray, spacing, origin) -> bool:
    """Reciprocal deblur of the blur gives back the image on the padded grid."""
    want = bumps_on_grid(bumps, recovered.shape, spacing, origin)
    return rel_l2(recovered, want) <= RECIPROCAL_REL_L2


def band_limited(values: np.ndarray, spacing, band_limit: float) -> np.ndarray:
    """Zero every DFT bin with |u| > band_limit, where u = 2 pi fftfreq / spacing."""
    usq = sum(np.meshgrid(*[(2 * np.pi * np.fft.fftfreq(n, d=h)) ** 2
                            for n, h in zip(values.shape, spacing)], indexing="ij"))
    return np.fft.ifftn(np.fft.fftn(values) * (usq <= band_limit ** 2)).real


def analytic_ok(bumps, recovered: np.ndarray, spacing, origin, band_limit: float) -> bool:
    """The band-limited amplifier recovers the image's own band-limited part."""
    image = bumps_on_grid(bumps, recovered.shape, spacing, origin)
    return rel_l2(recovered, band_limited(image, spacing, band_limit)) <= ANALYTIC_REL_L2


def noise_ratio_ok(ratio: float) -> bool:
    lo, hi = NOISE_RATIO_GATE
    return lo <= ratio <= hi


# --- cli-files -------------------------------------------------------------------


def parse_measure(text: str, weight=Fraction) -> dict:
    """'<i> <w>' lines of a 1D measure file, '#' comments skipped."""
    out = {}
    for line in text.splitlines():
        body = line.split("#", 1)[0].split()
        if body:
            out[int(body[0])] = weight(body[1])
    return out


def parse_index_csv(text: str, weight=Fraction) -> dict:
    """'index,value' rows of a lattice CSV, '#' comments and header skipped."""
    out = {}
    rows = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not rows or rows[0] != "index,value":
        raise ValueError("not an index,value CSV")
    for ln in rows[1:]:
        i, v = ln.split(",")
        out[int(i)] = weight(v)
    return out


def dense(points: dict) -> tuple[int, np.ndarray]:
    """(lowest index, float array) over the index range of a sparse 1D mapping."""
    lo, hi = min(points), max(points)
    arr = np.zeros(hi - lo + 1)
    for i, v in points.items():
        arr[i - lo] = float(v)
    return lo, arr


def float_close(got: dict, lo: int, want: np.ndarray) -> bool:
    """A sparse float result matches a dense expectation starting at ``lo``."""
    if not got:
        return False
    glo, garr = dense(got)
    if glo < lo or glo + garr.size > lo + want.size:
        return False
    full = np.zeros_like(want)
    full[glo - lo:glo - lo + garr.size] = garr
    return float(np.max(np.abs(full - want))) <= FLOAT_REL * float(np.max(np.abs(want)))


def convolve_ok(lhs: dict, rhs: dict, out: dict) -> bool:
    """A float-mode convolve output equals np.convolve of its inputs."""
    llo, larr = dense(lhs)
    rlo, rarr = dense(rhs)
    return float_close(out, llo + rlo, np.convolve(larr, rarr))


def fraction_convolve(a: dict, b: dict) -> dict:
    out: dict = {}
    for p, wp in a.items():
        for q, wq in b.items():
            out[p + q] = out.get(p + q, 0) + wp * wq
    return out


def inverse_confirmed(kernel: dict, inverse: dict, lo: int, hi: int, tol: Fraction) -> bool:
    """kernel * inverse - delta_0 stays within tol on [lo, hi], by our own convolution."""
    product = fraction_convolve(kernel, inverse)
    product[0] = product.get(0, 0) - 1
    return all(abs(w) <= tol for p, w in product.items() if lo <= p <= hi)


def van_cittert(g: np.ndarray, a: float, iterations: int) -> np.ndarray:
    """Van Cittert for the kernel a (delta_0 + h (delta_-1 + delta_1)),
    h = (1 - a) / (2a): f_0 = g/a and f_{k+1}(n) = g(n)/a - h (f_k(n-1) + f_k(n+1)),
    the support growing by one sample per side per step; returns the last iterate."""
    gs = g * (1.0 / a)
    h = (1 - a) / (2 * a)
    f = gs
    for _ in range(iterations):
        nxt = -np.convolve(f, [h, 0.0, h])
        pad = (nxt.size - gs.size) // 2
        nxt[pad:pad + gs.size] += gs
        f = nxt
    return f


def grid_close(got: np.ndarray, got_origin, want: np.ndarray, want_origin,
               spacing, tol: float) -> bool:
    """An image re-embedded on a larger grid matches within a relative L2 tol."""
    offs = [round((w - g) / h) for w, g, h in zip(want_origin, got_origin, spacing)]
    if any(o < 0 for o in offs):
        return False
    full = np.zeros_like(got)
    sl = tuple(slice(o, o + n) for o, n in zip(offs, want.shape))
    full[sl] = want
    return rel_l2(got, full) <= tol


def same_bytes(first: bytes, second: bytes) -> bool:
    """A rerun with the same inputs writes byte-identical output."""
    return first == second
