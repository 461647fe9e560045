"""Closed forms of the named lattice series, kept as the oracle for the recurrence.

These are the formulas ``onesided`` wrote out before every series came
from one power-series division: the four unit pair series, the binomial
inverse's ``2|n| (-1)^(|n|+1)`` and the half pair's ``+-1``.  Each returns
``{position: int weight}``.
"""
from deconv import Side


def unit_pair_series(step: int, side: Side, terms: int) -> dict[int, int]:
    """First ``terms`` atoms of the ``side`` inverse of delta_0 + delta_step."""
    if step == 1 and side is Side.RIGHT:
        return {k: (-1) ** k for k in range(terms)}
    if step == 1:
        return {-k: (-1) ** (k + 1) for k in range(1, terms + 1)}
    if side is Side.RIGHT:
        return {k: (-1) ** (k + 1) for k in range(1, terms + 1)}
    return {-k: (-1) ** k for k in range(terms)}


def binomial_series(halfwidth: int) -> dict[int, int]:
    """``2|n| (-1)^(|n|+1)`` at every nonzero n in [-halfwidth, halfwidth]."""
    atoms = {}
    for n in range(1, halfwidth + 1):
        atoms[n] = atoms[-n] = 2 * n * (-1) ** (n + 1)
    return atoms


def half_pair_series(halfwidth: int) -> dict[int, int]:
    """``(-1)^n`` for n >= 0 and ``(-1)^(n+1)`` for n < 0, on [-halfwidth, halfwidth]."""
    return {n: (-1) ** n if n >= 0 else (-1) ** (n + 1)
            for n in range(-halfwidth, halfwidth + 1)}
