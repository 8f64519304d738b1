"""Slow reference algorithms that the package kernels are checked against.

Not a test module (pytest does not collect it); the tests import from it.
These are the Bernoulli routes ``mzvsums.closedform`` used before it moved to
plain integers, kept unchanged: the defining binomial recurrence in
``Fraction`` arithmetic, and tangent numbers read off Seidel's boustrophedon
triangle of zigzag numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb


@lru_cache(maxsize=None)
def bernoulli_fraction_recurrence(n: int) -> Fraction:
    """B_n (B_1 = -1/2) from sum_{j <= n} binom(n+1, j) B_j = 0, one ``Fraction`` step per j."""
    if n == 0:
        return Fraction(1)
    acc = sum((comb(n + 1, j) * bernoulli_fraction_recurrence(j) for j in range(n)), Fraction(0))
    return -acc / (n + 1)


def zigzag_numbers(n_max: int) -> list[int]:
    """Alternating-permutation counts 1, 1, 1, 2, 5, 16, 61, 272, ... (boustrophedon)."""
    out = [1]
    row = [1]
    for n in range(1, n_max + 1):
        prev = row
        row = [0] * (n + 1)
        for k in range(1, n + 1):
            row[k] = row[k - 1] + prev[n - k]
        out.append(row[n])
    return out


def bernoulli_from_zigzag(n: int, zigzag: list[int]) -> Fraction:
    """B_n from the odd zigzag numbers T_r = zigzag[2r - 1]; ``zigzag`` must reach index n - 1.

    B_(2r) = (-1)^(r-1) * 2r * T_r / (2^(2r) (2^(2r) - 1)).
    """
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    r = n // 2
    tangent = zigzag[2 * r - 1]
    sign = 1 if r % 2 == 1 else -1
    return Fraction(sign * 2 * r * tangent, 2 ** (2 * r) * (2 ** (2 * r) - 1))
