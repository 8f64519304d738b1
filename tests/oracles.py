"""Slow reference algorithms that the package kernels are checked against.

Not a test module (pytest does not collect it); the tests import from it.
Each was once part of the package and is kept here unchanged:

* the Bernoulli routes ``mzvsums.closedform`` used before it moved to plain
  integers: the defining binomial recurrence in ``Fraction`` arithmetic, and
  tangent numbers read off Seidel's boustrophedon triangle of zigzag numbers;
* the literal level-l step matrices of the generating series (``Mat2``,
  ``step_matrix``, ``step_matrix_star``), which the grid kernels of
  ``mzvsums.series`` fold to the same series;
* brute-force enumerators over monotone tuples (``zeta_trunc_naive`` /
  ``zeta_star_trunc_naive``), against which the DP tables of
  ``mzvsums.zeta`` are checked on small inputs;
* the shuffle product by its first-letter recursion (``shuffles_naive``),
  against which the positional enumeration of ``mzvsums.indices.shuffles``
  is checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb

from mzvsums.indices import AbcParams, validate_index
from mzvsums.series import BivarPoly, UnivarPoly


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


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix of truncated bivariate polynomials sharing one degree box."""

    a: BivarPoly
    b: BivarPoly
    c: BivarPoly
    d: BivarPoly

    def __post_init__(self):
        bounds = {(e.bound_x, e.bound_y) for e in (self.a, self.b, self.c, self.d)}
        if len(bounds) != 1:
            raise ValueError("matrix entries must share truncation bounds")

    def apply(self, f: BivarPoly, g: BivarPoly) -> tuple[BivarPoly, BivarPoly]:
        """Multiply the column vector (f, g) on the left."""
        return self.a * f + self.b * g, self.c * f + self.d * g

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        """Truncated-series inverse via the adjugate and the determinant reciprocal."""
        det = self.a * self.d - self.b * self.c
        r = det.reciprocal()
        return Mat2(self.d * r, -self.b * r, -self.c * r, self.a * r)


def _xy_entries(l: int, params: AbcParams, bx: int, by: int, diag_sign: int):
    inv_c = Fraction(1, l**params.c)
    diag = BivarPoly({(0, 0): 1, (0, 1): diag_sign * inv_c}, bx, by)
    upper = BivarPoly({(1, 0): Fraction(1, l**params.a)}, bx, by)
    lower = BivarPoly({(1, 0): Fraction(1, l**params.b)}, bx, by)
    return diag, upper, lower


def step_matrix(l: int, params: AbcParams, bound_x: int, bound_y: int) -> Mat2:
    """Level-l step matrix for the plain family series."""
    diag, upper, lower = _xy_entries(l, params, bound_x, bound_y, +1)
    return Mat2(diag, upper, lower, diag)


def step_matrix_star(l: int, params: AbcParams, bound_x: int, bound_y: int) -> Mat2:
    """Level-l step matrix for the star family series.

    The scalar prefactor 1 / ((1 - (y-x)/l^c)(1 - (y+x)/l^c)) is expanded as
    a product of two truncated geometric series.
    """
    diag, upper, lower = _xy_entries(l, params, bound_x, bound_y, -1)
    geo = UnivarPoly.geometric(Fraction(1, l**params.c), bound_x + bound_y)
    pref = geo.subs_linear(-1, 1, bound_x, bound_y) * geo.subs_linear(1, 1, bound_x, bound_y)
    return Mat2(diag * pref, upper * pref, lower * pref, diag * pref)


def _checked(k, m: int) -> tuple[int, ...]:
    if m < 0:
        raise ValueError(f"cutoff m must be non-negative, got {m}")
    return validate_index(k)


def zeta_trunc_naive(k, m: int) -> Fraction:
    """Brute-force enumeration oracle for ``zeta_trunc`` (O(m**n))."""
    k = _checked(k, m)
    total = Fraction(0)
    for combo in itertools.combinations(range(1, m + 1), len(k)):
        term = Fraction(1)
        for ki, mi in zip(k, reversed(combo)):
            term *= Fraction(1, mi**ki)
        total += term
    return total


def zeta_star_trunc_naive(k, m: int) -> Fraction:
    """Brute-force enumeration oracle for ``zeta_star_trunc``."""
    k = _checked(k, m)
    total = Fraction(0)
    for combo in itertools.combinations_with_replacement(range(1, m + 1), len(k)):
        term = Fraction(1)
        for ki, mi in zip(k, reversed(combo)):
            term *= Fraction(1, mi**ki)
        total += term
    return total


def shuffles_naive(s1, s2) -> dict[tuple[int, ...], int]:
    """sh(s1, s2) = s1[0]·sh(s1[1:], s2) + s2[0]·sh(s1, s2[1:]), counted per interleaving pattern."""
    s1, s2 = tuple(s1), tuple(s2)
    if not s1 or not s2:
        return {s1 + s2: 1}
    out: dict[tuple[int, ...], int] = {}
    for head, rest in ((s1[0], shuffles_naive(s1[1:], s2)), (s2[0], shuffles_naive(s1, s2[1:]))):
        for word, mult in rest.items():
            out[(head,) + word] = out.get((head,) + word, 0) + mult
    return out
