"""Closed-form pi-power coefficients and numeric convergence checks.

For the letter triple (3, 1, 2) the infinite-series limits of the family
sums are rational multiples of powers of pi:

    s(p, q)      = binom(2p+q, q) / ((2p+1) (4p+2q+1)!) * pi^(4p+2q)
    s_star(p, q) = sum over the groups (i, j, pairs) of identity_terms(p, q) of
                   s(i, j) * sum over pairs of weight beta_r1 beta_r2 pi^(2r1+2r2)

the identity of :mod:`mzvsums.zeta` in the limit, again a multiple of
pi^(4p+2q).  Here beta_r = (2^(2r) - 2) (-1)^(r-1) B_(2r) / (2r)! is the
rational part of the even-argument run value zeta_star((2,)*r) / pi^(2r),
and B_n are the Bernoulli numbers.  Everything rational here is exact; only
:func:`converge_report` touches floating point, comparing truncated sums
against the limits.

Bernoulli numbers come from the defining binomial recurrence; an independent
route through tangent numbers (Seidel's boustrophedon triangle) is kept as a
cross-check oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .indices import AbcParams, _check_pq
from .zeta import ZetaCache, identity_terms, s_star_direct

__all__ = [
    "ABC_312",
    "ConvergenceRow",
    "PiCoefficient",
    "bernoulli",
    "bernoulli_via_tangent",
    "beta",
    "check_closed_letters",
    "converge_report",
    "s_closed",
    "s_star_closed",
]

ABC_312 = AbcParams(3, 1, 2)


def bernoulli(n: int) -> Fraction:
    """Bernoulli number B_n, with the B_1 = -1/2 convention.

    Computed from the defining recurrence sum_{j <= n} binom(n+1, j) B_j = 0.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return _bernoulli_cached(n)


@lru_cache(maxsize=None)
def _bernoulli_cached(n: int) -> Fraction:
    if n == 0:
        return Fraction(1)
    acc = sum((comb(n + 1, j) * _bernoulli_cached(j) for j in range(n)), Fraction(0))
    return -acc / (n + 1)


def _zigzag_numbers(n_max: int) -> list[int]:
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


def bernoulli_via_tangent(n: int) -> Fraction:
    """Independent Bernoulli computation through tangent numbers.

    The odd-position zigzag numbers are the tangent numbers T_r, and
    B_(2r) = (-1)^(r-1) * 2r * T_r / (2^(2r) (2^(2r) - 1)).  Odd n >= 3 give
    zero; the even values are convention-independent.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n == 0:
        return Fraction(1)
    if n == 1:
        return Fraction(-1, 2)
    if n % 2 == 1:
        return Fraction(0)
    r = n // 2
    tangent = _zigzag_numbers(2 * r - 1)[2 * r - 1]
    sign = 1 if r % 2 == 1 else -1
    return Fraction(sign * 2 * r * tangent, 2 ** (2 * r) * (2 ** (2 * r) - 1))


def beta(r: int) -> Fraction:
    """Rational part of the even run limit: (2^(2r) - 2) (-1)^(r-1) B_(2r) / (2r)!.

    beta(0) evaluates to 1, consistent with the empty index.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    sign = 1 if r % 2 == 1 else -1
    return Fraction((2 ** (2 * r) - 2) * sign) * bernoulli(2 * r) / factorial(2 * r)


@dataclass(frozen=True)
class PiCoefficient:
    """A value rational * pi^pi_power, kept exact in the rational part."""

    rational: Fraction
    pi_power: int

    def __float__(self) -> float:
        return float(self.rational) * math.pi**self.pi_power

    def __str__(self) -> str:
        frac = f"{self.rational.numerator}/{self.rational.denominator}"
        if self.pi_power == 0:
            return frac
        return f"{frac} * pi^{self.pi_power}"


def s_closed(p: int, q: int) -> PiCoefficient:
    """Limit of the s-family sum for letters (3, 1, 2): a pi^(4p+2q) multiple."""
    _check_pq(p, q)
    rational = Fraction(comb(2 * p + q, q), (2 * p + 1) * factorial(4 * p + 2 * q + 1))
    return PiCoefficient(rational, 4 * p + 2 * q)


def s_star_closed(p: int, q: int) -> PiCoefficient:
    """Limit of the star s-family sum for letters (3, 1, 2)."""
    _check_pq(p, q)
    total = Fraction(0)
    for i, j, pairs in identity_terms(p, q):
        total += s_closed(i, j).rational * sum(w * beta(r1) * beta(r2) for w, r1, r2 in pairs)
    return PiCoefficient(total, 4 * p + 2 * q)


def check_closed_letters(params: AbcParams) -> None:
    """Raise ``ValueError`` unless params are (3, 1, 2), the only letters with closed forms here."""
    if params.as_tuple() != (3, 1, 2):
        raise ValueError(f"closed forms require letters (3, 1, 2), got {params.as_tuple()}")


@dataclass(frozen=True)
class ConvergenceRow:
    m: int
    truncated_over_pi_power: float
    closed_form: float
    abs_error: float


def converge_report(
    p: int,
    q: int,
    m_schedule,
    params: AbcParams = ABC_312,
    cache: ZetaCache | None = None,
) -> list[ConvergenceRow]:
    """Truncated star sums against the closed form, along a growing cutoff schedule.

    The closed forms are specific to letters (3, 1, 2); other params are
    rejected.  The schedule must be strictly increasing.  Deviations shrink
    along the schedule because every truncated value grows toward its limit
    from below.
    """
    check_closed_letters(params)
    schedule = list(m_schedule)
    if not schedule:
        raise ValueError("schedule must be non-empty")
    if any(b <= a for a, b in zip(schedule, schedule[1:])):
        raise ValueError(f"schedule must be strictly increasing, got {schedule}")
    if schedule[0] < 0:
        raise ValueError("cutoffs must be non-negative")
    if cache is None:
        cache = ZetaCache()
    closed = float(s_star_closed(p, q).rational)
    power = math.pi ** (4 * p + 2 * q)
    rows = []
    for m in schedule:
        scaled = float(s_star_direct(p, q, m, params, cache)) / power
        rows.append(ConvergenceRow(m, scaled, closed, abs(scaled - closed)))
    return rows
