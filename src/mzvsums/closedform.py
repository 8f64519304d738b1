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
``float(PiCoefficient)`` and :func:`converge_report` touch floating point,
the latter comparing truncated sums against the limits.

Bernoulli numbers come by two independent integer routes, each checking the
other: :func:`bernoulli` runs the defining binomial recurrence over the von
Staudt-Clausen denominator, :func:`bernoulli_via_tangent` the Knuth-Buckholtz
tangent-number recurrence (Brent-Harvey, arXiv:1108.0286).  The Seidel
triangle and ``Fraction`` recurrence they replaced are oracles in
``tests/oracles.py``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from math import comb, factorial
from operator import mul

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

    Computed from the defining recurrence sum_{j <= n} binom(n+1, j) B_j = 0
    on the integers D * B_j, D the product of the primes <= n + 1, which by
    von Staudt-Clausen clears every denominator up to B_n: one dot product
    over the even j (the odd B_j past B_1 vanish) and one exact division by
    n + 1 per step.  The scaled values are kept for the process and extended
    (rescaled to the larger D) when a larger n is asked for.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    if n >= len(_SCALED_BERNOULLI):
        _extend_bernoulli(n)
    return Fraction(_SCALED_BERNOULLI[n], _SCALED_BERNOULLI[0])


_SCALED_BERNOULLI = [1]  # D * B_j for j < len, D the product of the primes <= len; entry 0 is D


def _extend_bernoulli(n: int) -> None:
    a = _SCALED_BERNOULLI
    new_primes = [p for p in range(len(a) + 1, n + 2) if all(p % d for d in range(2, math.isqrt(p) + 1))]
    ratio = math.prod(new_primes)  # D grows from the primes <= len(a) to those <= n + 1
    a[:] = [x * ratio for x in a]
    row = [comb(len(a), j) for j in range(len(a) + 1)]
    for m in range(len(a), n + 1):
        row = [x + y for x, y in zip([0, *row], [*row, 0])]  # binom(m + 1, j)
        if m > 1 and m % 2:
            a.append(0)
            continue
        acc = sum(map(mul, row[0:m:2], a[0:m:2]))
        if m > 1:
            acc += (m + 1) * a[1]
        a.append(-acc // (m + 1))


def _tangent_numbers(r: int) -> list[int]:
    """Tangent numbers T_1..T_r (1, 2, 16, 272, ...) by the Knuth-Buckholtz recurrence in place."""
    t = [0, 1] + [0] * (r - 1)  # t[k] holds T_k once the second pass ends
    for k in range(2, r + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, r + 1):
        prev = t[k - 1]
        for j in range(k, r + 1):  # t[j] = (j - k) t[j - 1] + (j - k + 2) t[j], t[j - 1] just updated
            prev = t[j] = (j - k) * prev + (j - k + 2) * t[j]
    return t[1:]


def bernoulli_via_tangent(n: int) -> Fraction:
    """Independent Bernoulli computation through tangent numbers.

    B_(2r) = (-1)^(r-1) * 2r * T_r / (2^(2r) (2^(2r) - 1)), with T_r from
    :func:`_tangent_numbers`, r^2/2 small-integer multiply-adds on one list.
    Nothing is kept between calls.  Odd n >= 3 give zero; the even values
    are convention-independent.
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
    tangent = _tangent_numbers(r)[-1]
    sign = 1 if r % 2 == 1 else -1
    return Fraction(sign * 2 * r * tangent, 2 ** (2 * r) * (2 ** (2 * r) - 1))


def beta(r: int) -> Fraction:
    """Rational part of the even run limit: (2^(2r) - 2) (-1)^(r-1) B_(2r) / (2r)!.

    beta(0) evaluates to 1, consistent with the empty index.
    """
    if r < 0:
        raise ValueError(f"r must be non-negative, got {r}")
    sign = 1 if r % 2 == 1 else -1
    b = bernoulli(2 * r)
    return Fraction((2 ** (2 * r) - 2) * sign * b.numerator, b.denominator * factorial(2 * r))


# pi to 60 places: _PI**k is within a relative k * 1e-60 of pi^k, far below a float's resolution
_PI = Fraction("3.141592653589793238462643383279502884197169399375105820974945")


def _float_or_inf(value: Fraction) -> float:
    """``float(value)``, or an infinity of its sign when its magnitude is out of float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf if value > 0 else -math.inf


class PiCoefficient(namedtuple("PiCoefficient", "rational pi_power")):
    """A value rational * pi^pi_power, kept exact in the rational part."""

    __slots__ = ()

    def __float__(self) -> float:
        try:
            return float(self.rational) * math.pi**self.pi_power
        except OverflowError:  # a factor is out of float range, the product maybe not
            return _float_or_inf(self.rational * _PI**self.pi_power)

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


class ConvergenceRow(namedtuple("ConvergenceRow", "m truncated_over_pi_power closed_form abs_error")):
    __slots__ = ()


def converge_report(
    p: int,
    q: int,
    m_schedule,
    params: AbcParams = ABC_312,
    cache: ZetaCache | None = None,
) -> list[ConvergenceRow]:
    """Truncated star sums against the closed form, along a growing cutoff schedule.

    The closed forms are specific to letters (3, 1, 2); other params are
    rejected, and so is a (p, q) whose pi^(4p+2q) is outside the float
    range.  The schedule must be strictly increasing.  Deviations shrink
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
    try:
        power = math.pi ** (4 * p + 2 * q)
    except OverflowError:
        raise ValueError(f"pi^{4 * p + 2 * q} is outside the float range") from None
    if cache is None:
        cache = ZetaCache()
    closed = float(s_star_closed(p, q).rational)
    rows = []
    for m in schedule:
        scaled = float(s_star_direct(p, q, m, params, cache)) / power
        rows.append(ConvergenceRow(m, scaled, closed, abs(scaled - closed)))
    return rows
