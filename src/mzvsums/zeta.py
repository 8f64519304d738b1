"""Exact evaluation of truncated multiple zeta and zeta-star values.

For an index ``k = (k_1, ..., k_n)`` and a cutoff ``m >= 0``::

    zeta_trunc(k, m)      = sum over m >= m_1 >  ... >  m_n >= 1 of prod m_i**-k_i
    zeta_star_trunc(k, m) = sum over m >= m_1 >= ... >= m_n >= 1 of prod m_i**-k_i

Both are exact rationals; the empty index evaluates to 1, and a sum with no
admissible tuples is 0.  Evaluation is dynamic programming over suffixes,
driven by the two recurrences

    zeta_m(k)      = zeta_{m-1}(k)      + m**-k_1 * zeta_{m-1}(k_2..k_n)
    zeta_star_m(k) = zeta_star_{m-1}(k) + m**-k_1 * zeta_star_m(k_2..k_n)

A separately coded brute-force enumerator over monotone tuples
(``zeta_trunc_naive`` / ``zeta_star_trunc_naive``) is kept as an oracle for
small inputs.

On top sit the family sums ``s``/``t`` (multiplicity-weighted sums over the
shuffle families) and the finite-cutoff identity that expresses the star
family sums through the non-star ones and zeta-star values of constant runs
``(c, c, ..., c)``.
"""

from __future__ import annotations

import itertools
import pickle
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .indices import AbcParams, Index, index_family_I, index_family_J, validate_index

__all__ = [
    "IdentityReport",
    "ZetaCache",
    "decompositions",
    "identity_terms",
    "s_direct",
    "s_star_direct",
    "t_direct",
    "t_star_direct",
    "verify_identity_s",
    "verify_identity_t",
    "zeta_star_trunc",
    "zeta_star_trunc_naive",
    "zeta_trunc",
    "zeta_trunc_naive",
]


class ZetaCache:
    """Suffix-keyed DP tables for truncated zeta(-star) values.

    Tables extend in place when a larger cutoff is requested, so evaluating
    at m = 100 after m = 800 costs a lookup.  Instances are picklable; the
    CLI uses that for its optional on-disk cache.
    """

    def __init__(self):
        # suffix tuple -> list of values indexed by the cutoff t
        self._strict: dict[Index, list[Fraction]] = {}
        self._star: dict[Index, list[Fraction]] = {}

    def zeta(self, k: Index, m: int) -> Fraction:
        return self._table(self._strict, k, m, star=False)[m]

    def zeta_star(self, k: Index, m: int) -> Fraction:
        return self._table(self._star, k, m, star=True)[m]

    def _table(self, tables, k: Index, m: int, star: bool) -> list[Fraction]:
        one = Fraction(1)
        for start in range(len(k), -1, -1):  # shortest suffix first
            suf = k[start:]
            tab = tables.get(suf)
            if tab is None:
                tab = tables[suf] = [one] if not suf else [Fraction(0)]
            if len(tab) > m:
                continue
            if not suf:
                tab.extend([one] * (m + 1 - len(tab)))
                continue
            sub = tables[suf[1:]]  # ensured on a previous iteration
            k0 = suf[0]
            for t in range(len(tab), m + 1):
                term = Fraction(1, t**k0) * (sub[t] if star else sub[t - 1])
                tab.append(tab[t - 1] + term)
        return tables[k]

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            pickle.dump((self._strict, self._star), fh, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def load(cls, path) -> "ZetaCache":
        cache = cls()
        with open(path, "rb") as fh:
            cache._strict, cache._star = pickle.load(fh)
        return cache


def _checked(k, m) -> Index:
    if m < 0:
        raise ValueError(f"cutoff m must be non-negative, got {m}")
    return validate_index(k)


def zeta_trunc(k, m: int, cache: ZetaCache | None = None) -> Fraction:
    """Truncated multiple zeta value over strictly decreasing tuples."""
    k = _checked(k, m)
    return (cache if cache is not None else ZetaCache()).zeta(k, m)


def zeta_star_trunc(k, m: int, cache: ZetaCache | None = None) -> Fraction:
    """Truncated multiple zeta-star value over weakly decreasing tuples."""
    k = _checked(k, m)
    return (cache if cache is not None else ZetaCache()).zeta_star(k, m)


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


def _family_sum(family, m, star, cache) -> Fraction:
    if cache is None:
        cache = ZetaCache()
    value = cache.zeta_star if star else cache.zeta
    return sum((mult * value(k, m) for k, mult in family.items()), Fraction(0))


def s_direct(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> Fraction:
    """Sum of zeta_trunc over index_family_I(p, q), weighted by multiplicity."""
    return _family_sum(index_family_I(p, q, params), m, False, cache)


def s_star_direct(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> Fraction:
    return _family_sum(index_family_I(p, q, params), m, True, cache)


def t_direct(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> Fraction:
    """Sum of zeta_trunc over index_family_J(p, q), weighted by multiplicity."""
    return _family_sum(index_family_J(p, q, params), m, False, cache)


def t_star_direct(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> Fraction:
    return _family_sum(index_family_J(p, q, params), m, True, cache)


@dataclass(frozen=True)
class IdentityReport:
    """Outcome of one exact identity check at fixed (p, q, m)."""

    params: AbcParams
    p: int
    q: int
    m: int
    lhs: Fraction
    rhs: Fraction
    equal: bool


def decompositions(p: int, q: int):
    """All (i, k, u, j, l, v) with 2i + k + u = 2p and j + l + v = q."""
    for i in range(p + 1):
        for k in range(2 * p - 2 * i + 1):
            u = 2 * p - 2 * i - k
            for j in range(q + 1):
                for l in range(q - j + 1):
                    v = q - j - l
                    yield i, k, u, j, l, v


def identity_terms(p: int, q: int):
    """(weight, i, j, r1, r2) per decomposition, in ``decompositions`` order.

    The (p, q) star family sum is the sum of weight * (i, j) family sum *
    star c-runs of lengths r1 = k + l and r2 = u + v.
    """
    for i, k, u, j, l, v in decompositions(p, q):
        yield (-1) ** (j + k) * comb(k + l, k) * comb(u + v, u), i, j, k + l, u + v


def _identity_rhs(p, q, m, params, base_sum, cache) -> Fraction:
    c = params.c
    rhs = Fraction(0)
    for weight, i, j, r1, r2 in identity_terms(p, q):
        rhs += (
            weight
            * base_sum(i, j, m, params, cache)
            * cache.zeta_star((c,) * r1, m)
            * cache.zeta_star((c,) * r2, m)
        )
    return rhs


def verify_identity_s(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> IdentityReport:
    """Check the finite-cutoff identity for the s-family sums, exactly.

    Left side: s_star(p, q) at cutoff m.  Right side: the signed binomial
    combination of s(i, j) with two zeta-star values of c-runs, over all
    decompositions 2i+k+u = 2p, j+l+v = q.
    """
    if cache is None:
        cache = ZetaCache()
    lhs = s_star_direct(p, q, m, params, cache)
    rhs = _identity_rhs(p, q, m, params, s_direct, cache)
    return IdentityReport(params, p, q, m, lhs, rhs, lhs == rhs)


def verify_identity_t(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> IdentityReport:
    """Check the finite-cutoff identity for the t-family sums, exactly."""
    if cache is None:
        cache = ZetaCache()
    lhs = t_star_direct(p, q, m, params, cache)
    rhs = _identity_rhs(p, q, m, params, t_direct, cache)
    return IdentityReport(params, p, q, m, lhs, rhs, lhs == rhs)
