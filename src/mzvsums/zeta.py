"""Exact evaluation of truncated multiple zeta and zeta-star values.

For an index ``k = (k_1, ..., k_n)`` and a cutoff ``m >= 0``::

    zeta_trunc(k, m)      = sum over m >= m_1 >  ... >  m_n >= 1 of prod m_i**-k_i
    zeta_star_trunc(k, m) = sum over m >= m_1 >= ... >= m_n >= 1 of prod m_i**-k_i

Both are exact rationals; the empty index evaluates to 1, and a sum with no
admissible tuples is 0.  Evaluation is dynamic programming over suffixes,
driven by the two recurrences

    zeta_m(k)      = zeta_{m-1}(k)      + m**-k_1 * zeta_{m-1}(k_2..k_n)
    zeta_star_m(k) = zeta_star_{m-1}(k) + m**-k_1 * zeta_star_m(k_2..k_n)

Every term of either sum at cutoff t is an integer over L_t**w, where
L_t = lcm(1..t) (L_0 = 1) and w = k_1 + ... + k_n is the weight of k.  So
the tables hold scaled numerators, plain integers
N_t(k) = value_t(k) * L_t**w, and with r = L_t // L_{t-1} (1 unless t is a
prime power) the recurrences become integer updates:

    N_t(k) = N_{t-1}(k) * r**w + (L_t // t)**k_1 * N_{t-1}(k_2..k_n) * r**(w - k_1)
    N*_t(k) = N*_{t-1}(k) * r**w + (L_t // t)**k_1 * N*_t(k_2..k_n)

A ``Fraction`` is built only where a value leaves the module.  A separately
coded brute-force enumerator over monotone tuples (``zeta_trunc_naive`` /
``zeta_star_trunc_naive``) is kept as an oracle for small inputs.

On top sit the family sums ``s``/``t`` (multiplicity-weighted sums over the
shuffle families) and the finite-cutoff identity that expresses the star
family sums through the non-star ones and zeta-star values of constant runs
``(c, c, ..., c)``.  All members of a family share one weight, and every
term of the identity has the weight of its left side (c(2p+q) for ``s``,
b + c(2p+q) for ``t``), so a family sum is one sum of scaled numerators and
the identity check compares the numerators of its two sides, as integers
over the common denominator L_m**weight.
"""

from __future__ import annotations

import itertools
import math
import os
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

# First field of a saved cache; a file without it (for instance one holding
# the Fraction tables of earlier versions) is refused.
_CACHE_FORMAT = "mzvsums-zeta-cache/int-1"


class _BuiltinsOnly(pickle.Unpickler):
    """A saved cache holds only tuples, dicts, lists, ints and a str: refuse any class."""

    def find_class(self, module, name):
        raise pickle.UnpicklingError(f"a zeta cache holds no {module}.{name} objects")


class ZetaCache:
    """Suffix-keyed DP tables of scaled numerators of truncated zeta(-star) values.

    ``table[t]`` for a suffix of weight w is the ``int`` value_t * L_t**w,
    with L_t = lcm(1..t) taken from one list shared by every table.  Each
    entry carries its own L_t, so a table extends in place when a larger
    cutoff is requested, with no rescale pass, and evaluating at m = 100
    after m = 800 costs a lookup.

    ``save`` writes ``(_CACHE_FORMAT, strict tables, star tables)``
    atomically; ``load`` checks the tag, the types, that each table has the
    table it recurs on, and each table's last entry against its recurrence,
    and raises ``ValueError`` (or ``pickle.UnpicklingError``) on any failure.
    That refuses caches of older versions and most damage, but the other
    entries are not re-derived (that would cost a refill): a file with an
    altered middle entry loads, and an identity check that reads the entry
    reports a mismatch.
    """

    def __init__(self):
        # suffix tuple -> scaled numerators indexed by the cutoff t
        self._strict: dict[Index, list[int]] = {}
        self._star: dict[Index, list[int]] = {}
        self._lcms: list[int] = [1]  # L_t = lcm(1..t)

    def zeta(self, k: Index, m: int) -> Fraction:
        return Fraction(self.scaled(k, m, False), self.lcm(m) ** sum(k))

    def zeta_star(self, k: Index, m: int) -> Fraction:
        return Fraction(self.scaled(k, m, True), self.lcm(m) ** sum(k))

    def scaled(self, k: Index, m: int, star: bool) -> int:
        """The zeta (or zeta-star) value of k at cutoff m, times lcm(1..m)**weight(k)."""
        tables = self._star if star else self._strict
        tab = tables.get(k)
        if tab is not None and len(tab) > m:
            return tab[m]
        self.lcm(m)
        sub = None
        for start in range(len(k), -1, -1):  # shortest suffix first
            suf = k[start:]
            tab = tables.get(suf)
            if tab is None:
                tab = tables[suf] = [0] if suf else [1]
            if len(tab) <= m:
                if suf:
                    self._extend(tab, sub, suf, m, star)
                else:
                    tab.extend([1] * (m + 1 - len(tab)))
            sub = tab
        return tab[m]

    def lcm(self, m: int) -> int:
        """lcm(1..m), extending the shared list as needed."""
        lcms = self._lcms
        for t in range(len(lcms), m + 1):
            lcms.append(math.lcm(lcms[-1], t))
        return lcms[m]

    def _extend(self, tab: list[int], sub: list[int], suf: Index, m: int, star: bool) -> None:
        """Append the entries of ``suf``'s table up to cutoff m; ``sub`` is the table of suf[1:]."""
        lcms = self._lcms
        k0 = suf[0]
        w = sum(suf)
        n = tab[-1]
        for t in range(len(tab), m + 1):
            lt = lcms[t]
            r = lt // lcms[t - 1]
            s = sub[t] if star else sub[t - 1]
            if r != 1:  # t is a prime power: bring the cutoff t-1 numerators to L_t
                n *= r**w
                if not star:
                    s *= r ** (w - k0)
            n += (lt // t) ** k0 * s
            tab.append(n)

    def save(self, path) -> None:
        """Write the tables to ``path`` via a temporary file in its directory and ``os.replace``."""
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        fh = open(tmp, "wb")
        try:
            with fh:
                pickle.dump((_CACHE_FORMAT, self._strict, self._star), fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())  # on disk before the rename, so a crash cannot leave a partial cache
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "ZetaCache":
        """Read a cache written by ``save``, after the checks the class docstring lists."""
        with open(path, "rb") as fh:
            data = _BuiltinsOnly(fh).load()
        if not (type(data) is tuple and len(data) == 3 and data[0] == _CACHE_FORMAT):
            raise ValueError(f"not a zeta cache in format {_CACHE_FORMAT}")
        cache = cls()
        cache._strict = _copied_tables(data[1])
        cache._star = _copied_tables(data[2])
        cache.lcm(max(map(len, [*cache._strict.values(), *cache._star.values()]), default=1) - 1)
        for is_star, tables in ((False, cache._strict), (True, cache._star)):
            for suf, tab in tables.items():
                if not suf:
                    if any(v != 1 for v in tab):
                        raise ValueError("the table of the empty index is not all ones")
                    continue
                sub = tables.get(suf[1:])
                if sub is None or len(sub) < len(tab):
                    raise ValueError(f"the table of {suf} has no table of {suf[1:]} to recur on")
                probe = [0]  # the value at cutoff 0
                if len(tab) > 1:
                    probe = tab[:-1]
                    cache._extend(probe, sub, suf, len(tab) - 1, is_star)
                if probe[-1] != tab[-1]:
                    raise ValueError(f"the table of {suf} fails its recurrence at cutoff {len(tab) - 1}")
        return cache


def _copied_tables(tables) -> dict[Index, list[int]]:
    """Loaded tables in fresh containers, so no two can alias; ``ValueError`` if malformed."""
    if type(tables) is not dict:
        raise ValueError("the tables are not a dict")
    copied = {}
    for suf, tab in tables.items():
        if not (type(suf) is tuple and all(type(e) is int and e >= 1 for e in suf)):
            raise ValueError(f"bad table key {suf!r}")
        if not (type(tab) is list and tab and all(type(v) is int for v in tab)):
            raise ValueError(f"the table of {suf} is malformed")
        copied[suf] = list(tab)
    return copied


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


def _scaled_family_sum(family, m, star, cache) -> int:
    """The family sum times lcm(1..m)**weight: every member of a family has the same weight."""
    return sum(mult * cache.scaled(k, m, star) for k, mult in family.items())


def _family_sum(family, m, star, cache) -> Fraction:
    if cache is None:
        cache = ZetaCache()
    weight = sum(next(iter(family)))
    return Fraction(_scaled_family_sum(family, m, star, cache), cache.lcm(m) ** weight)


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


def _verify_identity(p, q, m, params, family, cache) -> IdentityReport:
    """Both sides of the (p, q) identity over ``family`` (I or J), compared as integers.

    Every term has the weight of the left side, so each side is a sum of
    scaled numerators over lcm(1..m)**weight.  Each (i, j) family sum is
    computed once per call, however many decompositions use it.
    """
    if cache is None:
        cache = ZetaCache()
    top = family(p, q, params)
    lhs = _scaled_family_sum(top, m, True, cache)
    runs = [cache.scaled((params.c,) * r, m, True) for r in range(2 * p + q + 1)]
    base: dict[tuple[int, int], int] = {}
    rhs = 0
    for coeff, i, j, r1, r2 in identity_terms(p, q):
        s = base.get((i, j))
        if s is None:
            s = base[i, j] = _scaled_family_sum(family(i, j, params), m, False, cache)
        rhs += coeff * s * runs[r1] * runs[r2]
    den = cache.lcm(m) ** sum(next(iter(top)))
    lhs_value = Fraction(lhs, den)
    rhs_value = lhs_value if rhs == lhs else Fraction(rhs, den)
    return IdentityReport(params, p, q, m, lhs_value, rhs_value, lhs == rhs)


def verify_identity_s(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> IdentityReport:
    """Check the finite-cutoff identity for the s-family sums, exactly.

    Left side: s_star(p, q) at cutoff m.  Right side: the signed binomial
    combination of s(i, j) with two zeta-star values of c-runs, over all
    decompositions 2i+k+u = 2p, j+l+v = q.
    """
    return _verify_identity(p, q, m, params, index_family_I, cache)


def verify_identity_t(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> IdentityReport:
    """Check the finite-cutoff identity for the t-family sums, exactly."""
    return _verify_identity(p, q, m, params, index_family_J, cache)
