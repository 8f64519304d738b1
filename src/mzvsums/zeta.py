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

The factors r**w come from one list per weight w, kept by the cache.  As
zeta_t(k) = 0 for t < len(k), a strict table is born holding those zeros.  A
``Fraction`` is built only where a value leaves the module.  The tests check
the tables against a separately coded brute-force enumerator over monotone
tuples, on small inputs.

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

import functools
import math
import os
import pickle
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .indices import AbcParams, Index, IndexMultiset, index_family_I, index_family_J, validate_index

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
    "zeta_trunc",
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
    after m = 800 costs a lookup.  Beside the lcm list the cache keeps the
    ratios r_t = L_t // L_(t-1) and two kinds of factor lists, each extended
    only when a cutoff outgrows it: per first letter k0, (L_t // t)**k0, and
    per weight w, r_t**w.  So ``_extend`` computes no power per entry, and
    reads each list once per table.  A new strict table of a word of length n
    is born as n zeros, a new star table as [0]; ``len(table) - 1`` is the
    filled cutoff.  A fill walks from the word through its suffixes, longest
    first, to the first table filled past the cutoff, then extends the tables
    it passed, shortest first.

    Family sums go through a memo: each (family, i, j, params) is enumerated
    once per cache, and each (family, i, j, params, star) keeps its members
    as (multiplicity, table) pairs with the cutoff they are filled to.  A
    family sum at a cutoff up to that one reads ``table[m]``; a larger
    cutoff first fills every member table to it.  A sweep that starts at its
    top cutoff thus extends each table once.

    ``save`` writes ``(_CACHE_FORMAT, strict tables, star tables)``
    atomically; ``load`` checks the tag, the types, that a strict table's
    entries below its word's length are 0, that each longer table has the
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
        self._ratios: list[int] = [1]  # L_t // L_(t-1)
        self._steps: dict[int, list[int]] = {}  # first letter k0 -> (L_t // t)**k0 by t
        self._powers: dict[int, list[int]] = {}  # weight w -> (L_t // L_(t-1))**w by t
        self._members: dict[tuple, IndexMultiset] = {}  # (family, i, j, params) -> the family
        # (family, i, j, params, star) -> (filled cutoff, [(multiplicity, member table)])
        self._families: dict[tuple, tuple[int, list]] = {}

    def zeta(self, k: Index, m: int) -> Fraction:
        return Fraction(self.scaled(k, m, False), self.lcm(m) ** sum(k))

    def zeta_star(self, k: Index, m: int) -> Fraction:
        return Fraction(self.scaled(k, m, True), self.lcm(m) ** sum(k))

    def scaled(self, k: Index, m: int, star: bool) -> int:
        """The zeta (or zeta-star) value of k at cutoff m, times lcm(1..m)**weight(k)."""
        if m < 0:  # a negative cutoff would read table[m] from the end
            raise ValueError(f"cutoff m must be non-negative, got {m}")
        tab = (self._star if star else self._strict).get(k)
        if tab is None or len(tab) <= m:
            self.lcm(m)
            tab = self._fill(k, m, star)
        return tab[m]

    def _fill(self, k: Index, m: int, star: bool) -> list[int]:
        """k's table filled to m or past (lcm lists must reach m); a loop: k may outgrow the recursion limit."""
        tables = self._star if star else self._strict
        passed = []
        for start in range(len(k)):
            suf = k[start:]
            tab = tables.get(suf)
            if tab is None:  # star values are non-zero from t = 1
                tab = tables[suf] = [0] if star else [0] * len(suf)
            if len(tab) > m:
                break
            passed.append((suf, tab))
        else:
            tab = tables.setdefault((), [1])
            tab += [1] * (m + 1 - len(tab))
        for suf, longer in reversed(passed):  # shortest first: each recurs on the table filled before it
            self._extend(longer, tab, suf, m, star)
            tab = longer
        return tab

    def members(self, family, i: int, j: int, params: AbcParams) -> IndexMultiset:
        """``family(i, j, params)`` (``index_family_I`` or ``_J``), enumerated once per cache."""
        key = (family, i, j, params)
        found = self._members.get(key)
        if found is None:
            found = self._members[key] = family(i, j, params)
        return found

    def family_scaled(self, family, i: int, j: int, params: AbcParams, m: int, star: bool) -> int:
        """The (i, j) family sum at cutoff m times lcm(1..m)**weight; every member has that weight.

        The member tables are filled to m and kept as (multiplicity, table)
        pairs, so a later call at a cutoff up to m only reads ``table[m]``.
        """
        if m < 0:  # every family sum and identity check starts here
            raise ValueError(f"cutoff m must be non-negative, got {m}")
        key = (family, i, j, params, star)
        memo = self._families.get(key)
        if memo is None or memo[0] < m:
            self.lcm(m)
            members = self.members(family, i, j, params).items()
            memo = self._families[key] = (m, [(mult, self._fill(k, m, star)) for k, mult in members])
        return sum(mult * tab[m] for mult, tab in memo[1])

    def lcm(self, m: int) -> int:
        """lcm(1..m), extending the shared lists as needed."""
        if m < 0:  # a negative cutoff would read lcms[m] from the end
            raise ValueError(f"cutoff m must be non-negative, got {m}")
        lcms = self._lcms
        for t in range(len(lcms), m + 1):
            lt = math.lcm(lcms[-1], t)
            self._ratios.append(lt // lcms[-1])
            lcms.append(lt)
        return lcms[m]

    def _extend(self, tab: list[int], sub: list[int], suf: Index, m: int, star: bool) -> None:
        """Append the entries of ``suf``'s table up to cutoff m; ``sub`` is the table of suf[1:]."""
        ratios = self._ratios
        k0, w = suf[0], sum(suf)
        steps = self._steps.get(k0)
        if steps is None or len(steps) <= m:
            steps = self._steps.setdefault(k0, [0])
            steps += [(self._lcms[t] // t) ** k0 for t in range(len(steps), m + 1)]
        pw = self._powers.get(w)
        if pw is None or len(pw) <= m:
            pw = self._powers.setdefault(w, [])
            pw += [r**w for r in ratios[len(pw):]]
        n = tab[-1]
        if star:
            for t in range(len(tab), m + 1):
                if ratios[t] != 1:  # t is a prime power: bring the cutoff t-1 numerator to L_t
                    n *= pw[t]
                n += steps[t] * sub[t]
                tab.append(n)
            return
        ps = self._powers.get(w - k0)  # the strict loop rescales suf[1:] at cutoff t-1, of weight w - k0
        if ps is None or len(ps) <= m:
            ps = self._powers.setdefault(w - k0, [])
            ps += [r ** (w - k0) for r in ratios[len(ps):]]
        for t in range(len(tab), m + 1):
            s = sub[t - 1]
            if ratios[t] != 1:
                n *= pw[t]
                s *= ps[t]
            n += steps[t] * s
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
                zeros = 1 if is_star else len(suf)  # the fill trusts these entries to be 0
                if any(tab[:zeros]):
                    raise ValueError(f"the table of {suf} has a non-zero entry below cutoff {zeros}")
                if len(tab) <= zeros:
                    continue
                sub = tables.get(suf[1:])
                if sub is None or len(sub) < len(tab):
                    raise ValueError(f"the table of {suf} has no table of {suf[1:]} to recur on")
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


def _weight(family, p, q, params, cache) -> int:
    """The weight every member of the (p, q) family shares."""
    return sum(next(iter(cache.members(family, p, q, params))))


def _family_sum(family, p, q, m, params, star, cache) -> Fraction:
    if cache is None:
        cache = ZetaCache()
    scaled = cache.family_scaled(family, p, q, params, m, star)
    return Fraction(scaled, cache.lcm(m) ** _weight(family, p, q, params, cache))


def s_direct(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> Fraction:
    """Sum of zeta_trunc over index_family_I(p, q), weighted by multiplicity."""
    return _family_sum(index_family_I, p, q, m, params, False, cache)


def s_star_direct(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> Fraction:
    return _family_sum(index_family_I, p, q, m, params, True, cache)


def t_direct(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> Fraction:
    """Sum of zeta_trunc over index_family_J(p, q), weighted by multiplicity."""
    return _family_sum(index_family_J, p, q, m, params, False, cache)


def t_star_direct(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> Fraction:
    return _family_sum(index_family_J, p, q, m, params, True, cache)


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


@functools.cache
def identity_terms(p: int, q: int) -> tuple[tuple[int, int, tuple[tuple[int, int, int], ...]], ...]:
    """The right side of the (p, q) identity, grouped: ``((i, j, ((weight, r1, r2), ...)), ...)``.

    The (p, q) star family sum is the sum over the groups of the (i, j) family
    sum times sum(weight * R(r1) * R(r2)), R(r) the star c-run of length r.
    Each decomposition (i, k, u, j, l, v) adds (-1)**(j + k) * comb(k + l, k) *
    comb(u + v, u) to the pair {k + l, u + v} of its (i, j); a group lists its
    pairs with r1 <= r2 and non-zero weight.  Built once per (p, q).
    """
    groups: dict[tuple[int, int], dict[tuple[int, int], int]] = {}
    for i, k, u, j, l, v in decompositions(p, q):
        pairs = groups.setdefault((i, j), {})
        pair = (min(k + l, u + v), max(k + l, u + v))
        pairs[pair] = pairs.get(pair, 0) + (-1) ** (j + k) * comb(k + l, k) * comb(u + v, u)
    return tuple((i, j, tuple((w, r1, r2) for (r1, r2), w in pairs.items() if w)) for (i, j), pairs in groups.items())


def _verify_identity(p, q, m, params, family, cache) -> IdentityReport:
    """Both sides of the (p, q) identity over ``family`` (I or J), compared as integers.

    Every term has the weight of the left side, so each side is a sum of
    scaled numerators over lcm(1..m)**weight.  The right side reads the
    groups of ``identity_terms``: one family sum per (i, j), times its
    weighted sum of star-run products.
    """
    if cache is None:
        cache = ZetaCache()
    lhs = cache.family_scaled(family, p, q, params, m, True)
    runs = [cache.scaled((params.c,) * r, m, True) for r in range(2 * p + q + 1)]
    rhs = sum(
        cache.family_scaled(family, i, j, params, m, False) * sum(w * runs[r1] * runs[r2] for w, r1, r2 in pairs)
        for i, j, pairs in identity_terms(p, q)
    )
    den = cache.lcm(m) ** _weight(family, p, q, params, cache)
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
