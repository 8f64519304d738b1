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
the cache holds scaled numerators, plain integers
N_t(k) = value_t(k) * L_t**w, and with r = L_t // L_{t-1} (1 unless t is a
prime power) the recurrences become integer updates:

    N_t(k) = N_{t-1}(k) * r**w + (L_t // t)**k_1 * N_{t-1}(k_2..k_n) * r**(w - k_1)
    N*_t(k) = N*_{t-1}(k) * r**w + (L_t // t)**k_1 * N*_t(k_2..k_n)

A value at cutoff t needs only values at t and t - 1, so ``ZetaCache`` keeps
running numerators, O(m * weight) bits per word at any cutoff m, and builds
a ``Fraction`` only where a value leaves the module.  The tests check it
against a separately coded brute-force enumerator over monotone tuples.

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
from collections import namedtuple
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
# the per-cutoff tables of earlier versions) is refused.
_CACHE_FORMAT = "mzvsums-zeta-cache/run-1"

class ZetaCache:
    """Running numerators of truncated zeta(-star) values: per suffix and kind, ``[t, N_(t-1), N_t]``.

    ``fill(words, m, star)`` brings a word set to cutoff m through its
    suffix closure, level by level, from the cutoff t0 <= m that every
    suffix in it shares, else from 0.  An identity's set holds star and
    strict words over shared suffixes; one pass advances its closure in both
    kinds, each level computing (L_t // t)**k_1 per first letter and, at
    prime powers, r_t**w per weight once, then updating star suffixes
    shortest first (they read the sub's new value) and strict ones longest
    first (the old one).  So a lower cutoff, or a chain whose shared suffix
    another set moved, refills from 0, and callers that read several cutoffs
    pass them ascending over the union of their words (``sweep``,
    ``sweep_identities``).  A set's plan is built once per cache, beside the
    ratios r_t = L_t // L_(t-1) and each family's members.

    ``save`` writes ``(_CACHE_FORMAT, strict states, star states)``
    atomically, only the chains whose suffixes all sit at one cutoff t >= 1.
    ``load`` checks the tag, the types and each state's last step against
    its recurrence (star reads the sub's N_t, strict its N_(t-1)), refuses
    a state whose sub is missing or at another cutoff, and raises
    ``ValueError`` (or ``pickle.UnpicklingError``) on any failure.  So one
    altered number fails the load; only alterations that keep every last
    step consistent pass, as the N_(t-1) are not re-derived.
    """

    def __init__(self):
        self._states: tuple[dict, dict] = ({}, {})  # [strict, star]: suffix -> [t, N_(t-1), N_t]
        self._sets: dict[tuple, list] = {}  # key -> [states of the non-empty words, (strict, star words), plan or None]
        self._ratios: list[int] = [1]  # r_t = L_t // L_(t-1)
        self._ratio_lcm = 1  # L_t at the last t of _ratios
        self._lcms: dict[int, int] = {0: 1}  # L_t at the cutoffs filled or asked for
        self._members: dict[tuple, IndexMultiset] = {}  # (family, i, j, params) -> the family
        self._terms: dict[tuple, list] = {}  # (family, i, j, params, star) -> [(multiplicity, member state)]

    def zeta(self, k: Index, m: int) -> Fraction:
        return Fraction(self.scaled(k, m, False), self.lcm(m) ** sum(k))

    def zeta_star(self, k: Index, m: int) -> Fraction:
        return Fraction(self.scaled(k, m, True), self.lcm(m) ** sum(k))

    def scaled(self, k: Index, m: int, star: bool) -> int:
        """The zeta (or zeta-star) value of k at cutoff m, times lcm(1..m)**weight(k)."""
        return self.fill((k,), m, star)[0]

    def fill(self, words, m: int, star: bool) -> list[int]:
        """The scaled values of ``words`` (indices) at cutoff m, filled as one set if any is not there."""
        if m < 0:
            raise ValueError(f"cutoff m must be non-negative, got {m}")
        states, words = self._states[star], tuple(words)
        for k in words:
            state = states.get(k)
            if (state is None or state[0] != m) and k:
                self._fill(self._set((words, star), {star: words}), m)
                break
        return [states[k][2] if k else 1 for k in words]

    def sweep(self, words, star: bool, cutoffs):
        """Yield each of the ascending ``cutoffs`` once every word of ``words`` sits there: one pass."""
        _check_ascending(cutoffs)
        words = tuple(words)
        yield from self._pass(self._set((words, star), {star: words}), cutoffs)

    def sweep_identities(self, family, cells: tuple, params: AbcParams, cutoffs):
        """Yield each of the ascending ``cutoffs`` once the words of the (p, q) identity over ``family``
        of every cell of ``cells`` sit there: one pass over both kinds of their union.  Star: the (p, q)
        families and the c-runs up to length 2p + q; strict: the (i, j) families of ``identity_terms``.
        """
        _check_ascending(cutoffs)
        yield from self._pass(self._identity_set(family, cells, params), cutoffs)

    def _identity_set(self, family, cells: tuple, params: AbcParams) -> list:
        return self._set((family, cells, params), {
            False: (k for p, q in cells for i, j, _ in identity_terms(p, q)
                    for k in self.members(family, i, j, params)),
            True: (k for p, q in cells for k in (*self.members(family, p, q, params),
                                                 *[(params.c,) * r for r in range(2 * p + q + 1)]))})

    def _set(self, key, kinds: dict) -> list:
        """The word set named ``key``, made on first use from ``kinds`` (star -> words, read only here)."""
        found = self._sets.get(key)
        if found is None:
            words = tuple(tuple(dict.fromkeys(kinds.get(star, ()))) for star in (False, True))
            found = self._sets[key] = [[self._states[star].setdefault(k, [0, 0, 0])
                                        for star, kind in enumerate(words) for k in kind if k], words, None]
        return found

    def _fill(self, word_set: list, m: int) -> None:
        """Bring the set's words to m, unless they all sit there."""
        if any(state[0] != m for state in word_set[0]):
            for _ in self._pass(word_set, (m,)):
                pass

    def _pass(self, word_set: list, cutoffs):
        """Advance the set's closure, in each kind it has words of, through the ascending ``cutoffs``,
        from the cutoff it shares, else from 0, computing each level's factors once for both kinds.

        Writes the states and yields at each cutoff; a loop at every depth."""
        if word_set[2] is None:
            word_set[2] = self._plan(word_set[1])
        chain, tops, steps, strict_steps, star_steps, k0s, weights = word_set[2]
        if not chain:  # only the empty word
            yield from cutoffs
            return
        t0 = chain[0][0][0]
        if t0 > cutoffs[0] or any(state[0] != t0 for state, _ in chain):
            t0 = 0
        vals = [1] + ([state[2] for state, _ in chain] if t0 else [0] * len(chain))  # a word is 0 at cutoff 0
        prev = [1] + [state[1] for state, _ in chain] if t0 else vals
        ratios = self._ratios if len(self._ratios) > cutoffs[-1] else self._ratios_to(cutoffs[-1])
        lt, fs, rs = self.lcm(t0), {}, {}
        for m in cutoffs:
            for t in range(t0 + 1, m + 1):
                if t == m:
                    prev = vals[:]
                r = ratios[t]
                if r != 1:  # t is a prime power: every value is rescaled to L_t
                    lt *= r
                    for w in weights:
                        rs[w] = r**w
                f = lt // t
                for k0 in k0s:
                    fs[k0] = f**k0
                if r == 1:
                    for i, j, k0, _, _ in steps:
                        vals[i] += fs[k0] * vals[j]
                else:
                    for i, j, k0, w, _ in star_steps:  # shortest first: vals[j] is the sub's value at t
                        vals[i] = vals[i] * rs[w] + fs[k0] * vals[j]
                    for i, j, k0, w, sw in strict_steps:  # longest first: vals[j] is the sub's value at t - 1
                        vals[i] = vals[i] * rs[w] + fs[k0] * rs[sw] * vals[j]
            t0 = m
            self._lcms[m] = lt
            for state, i in chain if m == cutoffs[-1] else tops:  # the words alone until the last cutoff
                state[:] = m, prev[i], vals[i]
            yield m

    def _plan(self, words: tuple) -> tuple:
        """(chain, words, steps, strict steps, star steps, first letters, weights) of the suffix
        closure of the strict and star ``words`` together, in each kind with words.

        A walk from each word back to its longest suffix already in the closure
        gives the suffixes beyond it the next slots, shortest first, so a sub's
        slot (0 for the empty word) is below its suffix's.  A step
        (i, j, k0, w, w - k0) updates slot i, of first letter k0 and weight w,
        from its sub's slot j: star steps in slot order, strict ones reversed.
        The star values follow the strict ones, their slots shifted past them.
        """
        slots, steps = {(): 0}, []
        for k in words[0] + words[1]:
            n, sub = 0, k
            while sub not in slots:
                n += 1
                sub = k[n:]
            if n:
                j, w = slots[sub], sum(sub)
                for n in range(n - 1, -1, -1):
                    k0 = k[n]
                    i = slots[k[n:]] = len(slots)
                    w += k0
                    steps.append((i, j, k0, w, w - k0))
                    j = i
        base, chain, tops, kinds = 0, [], [], [[], []]
        for star, kind in enumerate(words):
            if kind:
                states, ordered = self._states[star], steps if star else steps[::-1]
                chain += [(states.setdefault(k, [0, 0, 0]), base + i) for k, i in slots.items() if i]
                tops += [(states[k], base + slots[k]) for k in kind if k]
                kinds[star] = [(base + i, base + j if j else 0, k0, w, sw)
                               for i, j, k0, w, sw in ordered] if base else ordered
                base += len(steps)
        return (chain, tops, kinds[0] + kinds[1], *kinds,
                {step[2] for step in steps}, {0, *(step[3] for step in steps)})  # a sub's weight is 0 or a slot's

    def members(self, family, i: int, j: int, params: AbcParams) -> IndexMultiset:
        """``family(i, j, params)`` (``index_family_I`` or ``_J``), enumerated once per cache."""
        key = (family, i, j, params)
        found = self._members.get(key)
        if found is None:
            found = self._members[key] = family(i, j, params)
        return found

    def family_scaled(self, family, i: int, j: int, params: AbcParams, m: int, star: bool) -> int:
        """The (i, j) family sum at cutoff m times lcm(1..m)**weight; every member has that weight."""
        if m < 0:  # every family sum and identity check starts here
            raise ValueError(f"cutoff m must be non-negative, got {m}")
        self._fill(self._set(((family, i, j, params), star), {star: self.members(family, i, j, params)}), m)
        return self._family_at(family, i, j, params, star)

    def _family_at(self, family, i: int, j: int, params: AbcParams, star: bool) -> int:
        """The scaled (i, j) family sum at the cutoff its members sit at."""
        key = (family, i, j, params, star)
        terms = self._terms.get(key)
        if terms is None:
            states = self._states[star]
            terms = self._terms[key] = [(mult, states[k] if k else (None, 1, 1))  # the empty word is 1
                                        for k, mult in self.members(family, i, j, params).items()]
        return sum(mult * state[2] for mult, state in terms)

    def lcm(self, m: int) -> int:
        """lcm(1..m)."""
        if m < 0:
            raise ValueError(f"cutoff m must be non-negative, got {m}")
        lt = self._lcms.get(m)
        if lt is None:
            lt = self._lcms[m] = math.prod(r for r in self._ratios_to(m)[1 : m + 1] if r != 1)
        return lt

    def _ratios_to(self, m: int) -> list[int]:
        """The ratios r_t = L_t // L_(t-1) = t // gcd(L_(t-1), t), extended to t = m."""
        ratios, lt = self._ratios, self._ratio_lcm
        for t in range(len(ratios), m + 1):
            ratios.append(t // math.gcd(lt, t))
            lt *= ratios[t]
        self._ratio_lcm = lt
        return ratios

    def save(self, path) -> None:
        """Write the saveable chains to ``path`` via a temporary file in its directory and ``os.replace``."""
        import pickle

        chains = [{k: state for k, state in states.items()
                   if state[0] >= 1 and all(states[k[i:]][0] == state[0] for i in range(1, len(k)))}
                  for states in self._states]
        tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
        fh = open(tmp, "wb")
        try:
            with fh:
                pickle.dump((_CACHE_FORMAT, *chains), fh, protocol=pickle.HIGHEST_PROTOCOL)
                fh.flush()
                os.fsync(fh.fileno())  # on disk before the rename, so a crash cannot leave a partial cache
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    @classmethod
    def load(cls, path) -> "ZetaCache":
        """Read a cache written by ``save``, after the checks the class docstring lists."""
        import pickle

        class BuiltinsOnly(pickle.Unpickler):
            """A saved cache holds only tuples, dicts, lists, ints and a str: refuse any class."""

            def find_class(self, module, name):
                raise pickle.UnpicklingError(f"a zeta cache holds no {module}.{name} objects")

        with open(path, "rb") as fh:
            data = BuiltinsOnly(fh).load()
        if not (type(data) is tuple and len(data) == 3 and data[0] == _CACHE_FORMAT):
            raise ValueError(f"not a zeta cache in format {_CACHE_FORMAT}")
        cache = cls()
        for star, states in enumerate(cache._states):
            if type(data[1 + star]) is not dict:
                raise ValueError("the states are not a dict")
            for k, state in data[1 + star].items():
                if not (type(k) is tuple and k and all(type(e) is int and e >= 1 for e in k) and type(state) is list
                        and len(state) == 3 and all(type(v) is int for v in state) and state[0] >= 1):
                    raise ValueError(f"the state of {k!r} is malformed")
                states[k] = list(state)
            for k, (t, n0, n1) in states.items():
                sub = states.get(k[1:], (None,)) if len(k) > 1 else (t, 1, 1)  # the empty word is 1
                if sub[0] != t:
                    raise ValueError(f"the state of {k} has no state of {k[1:]} at cutoff {t} to check against")
                r, w = cache._ratios_to(t)[t], sum(k)
                step = (cache.lcm(t) // t) ** k[0]
                if n1 != n0 * r**w + step * (sub[2] if star else sub[1] * r ** (w - k[0])):
                    raise ValueError(f"the state of {k} fails its recurrence at cutoff {t}")
        return cache


def _check_ascending(cutoffs) -> None:
    if cutoffs[0] < 0 or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be non-negative and increase, got {list(cutoffs)}")


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


class IdentityReport(namedtuple("IdentityReport", "params p q m lhs rhs equal")):
    """Outcome of one exact identity check at fixed (p, q, m)."""

    __slots__ = ()


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
    scaled numerators over lcm(1..m)**weight.  The words of both sides are
    filled together, both kinds in one pass; the right side reads the groups of
    ``identity_terms``: one family sum per (i, j), times its weighted sum of
    star-run products.
    """
    if cache is None:
        cache = ZetaCache()
    if m < 0:
        raise ValueError(f"cutoff m must be non-negative, got {m}")
    cache._fill(cache._identity_set(family, ((p, q),), params), m)
    lhs = cache._family_at(family, p, q, params, True)
    runs = cache.fill([(params.c,) * r for r in range(2 * p + q + 1)], m, True)
    rhs = sum(
        cache._family_at(family, i, j, params, False) * sum(w * runs[r1] * runs[r2] for w, r1, r2 in pairs)
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
