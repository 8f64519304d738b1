"""Exact evaluation of truncated multiple zeta and zeta-star values.

For an index ``k = (k_1, ..., k_n)`` and a cutoff ``m >= 0``::

    zeta_trunc(k, m)      = sum over m >= m_1 >  ... >  m_n >= 1 of prod m_i**-k_i
    zeta_star_trunc(k, m) = sum over m >= m_1 >= ... >= m_n >= 1 of prod m_i**-k_i

Both are exact rationals; the empty index evaluates to 1, and a sum with no
admissible tuples is 0.  Evaluation is dynamic programming over tails,
driven by the two recurrences (linear in the tail k_2..k_n)

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
running numerators, O(m * weight) bits per tail class at any cutoff m, and
builds a ``Fraction`` only where a value leaves the module.  The tests check it
against a separately coded brute-force enumerator over monotone tuples.

On top sit the family sums ``s``/``t`` (multiplicity-weighted sums over the
shuffle families) and the finite-cutoff identity that expresses the star
family sums through the non-star ones and zeta-star values of constant runs
``(c, c, ..., c)``.  All members of a family share one weight, and every
term of the identity has the weight of its left side (c(2p+q) for ``s``,
b + c(2p+q) for ``t``), so a family sum is one scaled numerator (of its tail
class, times an integer) and the identity check compares the numerators of
its two sides, as integers over the common denominator L_m**weight.
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
_EMPTY = (0, 1, 1)  # the empty word's state: 1 at every cutoff


class ZetaCache:
    """Running numerators of truncated zeta(-star) values: per tail class and kind, ``[t, N_(t-1), N_t]``.

    A request is a word or a family (words of one weight, with multiplicities).
    Its tail classes are its words' tails after each common prefix, divided by
    the gcd of their multiplicities, keyed by the word if there is one, else by
    the frozenset of (word, multiplicity) pairs.  The recurrences are linear in
    the tail, so a class steps from the class of its tails after each first
    letter a, times g * (L_t // t)**a, g the ratio of their gcds.  A word's
    classes are its suffixes; a family has far fewer.  Classes are hash-consed
    once per cache, so requests share them.

    ``fill(words, m, star)`` brings a request set to cutoff m through its
    classes' closure, level by level, from the cutoff t0 <= m the closure
    shares, else from 0.  One pass advances both kinds: at a prime power every
    class is rescaled by r**w, then strict steps run heaviest class first (they
    read the sub's old value), star ones lightest first (its new one).  So
    callers that read several cutoffs pass them ascending over the union of
    their requests (``sweep``, ``sweep_identities``).  A set's plan is built
    once per cache, beside the ratios r_t = L_t // L_(t-1) and the families.
    ``sweep_identities`` reads the ``IdentityReport``s of its cells at each
    cutoff from its set's requests (``_reports``); ``verify_identity_s/t`` are
    one-cell, one-cutoff sweeps, so the CLI and the library share that path.

    ``save`` writes ``(_CACHE_FORMAT, strict states, star states)``
    atomically, only the classes whose closure sits at one cutoff t >= 1.
    ``load`` checks the tag, the types, that each key is canonical, and each
    state's last step against its recurrence (star reads the subs' N_t,
    strict their N_(t-1)), refuses a state whose sub is missing or at another
    cutoff, and raises ``ValueError`` (or ``pickle.UnpicklingError``) on any
    failure.  So one altered number fails the load; only alterations that
    keep every last step consistent pass, as the N_(t-1) are not re-derived.
    """

    def __init__(self):
        self._states: tuple[dict, dict] = ({}, {})  # [strict, star]: class key -> [t, N_(t-1), N_t]
        self._classes: dict = {(): (0, ())}  # class key -> (weight, ((first letter, sub key, g), ...))
        self._sets: dict[tuple, list] = {}  # key -> see _set
        self._ratios: list[int] = [1]  # r_t = L_t // L_(t-1)
        self._ratio_lcm = 1  # L_t at the last t of _ratios
        self._lcms: dict[int, int] = {0: 1}  # L_t at the cutoffs filled or asked for
        self._members: dict[tuple, IndexMultiset] = {}  # (family, i, j, params) -> the family

    def zeta(self, k: Index, m: int) -> Fraction:
        return Fraction(self.scaled(k, m, False), self._den(m, sum(k)))

    def zeta_star(self, k: Index, m: int) -> Fraction:
        return Fraction(self.scaled(k, m, True), self._den(m, sum(k)))

    def scaled(self, k: Index, m: int, star: bool) -> int:
        """The zeta (or zeta-star) value of k at cutoff m, times lcm(1..m)**weight(k)."""
        return self.fill((k,), m, star)[0]

    def fill(self, words, m: int, star: bool) -> list[int]:
        """The scaled values of ``words`` (indices) at cutoff m, filled as one set if any is not there."""
        words = tuple(words)
        word_set = self._set((words, star), lambda: {star: words})
        self._fill(word_set, m)
        return [state[2] for _, state, _ in word_set[1][star]]

    def sweep(self, words, star: bool, cutoffs):
        """Yield each of the ascending ``cutoffs`` once every word of ``words`` sits there: one pass."""
        _check_ascending(cutoffs)
        words = tuple(words)
        yield from self._pass(self._set((words, star), lambda: {star: words}), cutoffs)

    def sweep_identities(self, family, cells: tuple, params: AbcParams, cutoffs):
        """Yield at each ascending cutoff the ``IdentityReport`` of each of ``cells`` over ``family``: one pass."""
        _check_ascending(cutoffs)
        word_set = self._identity_set(family, cells, params)
        for m in self._pass(word_set, cutoffs):
            yield self._reports(word_set, cells, params, m)

    def _reports(self, word_set: list, cells: tuple, params: AbcParams, m: int) -> list:
        """The cells' identities at cutoff m, read from their set's requests; the sides are compared as integers.

        Every term has the weight of the left side, so each side is a sum of scaled numerators over
        lcm(1..m)**weight.  The right side reads the groups of ``identity_terms``: each (i, j) strict family
        sum, once per cutoff, times the group's weighted sum of star-run products."""
        strict, star = word_set[1]  # laid out by _identity_set
        sums = {pair: g * state[2] for pair, (g, state, _) in zip(_strict_pairs(cells), strict)}
        reports, n = [], 0
        for p, q in cells:
            (g, state, k), *runs = star[n : n + 2 * p + q + 2]
            n += 2 * p + q + 2
            runs = [run[2] for _, run, _ in runs]
            lhs = g * state[2]
            rhs = sum(sums[i, j] * sum(w * runs[r1] * runs[r2] for w, r1, r2 in group)
                      for i, j, group in identity_terms(p, q))
            den = self._den(m, self._node(k)[0])
            lhs_value = Fraction(lhs, den)
            rhs_value = lhs_value if rhs == lhs else Fraction(rhs, den)
            reports.append(IdentityReport(params, p, q, m, lhs_value, rhs_value, lhs == rhs))
        return reports

    def _identity_set(self, family, cells: tuple, params: AbcParams) -> list:
        """Strict: the (i, j) families of ``_strict_pairs``; star: each (p, q) family, then its c-runs by length."""
        return self._set((family, cells, params), lambda: {
            False: [self.members(family, i, j, params) for i, j in _strict_pairs(cells)],
            True: [request for p, q in cells for request in (self.members(family, p, q, params),
                                                            *[(params.c,) * r for r in range(2 * p + q + 1)])]})

    def _set(self, key, kinds) -> list:
        """The request set named ``key``, made on first use from ``kinds()`` (star -> words or families):
        [states of its classes, per kind the (g, state, class key) of each request, plan]."""
        found = self._sets.get(key)
        if found is None:
            reads = ([], [])
            for star, requests in kinds().items():
                for request in requests:
                    k, g = self._class(request) if isinstance(request, dict) else (request, 1)
                    reads[star].append((g, self._states[star].setdefault(k, [0, 0, 0]) if k else _EMPTY, k))
            found = self._sets[key] = [[state for kind in reads for _, state, k in kind if k], reads, None]
        return found

    def _class(self, family: dict) -> tuple:
        """(key, g) of a family {word: multiplicity}, g times its class.  Adds the classes of two or more
        words of its prefix trie that the cache lacks, hash-consed by key; a loop at every depth."""
        classes = self._classes
        top = _normal(family.items())
        todo = [top]
        while todo:
            key, _, pairs = todo.pop()
            if len(pairs) == 1 or key in classes:  # a word's classes are its suffixes: see _node
                continue
            groups: dict[int, list] = {}
            for u, c in pairs:
                groups.setdefault(u[0], []).append((u[1:], c))
            edges = []
            for a, group in groups.items():
                sub = _normal(group)
                edges.append((a, sub[0], sub[1]))
                todo.append(sub)
            classes[key] = (sum(pairs[0][0]), tuple(edges))
        return top[:2]

    def _node(self, key) -> tuple:
        """(weight, edges) of a class: a word has one edge, to its tail."""
        found = self._classes.get(key)
        return found if found else (sum(key), ((key[0], key[1:], 1),))

    def _fill(self, word_set: list, m: int) -> None:
        """Bring the set's classes to m, unless they all sit there."""
        _check_cutoff(m)
        if any(state[0] != m for state in word_set[0]):
            for _ in self._pass(word_set, (m,)):
                pass

    def _pass(self, word_set: list, cutoffs):
        """Advance the set's closures through the ascending ``cutoffs`` from the cutoff they share, else 0,
        each level's factors computed once for both kinds; writes the states and yields at each cutoff."""
        if word_set[2] is None:
            word_set[2] = self._plan(word_set[1])
        chain, tops, steps, rescale, factors = word_set[2]
        if not chain:  # only the empty word
            yield from cutoffs
            return
        t0 = chain[0][0][0]
        if t0 > cutoffs[0] or any(state[0] != t0 for state, _ in chain):
            t0 = 0
        vals = [1] + ([state[2] for state, _ in chain] if t0 else [0] * len(chain))  # every class is 0 at cutoff 0
        prev = [1] + [state[1] for state, _ in chain] if t0 else vals
        ratios = self._ratios if len(self._ratios) > cutoffs[-1] else self._ratios_to(cutoffs[-1])
        lt, fs = self.lcm(t0), [0] * len(factors)
        for m in cutoffs:
            for t in range(t0 + 1, m + 1):
                if t == m:
                    prev = vals[:]
                r = ratios[t]
                if r != 1:  # t is a prime power: every value is rescaled to L_t
                    lt *= r
                    for w, slots in rescale:
                        rw = r**w
                        for i in slots:
                            vals[i] *= rw
                f = lt // t
                for n, a, g in factors:
                    fs[n] = f**a * g
                for i, j, n in steps:
                    vals[i] += fs[n] * vals[j]
            t0 = m
            self._lcms[m] = lt
            for state, i in chain if m == cutoffs[-1] else tops:  # the requests alone until the last cutoff
                state[:] = m, prev[i], vals[i]
            yield m

    def _plan(self, reads: tuple) -> tuple:
        """(chain, tops, steps, rescale, factors) of the closures of the strict and star requests.

        Each kind's closure takes the next slots by ascending weight, so a sub's slot (0 for the empty
        word) is below its parent's.  A step (i, j, n) adds g * (L_t // t)**a times slot j to slot i,
        for (a, g) the n-th factor; strict steps run in reverse slot order.  A loop at every depth."""
        chain, top, steps, rescale, factors = [], [], [], {}, {}
        for star, kind_reads in enumerate(reads):
            closure, todo = {}, [k for _, _, k in kind_reads if k]
            while todo:
                key = todo.pop()
                if key not in closure:
                    closure[key] = node = self._node(key)
                    for _, sub, _ in node[1]:
                        if sub:
                            todo.append(sub)
            states, slots, kind = self._states[star], {(): 0}, []
            for key, (w, edges) in sorted(closure.items(), key=lambda item: item[1][0]):
                slots[key] = i = len(chain) + 1
                chain.append((states.setdefault(key, [0, 0, 0]), i))
                rescale.setdefault(w, []).append(i)
                for a, sub, g in edges:
                    kind.append((i, slots[sub], factors.setdefault((a, g), len(factors))))
            steps += kind if star else kind[::-1]
            top += [(state, slots[k]) for _, state, k in kind_reads if k]
        return chain, top, steps, tuple(rescale.items()), [(n, a, g) for (a, g), n in factors.items()]

    def members(self, family, i: int, j: int, params: AbcParams) -> IndexMultiset:
        """``family(i, j, params)`` (``index_family_I`` or ``_J``), enumerated once per cache."""
        key = (family, i, j, params)
        found = self._members.get(key)
        if found is None:
            found = self._members[key] = family(i, j, params)
        return found

    def family_scaled(self, family, i: int, j: int, params: AbcParams, m: int, star: bool) -> int:
        """The (i, j) family sum at cutoff m times lcm(1..m)**weight: g times its class's value."""
        word_set = self._set(((family, i, j, params), star), lambda: {star: [self.members(family, i, j, params)]})
        self._fill(word_set, m)
        g, state, _ = word_set[1][star][0]
        return g * state[2]

    def lcm(self, m: int) -> int:
        """lcm(1..m)."""
        lt = self._lcms.get(m)
        if lt is None:
            _check_cutoff(m)
            lt = self._lcms[m] = math.prod(r for r in self._ratios_to(m)[1 : m + 1] if r != 1)
        return lt

    def _den(self, m: int, weight: int) -> int:
        """lcm(1..m)**weight; a weight-0 value reads no lcm."""
        return self.lcm(m) ** weight if weight else 1

    def _ratios_to(self, m: int) -> list[int]:
        """The ratios r_t = L_t // L_(t-1) = t // gcd(L_(t-1), t), extended to t = m."""
        ratios, lt = self._ratios, self._ratio_lcm
        for t in range(len(ratios), m + 1):
            ratios.append(t // math.gcd(lt, t))
            lt *= ratios[t]
        self._ratio_lcm = lt
        return ratios

    def save(self, path) -> None:
        """Write the saveable classes to ``path`` via a temporary file in its directory and ``os.replace``."""
        import pickle

        chains = ({}, {})
        for states, chain in zip(self._states, chains):
            for k in sorted(states, key=lambda k: self._node(k)[0]):  # subs first
                t = states[k][0]
                if t >= 1 and all(not sub or sub in chain and chain[sub][0] == t for _, sub, _ in self._node(k)[1]):
                    chain[k] = states[k]
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
                request = _saved_request(k)  # a key is the canonical form of its request
                key, g = (k, 1) if request is k else cache._class(request) if request else (None, 0)
                if not (type(state) is list and len(state) == 3 and all(type(v) is int for v in state)
                        and state[0] >= 1 and g == 1 and key == k):
                    raise ValueError(f"the state of {k!r} is malformed")
                states[k] = list(state)
            for k, (t, n0, n1) in states.items():
                w, edges = cache._node(k)
                r, f, step = cache._ratios_to(t)[t], cache.lcm(t) // t, 0
                for a, sub, g in edges:
                    sub_state = states.get(sub, (None,)) if sub else (t, 1, 1)  # the empty word is 1
                    if sub_state[0] != t:
                        raise ValueError(f"the state of {k} has no state of {sub} at cutoff {t} to check against")
                    step += g * f**a * (sub_state[2] if star else sub_state[1] * r ** (w - a))
                if n1 != n0 * r**w + step:
                    raise ValueError(f"the state of {k} fails its recurrence at cutoff {t}")
        return cache


def _normal(pairs) -> tuple:
    """(key, g, pairs / g) of a family's (word, multiplicity) pairs: the word of one pair, else their frozenset."""
    g = math.gcd(*[c for _, c in pairs])
    pairs = [(u, c // g) for u, c in pairs] if g != 1 else list(pairs)
    return pairs[0][0] if len(pairs) == 1 else frozenset(pairs), g, pairs


def _saved_request(k):
    """The word, or family {word: multiplicity} of one weight, that a saved class key names, else None."""
    pairs = [(k, 1)] if type(k) is tuple else list(k) if type(k) is frozenset and len(k) > 1 else []
    if not (pairs and all(
            type(e) is tuple and len(e) == 2 and type(e[0]) is tuple and e[0] and type(e[1]) is int and e[1] >= 1
            and all(type(x) is int and x >= 1 for x in e[0]) for e in pairs) and len({sum(u) for u, _ in pairs}) == 1):
        return None
    return k if type(k) is tuple else dict(pairs)


def _strict_pairs(cells) -> dict:
    """The (i, j) of every group of the cells' identities, each once, in order: an identity set's strict requests."""
    return dict.fromkeys((i, j) for p, q in cells for i, j, _ in identity_terms(p, q))


def _check_ascending(cutoffs) -> None:
    if not cutoffs or cutoffs[0] < 0 or any(b <= a for a, b in zip(cutoffs, cutoffs[1:])):
        raise ValueError(f"cutoffs must be non-negative and increase, got {list(cutoffs)}")


def _check_cutoff(m: int) -> None:  # every value and lcm reaches it
    if m < 0:
        raise ValueError(f"cutoff m must be non-negative, got {m}")


def zeta_trunc(k, m: int, cache: ZetaCache | None = None) -> Fraction:
    """Truncated multiple zeta value over strictly decreasing tuples."""
    return (cache if cache is not None else ZetaCache()).zeta(validate_index(k), m)


def zeta_star_trunc(k, m: int, cache: ZetaCache | None = None) -> Fraction:
    """Truncated multiple zeta-star value over weakly decreasing tuples."""
    return (cache if cache is not None else ZetaCache()).zeta_star(validate_index(k), m)


def _family_sum(family, p, q, m, params, star, cache) -> Fraction:
    if cache is None:
        cache = ZetaCache()
    scaled = cache.family_scaled(family, p, q, params, m, star)
    weight = sum(next(iter(cache.members(family, p, q, params))))  # every member has the family's weight
    return Fraction(scaled, cache._den(m, weight))


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


def verify_identity_s(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> IdentityReport:
    """Check the finite-cutoff identity for the s-family sums, exactly.

    Left side: s_star(p, q) at cutoff m.  Right side: the signed binomial
    combination of s(i, j) with two zeta-star values of c-runs, over all
    decompositions 2i+k+u = 2p, j+l+v = q.  A one-cell sweep (``ZetaCache.sweep_identities``) to cutoff m.
    """
    _check_cutoff(m)
    cache = cache if cache is not None else ZetaCache()
    return next(cache.sweep_identities(index_family_I, ((p, q),), params, (m,)))[0]


def verify_identity_t(p: int, q: int, m: int, params: AbcParams, cache: ZetaCache | None = None) -> IdentityReport:
    """Check the finite-cutoff identity for the t-family sums, exactly: a one-cell sweep to cutoff m."""
    _check_cutoff(m)
    cache = cache if cache is not None else ZetaCache()
    return next(cache.sweep_identities(index_family_J, ((p, q),), params, (m,)))[0]
