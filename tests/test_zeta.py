"""Truncated zeta evaluation: DP vs naive enumeration, recurrences, identities."""

import functools
import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import zeta_star_trunc_naive, zeta_trunc_naive

from mzvsums import zeta
from mzvsums.harmonic import HPoly, z_eval
from mzvsums.indices import AbcParams, index_family_I, index_family_J
from mzvsums.zeta import (
    ZetaCache,
    decompositions,
    identity_terms,
    s_direct,
    s_star_direct,
    t_direct,
    t_star_direct,
    verify_identity_s,
    verify_identity_t,
    zeta_star_trunc,
    zeta_trunc,
)

P312 = AbcParams(3, 1, 2)

index_st = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4).map(tuple)
cutoff_st = st.integers(min_value=0, max_value=20)


class TestZetaTrunc:
    def test_empty_index_is_one(self):
        assert zeta_trunc((), 5) == 1
        assert zeta_star_trunc((), 0) == 1

    def test_single_harmonic_number(self):
        assert zeta_trunc((1,), 2) == Fraction(3, 2)

    def test_depth_two(self):
        assert zeta_trunc((2, 1), 2) == Fraction(1, 4)

    def test_cutoff_below_depth_is_zero(self):
        assert zeta_trunc((3, 1), 1) == 0

    def test_star_single(self):
        assert zeta_star_trunc((2,), 2) == Fraction(5, 4)

    def test_star_depth_two(self):
        assert zeta_star_trunc((2, 2), 2) == Fraction(21, 16)

    def test_star_zero_cutoff(self):
        assert zeta_star_trunc((7, 7, 7), 0) == 0

    def test_rejects_bad_entries(self):
        for fn in (zeta_trunc, zeta_star_trunc):
            with pytest.raises(ValueError):
                fn((0, 1), 3)
            with pytest.raises(ValueError):
                fn((2, -1), 3)

    def test_rejects_negative_cutoff(self):
        with pytest.raises(ValueError):
            zeta_trunc((2,), -1)

    @pytest.mark.parametrize("filled, m", [(5, -1), (1, -3)])
    def test_cache_methods_reject_negative_cutoffs(self, filled, m):
        # Unchecked, m = -1 read table[-1] (the filled cutoff's value) and m = -3 raised IndexError.
        cache = ZetaCache()
        cache.zeta_star((2,), filled)
        cache.zeta((2,), filled)
        for read in (cache.zeta, cache.zeta_star, lambda k, m: cache.scaled(k, m, True)):
            with pytest.raises(ValueError, match=f"cutoff m must be non-negative, got {m}"):
                read((2,), m)


def test_dp_matches_naive_enumeration_exhaustively():
    # Full sweep: every index of length <= 4 with entries <= 4, every m <= 12.
    cache = ZetaCache()
    for n in range(5):
        for k in itertools.product(range(1, 5), repeat=n):
            for m in range(13):
                assert zeta_trunc(k, m, cache) == zeta_trunc_naive(k, m)
                assert zeta_star_trunc(k, m, cache) == zeta_star_trunc_naive(k, m)


class TestRecurrences:
    @given(index_st, st.integers(min_value=1, max_value=20))
    def test_strict_recurrence(self, k, m):
        lhs = zeta_trunc(k, m)
        rhs = zeta_trunc(k, m - 1) + Fraction(1, m ** k[0]) * zeta_trunc(k[1:], m - 1)
        assert lhs == rhs

    @given(index_st, st.integers(min_value=1, max_value=20))
    def test_star_recurrence(self, k, m):
        lhs = zeta_star_trunc(k, m)
        rhs = zeta_star_trunc(k, m - 1) + Fraction(1, m ** k[0]) * zeta_star_trunc(k[1:], m)
        assert lhs == rhs

    @given(index_st, st.integers(min_value=1, max_value=25))
    def test_monotone_in_cutoff(self, k, m):
        assert zeta_trunc(k, m) >= zeta_trunc(k, m - 1)
        assert zeta_star_trunc(k, m) >= zeta_star_trunc(k, m - 1)

    @given(index_st, cutoff_st)
    def test_strict_bounded_by_star(self, k, m):
        strict, star = zeta_trunc(k, m), zeta_star_trunc(k, m)
        assert strict <= star
        if len(k) >= 2 and m >= 1:
            # The all-equal tuple contributes to the star sum only.
            assert strict < star

    @given(st.integers(min_value=1, max_value=6), cutoff_st)
    def test_depth_one_star_equals_strict(self, k0, m):
        assert zeta_trunc((k0,), m) == zeta_star_trunc((k0,), m)


class TestFamilySums:
    def test_empty_family_sum_is_one(self):
        assert s_direct(0, 0, 17, P312) == 1

    def test_star_sum_at_cutoff_one(self):
        assert s_star_direct(0, 1, 1, P312) == 1

    def test_t_base_is_harmonic_number(self):
        assert t_direct(0, 0, 2, P312) == Fraction(3, 2)

    def test_shared_cache_matches_fresh(self):
        cache = ZetaCache()
        for p, q, m in [(1, 1, 4), (0, 2, 6), (2, 0, 3)]:
            assert s_direct(p, q, m, P312, cache) == s_direct(p, q, m, P312)
            assert t_star_direct(p, q, m, P312, cache) == t_star_direct(p, q, m, P312)

    def test_multiset_weighting(self):
        # With a=b=c=2 the family I(1,1) collapses to one index of weight 3.
        params = AbcParams(2, 2, 2)
        assert s_direct(1, 1, 5, params) == 3 * zeta_trunc((2, 2, 2), 5)


class TestIdentities:
    def test_trivial_case_both_sides_one(self):
        for m in (0, 1, 7):
            rep = verify_identity_s(0, 0, m, P312)
            assert rep.equal and rep.lhs == 1 and rep.rhs == 1

    def test_hand_expanded_case(self):
        rep = verify_identity_s(0, 1, 1, P312)
        assert rep.equal and rep.lhs == 1

    def test_t_identity_base(self):
        rep = verify_identity_t(0, 0, 1, P312)
        assert rep.equal and rep.lhs == 1

    @pytest.mark.parametrize("params", [P312, AbcParams(2, 2, 2)])
    def test_small_grid(self, params):
        cache = ZetaCache()
        for p in range(3):
            for q in range(3):
                for m in range(9):
                    assert verify_identity_s(p, q, m, params, cache).equal
                    assert verify_identity_t(p, q, m, params, cache).equal

    def test_report_fields(self):
        rep = verify_identity_s(1, 0, 2, P312)
        assert rep.params == P312
        assert (rep.p, rep.q, rep.m) == (1, 0, 2)
        assert rep.equal == (rep.lhs == rep.rhs)

    @pytest.mark.parametrize("warm", [False, True], ids=["fresh", "warm"])
    def test_family_sums_and_checks_refuse_negative_cutoffs(self, warm):
        cache = ZetaCache()
        fns = (s_direct, s_star_direct, t_direct, t_star_direct, verify_identity_s, verify_identity_t)
        if warm:  # tables and family memos already filled past the cutoffs asked for below
            for fn in fns:
                fn(1, 1, 4, P312, cache)
        for fn in fns:
            for m in (-1, -3):
                with pytest.raises(ValueError, match=f"cutoff m must be non-negative, got {m}"):
                    fn(1, 1, m, P312, cache)
            assert fn(1, 1, 4, P312, cache) == fn(1, 1, 4, P312, ZetaCache())


class TestIdentityTerms:
    def test_groups_the_per_row_expansion_exhaustively(self):
        for p in range(7):
            for q in range(7):
                rows = Counter()
                for i, k, u, j, l, v in decompositions(p, q):
                    r1, r2 = sorted((k + l, u + v))
                    rows[i, j, r1, r2] += (-1) ** (j + k) * math.comb(k + l, k) * math.comb(u + v, u)
                got = identity_terms(p, q)
                terms = [(i, j, r1, r2, w) for i, j, pairs in got for w, r1, r2 in pairs]
                assert {(i, j, r1, r2): w for i, j, r1, r2, w in terms} == {key: w for key, w in rows.items() if w}
                assert len(terms) == len({term[:4] for term in terms}), (p, q)
                assert all(w != 0 and r1 <= r2 for _, _, r1, r2, w in terms), (p, q)
                groups = [(i, j) for i, _, _, j, _, _ in decompositions(p, q)]
                assert [(i, j) for i, j, _ in got] == list(dict.fromkeys(groups)), (p, q)

    def test_is_an_immutable_tuple_built_once_per_pq(self):
        got = identity_terms(3, 2)
        assert got is identity_terms(3, 2)
        assert type(got) is tuple
        assert all(type(group) is tuple and type(group[2]) is tuple for group in got)
        assert all(type(term) is tuple for _, _, pairs in got for term in pairs)


class TestCachePersistence:
    def test_save_load_roundtrip(self, tmp_path):
        cache = ZetaCache()
        before = zeta_star_trunc((3, 1, 2), 30, cache)
        path = tmp_path / "tables.pkl"
        cache.save(path)
        loaded = ZetaCache.load(path)
        assert loaded.zeta_star((3, 1, 2), 30) == before
        assert loaded.zeta((2, 1), 12) == zeta_trunc((2, 1), 12)

    def test_cache_extends_beyond_saved_cutoff(self, tmp_path):
        cache = ZetaCache()
        zeta_trunc((2,), 5, cache)
        path = tmp_path / "tables.pkl"
        cache.save(path)
        loaded = ZetaCache.load(path)
        assert loaded.zeta((2,), 9) == zeta_trunc((2,), 9)


ACCEPTANCE_TRIPLES = [P312, AbcParams(4, 2, 3), AbcParams(5, 1, 3), AbcParams(5, 3, 4), AbcParams(2, 2, 2)]
SMALL_INDICES = [k for n in range(4) for k in itertools.product(range(1, 4), repeat=n)]


class TestIntegerTables:
    """The cache holds value_t * lcm(1..t)**weight as ints; checked against the naive oracles."""

    def test_stepwise_extension_across_prime_powers_matches_fresh_and_naive(self):
        cache = ZetaCache()
        for m in range(29):  # passes the prime powers 4, 8, 9, 16, 25, 27
            for k in SMALL_INDICES:
                strict, star = zeta_trunc(k, m, cache), zeta_star_trunc(k, m, cache)
                assert strict == zeta_trunc(k, m) and star == zeta_star_trunc(k, m), (k, m)
                if m in (3, 4, 8, 9, 16, 25, 27) and len(k) <= 2:
                    assert strict == zeta_trunc_naive(k, m), (k, m)
                    assert star == zeta_star_trunc_naive(k, m), (k, m)

    def test_saved_loaded_extended_cache_matches_fresh(self, tmp_path):
        cache = ZetaCache()
        for k in SMALL_INDICES:
            zeta_trunc(k, 7, cache)
            zeta_star_trunc(k, 7, cache)
        path = tmp_path / "tables.pkl"
        cache.save(path)
        loaded = ZetaCache.load(path)
        for m in (7, 8, 9, 16, 17):
            for k in SMALL_INDICES:
                assert loaded.zeta(k, m) == ZetaCache().zeta(k, m), (k, m)
                assert loaded.zeta_star(k, m) == ZetaCache().zeta_star(k, m), (k, m)

    def test_every_state_is_the_value_times_lcm_power(self):
        cache = ZetaCache()
        for k in SMALL_INDICES:
            assert cache.scaled(k, 10, False) == zeta_trunc_naive(k, 10) * cache.lcm(10) ** sum(k)
            cache.zeta_star(k, 10)
        _assert_states_exact(cache)

    def test_lcm_list(self):
        cache = ZetaCache()
        assert [cache.lcm(t) for t in range(11)] == [1, 1, 2, 6, 12, 60, 60, 420, 840, 2520, 2520]

    @pytest.mark.parametrize("filled", [0, 10])
    def test_lcm_rejects_negative_cutoffs(self, filled):
        # Unchecked, a cache filled to 10 gave lcm(-3) == 840, which is L_8.
        cache = ZetaCache()
        cache.lcm(filled)
        for m in (-1, -3):
            with pytest.raises(ValueError, match=f"cutoff m must be non-negative, got {m}"):
                cache.lcm(m)
        assert cache.lcm(filled) == ZetaCache().lcm(filled)

    @pytest.mark.parametrize("params", ACCEPTANCE_TRIPLES)
    def test_family_members_share_the_identity_weight(self, params):
        from mzvsums.indices import index_family_I, index_family_J

        b, c = params.b, params.c
        for p in range(4):
            for q in range(4):
                assert {sum(k) for k in index_family_I(p, q, params)} == {c * (2 * p + q)}
                assert {sum(k) for k in index_family_J(p, q, params)} == {b + c * (2 * p + q)}


@functools.cache  # read again and again by the class checks
def _naive(k, t, star):
    return (zeta_star_trunc_naive if star else zeta_trunc_naive)(k, t)


def _class_words(key):
    """The (word, multiplicity) pairs of a class key: a word, or the frozenset of two or more pairs."""
    return [(key, 1)] if type(key) is tuple else sorted(key)


def _assert_states_exact(cache, value=_naive):
    """Every class state [t, N_(t-1), N_t] of the cache holds its words' sum of multiplicity times
    ``value`` at t - 1 and t, scaled; a class key is canonical: one weight, coprime multiplicities."""
    for star in (False, True):
        for key, (t, n0, n1) in cache._states[star].items():
            words = _class_words(key)
            weight = sum(words[0][0])
            assert all(type(v) is int for v in (t, n0, n1)), key
            assert {sum(u) for u, _ in words} == {weight} and math.gcd(*(c for _, c in words)) == 1, key
            assert type(key) is tuple or len(words) > 1, key
            for cutoff, n in ((t, n1), (t - 1, n0)) if t else ((t, n1),):
                want = sum(c * value(u, cutoff, star) for u, c in words) * cache.lcm(cutoff) ** weight
                assert n == want, (key, cutoff, star)


class TestRunningState:
    """One state per tail class and kind, [t, N_(t-1), N_t]: memory does not grow with the cutoff.
    A word's classes are its suffixes."""

    # Weights 3 and 4 are each shared by strict and star suffixes, and by suffixes whose tails differ.
    WORDS = [(3,), (2, 1), (1, 2), (1, 1, 1), (4,), (3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 2, 1)]

    def test_stepped_fills_match_one_fill_and_the_naive_oracles(self):
        # Filled at 3, then 9, then 16 (crossing the prime powers 4, 5, 7, 8, 9, 11, 13, 16), kinds interleaved.
        stepped, fresh = ZetaCache(), ZetaCache()
        for m in (3, 9, 16):
            for i, k in enumerate(self.WORDS):
                star = (i + m) % 2 == 0
                stepped.scaled(k, m, star)
                stepped.scaled(k, m, not star)
        for star in (False, True):
            fresh.fill(self.WORDS, 16, star)
        assert stepped._states == fresh._states
        _assert_states_exact(stepped)

    def test_a_set_fill_reads_every_word_and_keeps_three_numbers_per_suffix(self):
        cache = ZetaCache()
        for m in (0, 5, 12):
            for star, naive in ((False, zeta_trunc_naive), (True, zeta_star_trunc_naive)):
                got = cache.fill([(), *self.WORDS], m, star)
                assert got == [naive(k, m) * cache.lcm(m) ** sum(k) for k in [(), *self.WORDS]], (m, star)
        suffixes = {k[i:] for k in self.WORDS for i in range(len(k))}
        assert set(cache._states[False]) == set(cache._states[True]) == suffixes
        assert all(len(state) == 3 and state[0] == 12 for states in cache._states for state in states.values())
        _assert_states_exact(cache)

    def test_a_chain_at_a_large_cutoff_allocates_little(self):
        import tracemalloc

        tracemalloc.start()
        try:
            value = ZetaCache().zeta_star((2,) * 6, 1500)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value.denominator.bit_length() > 20000  # the value alone is kilobytes
        assert peak < 1_000_000, peak  # the per-cutoff tables held about 8.5 MB here

    def test_a_word_set_advanced_past_a_prime_power_one_level_at_a_time(self):
        cache = ZetaCache()
        for m in range(33):  # every level from its predecessor: 16, 25, 27 and 32 included
            for star, naive in ((False, zeta_trunc_naive), (True, zeta_star_trunc_naive)):
                cache.fill([(2, 1, 1), (1, 3)], m, star)
                if m in (15, 16, 17, 25, 27, 32):
                    assert cache.scaled((2, 1, 1), m, star) == naive((2, 1, 1), m) * cache.lcm(m) ** 4, (m, star)
        _assert_states_exact(cache)


FILL_WORDS = [k for n in range(5) for k in itertools.product((1, 2, 3), repeat=n)]
FILL_CUTOFFS = range(9)


def _fill_orders():
    """Request orders for one cache: (word, cutoff, star) triples, every one of them in each order."""
    longest = sorted(FILL_WORDS, key=len, reverse=True)
    shortest = sorted(FILL_WORDS, key=len)
    kinds = (False, True)
    return {
        "longest-word-first-ascending": [(k, m, s) for k in longest for m in FILL_CUTOFFS for s in kinds],
        "shortest-word-first-descending": [(k, m, s) for k in shortest for m in reversed(FILL_CUTOFFS) for s in kinds],
        "cutoffs-descending": [(k, m, s) for m in reversed(FILL_CUTOFFS) for s in kinds for k in longest],
        "cutoffs-ascending-interleaved": [
            (k, m, s ^ ((i + m) % 2 == 0)) for m in FILL_CUTOFFS for i, k in enumerate(shortest) for s in kinds
        ],
    }


@pytest.fixture(scope="module")
def naive_fill_values():
    return {
        (k, m, star): (zeta_star_trunc_naive if star else zeta_trunc_naive)(k, m)
        for k in FILL_WORDS
        for m in FILL_CUTOFFS
        for star in (False, True)
    }


class TestFill:
    """A fill walks from the nearest suffix filled past the cutoff; strict tables are born with their zeros."""

    @pytest.mark.parametrize("order", list(_fill_orders()))
    def test_every_request_order_matches_the_naive_oracles(self, order, naive_fill_values):
        cache = ZetaCache()
        for k, m, star in _fill_orders()[order]:
            got = cache.zeta_star(k, m) if star else cache.zeta(k, m)
            assert got == naive_fill_values[k, m, star], (k, m, star)
        _assert_states_exact(cache)

    @pytest.mark.parametrize("order", ["ascending", "descending", "one-set"])
    def test_every_cutoff_by_word_sets_matches_the_naive_oracles(self, order, naive_fill_values):
        # Word sets of three words sharing suffixes; a descending cutoff refills a set's closure from 0.
        cache = ZetaCache()
        sets = [FILL_WORDS] if order == "one-set" else [FILL_WORDS[i:i + 3] for i in range(0, len(FILL_WORDS), 3)]
        cutoffs = list(reversed(FILL_CUTOFFS)) if order == "descending" else list(FILL_CUTOFFS)
        for m in cutoffs:
            for star in (False, True):
                for words in sets:
                    got = cache.fill(words, m, star)
                    assert got == [naive_fill_values[k, m, star] * cache.lcm(m) ** sum(k) for k in words], (words, m)
        _assert_states_exact(cache)

    def test_sweeps_refuse_cutoffs_that_do_not_increase_and_fill_reads_any_iterable(self):
        cache = ZetaCache()
        for cutoffs in ([3, 2], [4, 4], [-1, 2], ()):
            with pytest.raises(ValueError, match="cutoffs must be non-negative and increase"):
                list(cache.sweep([(2,)], True, cutoffs))
            with pytest.raises(ValueError, match="cutoffs must be non-negative and increase"):
                list(cache.sweep_identities(index_family_I, ((1, 1),), P312, cutoffs))
        assert cache.fill(iter([(2,), (1, 2), ()]), 5, False) == [5269, 333000, 1]  # times lcm(1..5)**weight

    @pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
    def test_a_chain_whose_shared_suffix_another_set_moved_is_refilled(self, star):
        naive = zeta_star_trunc_naive if star else zeta_trunc_naive
        cache = ZetaCache()
        cache.fill([(1, 2, 3), (3, 2, 3)], 8, star)
        cache.fill([(2, 3)], 3, star)  # moves the suffix (2, 3) the first set shares, and (3,)
        assert cache._states[star][(1, 2, 3)][0] == 8 and cache._states[star][(2, 3)][0] == 3
        for m in (8, 9, 12):
            got = cache.fill([(1, 2, 3), (3, 2, 3)], m, star)
            assert got == [naive(k, m) * cache.lcm(m) ** sum(k) for k in ((1, 2, 3), (3, 2, 3))], m
        _assert_states_exact(cache)

    def test_strict_value_below_its_length_is_zero_and_extends_like_a_fresh_fill(self):
        cache = ZetaCache()
        k = (2, 3, 1, 2, 2)
        for m in range(len(k)):  # no strictly decreasing 5-tuple fits under m < 5
            assert cache.scaled(k, m, False) == 0
        assert cache._states[False][k] == [4, 0, 0]
        for m in (5, 6, 12):
            assert cache.zeta(k, m) == zeta_trunc_naive(k, m), m
            fresh = ZetaCache()
            fresh.scaled(k, m, False)
            assert cache._states[False] == fresh._states[False], m

    @pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
    def test_parent_of_a_suffix_filled_one_cutoff_short(self, star):
        naive = zeta_star_trunc_naive if star else zeta_trunc_naive
        for m in (1, 2, 3, 4, 9):
            cache = ZetaCache()
            cache.scaled((2, 3), m - 1, star)
            assert cache.scaled((1, 2, 3), m, star) == naive((1, 2, 3), m) * cache.lcm(m) ** 6, m
            assert cache.scaled((2, 3), m, star) == naive((2, 3), m) * cache.lcm(m) ** 5, m

    def test_fill_deeper_than_the_recursion_limit(self):
        import sys

        k = (1,) * (sys.getrecursionlimit() + 10)
        assert ZetaCache().scaled(k, 3, False) == 0
        assert ZetaCache().scaled(k, 1, True) == 1



class TestCacheFile:
    """``save`` keeps the chains at one cutoff; ``load`` checks every state's last step."""

    WORDS = [(3, 1, 2), (2, 1, 3), (1, 1), (2, 2, 2, 2, 2)]

    def _saved(self, tmp_path):
        cache = ZetaCache()
        for star in (False, True):
            cache.fill(self.WORDS, 9, star)
        path = tmp_path / "states.pkl"
        cache.save(path)
        return cache, path

    def test_a_loaded_cache_reads_and_extends_like_a_fresh_one(self, tmp_path):
        cache, path = self._saved(tmp_path)
        loaded = ZetaCache.load(path)
        assert loaded._states == cache._states
        for k in self.WORDS:
            for t in (9, 10, 16, 4):
                assert loaded.zeta(k, t) == zeta_trunc_naive(k, t), (k, t)
                assert loaded.zeta_star(k, t) == zeta_star_trunc_naive(k, t), (k, t)

    @pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
    def test_load_refuses_any_altered_number(self, tmp_path, star):
        import pickle

        _, path = self._saved(tmp_path)
        tag, *kinds = pickle.loads(path.read_bytes())
        for k in kinds[star]:
            for field in range(3):
                altered = [{key: list(state) for key, state in states.items()} for states in kinds]
                altered[star][k][field] += 1
                path.write_bytes(pickle.dumps((tag, *altered)))
                with pytest.raises(ValueError, match=r"^the state of \(.* (fails its recurrence|has no state of)"):
                    ZetaCache.load(path)

    def test_save_keeps_only_chains_at_one_cutoff(self, tmp_path):
        import pickle

        cache = ZetaCache()
        cache.fill([(1, 2, 3), (3, 2, 3)], 8, True)
        cache.fill([(2, 3)], 3, True)  # (2, 3) and (3,) now sit at 3, under words at 8
        cache.fill([(4,)], 0, False)  # a chain at cutoff 0 holds nothing to check
        path = tmp_path / "states.pkl"
        cache.save(path)
        _, strict, star = pickle.loads(path.read_bytes())
        assert strict == {} and sorted(star) == [(2, 3), (3,)]
        assert ZetaCache.load(path).zeta_star((2, 3), 3) == zeta_star_trunc_naive((2, 3), 3)

    def test_load_refuses_a_mixed_chain(self, tmp_path):
        import pickle

        from mzvsums.zeta import _CACHE_FORMAT

        cache = ZetaCache()
        cache.fill([(1, 2, 3), (3, 2, 3)], 8, True)
        cache.fill([(2, 3)], 3, True)
        path = tmp_path / "states.pkl"
        path.write_bytes(pickle.dumps((_CACHE_FORMAT, {}, cache._states[True])))
        with pytest.raises(ValueError, match=r"the state of \(1, 2, 3\) has no state of \(2, 3\) at cutoff 8"):
            ZetaCache.load(path)

    def test_load_refuses_the_per_cutoff_tables_of_the_int_1_format(self, tmp_path):
        import pickle

        path = tmp_path / "tables.pkl"
        tables = {(2,): [0, 1, 5], (): [1, 1, 1]}
        path.write_bytes(pickle.dumps(("mzvsums-zeta-cache/int-1", tables, tables)))
        with pytest.raises(ValueError, match="not a zeta cache in format"):
            ZetaCache.load(path)

    @pytest.mark.parametrize("key", [
        frozenset({((2, 1), 2), ((1, 2), 4)}),  # multiplicities not coprime: the class is half of it
        frozenset({((2, 1), 1), ((2,), 1)}),  # two weights
        frozenset({((2, 1), 1)}),  # one word is keyed by the word
        frozenset({((2, 1), 1), ((1, 2), True)}),
        frozenset({((2, 0), 1), ((1, 1), 1)}),
        (2, 0), (), "21", ((2, 1), (1, 2)),
    ], ids=repr)
    def test_load_refuses_a_key_that_is_not_a_canonical_class(self, tmp_path, key):
        import pickle

        from mzvsums.zeta import _CACHE_FORMAT

        path = tmp_path / "states.pkl"
        path.write_bytes(pickle.dumps((_CACHE_FORMAT, {}, {key: [1, 0, 1]})))
        with pytest.raises(ValueError, match="is malformed"):
            ZetaCache.load(path)


class _WordValues:
    """Exact values of single words from one reference cache, one word at a time (no family classes);
    words of length <= 3 are checked against the naive oracles as they are read."""

    def __init__(self):
        self.cache, self.seen = ZetaCache(), {}

    def __call__(self, k, t, star):
        key = (k, t, star)
        if key not in self.seen:
            value = self.cache.zeta_star(k, t) if star else self.cache.zeta(k, t)
            if len(k) <= 3:
                assert value == _naive(k, t, star), key
            self.seen[key] = value
        return self.seen[key]


class TestBothKinds:
    """An identity's star and strict families and c-runs are tail classes, advanced in both kinds by one pass."""

    CELLS = tuple((p, q) for p in range(4) for q in range(4))

    @staticmethod
    def _family_scaled(cache, words, family, i, j, params, m, star):
        members = family(i, j, params)
        return sum(c * words(k, m, star) for k, c in members.items()) * cache.lcm(m) ** sum(next(iter(members)))

    @pytest.mark.parametrize("params", [*ACCEPTANCE_TRIPLES, AbcParams(6, 2, 4)], ids=str)
    @pytest.mark.parametrize("family", [index_family_I, index_family_J], ids=["I", "J"])
    def test_a_pass_stepped_across_prime_powers_matches_single_kind_fills_and_the_naive_oracles(self, params, family):
        both, words, cutoffs, swept = ZetaCache(), _WordValues(), (0, 7, 9, 16, 17), []  # each crosses prime powers
        for reports in both.sweep_identities(family, self.CELLS, params, cutoffs):
            m = reports[0].m
            swept.append(m)
            assert [(r.p, r.q, r.m) for r in reports] == [(p, q, m) for p, q in self.CELLS]
            assert all(r.equal and r.lhs == r.rhs for r in reports), m
            for p, q in self.CELLS:  # the requests, read as each cell's report reads them
                strict, star = both._identity_set(family, ((p, q),), params)[1]
                assert [run[2] for _, run, _ in star[1:]] == [
                    words((params.c,) * r, m, True) * both.lcm(m) ** (params.c * r) for r in range(2 * p + q + 1)]
                for (i, j, _), (g, state, _) in zip(identity_terms(p, q), strict):
                    assert g * state[2] == self._family_scaled(both, words, family, i, j, params, m, False), (i, j, m)
                g, state, _ = star[0]
                assert g * state[2] == self._family_scaled(both, words, family, p, q, params, m, True), (p, q, m)
        assert swept == list(cutoffs)
        assert all(state[0] == 17 for states in both._states for state in states.values())
        _assert_states_exact(both, words)
        for star in (False, True):  # each kind's states are the closure of its own requests
            requested = {k for _, _, k in both._identity_set(family, self.CELLS, params)[1][star] if k}
            assert requested <= set(both._states[star]), star
        if params.a != params.c:  # no strict family has eight c's in a row: that run is read in the star kind only
            assert (params.c,) * 8 in both._states[True] and (params.c,) * 8 not in both._states[False]

    @pytest.mark.parametrize("params", [*ACCEPTANCE_TRIPLES, AbcParams(6, 2, 4)], ids=str)
    @pytest.mark.parametrize("family, check", [(index_family_I, verify_identity_s),
                                               (index_family_J, verify_identity_t)], ids=["I", "J"])
    def test_a_sweeps_reports_equal_fresh_checks_of_each_cell(self, params, family, check):
        cells = ((2, 1), (0, 0), (3, 2), (1, 3), (0, 2), (2, 1), (3, 0), (1, 1))  # shuffled, one cell repeated
        cutoffs = (0, 7, 9, 16, 17)  # each step crosses prime powers
        swept = list(ZetaCache().sweep_identities(family, cells, params, cutoffs))
        assert swept == [[check(p, q, m, params, ZetaCache()) for p, q in cells] for m in cutoffs]

    @pytest.mark.parametrize("cell", [(1, 1), (3, 3)], ids=str)
    def test_a_recheck_at_the_cutoff_its_set_holds_equals_a_fresh_check_and_moves_no_state(self, cell):
        cache = ZetaCache()
        first = verify_identity_s(*cell, 15, P312, cache)
        chain = cache._identity_set(index_family_I, (cell,), P312)[2][0]
        held = [(state, list(state)) for state, _ in chain]
        assert verify_identity_s(*cell, 15, P312, cache) == first == verify_identity_s(*cell, 15, P312, ZetaCache())
        assert all(state is was and state == contents for (state, _), (was, contents) in zip(chain, held, strict=True))
        list(cache.sweep_identities(index_family_I, self.CELLS, P312, (16,)))  # every cell's requests sit at 16
        assert verify_identity_s(2, 1, 16, P312, cache) == verify_identity_s(2, 1, 16, P312, ZetaCache())
        assert cache._identity_set(index_family_I, ((2, 1),), P312)[2] is None  # read without a plan

    @pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
    @pytest.mark.parametrize("identity_first", [True, False], ids=["identity-first", "single-first"])
    def test_a_single_kind_set_sharing_suffixes_with_an_identity_set_is_refilled(self, star, identity_first):
        # s(0, 1) and s(1, 1) are strict words of the (1, 1) identity, s*(1, 1) its star words:
        # moving them to another cutoff leaves the identity's closure at two cutoffs.
        family_sum = s_star_direct if star else s_direct
        cache = ZetaCache()
        for step, m in enumerate((9, 5, 12, 13, 4, 16)):
            if (step % 2 == 0) == identity_first:
                assert verify_identity_s(1, 1, m, P312, cache) == verify_identity_s(1, 1, m, P312, ZetaCache()), m
            else:
                for i, j in ((0, 1), (1, 1)):
                    assert family_sum(i, j, m, P312, cache) == family_sum(i, j, m, P312, ZetaCache()), (i, j, m)
        _assert_states_exact(cache)

    @pytest.mark.parametrize("family, check", [(index_family_I, verify_identity_s),
                                               (index_family_J, verify_identity_t)], ids=["I", "J"])
    def test_a_cache_saved_after_a_pass_loads_and_extends_like_a_fresh_one(self, tmp_path, family, check):
        params, cells = AbcParams(5, 1, 3), ((0, 2), (1, 1), (2, 0))
        cache = ZetaCache()
        swept = list(cache.sweep_identities(family, cells, params, (3, 9)))
        assert [reports[0].m for reports in swept] == [3, 9]
        assert [[r.equal for r in reports] for reports in swept] == [[True] * len(cells)] * 2
        path = tmp_path / "states.pkl"
        cache.save(path)
        loaded = ZetaCache.load(path)
        assert loaded._states == cache._states and all(loaded._states)
        for m in (9, 11, 16):
            for p, q in cells:
                assert check(p, q, m, params, loaded) == check(p, q, m, params, ZetaCache()), (p, q, m)
        fresh = ZetaCache()
        extended = list(loaded.sweep_identities(family, cells, params, (16, 17)))
        assert [reports[0].m for reports in extended] == [16, 17]
        assert [reports[0].m for reports in fresh.sweep_identities(family, cells, params, (17,))] == [17]
        assert loaded._states == fresh._states
        assert extended == [[check(p, q, m, params, ZetaCache()) for p, q in cells] for m in (16, 17)]


# Requests of one weight: repeated words, one weight at several lengths, edges whose factor g is not 1,
# one pair of words in two ratios, and families whose letters coincide.
TAIL_FAMILIES = {
    "edge-factor-2": {(3,): 1, (1, 2): 2},
    "edge-factors-4-2": {(4,): 1, (1, 1, 1, 1): 4, (2, 2): 2},
    "top-gcd-2": {(2, 1): 2, (1, 2): 2},
    "gcd-3-lengths-2-3": {(3, 1): 3, (1, 3): 6, (2, 2): 3, (1, 1, 2): 6, (2, 1, 1): 3},
    "ratio-1-2": {(2, 1): 1, (1, 2): 2},
    "ratio-2-1": {(2, 1): 2, (1, 2): 1},
    "ratio-1-2-doubled": {(2, 1): 2, (1, 2): 4},
    "I(2,1) on (2,2,2)": index_family_I(2, 1, AbcParams(2, 2, 2)),
    "J(1,2) on (2,2,2)": index_family_J(1, 2, AbcParams(2, 2, 2)),
    "I(2,2) on (6,2,4)": index_family_I(2, 2, AbcParams(6, 2, 4)),
    "J(2,1) on (6,2,4)": index_family_J(2, 1, AbcParams(6, 2, 4)),
}


def _family_of(multiset):
    """A family callable naming ``multiset`` at every (i, j), so ``family_scaled`` fills its class."""
    return lambda i, j, params: dict(multiset)


class TestTailClasses:
    """A family is g times one tail class, whose value sums multiplicity times each word's value."""

    @pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
    @pytest.mark.parametrize("order", ["ascending", "resumed", "restarted"])
    def test_family_sums_match_the_naive_sums_at_every_cutoff(self, order, star):
        families = [_family_of(multiset) for multiset in TAIL_FAMILIES.values()]
        runs = {"ascending": [range(9)],  # one cache, one cutoff after the other
                "resumed": [(m // 2, m) for m in range(9)],  # a cache at m // 2 advanced to m
                "restarted": [range(8, -1, -1)]}[order]  # each lower cutoff refills from 0
        for cutoffs in runs:
            cache = ZetaCache()
            for m in cutoffs:
                lm = cache.lcm(m)
                for family, multiset in zip(families, TAIL_FAMILIES.values()):
                    want = sum(c * _naive(k, m, star) for k, c in multiset.items()) * lm ** sum(next(iter(multiset)))
                    assert cache.family_scaled(family, 0, 0, P312, m, star) == want, (multiset, m)
            _assert_states_exact(cache)

    def test_classes_are_shared_and_keep_multiplicities_apart(self):
        got = {name: zeta._class(multiset) for name, multiset in TAIL_FAMILIES.items()}
        assert got["ratio-1-2-doubled"] == (got["ratio-1-2"][0], 2)
        assert got["ratio-2-1"][0] != got["ratio-1-2"][0]
        assert got["top-gcd-2"] == (frozenset({((2, 1), 1), ((1, 2), 1)}), 2)
        assert got["I(2,1) on (2,2,2)"] == ((2,) * 5, 5)  # one word, five shuffles
        assert set(zeta._CLASSES[got["edge-factors-4-2"][0]][1]) == {(4, (), 1), (1, (1, 1, 1), 4), (2, (2,), 2)}
        assert zeta._node((1, 1, 1)) == (3, ((1, (1, 1), 1),))  # a word's classes are its suffixes

    @pytest.mark.parametrize("family", [index_family_I, index_family_J], ids=["I", "J"])
    def test_an_identity_set_steps_far_fewer_classes_than_its_words_have_suffixes(self, family):
        cache = ZetaCache()
        list(cache.sweep_identities(family, ((3, 3),), P312, (1,)))
        steps = cache._identity_set(family, ((3, 3),), P312)[2][2]
        words = [*family(3, 3, P312), *[(P312.c,) * r for r in range(10)],
                 *[k for i, j, _ in identity_terms(3, 3) for k in family(i, j, P312)]]
        suffixes = {k[n:] for k in words for n in range(len(k))}
        assert 3 * len(steps) < len(suffixes), (len(steps), len(suffixes))  # 96 and 110 steps, 334 and 499 suffixes


@pytest.fixture
def cold_tables(monkeypatch):
    """Empty process-wide tables for one test, the class table, its keys and the family memo swapped
    together: a memo entry whose classes were gone would read its frozenset key as a word."""
    monkeypatch.setattr(zeta, "_CLASSES", {(): (0, ())})
    monkeypatch.setattr(zeta, "_KEYS", {})
    monkeypatch.setattr(zeta, "_family_class", functools.cache(zeta._family_class.__wrapped__))


class TestProcessTables:
    """Every cache of a process shares the tail classes and each family's class; a cache keeps only values."""

    def test_a_second_cache_enumerates_no_family_and_another_triple_only_its_own(self, cold_tables, monkeypatch):
        calls = []

        def counting(i, j, params):
            calls.append((i, j, params))
            return index_family_I(i, j, params)

        monkeypatch.setattr(zeta, "index_family_I", counting)
        cells, cutoffs = ((3, 3), (2, 1), (0, 2)), (7, 9)
        own = {(p, q) for p, q in cells} | {(i, j) for p, q in cells for i, j, _ in identity_terms(p, q)}
        first = list(ZetaCache().sweep_identities(zeta.index_family_I, cells, P312, cutoffs))
        assert sorted(calls) == sorted((i, j, P312) for i, j in own)  # each family once
        calls.clear()
        second = ZetaCache()
        assert list(second.sweep_identities(zeta.index_family_I, cells, P312, cutoffs)) == first
        assert [verify_identity_s(p, q, 9, P312, second) for p, q in cells] == first[1]
        assert s_star_direct(3, 3, 16, P312, ZetaCache()) == s_star_direct(3, 3, 16, P312, second)
        assert calls == [] and all(r.equal for reports in first for r in reports)
        other = AbcParams(2, 2, 2)
        assert all(r.equal for r in next(ZetaCache().sweep_identities(zeta.index_family_I, cells, other, (9,))))
        assert sorted(calls) == sorted((i, j, other) for i, j in own)

    @pytest.mark.parametrize("params", [P312, AbcParams(2, 2, 2), AbcParams(6, 2, 4)], ids=str)
    def test_a_fresh_cache_on_classes_another_cache_filled_holds_its_own_exact_values(self, cold_tables, params):
        families = [(index_family_I, 1, 1), (index_family_I, 1, 2), (index_family_I, 0, 2),
                    (index_family_J, 0, 2), (index_family_J, 1, 1)]  # I(1, 1)'s and I(0, 2)'s tails recur
        for cutoffs in ((9, 17), (7, 16)):  # cache A, then fresh cache B at other cutoffs
            cache = ZetaCache()
            for m in cutoffs:
                for (family, i, j), star in itertools.product(families, (False, True)):
                    want = TestBothKinds._family_scaled(cache, _naive, family, i, j, params, m, star)
                    assert cache.family_scaled(family, i, j, params, m, star) == want, (family, i, j, m, star)
                _assert_states_exact(cache)


class TestWeightZero:
    """A weight-0 value is 1 at every cutoff: it reads no lcm, so a huge cutoff costs nothing."""

    def test_weight_zero_values_leave_the_ratio_list_alone(self):
        huge, cache = 10**20, ZetaCache()
        assert cache.zeta((), huge) == cache.zeta_star((), huge) == zeta_trunc((), huge, cache) == 1
        assert s_direct(0, 0, huge, P312, cache) == s_star_direct(0, 0, huge, P312, cache) == 1
        rep = verify_identity_s(0, 0, huge, P312, cache)
        assert rep.equal and rep.lhs == rep.rhs == 1
        reports = list(cache.sweep_identities(index_family_I, ((0, 0),), P312, (huge,)))
        assert [r.m for r in reports[0]] == [huge] and reports == [[rep]]
        assert z_eval(HPoly.word(()), huge, cache) == 1
        assert cache._ratios == [1] and cache._ratio_lcm == 1

    def test_weight_zero_values_refuse_negative_cutoffs(self):
        cache = ZetaCache()
        for read in (lambda m: cache.zeta((), m), lambda m: zeta_star_trunc((), m, cache),
                     lambda m: s_star_direct(0, 0, m, P312, cache), lambda m: verify_identity_s(0, 0, m, P312, cache)):
            with pytest.raises(ValueError, match="cutoff m must be non-negative, got -1"):
                read(-1)


class TestFamilyMemo:
    """A cache keeps each family's class states; a later, larger cutoff advances them."""

    @pytest.mark.parametrize("params", [P312, AbcParams(5, 3, 4), AbcParams(2, 2, 2)])
    def test_shared_cache_at_ascending_cutoffs_matches_fresh(self, params):
        cache = ZetaCache()
        for m in range(31):
            for p, q in ((0, 0), (1, 2), (2, 1)):
                for fn in (s_direct, s_star_direct, t_direct, t_star_direct, verify_identity_s, verify_identity_t):
                    assert fn(p, q, m, params, cache) == fn(p, q, m, params, ZetaCache()), (fn.__name__, p, q, m)


class TestAtomicSave:
    def test_failed_dump_keeps_the_old_file_and_leaves_no_temporary(self, tmp_path, monkeypatch):
        import pickle

        path = tmp_path / "tables.pkl"
        cache = ZetaCache()
        zeta_star_trunc((2, 1), 9, cache)
        cache.save(path)
        before = path.read_bytes()

        def broken_dump(obj, fh, protocol=None):
            fh.write(b"partial")
            raise OSError("disk full")

        zeta_star_trunc((3, 3, 3), 40, cache)
        monkeypatch.setattr(pickle, "dump", broken_dump)
        with pytest.raises(OSError, match="disk full"):
            cache.save(path)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["tables.pkl"]
        assert ZetaCache.load(path).zeta_star((2, 1), 9) == zeta_star_trunc((2, 1), 9)
