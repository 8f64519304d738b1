"""Truncated zeta evaluation: DP vs naive enumeration, recurrences, identities."""

import itertools
import math
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from oracles import zeta_star_trunc_naive, zeta_trunc_naive

from mzvsums.indices import AbcParams
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
    """The tables hold value_t * lcm(1..t)**weight as ints; checked against the naive oracles."""

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

    def test_every_entry_is_the_value_times_lcm_power(self):
        cache = ZetaCache()
        for k in SMALL_INDICES:
            assert cache.scaled(k, 10, False) == zeta_trunc_naive(k, 10) * cache.lcm(10) ** sum(k)
            cache.zeta_star(k, 10)
        for tables, naive in ((cache._strict, zeta_trunc_naive), (cache._star, zeta_star_trunc_naive)):
            for k, tab in tables.items():
                for m, entry in enumerate(tab):
                    assert type(entry) is int
                    assert Fraction(entry, cache.lcm(m) ** sum(k)) == naive(k, m), (k, m)

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


class TestPowerLists:
    """The per-weight lists of (L_t // L_(t-1))**w, shared by every table of weight w, strict and star."""

    # Weights 3 and 4 are each shared by strict and star tables, and by suffixes whose tails differ.
    WORDS = [(3,), (2, 1), (1, 2), (1, 1, 1), (4,), (3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 2, 1)]

    def _stepped(self) -> ZetaCache:
        """A cache filled at 3, then 9, then 16 (crossing the prime powers 4, 5, 7, 8, 9, 11, 13, 16)."""
        cache = ZetaCache()
        for m in (3, 9, 16):
            for i, k in enumerate(self.WORDS):  # star and strict requests interleaved
                star = (i + m) % 2 == 0
                cache.scaled(k, m, star)
                cache.scaled(k, m, not star)
        return cache

    def test_stepped_cache_matches_one_fill_and_the_naive_oracles(self):
        stepped, fresh = self._stepped(), ZetaCache()
        for k in self.WORDS:
            fresh.scaled(k, 16, False)
            fresh.scaled(k, 16, True)
        assert stepped._strict == fresh._strict and stepped._star == fresh._star
        for m in (3, 4, 9, 13, 16):
            for k in self.WORDS:
                assert stepped.zeta(k, m) == zeta_trunc_naive(k, m), (k, m)
                assert stepped.zeta_star(k, m) == zeta_star_trunc_naive(k, m), (k, m)

    def test_star_tables_build_no_power_list_for_their_tails(self):
        # Only the strict recurrence rescales the tail's table, so a star fill of (2, 3) needs the
        # weights 3 and 5 alone; the weight 0 of the empty tail under (3,) gets no list.
        cache = ZetaCache()
        cache.zeta_star((2, 3), 10)
        assert sorted(cache._powers) == [3, 5]

    @pytest.mark.parametrize("star", [False, True], ids=["strict", "star"])
    def test_load_refuses_a_damaged_last_entry(self, tmp_path, star):
        cache = self._stepped()
        path = tmp_path / "tables.pkl"
        cache.save(path)
        assert ZetaCache.load(path).zeta((1, 2, 1), 16) == zeta_trunc_naive((1, 2, 1), 16)
        (cache._star if star else cache._strict)[(1, 2, 1)][-1] += 1  # cutoff 16, a prime power
        cache.save(path)
        with pytest.raises(ValueError, match=r"the table of \(1, 2, 1\) fails its recurrence at cutoff 16"):
            ZetaCache.load(path)


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


def _parent_layout_tables(words, m, star):
    """Every suffix of every word filled to m from the oracles, as the fill before zero prefixes left them."""
    naive = zeta_star_trunc_naive if star else zeta_trunc_naive
    suffixes = {k[i:] for k in words for i in range(len(k) + 1)}
    return {suf: [int(naive(suf, t) * math.lcm(*range(1, t + 1)) ** sum(suf)) for t in range(m + 1)] for suf in suffixes}


class TestFill:
    """A fill walks from the nearest suffix filled past the cutoff; strict tables are born with their zeros."""

    @pytest.mark.parametrize("order", list(_fill_orders()))
    def test_every_request_order_matches_the_naive_oracles(self, order, naive_fill_values):
        cache = ZetaCache()
        for k, m, star in _fill_orders()[order]:
            got = cache.zeta_star(k, m) if star else cache.zeta(k, m)
            assert got == naive_fill_values[k, m, star], (k, m, star)
        fresh = ZetaCache()
        for k in FILL_WORDS:
            fresh.scaled(k, 8, False)
            fresh.scaled(k, 8, True)
        assert cache._strict == fresh._strict and cache._star == fresh._star

    def test_strict_table_below_its_length_is_zero_and_extends_like_a_fresh_fill(self):
        cache = ZetaCache()
        k = (2, 3, 1, 2, 2)
        for m in range(len(k)):  # no strictly decreasing 5-tuple fits under m < 5
            assert cache.scaled(k, m, False) == 0
        assert cache._strict == {k: [0] * 5}  # born with its zero prefix; no suffix was read
        for m in (5, 6, 12):
            assert cache.zeta(k, m) == zeta_trunc_naive(k, m), m
            fresh = ZetaCache()
            fresh.scaled(k, m, False)
            assert cache._strict[k] == fresh._strict[k], m

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

    def test_load_refuses_a_non_zero_entry_in_a_strict_prefix(self, tmp_path):
        cache = ZetaCache()
        cache.scaled((3, 1, 2), 9, False)
        path = tmp_path / "tables.pkl"
        cache._strict[(3, 1, 2)][1] = 7  # cutoff 1, below the length 3; the last entry stays right
        cache.save(path)
        with pytest.raises(ValueError, match=r"the table of \(3, 1, 2\) has a non-zero entry below cutoff 3"):
            ZetaCache.load(path)

    def test_load_accepts_tables_born_with_their_prefix_and_no_suffix_tables(self, tmp_path):
        cache = ZetaCache()
        cache.scaled((2, 2, 2, 2, 2), 3, False)
        cache.scaled((2, 2), 0, True)
        assert cache._strict == {(2, 2, 2, 2, 2): [0] * 5} and cache._star == {(2, 2): [0]}
        path = tmp_path / "tables.pkl"
        cache.save(path)
        loaded = ZetaCache.load(path)
        assert loaded.zeta((2, 2, 2, 2, 2), 7) == zeta_trunc_naive((2, 2, 2, 2, 2), 7)
        assert loaded.zeta_star((2, 2), 7) == zeta_star_trunc_naive((2, 2), 7)

    def test_load_accepts_the_tables_of_a_fill_without_zero_prefixes(self, tmp_path):
        # Before tables were born with their zeros, every suffix was filled from [0]: a strict table could be
        # shorter than its word, and the zeros below the word's length were computed.
        import pickle

        from mzvsums.zeta import _CACHE_FORMAT

        words = [(3, 1, 2, 1), (2, 1, 3), (1, 1)]
        path = tmp_path / "tables.pkl"
        for m in (0, 2, 5):
            strict, star = _parent_layout_tables(words, m, False), _parent_layout_tables(words, m, True)
            path.write_bytes(pickle.dumps((_CACHE_FORMAT, strict, star)))
            loaded = ZetaCache.load(path)
            for k in words:
                for t in (m, m + 1, 9):
                    assert loaded.zeta(k, t) == zeta_trunc_naive(k, t), (k, m, t)
                    assert loaded.zeta_star(k, t) == zeta_star_trunc_naive(k, t), (k, m, t)


class TestFamilyMemo:
    """A cache keeps each family's member tables; a later, larger cutoff refills them."""

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
