"""Truncated zeta evaluation: DP vs naive enumeration, recurrences, identities."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from mzvsums.indices import AbcParams
from mzvsums.zeta import (
    ZetaCache,
    s_direct,
    s_star_direct,
    t_direct,
    t_star_direct,
    verify_identity_s,
    verify_identity_t,
    zeta_star_trunc,
    zeta_star_trunc_naive,
    zeta_trunc,
    zeta_trunc_naive,
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

    @pytest.mark.parametrize("params", ACCEPTANCE_TRIPLES)
    def test_family_members_share_the_identity_weight(self, params):
        from mzvsums.indices import index_family_I, index_family_J

        b, c = params.b, params.c
        for p in range(4):
            for q in range(4):
                assert {sum(k) for k in index_family_I(p, q, params)} == {c * (2 * p + q)}
                assert {sum(k) for k in index_family_J(p, q, params)} == {b + c * (2 * p + q)}


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
