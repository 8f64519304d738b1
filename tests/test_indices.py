"""Index families: shuffle enumeration, multiplicities, parameter validation."""

from math import comb

import pytest
from hypothesis import given, strategies as st

from mzvsums.indices import (
    AbcParams,
    expected_family_size,
    index_family_I,
    index_family_J,
    shuffles,
    total_multiplicity,
    validate_index,
)

P312 = AbcParams(3, 1, 2)

letters = st.integers(min_value=1, max_value=4)
short_index = st.lists(letters, min_size=0, max_size=4).map(tuple)
small_pq = st.integers(min_value=0, max_value=4)


class TestAbcParams:
    def test_accepts_valid_triples(self):
        for triple in [(3, 1, 2), (4, 2, 3), (5, 1, 3), (5, 3, 4), (2, 2, 2)]:
            params = AbcParams(*triple)
            assert params.as_tuple() == triple

    def test_rejects_unbalanced_triple(self):
        with pytest.raises(ValueError, match="a\\+b must equal 2c"):
            AbcParams(3, 2, 2)

    def test_rejects_small_a(self):
        with pytest.raises(ValueError, match="a must be at least 2"):
            AbcParams(1, 3, 2)

    def test_rejects_nonpositive_entries(self):
        with pytest.raises(ValueError):
            AbcParams(4, 0, 2)

    def test_rejects_bool_letters(self):
        with pytest.raises(ValueError, match="b must be a positive integer"):
            AbcParams(3, True, 2)

    def test_is_hashable_value_type(self):
        assert AbcParams(3, 1, 2) == P312
        assert len({AbcParams(3, 1, 2), P312}) == 1


class TestValidateIndex:
    def test_accepts_empty_and_positive(self):
        assert validate_index(()) == ()
        assert validate_index((2, 1)) == (2, 1)

    def test_rejects_entry_below_one(self):
        with pytest.raises(ValueError):
            validate_index((0, 1))
        with pytest.raises(ValueError):
            validate_index((2, -3))

    def test_rejects_bool_entries(self):
        with pytest.raises(ValueError, match="got True"):
            validate_index((True, 2))


class TestShuffles:
    def test_empty_with_empty(self):
        assert shuffles((), ()) == {(): 1}

    def test_pair_with_single(self):
        assert shuffles((3, 1), (2,)) == {(3, 1, 2): 1, (3, 2, 1): 1, (2, 3, 1): 1}

    def test_identical_letters_carry_multiplicity(self):
        assert shuffles((2,), (2,)) == {(2, 2): 2}

    @given(short_index, short_index)
    def test_total_multiplicity_is_binomial(self, s1, s2):
        fam = shuffles(s1, s2)
        assert total_multiplicity(fam) == comb(len(s1) + len(s2), len(s1))

    @given(short_index, short_index)
    def test_symmetric_in_arguments(self, s1, s2):
        assert shuffles(s1, s2) == shuffles(s2, s1)

    @given(short_index, short_index)
    def test_every_word_preserves_lengths(self, s1, s2):
        for word in shuffles(s1, s2):
            assert len(word) == len(s1) + len(s2)
            assert sorted(word) == sorted(s1 + s2)


class TestFamilyI:
    def test_empty_family(self):
        assert index_family_I(0, 0, P312) == {(): 1}

    def test_one_pair_two_singles(self):
        expected = {
            (3, 1, 2, 2): 1,
            (3, 2, 1, 2): 1,
            (3, 2, 2, 1): 1,
            (2, 3, 1, 2): 1,
            (2, 3, 2, 1): 1,
            (2, 2, 3, 1): 1,
        }
        assert index_family_I(1, 2, P312) == expected

    def test_pure_single_run(self):
        assert index_family_I(0, 3, P312) == {(2, 2, 2): 1}

    @given(small_pq, small_pq)
    def test_total_multiplicity(self, p, q):
        fam = index_family_I(p, q, P312)
        assert total_multiplicity(fam) == comb(2 * p + q, q)
        assert total_multiplicity(fam) == expected_family_size(p, q)

    @given(small_pq, small_pq)
    def test_distinct_letters_give_multiplicity_one(self, p, q):
        for params in (P312, AbcParams(4, 2, 3), AbcParams(5, 1, 3)):
            fam = index_family_I(p, q, params)
            assert all(mult == 1 for mult in fam.values())

    @given(st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3))
    def test_erasing_singles_recovers_pair_pattern(self, p, q):
        # With pairwise-distinct letters, deleting every c leaves (a,b)^p.
        for params in (P312, AbcParams(4, 2, 3)):
            a, b, c = params.as_tuple()
            for word in index_family_I(p, q, params):
                assert tuple(x for x in word if x != c) == (a, b) * p
                assert sum(1 for x in word if x == c) == q

    def test_colliding_letters_accumulate_multiplicity(self):
        fam = index_family_I(1, 1, AbcParams(2, 2, 2))
        assert fam == {(2, 2, 2): 3}


class TestFamilyJ:
    def test_base_case_is_single_b(self):
        assert index_family_J(0, 0, P312) == {(1,): 1}

    def test_one_pair_one_single(self):
        expected = {(1, 3, 1, 2): 1, (1, 3, 2, 1): 1, (1, 2, 3, 1): 1, (2, 1, 3, 1): 1}
        assert index_family_J(1, 1, P312) == expected

    def test_no_pairs_one_single(self):
        assert index_family_J(0, 1, P312) == {(1, 2): 1, (2, 1): 1}

    @given(small_pq, small_pq)
    def test_total_multiplicity(self, p, q):
        fam = index_family_J(p, q, P312)
        assert total_multiplicity(fam) == comb(2 * p + q + 1, q)
        assert total_multiplicity(fam) == expected_family_size(p, q, with_prefix=True)

    @given(small_pq, small_pq)
    def test_word_lengths(self, p, q):
        assert all(len(w) == 2 * p + q + 1 for w in index_family_J(p, q, P312))
