"""Quasi-shuffle algebra: product, star expansion, evaluation homomorphisms."""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import zeta_star_trunc_naive, zeta_trunc_naive

from mzvsums import harmonic, zeta
from mzvsums.harmonic import (
    HPoly,
    harmonic_mul,
    star_expand,
    verify_identity_s_symbolic,
    verify_identity_t_symbolic,
    word_sum_s,
    word_sum_t,
    z_eval,
    z_star_eval,
)
from mzvsums.indices import AbcParams, index_family_I, index_family_J
from mzvsums.zeta import (
    ZetaCache,
    decompositions,
    identity_terms,
    s_star_direct,
    t_star_direct,
    verify_identity_s,
    verify_identity_t,
    zeta_star_trunc,
    zeta_trunc,
)

P312 = AbcParams(3, 1, 2)
P423 = AbcParams(4, 2, 3)

word_st = st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=4).map(
    lambda letters: HPoly.word(tuple(letters))
)
short_word_st = st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=3).map(
    lambda letters: HPoly.word(tuple(letters))
)


def w(*letters):
    return HPoly.word(letters)


class TestHPoly:
    def test_unit_and_zero(self):
        assert HPoly.unit() == w()
        assert not HPoly.zero()
        assert HPoly.unit() != HPoly.zero()

    def test_addition_merges_terms(self):
        assert w(2) + w(2) == w(2) * 2

    def test_cancellation_drops_terms(self):
        assert w(2) - w(2) == HPoly.zero()

    def test_len_counts_distinct_words(self):
        assert len(w(2) + w(3) + w(2)) == 2

    def test_repr_is_readable(self):
        assert repr(w(2, 3)) == "z2*z3"

    def test_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            HPoly.word((0, 2))

    @pytest.mark.parametrize("word", [(0,), (2, -1), (2, 1.0), (True,)])
    def test_constructor_rejects_invalid_words(self, word):
        with pytest.raises(ValueError):
            HPoly({word: 1})

    @pytest.mark.parametrize("coeff", [0.1, "1/3", True, 1.0])
    def test_constructor_rejects_inexact_coefficients(self, coeff):
        with pytest.raises(TypeError):
            HPoly({(2,): coeff})

    def test_constructor_keeps_exact_coefficients(self):
        assert HPoly({(2,): Fraction(1, 3), (3,): 2, (4,): 0}).terms == {(2,): Fraction(1, 3), (3,): 2}


class TestHarmonicMul:
    def test_unit_is_neutral(self):
        u = w(3, 1) + w(2)
        assert harmonic_mul(u, HPoly.unit()) == u
        assert harmonic_mul(HPoly.unit(), u) == u

    def test_square_of_generator(self):
        assert harmonic_mul(w(1), w(1)) == w(1, 1) * 2 + w(2)

    def test_two_generators(self):
        assert harmonic_mul(w(2), w(3)) == w(2, 3) + w(3, 2) + w(5)

    def test_depth_two_against_hand_expansion(self):
        got = harmonic_mul(w(2), w(2, 1))
        expected = w(2, 2, 1) * 2 + w(2, 1, 2) + w(4, 1) + w(2, 3)
        assert got == expected

    @given(word_st, word_st)
    @settings(max_examples=120, deadline=None)
    def test_commutative(self, u, v):
        assert harmonic_mul(u, v) == harmonic_mul(v, u)

    @given(short_word_st, short_word_st, short_word_st)
    @settings(max_examples=60, deadline=None)
    def test_associative(self, u, v, x):
        assert harmonic_mul(harmonic_mul(u, v), x) == harmonic_mul(u, harmonic_mul(v, x))

    @given(word_st, word_st, word_st)
    @settings(max_examples=60, deadline=None)
    def test_distributes_over_addition(self, u, v, x):
        assert harmonic_mul(u + v, x) == harmonic_mul(u, x) + harmonic_mul(v, x)


class TestStarExpand:
    def test_unit_fixed(self):
        assert star_expand(HPoly.unit()) == HPoly.unit()

    def test_single_letter_fixed(self):
        assert star_expand(w(3)) == w(3)

    def test_depth_two(self):
        assert star_expand(w(3, 1)) == w(3, 1) + w(4)

    def test_depth_three(self):
        assert star_expand(w(2, 2, 2)) == w(2, 2, 2) + w(4, 2) + w(2, 4) + w(6)

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=6))
    @settings(max_examples=80)
    def test_term_count_is_power_of_two(self, letters):
        expanded = star_expand(HPoly.word(tuple(letters)))
        total = sum(expanded.terms.values())
        assert total == 2 ** (len(letters) - 1)

    def test_linear(self):
        u, v = w(2, 1), w(3, 3)
        assert star_expand(u + v * 2) == star_expand(u) + star_expand(v) * 2


class TestEvaluation:
    def test_unit_evaluates_to_one(self):
        assert z_eval(HPoly.unit(), 7) == 1
        assert z_star_eval(HPoly.unit(), 0) == 1

    def test_word_evaluates_to_truncated_zeta(self):
        assert z_eval(w(2, 1), 2) == zeta_trunc((2, 1), 2)

    def test_star_eval_matches_star_zeta(self):
        assert z_star_eval(w(2, 2), 2) == Fraction(21, 16)

    def test_homomorphism_example(self):
        prod = harmonic_mul(w(2), w(3))
        assert z_eval(prod, 4) == zeta_trunc((2,), 4) * zeta_trunc((3,), 4)

    @given(word_st, word_st, st.integers(min_value=0, max_value=20))
    @settings(max_examples=120, deadline=None)
    def test_homomorphism_property(self, u, v, m):
        cache = ZetaCache()
        lhs = z_eval(harmonic_mul(u, v), m, cache)
        rhs = z_eval(u, m, cache) * z_eval(v, m, cache)
        assert lhs == rhs

    def test_star_expansion_consistent_with_star_zeta_exhaustively(self):
        # Ties the symbolic star expansion to the weak-inequality sums for
        # every index of length <= 4 with entries <= 4 and every m <= 12.
        cache = ZetaCache()
        for n in range(1, 5):
            for k in itertools.product(range(1, 5), repeat=n):
                expanded = star_expand(HPoly.word(k))
                for m in range(13):
                    assert z_eval(expanded, m, cache) == zeta_star_trunc(k, m, cache)


class TestEvaluationOracle:
    """z_eval / z_star_eval against per-word brute-force enumeration, summed in Fraction arithmetic."""

    POLYS = [
        HPoly.zero(),
        HPoly.unit(),
        HPoly({(): Fraction(-2, 3)}),
        # mixed weights 0..5, Fraction and negative coefficients
        HPoly({(): 3, (2,): Fraction(-1, 3), (1, 2): 5, (3, 1, 1): Fraction(7, 2), (1,): -4}),
        # one weight, coefficients summing to zero
        HPoly({(2, 1): 1, (1, 2): -1, (3,): Fraction(1, 2), (1, 1, 1): Fraction(-1, 2)}),
        # mixed weights, coefficients summing to zero, the empty word among them
        HPoly({(): 2, (1,): -3, (2, 1): Fraction(1, 2), (4,): Fraction(5, 7), (2, 2, 1): Fraction(-3, 14)}),
    ]

    @pytest.mark.parametrize("u", POLYS, ids=repr)
    def test_matches_the_per_word_naive_sums(self, u):
        cache = ZetaCache()
        for m in range(7):
            strict = sum((c * zeta_trunc_naive(k, m) for k, c in u.terms.items()), Fraction(0))
            star = sum((c * zeta_star_trunc_naive(k, m) for k, c in u.terms.items()), Fraction(0))
            for got, want in ((z_eval(u, m), strict), (z_eval(u, m, cache), strict),
                              (z_star_eval(u, m), star), (z_star_eval(u, m, cache), star)):
                assert type(got) is Fraction and got == want, (m, got, want)


class TestWordSums:
    def test_empty_family_is_unit(self):
        assert word_sum_s(0, 0, P312) == HPoly.unit()

    def test_known_family(self):
        assert word_sum_s(1, 1, P312) == w(3, 1, 2) + w(3, 2, 1) + w(2, 3, 1)

    def test_prefixed_base_family(self):
        assert word_sum_t(0, 0, P312) == w(1)

    def test_collision_multiplicities(self):
        assert word_sum_s(1, 1, AbcParams(2, 2, 2)) == w(2, 2, 2) * 3

    def test_star_eval_of_family_matches_direct_sums(self):
        cache = ZetaCache()
        for p in range(3):
            for q in range(3):
                su = word_sum_s(p, q, P312)
                tu = word_sum_t(p, q, P312)
                for m in range(11):
                    assert z_star_eval(su, m, cache) == s_star_direct(p, q, m, P312, cache)
                    assert z_star_eval(tu, m, cache) == t_star_direct(p, q, m, P312, cache)


class TestSymbolicIdentities:
    def test_trivial_case(self):
        rep = verify_identity_s_symbolic(0, 0, P312)
        assert rep.equal and rep.lhs_terms == 1 and rep.rhs_terms == 1

    def test_single_c_case_collapses(self):
        rep = verify_identity_s_symbolic(0, 1, P312)
        assert rep.equal
        assert rep.lhs_terms == 1  # S(z_c) = z_c

    @pytest.mark.parametrize("params", [P312, P423])
    def test_one_pair_one_single(self, params):
        assert verify_identity_s_symbolic(1, 1, params).equal
        assert verify_identity_t_symbolic(1, 1, params).equal

    def test_report_counts_terms(self):
        rep = verify_identity_t_symbolic(1, 0, P312)
        assert rep.equal
        assert rep.lhs_terms == rep.rhs_terms > 0


class TestInjectivityProbe:
    def test_distinct_elements_separate_at_small_cutoff(self):
        # Not a proof of injectivity: a sanity probe that evaluation
        # distinguishes a fixed list of unequal normal forms for some m <= 50.
        pairs = [
            (w(2, 1), w(1, 2)),
            (w(3), w(2, 1)),
            (w(1, 1), w(2)),
            (w(4), w(2, 2)),
            (w(2, 2, 2), w(6)),
            (w(3, 1) + w(4), w(2, 2) * 2),
        ]
        for u, v in pairs:
            assert any(z_eval(u, m) != z_eval(v, m) for m in range(51)), (u, v)


ACCEPTANCE_TRIPLES = [P312, P423, AbcParams(5, 1, 3), AbcParams(5, 3, 4), AbcParams(2, 2, 2)]


def _abc_id(params):
    return ",".join(map(str, params.as_tuple()))


def _per_row_symbolic(p, q, params, family):
    """Test-only oracle: one harmonic_mul per ``decompositions`` row, on Fraction coefficients.

    Returns (lhs_terms, rhs_terms, equal) as a WordIdentityReport states them.
    """

    def word_sum(i, j):
        return HPoly({word: Fraction(n) for word, n in family(i, j, params).items()})

    lhs = star_expand(word_sum(p, q))
    star_runs = {r: star_expand(HPoly({(params.c,) * r: Fraction(1)})) for r in range(2 * p + q + 1)}
    rhs = HPoly.zero()
    for i, k, u, j, l, v in decompositions(p, q):
        weight = (-1) ** (j + k) * math.comb(k + l, k) * math.comb(u + v, u)
        rhs = rhs + weight * harmonic_mul(word_sum(i, j), harmonic_mul(star_runs[k + l], star_runs[u + v]))
    return len(lhs), len(rhs), lhs == rhs


def _one_weight_off_by_one(groups):
    """Copies of the grouped ``identity_terms``, each with one weight raised by one."""
    for g, (i, j, pairs) in enumerate(groups):
        for n in range(len(pairs)):
            bumped = tuple((w + (k == n), r1, r2) for k, (w, r1, r2) in enumerate(pairs))
            yield groups[:g] + ((i, j, bumped),) + groups[g + 1:]


class TestGroupedSymbolicCheck:
    # (6,2,4) is a triple no other test uses.
    @pytest.mark.parametrize("params", ACCEPTANCE_TRIPLES + [AbcParams(6, 2, 4)], ids=_abc_id)
    @pytest.mark.parametrize(
        "check, family",
        [(verify_identity_s_symbolic, index_family_I), (verify_identity_t_symbolic, index_family_J)],
        ids=["s", "t"],
    )
    def test_matches_the_per_row_oracle(self, check, family, params):
        for p in range(3):
            for q in range(4):
                rep = check(p, q, params)
                assert (rep.lhs_terms, rep.rhs_terms, rep.equal) == _per_row_symbolic(p, q, params, family), (p, q)

    @pytest.mark.parametrize("p, q", [(2, 1), (1, 2)])
    def test_a_weight_off_by_one_in_any_group_is_caught(self, monkeypatch, p, q):
        # The word route, and the zeta route at a cutoff where every family sum is non-zero.
        m = 2 * p + q + 1
        cache = ZetaCache()
        mutations = list(_one_weight_off_by_one(identity_terms(p, q)))
        assert len(mutations) == sum(len(pairs) for _, _, pairs in identity_terms(p, q)) > 0
        for bad in mutations:
            for module in (harmonic, zeta):
                monkeypatch.setattr(module, "identity_terms", lambda p_, q_, bad=bad: bad)
            assert verify_identity_s_symbolic(p, q, P312).equal is False, bad
            assert verify_identity_t_symbolic(p, q, P312).equal is False, bad
            assert verify_identity_s(p, q, m, P312, cache).equal is False, bad
            assert verify_identity_t(p, q, m, P312, cache).equal is False, bad

    @pytest.mark.parametrize("params", ACCEPTANCE_TRIPLES, ids=_abc_id)
    def test_weight_nine_cells_hold_exactly(self, params):
        for check in (verify_identity_s_symbolic, verify_identity_t_symbolic):
            rep = check(3, 3, params)
            assert rep.equal and rep.lhs_terms == rep.rhs_terms > 0


valid_letters = st.integers(min_value=2, max_value=6).flatmap(
    lambda c: st.integers(min_value=2, max_value=2 * c - 1).map(lambda a: AbcParams(a, 2 * c - a, c))
)


class TestStarFamily:
    """The block recursion for the star image of a family against the word-by-word star expansion."""

    @pytest.mark.parametrize("params", ACCEPTANCE_TRIPLES + [AbcParams(6, 2, 4)], ids=_abc_id)
    def test_matches_the_star_expansion_of_the_shuffles(self, params):
        memo = {}
        for p in range(5):
            for q in range(5 - p):
                assert harmonic._star_family(params, 0, 2 * p, q, {}) == harmonic._star_terms(
                    index_family_I(p, q, params), memo), ("I", p, q)
                assert harmonic._star_family(params, 1, 2 * p + 1, q, {}) == harmonic._star_terms(
                    index_family_J(p, q, params), memo), ("J", p, q)

    @settings(max_examples=40, deadline=None)
    @given(params=valid_letters, p=st.integers(min_value=0, max_value=2), q=st.integers(min_value=0, max_value=3))
    def test_matches_on_any_valid_letters(self, params, p, q):
        assert harmonic._star_family(params, 0, 2 * p, q, {}) == star_expand(word_sum_s(p, q, params)).terms
        assert harmonic._star_family(params, 1, 2 * p + 1, q, {}) == star_expand(word_sum_t(p, q, params)).terms

    def test_memo_holds_one_result_per_state_and_budgets(self):
        # J(2, 1): the a/b budget left fixes the state, so eleven (state, x, y) entries.
        memo = {}
        harmonic._star_family(P312, 1, 5, 1, memo)
        assert sorted(memo) == sorted((x % 2, x, y) for x in range(6) for y in range(2) if x or y)

    def test_blocks_by_hand(self):
        # I(1, 1) on (3, 1, 2): the words 3 1 2, 3 2 1, 2 3 1 and their merges.
        assert harmonic._star_family(P312, 0, 2, 1, {}) == {
            (3, 1, 2): 1, (3, 2, 1): 1, (2, 3, 1): 1,
            (4, 2): 1, (3, 3): 2, (5, 1): 2, (2, 4): 1, (6,): 3,
        }
        # J(0, 1): the words 1 2 and 2 1, and the merge 3 twice.
        assert harmonic._star_family(P312, 1, 1, 1, {}) == {(1, 2): 1, (2, 1): 1, (3,): 2}
