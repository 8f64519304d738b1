"""Closed forms: Bernoulli numbers, beta coefficients, pi-power formulas."""

import math
from fractions import Fraction

import pytest
from oracles import bernoulli_fraction_recurrence, bernoulli_from_zigzag, zigzag_numbers

from mzvsums import closedform
from mzvsums.closedform import (
    ConvergenceRow,
    PiCoefficient,
    _tangent_numbers,
    bernoulli,
    bernoulli_via_tangent,
    beta,
    converge_report,
    s_closed,
    s_star_closed,
)
from mzvsums.indices import AbcParams
from mzvsums.zeta import ZetaCache, decompositions, zeta_star_trunc

F = Fraction


class TestBernoulli:
    def test_anchor_values(self):
        assert bernoulli(0) == 1
        assert bernoulli(1) == F(-1, 2)
        assert bernoulli(2) == F(1, 6)
        assert bernoulli(4) == F(-1, 30)
        assert bernoulli(12) == F(-691, 2730)

    def test_odd_indices_vanish(self):
        assert all(bernoulli(n) == 0 for n in range(3, 41, 2))

    def test_even_signs_alternate(self):
        for r in range(1, 20):
            sign = 1 if r % 2 == 1 else -1
            assert sign * bernoulli(2 * r) > 0

    def test_two_methods_agree(self):
        for n in range(41):
            assert bernoulli(n) == bernoulli_via_tangent(n)

    def test_kernels_agree_with_both_oracles(self):
        zigzag = zigzag_numbers(299)
        for n in range(301):
            expected = bernoulli_fraction_recurrence(n)
            assert bernoulli_from_zigzag(n, zigzag) == expected, n
            assert bernoulli(n) == expected, n
            assert bernoulli_via_tangent(n) == expected, n

    def test_tangent_numbers_are_the_odd_zigzag_numbers(self):
        assert _tangent_numbers(150) == zigzag_numbers(299)[1::2]

    def test_von_staudt_clausen(self):
        # B_2k + sum of 1/p over the primes p with (p - 1) | 2k is an integer.
        primes = [p for p in range(2, 602) if all(p % d for d in range(2, math.isqrt(p) + 1))]
        for n in range(2, 601, 2):
            total = bernoulli(n) + sum(F(1, p) for p in primes if n % (p - 1) == 0)
            assert total.denominator == 1, n

    def test_extending_the_memo_rescales_earlier_values(self, monkeypatch):
        monkeypatch.setattr(closedform, "_SCALED_BERNOULLI", [1])  # a fresh memo, grown one n at a time
        small = [bernoulli(n) for n in range(61)]
        assert small == [bernoulli_fraction_recurrence(n) for n in range(61)]
        assert bernoulli(400) == bernoulli_via_tangent(400)
        assert [bernoulli(n) for n in range(61)] == small

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bernoulli(-1)
        with pytest.raises(ValueError):
            bernoulli_via_tangent(-2)


class TestBeta:
    def test_empty_run_normalization(self):
        assert beta(0) == 1

    def test_first_values(self):
        assert beta(1) == F(1, 6)
        assert beta(2) == F(7, 360)

    def test_matches_truncated_star_runs_numerically(self):
        # beta_r is the limit of zeta*_m({2}^r) / pi^(2r); loose check at m=2000.
        cache = ZetaCache()
        cache.fill([(2,) * r for r in (1, 2, 3)], 2000, True)  # one set; one word at a time refills the shared chain
        for r in (1, 2, 3):
            truncated = float(zeta_star_trunc((2,) * r, 2000, cache)) / math.pi ** (2 * r)
            assert abs(truncated - float(beta(r))) < 0.01 * float(beta(r))

    def test_matches_its_formula_on_the_oracle_bernoulli_numbers(self):
        for r in range(151):
            sign = 1 if r % 2 == 1 else -1
            expected = F((2 ** (2 * r) - 2) * sign) * bernoulli_fraction_recurrence(2 * r) / math.factorial(2 * r)
            assert beta(r) == expected, r

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            beta(-1)


class TestPiCoefficient:
    def test_rendering(self):
        assert str(PiCoefficient(F(1, 360), 4)) == "1/360 * pi^4"
        assert str(PiCoefficient(F(1), 0)) == "1/1"

    def test_float_value(self):
        coeff = PiCoefficient(F(1, 6), 2)
        assert abs(float(coeff) - math.pi**2 / 6) < 1e-12

    def test_float_past_the_float_range_of_pi_power(self):
        # pi^640 overflows a float, but the value itself is about 1e-1220.
        assert float(s_closed(160, 0)) == 0.0
        # pi^620 / 10^300 is about 2.7e8: both factors are out of range, the product is not.
        assert float(PiCoefficient(F(1, 10**300), 620)) == pytest.approx(math.pi**310 * (math.pi**310 / 1e300))
        assert float(PiCoefficient(F(-(10**400)), 2)) == -math.inf


class TestClosedForms:
    def test_pure_run_value(self):
        got = s_closed(0, 1)
        assert (got.rational, got.pi_power) == (F(1, 6), 2)

    def test_pure_pair_value(self):
        got = s_closed(1, 0)
        assert (got.rational, got.pi_power) == (F(1, 360), 4)

    def test_mixed_value(self):
        got = s_closed(1, 1)
        assert (got.rational, got.pi_power) == (F(1, 5040), 6)

    def test_star_trivial(self):
        got = s_star_closed(0, 0)
        assert (got.rational, got.pi_power) == (F(1), 0)

    def test_star_pure_runs_reduce_to_beta(self):
        for q in range(6):
            got = s_star_closed(0, q)
            assert got.rational == beta(q)
            assert got.pi_power == 2 * q

    def test_star_run_pair(self):
        assert s_star_closed(0, 2).rational == F(7, 360)
        assert s_star_closed(1, 0).rational == F(1, 72)

    def test_star_reassembles_from_plain_closed_form(self):
        # Refactoring guard: the same summation assembled from s_closed and
        # beta must reproduce s_star_closed term for term.
        for p in range(5):
            for q in range(3):
                total = F(0)
                for i, k, u, j, l, v in decompositions(p, q):
                    weight = F((-1) ** (j + k) * math.comb(k + l, k) * math.comb(u + v, u))
                    total += weight * s_closed(i, j).rational * beta(k + l) * beta(u + v)
                assert total == s_star_closed(p, q).rational

    def test_rejects_negative_arguments(self):
        with pytest.raises(ValueError):
            s_closed(-1, 0)
        with pytest.raises(ValueError):
            s_star_closed(0, -2)


class TestConvergeReport:
    def test_zero_case_has_no_error(self):
        rows = converge_report(0, 0, [1, 2])
        assert all(row.abs_error == 0 for row in rows)

    def test_errors_shrink(self):
        rows = converge_report(0, 1, [10, 100, 1000])
        errors = [row.abs_error for row in rows]
        assert errors[0] > errors[1] > errors[2]
        assert all(isinstance(row, ConvergenceRow) for row in rows)

    def test_closed_column_is_constant(self):
        rows = converge_report(1, 0, [5, 10])
        assert rows[0].closed_form == rows[1].closed_form == pytest.approx(1 / 72)

    def test_rejects_other_letter_triples(self):
        with pytest.raises(ValueError, match="closed forms"):
            converge_report(0, 1, [5, 10], AbcParams(4, 2, 3))

    def test_rejects_bad_schedules(self):
        with pytest.raises(ValueError):
            converge_report(0, 1, [10, 5])
        with pytest.raises(ValueError):
            converge_report(0, 1, [])
        with pytest.raises(ValueError):
            converge_report(0, 1, [-3, 5])

    def test_rejects_a_pi_power_outside_the_float_range(self):
        with pytest.raises(ValueError, match=r"pi\^640 is outside the float range"):
            converge_report(160, 0, [1, 2])

    def test_shared_cache_matches_fresh(self):
        cache = ZetaCache()
        with_cache = converge_report(1, 1, [20, 40], cache=cache)
        fresh = converge_report(1, 1, [20, 40])
        assert [r.truncated_over_pi_power for r in with_cache] == [
            r.truncated_over_pi_power for r in fresh
        ]
