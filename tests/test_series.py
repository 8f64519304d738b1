"""Generating series: truncated polynomial arithmetic and the matrix recursions."""

from fractions import Fraction

import pytest

from mzvsums.indices import AbcParams
from mzvsums.series import (
    BivarPoly,
    Mat2,
    UnivarPoly,
    check_star_factorization,
    check_symmetric_form,
    extract_s,
    extract_t,
    family_series,
    family_series_star,
    iter_family_series,
    iter_family_series_star,
    step_matrix,
    step_matrix_star,
    zeta_run_poly,
    zeta_star_run_poly,
)
from mzvsums.zeta import (
    ZetaCache,
    s_direct,
    s_star_direct,
    t_direct,
    t_star_direct,
    zeta_star_trunc,
    zeta_trunc,
)

P312 = AbcParams(3, 1, 2)
ALL_PARAMS = [P312, AbcParams(4, 2, 3), AbcParams(5, 1, 3), AbcParams(5, 3, 4), AbcParams(2, 2, 2)]

F = Fraction


def bp(coeffs, bx, by):
    return BivarPoly({k: F(v) for k, v in coeffs.items()}, bx, by)


class TestBivarPoly:
    def test_product_within_bound(self):
        one_plus_x = bp({(0, 0): 1, (1, 0): 1}, 2, 0)
        one_minus_x = bp({(0, 0): 1, (1, 0): -1}, 2, 0)
        assert one_plus_x * one_minus_x == bp({(0, 0): 1, (2, 0): -1}, 2, 0)

    def test_product_truncates_at_bound(self):
        one_plus_x = bp({(0, 0): 1, (1, 0): 1}, 1, 0)
        one_minus_x = bp({(0, 0): 1, (1, 0): -1}, 1, 0)
        assert one_plus_x * one_minus_x == BivarPoly.one(1, 0)

    def test_zero_coefficients_are_dropped(self):
        poly = bp({(0, 0): 0, (1, 1): 2}, 2, 2)
        assert (0, 0) not in poly.coeffs
        assert poly.coeff(0, 0) == 0

    def test_mismatched_bounds_rejected(self):
        with pytest.raises(ValueError, match="bounds"):
            BivarPoly.one(2, 2) + BivarPoly.one(3, 2)
        with pytest.raises(ValueError, match="bounds"):
            BivarPoly.one(2, 2) * BivarPoly.one(2, 3)

    def test_flip_y_negates_odd_y_degrees(self):
        poly = bp({(0, 1): 3, (1, 2): 5}, 2, 2)
        assert poly.flip_y() == bp({(0, 1): -3, (1, 2): 5}, 2, 2)

    def test_reciprocal_inverts(self):
        poly = bp({(0, 0): 1, (0, 1): -1, (2, 0): F(1, 4)}, 3, 3)
        assert poly * poly.reciprocal() == BivarPoly.one(3, 3)

    def test_reciprocal_needs_unit_constant(self):
        with pytest.raises(ValueError):
            bp({(1, 0): 1}, 2, 2).reciprocal()

    def test_scalar_multiplication(self):
        poly = bp({(1, 1): 3}, 2, 2)
        assert poly * F(1, 3) == bp({(1, 1): 1}, 2, 2)


class TestUnivarPoly:
    def test_substitute_linear(self):
        one_plus_z = UnivarPoly([F(1), F(1)], 4)
        assert one_plus_z.subs_linear(1, -1, 2, 2) == bp({(0, 0): 1, (1, 0): 1, (0, 1): -1}, 2, 2)

    def test_substitute_expands_binomially(self):
        z_sq = UnivarPoly([F(0), F(0), F(1)], 4)
        expected = bp({(2, 0): 1, (1, 1): 2, (0, 2): 1}, 3, 3)
        assert z_sq.subs_linear(1, 1, 3, 3) == expected

    def test_geometric(self):
        geo = UnivarPoly.geometric(F(1, 2), 3)
        assert [geo.coeff(r) for r in range(4)] == [F(1), F(1, 2), F(1, 4), F(1, 8)]

    def test_flip_negates_odd_degrees(self):
        poly = UnivarPoly([F(1), F(2), F(3)], 2)
        assert poly.flip() == UnivarPoly([F(1), F(-2), F(3)], 2)


class TestRunSeries:
    def test_empty_products_are_one(self):
        assert zeta_run_poly(0, 2, 5) == UnivarPoly.one(5)
        assert zeta_star_run_poly(0, 2, 5) == UnivarPoly.one(5)

    def test_two_factor_product(self):
        poly = zeta_run_poly(2, 2, 2)
        assert [poly.coeff(r) for r in range(3)] == [F(1), F(5, 4), F(1, 4)]

    def test_two_factor_star_expansion(self):
        poly = zeta_star_run_poly(2, 2, 2)
        assert [poly.coeff(r) for r in range(3)] == [F(1), F(5, 4), F(21, 16)]

    def test_coefficients_are_constant_runs(self):
        cache = ZetaCache()
        for c in (2, 3):
            for m in range(9):
                h = zeta_run_poly(m, c, 6)
                hstar = zeta_star_run_poly(m, c, 6)
                for r in range(7):
                    assert h.coeff(r) == zeta_trunc((c,) * r, m, cache)
                    assert hstar.coeff(r) == zeta_star_trunc((c,) * r, m, cache)

    def test_inverse_relation(self):
        for m in range(11):
            h = zeta_run_poly(m, 2, 8)
            hstar = zeta_star_run_poly(m, 2, 8)
            assert hstar * h.flip() == UnivarPoly.one(8)


class TestFamilySeries:
    def test_base_case(self):
        f, g = family_series(0, P312, (3, 3))
        assert f == BivarPoly.one(3, 3)
        assert g == BivarPoly.zero(3, 3)
        fs, gs = family_series_star(0, P312, (3, 3))
        assert fs == BivarPoly.one(3, 3)
        assert gs == BivarPoly.zero(3, 3)

    def test_single_step_by_hand(self):
        f, g = family_series(1, P312, (3, 3))
        assert f == bp({(0, 0): 1, (0, 1): 1}, 3, 3)
        assert g == bp({(1, 0): 1}, 3, 3)

    def test_iterators_match_direct_constructors(self):
        it = iter_family_series(P312, (4, 4))
        its = iter_family_series_star(P312, (4, 4))
        for m in range(6):
            assert next(it) == family_series(m, P312, (4, 4))
            assert next(its) == family_series_star(m, P312, (4, 4))

    def test_coefficients_match_direct_sums(self):
        cache = ZetaCache()
        for m in range(7):
            f, g = family_series(m, P312, (5, 3))
            fs, gs = family_series_star(m, P312, (5, 3))
            for p in range(3):
                for q in range(4):
                    assert extract_s(f, p, q) == s_direct(p, q, m, P312, cache)
                    assert extract_s(fs, p, q) == s_star_direct(p, q, m, P312, cache)
                    if 2 * p + 1 <= 5:
                        assert extract_t(g, p, q) == t_direct(p, q, m, P312, cache)
                        assert extract_t(gs, p, q) == t_star_direct(p, q, m, P312, cache)

    def test_known_depth_two_coefficient(self):
        f, _ = family_series(2, P312, (4, 2))
        assert extract_s(f, 1, 0) == F(1, 8)  # zeta_2(3,1)

    def test_parity(self):
        for m in range(7):
            f, g = family_series(m, P312, (5, 4))
            fs, gs = family_series_star(m, P312, (5, 4))
            assert all(i % 2 == 0 for i, _ in f.coeffs)
            assert all(i % 2 == 0 for i, _ in fs.coeffs)
            assert all(i % 2 == 1 for i, _ in g.coeffs)
            assert all(i % 2 == 1 for i, _ in gs.coeffs)

    def test_extract_rejects_out_of_bounds(self):
        f, g = family_series(2, P312, (3, 3))
        with pytest.raises(ValueError):
            extract_s(f, 2, 0)
        with pytest.raises(ValueError):
            extract_t(g, 2, 0)


class TestStepMatrices:
    def test_star_step_is_literal_matrix_inverse(self):
        # V_l must invert [[1 - y/l^c, -x/l^a], [-x/l^b, 1 - y/l^c]]; this is
        # exactly the a+b=2c factorization step, checked by generic inversion.
        for params in ALL_PARAMS:
            a, b, c = params.as_tuple()
            for l in (1, 2, 3):
                forward = Mat2(
                    bp({(0, 0): 1, (0, 1): F(-1, l**c)}, 4, 4),
                    bp({(1, 0): F(-1, l**a)}, 4, 4),
                    bp({(1, 0): F(-1, l**b)}, 4, 4),
                    bp({(0, 0): 1, (0, 1): F(-1, l**c)}, 4, 4),
                )
                assert forward.inverse() == step_matrix_star(l, params, 4, 4)

    def test_step_matrix_entries(self):
        mat = step_matrix(2, P312, 3, 3)
        assert mat.a == bp({(0, 0): 1, (0, 1): F(1, 4)}, 3, 3)
        assert mat.b == bp({(1, 0): F(1, 8)}, 3, 3)
        assert mat.c == bp({(1, 0): F(1, 2)}, 3, 3)
        assert mat.d == bp({(0, 0): 1, (0, 1): F(1, 4)}, 3, 3)

    def test_matmul_matches_apply(self):
        m1 = step_matrix(1, P312, 3, 3)
        m2 = step_matrix(2, P312, 3, 3)
        f, g = (m2 @ m1).apply(BivarPoly.one(3, 3), BivarPoly.zero(3, 3))
        assert (f, g) == family_series(2, P312, (3, 3))


class TestSeriesIdentities:
    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_star_factorization_small(self, params):
        for m in range(7):
            rep = check_star_factorization(m, params, (4, 4))
            assert rep.equal, f"m={m} mismatches={rep.mismatches}"

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_symmetric_form_small(self, params):
        for m in range(7):
            rep = check_symmetric_form(m, params, (4, 4))
            assert rep.equal, f"m={m} mismatches={rep.mismatches}"

    def test_single_step_symmetric_form_by_hand(self):
        # (1-y) expanded against (1+x-y)(1-x-y) reproduces F_1(x,-y) = 1-y.
        fs, _ = family_series_star(1, P312, (3, 3))
        h = zeta_run_poly(1, 2, 6)
        lhs = fs * h.subs_linear(1, -1, 3, 3) * h.subs_linear(-1, -1, 3, 3)
        assert lhs == bp({(0, 0): 1, (0, 1): -1}, 3, 3)

    def test_report_fields(self):
        rep = check_star_factorization(3, P312, (4, 4))
        assert rep.kind == "star-factorization"
        assert rep.m == 3
        assert rep.bounds == (4, 4)
        assert rep.mismatches == 0


class TestGridKernelsAgainstOracle:
    """The coefficient-grid kernels against the literal step matrices and run products."""

    BOXES = [(bx, by) for bx in range(5) for by in range(5)]

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_family_series_fold_the_step_matrices(self, params):
        for bx, by in self.BOXES:
            plain = star = (BivarPoly.one(bx, by), BivarPoly.zero(bx, by))
            for m in range(7):
                if m:
                    plain = step_matrix(m, params, bx, by).apply(*plain)
                    star = step_matrix_star(m, params, bx, by).apply(*star)
                assert family_series(m, params, (bx, by)) == plain, (bx, by, m)
                assert family_series_star(m, params, (bx, by)) == star, (bx, by, m)

    @pytest.mark.parametrize("params", ALL_PARAMS)
    def test_run_polys_are_the_explicit_products(self, params):
        c = params.c
        for bound in range(9):
            h = hstar = UnivarPoly.one(bound)
            for m in range(7):
                if m:
                    h = h * UnivarPoly([F(1), F(1, m**c)], bound)
                    hstar = hstar * UnivarPoly.geometric(F(1, m**c), bound)
                assert zeta_run_poly(m, c, bound) == h, (bound, m)
                assert zeta_star_run_poly(m, c, bound) == hstar, (bound, m)

    @pytest.mark.parametrize("iterate", [iter_family_series, iter_family_series_star])
    def test_yielded_pairs_do_not_change_when_the_iterator_advances(self, iterate):
        it = iterate(P312, (4, 4))
        pairs = [next(it) for _ in range(4)]
        snapshots = [(dict(f.coeffs), dict(g.coeffs)) for f, g in pairs]
        for _ in range(3):
            next(it)
        assert [(f.coeffs, g.coeffs) for f, g in pairs] == snapshots
        assert len({tuple(sorted(f.coeffs.items())) for f, _ in pairs}) == 4
