"""Generating series: truncated polynomial arithmetic and the matrix recursions."""

import itertools
from fractions import Fraction

import pytest
from oracles import Mat2, step_matrix, step_matrix_star

from mzvsums import series
from mzvsums.indices import AbcParams
from mzvsums.series import (
    BivarPoly,
    GridSweep,
    UnivarPoly,
    check_star_factorization,
    check_symmetric_form,
    extract_s,
    extract_t,
    family_series,
    family_series_star,
    iter_family_series,
    iter_family_series_star,
    star_factorization_sides,
    symmetric_form_sides,
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
SIX_PARAMS = ALL_PARAMS + [AbcParams(6, 2, 4)]

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

    @pytest.mark.parametrize("c", [-1, 0, True, 2.0, "2"])
    def test_run_polys_refuse_a_letter_that_is_not_a_positive_int(self, c):
        # Unchecked, c = -1 failed inside Fraction, c = 0 gave binomial coefficients and True ran as 1.
        for run_poly in (zeta_run_poly, zeta_star_run_poly):
            with pytest.raises(ValueError, match=f"letter c must be an integer >= 1, got {c!r}"):
                run_poly(3, c, 3)

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

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (-1, -1)])
    def test_extract_rejects_negative_p_or_q(self, p, q):
        f, g = family_series(5, P312, (4, 4))
        with pytest.raises(ValueError, match="p and q must be non-negative"):
            extract_s(f, p, q)
        with pytest.raises(ValueError, match="p and q must be non-negative"):
            extract_t(g, p, q)

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

    @pytest.mark.parametrize("params", SIX_PARAMS)
    def test_iterators_fold_the_step_matrices_across_prime_power_levels(self, params):
        # m runs to 32, so the scaled grids are rescaled at 8, 9, 16, 25, 27 and 32.
        for bx, by in itertools.product(range(4), repeat=2):
            plain = star = (BivarPoly.one(bx, by), BivarPoly.zero(bx, by))
            it, its = iter_family_series(params, (bx, by)), iter_family_series_star(params, (bx, by))
            for m in range(33):
                if m:
                    plain = step_matrix(m, params, bx, by).apply(*plain)
                    star = step_matrix_star(m, params, bx, by).apply(*star)
                assert next(it) == plain, (bx, by, m)
                assert next(its) == star, (bx, by, m)


class TestGridSweep:
    """One engine advances a check's plain and star grids together over ascending cutoffs."""

    @pytest.mark.parametrize("params", [P312, AbcParams(5, 3, 4)])
    @pytest.mark.parametrize("bounds", [(4, 4), (2, 6)])
    def test_each_level_equals_a_fresh_sweep(self, params, bounds):
        sweep = GridSweep(params.as_tuple(), bounds)
        for m in range(41):
            assert sweep.at(m) == GridSweep(params.as_tuple(), bounds).at(m), m

    @pytest.mark.parametrize("star", [False, True])
    def test_row_zero_is_the_run_series_and_the_other_rows_are_the_family_series(self, star):
        bx, by = 3, 2
        run_poly = zeta_star_run_poly if star else zeta_run_poly
        pair = family_series_star if star else family_series
        for m in range(12):
            (grid,), lcm = GridSweep(P312.as_tuple(), (bx, by), (star,)).at(m)
            assert [F(v, lcm ** (2 * r)) for r, v in enumerate(grid[0])] == [
                run_poly(m, 2, bx + by).coeff(r) for r in range(bx + by + 1)]
            assert [len(row) for row in grid] == [bx + by + 1] + [by + 1] * bx
            f, g = pair(m, P312, (bx, by))
            for i, row in enumerate(grid):
                assert [F(v, lcm ** series._weight(P312.as_tuple(), i, j)) for j, v in enumerate(row[: by + 1])] == [
                    (g if i % 2 else f).coeff(i, j) for j in range(by + 1)]

    def test_refuses_a_lower_or_negative_cutoff(self):
        sweep = GridSweep(P312.as_tuple(), (2, 2))
        sweep.at(5)
        assert sweep.at(5)[1] == 60
        with pytest.raises(ValueError, match="cutoffs must ascend"):
            sweep.at(4)
        with pytest.raises(ValueError, match="cutoff m must be non-negative"):
            GridSweep(P312.as_tuple(), (2, 2)).at(-1)

    @pytest.mark.parametrize("check", [check_star_factorization, check_symmetric_form])
    def test_checks_refuse_a_sweep_of_other_letters_or_box(self, check):
        for sweep in (GridSweep((4, 2, 3), (4, 4)), GridSweep(P312.as_tuple(), (4, 3)),
                      GridSweep(P312.as_tuple(), (4, 4), (True, False))):
            with pytest.raises(ValueError, match="letters or box"):
                check(3, P312, (4, 4), sweep=sweep)
        assert check(3, P312, (4, 4), sweep=GridSweep(P312.as_tuple(), (4, 4))).equal


def literal_mismatches(kind: str, m: int, params: AbcParams, bounds) -> int:
    """The mismatch count of a series check, read off the public literal BivarPoly sides."""
    bx, by = bounds
    f, _ = family_series(m, params, bounds)
    fstar, _ = family_series_star(m, params, bounds)
    h = zeta_run_poly(m, params.c, bx + by)
    hstar = zeta_star_run_poly(m, params.c, bx + by)
    if kind == "star-factorization":
        lhs, rhs = star_factorization_sides(f, fstar, hstar)
        extra = 0
    else:
        lhs, rhs = symmetric_form_sides(f, fstar, h)
        extra = int(hstar * h.flip() != UnivarPoly.one(bx + by))
    return extra + sum(lhs.coeff(*k) != rhs.coeff(*k) for k in set(lhs.coeffs) | set(rhs.coeffs))


CHECKS = [check_star_factorization, check_symmetric_form]


class TestChecksAgainstLiteralSides:
    """The integer-grid checks against the literal BivarPoly sides they replace."""

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("params", SIX_PARAMS)
    def test_mismatch_counts_match_the_literal_sides(self, params, check):
        for bx, by in itertools.product(range(7), repeat=2):
            for m in sorted({(3 * bx + 5 * by) % 21, 20 - bx - by}):
                rep = check(m, params, (bx, by))
                assert rep.mismatches == literal_mismatches(rep.kind, m, params, (bx, by)), (bx, by, m)
                assert rep.equal == (rep.mismatches == 0)

    @staticmethod
    def perturb(monkeypatch, star, cell, m):
        """Make ``series._grids`` add 1 to one cell of its plain or star grids at cutoff m.

        Row 0 is the run series of the letter c, so a row-0 cell is perturbed in
        every grid of that c that holds it, the run polynomials' grids included;
        a cell of a higher row only in the grids of P312.
        """
        original = series._grids
        i, j = cell

        def grids(exps, bounds, stars):
            hit = exps == P312.as_tuple() or (i == 0 and exps[2] == P312.c)
            for t, (grids_, lcm) in enumerate(original(exps, bounds, stars)):
                if t == m and hit:
                    grids_ = tuple([row[:] for row in grid] for grid in grids_)
                    for grid, s in zip(grids_, stars):
                        if s == star and i < len(grid) and j < len(grid[i]):
                            grid[i][j] += 1
                yield grids_, lcm

        monkeypatch.setattr(series, "_grids", grids)

    @pytest.mark.parametrize("check", CHECKS)
    @pytest.mark.parametrize("cell", [(0, 0), (0, 3), (2, 1), (4, 4)])
    def test_a_cell_off_by_one_in_the_star_grid_is_flagged(self, monkeypatch, check, cell):
        self.perturb(monkeypatch, True, cell, 9)
        rep = check(9, P312, (4, 4))
        assert rep.equal is False
        assert rep.mismatches == literal_mismatches(rep.kind, 9, P312, (4, 4)) > 0
        assert check(8, P312, (4, 4)).equal and check(10, P312, (4, 4)).equal

    @pytest.mark.parametrize("star", [False, True])
    @pytest.mark.parametrize("r", [0, 1, 5, 8])
    def test_a_run_series_coefficient_off_by_one_is_flagged(self, monkeypatch, star, r):
        self.perturb(monkeypatch, star, (0, r), 9)
        rep = check_symmetric_form(9, P312, (4, 4))
        assert rep.equal is False
        assert rep.mismatches == literal_mismatches(rep.kind, 9, P312, (4, 4)) > 0

    @pytest.mark.parametrize("check, cells", [(check_star_factorization, 15), (check_symmetric_form, 16)])
    @pytest.mark.parametrize("params", [P312, AbcParams(5, 3, 4)])
    def test_both_grids_times_seven_are_flagged_on_every_cell(self, monkeypatch, check, cells, params):
        """Every cell of both grids at cutoff 9 times 7: the checks compare values, not only consistency.

        F* is compared with a product of three grids, F and the run series twice, so a common
        factor 7 on one side meets 7**3 on the other, on all 15 compared cells of box (4, 4) (and on
        the run-series inverse of the symmetric form).  A per-level design, which compares the star
        grid cell by cell with a mirror grid advanced beside it by the other kernel, is linear in
        the grids and passes such a common scale.
        """
        original = series._grids

        def grids(exps, bounds, stars):
            for t, (grids_, lcm) in enumerate(original(exps, bounds, stars)):
                if t == 9:
                    grids_ = tuple([[7 * v for v in row] for row in grid] for grid in grids_)
                yield grids_, lcm

        monkeypatch.setattr(series, "_grids", grids)
        assert check(9, params, (4, 4)).mismatches == cells
        assert check(8, params, (4, 4)).equal and check(10, params, (4, 4)).equal
