"""Truncated polynomial arithmetic and the 2x2 generating-series recursions.

The family sums of :mod:`mzvsums.zeta` are the coefficients of two pairs of
bivariate series.  Writing ``F`` for the series with ``s(p, q)`` at
``x^(2p) y^q`` and ``G`` for the one with ``t(p, q)`` at ``x^(2p+1) y^q``
(similarly ``F*``, ``G*`` for the star sums), the cutoff-m series arise from
the column vector (1, 0) by applying one 2x2 matrix per level l = 1..m:

    step l (plain): [[1 + y/l^c, x/l^a], [x/l^b, 1 + y/l^c]]
    step l (star):  the inverse of M_l = [[1 - y/l^c, -x/l^a], [-x/l^b, 1 - y/l^c]]

The series are truncated to a (bound_x, bound_y) degree box and computed as
one dense grid: row i holds the x^i coefficients of F (even i) or G (odd i).
Both steps are the recurrence ``H[i][j] += H[i][j-1]/l^c + H[i-1][j]/l^e``
(e = a for even i, b for odd i).  Run in decreasing (i, j) it reads old
coefficients and applies the plain step; run in increasing (i, j) it reads
the new ones and so solves M_l v_l = v_(l-1), which is triangular in degree
order.  The run series ``zeta_run_poly`` / ``zeta_star_run_poly``, whose
coefficients are the values of constant indices (c, ..., c), are the x^0 row
of such a grid with bound_x = 0.  ``step_matrix``, ``step_matrix_star`` and
``Mat2`` build the steps literally (the star prefactor as truncated geometric
series); they are kept as the oracle for the recurrence, off the hot path.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .indices import AbcParams

__all__ = [
    "BivarPoly",
    "Mat2",
    "SeriesIdentityReport",
    "UnivarPoly",
    "check_star_factorization",
    "check_symmetric_form",
    "extract_s",
    "extract_t",
    "family_series",
    "family_series_star",
    "iter_family_series",
    "iter_family_series_star",
    "star_factorization_sides",
    "step_matrix",
    "step_matrix_star",
    "symmetric_form_sides",
    "zeta_run_poly",
    "zeta_star_run_poly",
]


class BivarPoly:
    """Bivariate polynomial in x, y with rational coefficients, truncated to a degree box.

    Coefficients with x-degree above ``bound_x`` or y-degree above ``bound_y``
    are dropped on construction and during arithmetic.  Zero coefficients are
    never stored, so ``==`` is structural comparison of the coefficient maps
    (bounds included; two polynomials truncated differently are different
    objects even if their stored terms agree).
    """

    __slots__ = ("coeffs", "bound_x", "bound_y")

    def __init__(self, coeffs, bound_x: int, bound_y: int):
        if bound_x < 0 or bound_y < 0:
            raise ValueError("truncation bounds must be non-negative")
        self.bound_x = bound_x
        self.bound_y = bound_y
        kept = {}
        for (i, j), v in coeffs.items():
            if i < 0 or j < 0:
                raise ValueError(f"negative degree ({i}, {j})")
            if i <= bound_x and j <= bound_y and v != 0:
                kept[(i, j)] = Fraction(v)
        self.coeffs = kept

    @classmethod
    def zero(cls, bound_x: int, bound_y: int) -> "BivarPoly":
        return cls({}, bound_x, bound_y)

    @classmethod
    def one(cls, bound_x: int, bound_y: int) -> "BivarPoly":
        return cls({(0, 0): 1}, bound_x, bound_y)

    def coeff(self, i: int, j: int) -> Fraction:
        return self.coeffs.get((i, j), Fraction(0))

    def _require_same_bounds(self, other: "BivarPoly") -> None:
        if (self.bound_x, self.bound_y) != (other.bound_x, other.bound_y):
            raise ValueError(
                f"truncation bounds differ: ({self.bound_x},{self.bound_y}) "
                f"vs ({other.bound_x},{other.bound_y})"
            )

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return NotImplemented
        return (
            self.coeffs == other.coeffs
            and (self.bound_x, self.bound_y) == (other.bound_x, other.bound_y)
        )

    def __hash__(self):
        return hash((frozenset(self.coeffs.items()), self.bound_x, self.bound_y))

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        self._require_same_bounds(other)
        out = dict(self.coeffs)
        for key, v in other.coeffs.items():
            out[key] = out.get(key, Fraction(0)) + v
        return BivarPoly(out, self.bound_x, self.bound_y)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({k: -v for k, v in self.coeffs.items()}, self.bound_x, self.bound_y)

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return BivarPoly(
                {k: v * other for k, v in self.coeffs.items()}, self.bound_x, self.bound_y
            )
        if not isinstance(other, BivarPoly):
            return NotImplemented
        self._require_same_bounds(other)
        bx, by = self.bound_x, self.bound_y
        out: dict[tuple[int, int], Fraction] = {}
        for (i1, j1), v1 in self.coeffs.items():
            for (i2, j2), v2 in other.coeffs.items():
                i, j = i1 + i2, j1 + j2
                if i > bx or j > by:
                    continue
                key = (i, j)
                out[key] = out.get(key, Fraction(0)) + v1 * v2
        return BivarPoly(out, bx, by)

    __rmul__ = __mul__

    def flip_y(self) -> "BivarPoly":
        """Substitute y -> -y."""
        return BivarPoly(
            {(i, j): v if j % 2 == 0 else -v for (i, j), v in self.coeffs.items()},
            self.bound_x,
            self.bound_y,
        )

    def reciprocal(self) -> "BivarPoly":
        """Truncated multiplicative inverse; requires a nonzero constant term.

        With f = c0 (1 - u) and u of positive total degree, 1/f is the
        geometric series (1/c0) sum u^k, which terminates below the box.
        """
        c0 = self.coeff(0, 0)
        if c0 == 0:
            raise ValueError("constant term is zero; no power-series inverse")
        u = BivarPoly.one(self.bound_x, self.bound_y) - self * (1 / c0)
        acc = BivarPoly.one(self.bound_x, self.bound_y)
        power = acc
        for _ in range(self.bound_x + self.bound_y):
            power = power * u
            if not power.coeffs:
                break
            acc = acc + power
        return acc * (1 / c0)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        parts = []
        for (i, j), v in sorted(self.coeffs.items()):
            mono = "*".join(
                ([f"x^{i}"] if i else []) + ([f"y^{j}"] if j else [])
            )
            parts.append(f"{v}" + (f"*{mono}" if mono else ""))
        return " + ".join(parts)


class UnivarPoly:
    """Univariate polynomial in z with rational coefficients, truncated at ``bound``."""

    __slots__ = ("coeffs", "bound")

    def __init__(self, coeffs, bound: int):
        if bound < 0:
            raise ValueError("truncation bound must be non-negative")
        self.bound = bound
        trimmed = [Fraction(v) for v in coeffs[: bound + 1]]
        while trimmed and trimmed[-1] == 0:
            trimmed.pop()
        self.coeffs = trimmed

    @classmethod
    def one(cls, bound: int) -> "UnivarPoly":
        return cls([Fraction(1)], bound)

    @classmethod
    def geometric(cls, ratio, bound: int) -> "UnivarPoly":
        """Truncated expansion of 1 / (1 - ratio*z)."""
        ratio = Fraction(ratio)
        return cls([ratio**r for r in range(bound + 1)], bound)

    def coeff(self, r: int) -> Fraction:
        return self.coeffs[r] if 0 <= r < len(self.coeffs) else Fraction(0)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UnivarPoly):
            return NotImplemented
        return self.coeffs == other.coeffs and self.bound == other.bound

    def __hash__(self):
        return hash((tuple(self.coeffs), self.bound))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UnivarPoly([v * other for v in self.coeffs], self.bound)
        if not isinstance(other, UnivarPoly):
            return NotImplemented
        if self.bound != other.bound:
            raise ValueError("truncation bounds differ")
        out = [Fraction(0)] * min(self.bound + 1, len(self.coeffs) + len(other.coeffs))
        for r1, v1 in enumerate(self.coeffs):
            if v1 == 0:
                continue
            for r2, v2 in enumerate(other.coeffs):
                r = r1 + r2
                if r > self.bound:
                    break
                out[r] += v1 * v2
        return UnivarPoly(out, self.bound)

    __rmul__ = __mul__

    def flip(self) -> "UnivarPoly":
        """Substitute z -> -z."""
        return UnivarPoly(
            [v if r % 2 == 0 else -v for r, v in enumerate(self.coeffs)], self.bound
        )

    def subs_linear(self, alpha, beta, bound_x: int, bound_y: int) -> BivarPoly:
        """Compose with a linear form: return self(alpha*x + beta*y) as a BivarPoly."""
        alpha, beta = Fraction(alpha), Fraction(beta)
        out: dict[tuple[int, int], Fraction] = {}
        for r, cr in enumerate(self.coeffs):
            if cr == 0:
                continue
            for s in range(r + 1):
                i, j = s, r - s
                if i > bound_x or j > bound_y:
                    continue
                term = cr * comb(r, s) * alpha**s * beta ** (r - s)
                if term:
                    out[(i, j)] = out.get((i, j), Fraction(0)) + term
        return BivarPoly(out, bound_x, bound_y)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            f"{v}" + (f"*z^{r}" if r else "")
            for r, v in enumerate(self.coeffs)
            if v != 0
        )


@dataclass(frozen=True)
class Mat2:
    """2x2 matrix of truncated bivariate polynomials sharing one degree box."""

    a: BivarPoly
    b: BivarPoly
    c: BivarPoly
    d: BivarPoly

    def __post_init__(self):
        bounds = {(e.bound_x, e.bound_y) for e in (self.a, self.b, self.c, self.d)}
        if len(bounds) != 1:
            raise ValueError("matrix entries must share truncation bounds")

    def apply(self, f: BivarPoly, g: BivarPoly) -> tuple[BivarPoly, BivarPoly]:
        """Multiply the column vector (f, g) on the left."""
        return self.a * f + self.b * g, self.c * f + self.d * g

    def __matmul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "Mat2":
        """Truncated-series inverse via the adjugate and the determinant reciprocal."""
        det = self.a * self.d - self.b * self.c
        r = det.reciprocal()
        return Mat2(self.d * r, -self.b * r, -self.c * r, self.a * r)


def _xy_entries(l: int, params: AbcParams, bx: int, by: int, diag_sign: int):
    inv_c = Fraction(1, l**params.c)
    diag = BivarPoly({(0, 0): 1, (0, 1): diag_sign * inv_c}, bx, by)
    upper = BivarPoly({(1, 0): Fraction(1, l**params.a)}, bx, by)
    lower = BivarPoly({(1, 0): Fraction(1, l**params.b)}, bx, by)
    return diag, upper, lower


def step_matrix(l: int, params: AbcParams, bound_x: int, bound_y: int) -> Mat2:
    """Level-l step matrix for the plain family series."""
    diag, upper, lower = _xy_entries(l, params, bound_x, bound_y, +1)
    return Mat2(diag, upper, lower, diag)


def step_matrix_star(l: int, params: AbcParams, bound_x: int, bound_y: int) -> Mat2:
    """Level-l step matrix for the star family series.

    The scalar prefactor 1 / ((1 - (y-x)/l^c)(1 - (y+x)/l^c)) is expanded as
    a product of two truncated geometric series.
    """
    diag, upper, lower = _xy_entries(l, params, bound_x, bound_y, -1)
    geo = UnivarPoly.geometric(Fraction(1, l**params.c), bound_x + bound_y)
    pref = geo.subs_linear(-1, 1, bound_x, bound_y) * geo.subs_linear(1, 1, bound_x, bound_y)
    return Mat2(diag * pref, upper * pref, lower * pref, diag * pref)


def _grids(exponents: tuple[int, int, int], bounds: tuple[int, int], star: bool):
    """Yield one coefficient grid at cutoffs m = 0, 1, 2, ..., advanced in place."""
    bx, by = bounds  # a negative bound fails where the grid becomes a polynomial
    grid = [[Fraction(int(i == j == 0)) for j in range(by + 1)] for i in range(bx + 1)]
    order = 1 if star else -1
    for l in itertools.count(1):
        yield grid
        la, lb, lc = (l**e for e in exponents)
        for i in range(len(grid))[::order]:
            row, below, cross = grid[i], grid[i - 1], lb if i % 2 else la
            for j in range(len(row))[::order]:
                if j:
                    row[j] += row[j - 1] / lc
                if i:
                    row[j] += below[j] / cross


def _pair(grid, bounds: tuple[int, int]) -> tuple[BivarPoly, BivarPoly]:
    """Split a grid into (F, G): the even and the odd x-degree rows."""
    coeffs = ({}, {})
    for i, row in enumerate(grid):
        coeffs[i % 2].update(((i, j), v) for j, v in enumerate(row))
    return BivarPoly(coeffs[0], *bounds), BivarPoly(coeffs[1], *bounds)


def _nth(iterator, m: int):
    if m < 0:
        raise ValueError(f"cutoff m must be non-negative, got {m}")
    for _ in range(m):
        next(iterator)
    return next(iterator)


def iter_family_series(params: AbcParams, bounds: tuple[int, int]):
    """Yield the plain series pair (F, G) at cutoffs m = 0, 1, 2, ... indefinitely."""
    return (_pair(grid, bounds) for grid in _grids(params.as_tuple(), bounds, False))


def iter_family_series_star(params: AbcParams, bounds: tuple[int, int]):
    """Yield the star series pair (F*, G*) at cutoffs m = 0, 1, 2, ... indefinitely."""
    return (_pair(grid, bounds) for grid in _grids(params.as_tuple(), bounds, True))


def family_series(m: int, params: AbcParams, bounds: tuple[int, int]) -> tuple[BivarPoly, BivarPoly]:
    """The cutoff-m series pair (F, G); exact polynomials when bounds cover degree m."""
    return _pair(_nth(_grids(params.as_tuple(), bounds, False), m), bounds)


def family_series_star(m: int, params: AbcParams, bounds: tuple[int, int]) -> tuple[BivarPoly, BivarPoly]:
    """The cutoff-m star series pair (F*, G*), truncated to ``bounds``."""
    return _pair(_nth(_grids(params.as_tuple(), bounds, True), m), bounds)


def zeta_run_poly(m: int, c: int, bound: int) -> UnivarPoly:
    """Product over l = 1..m of (1 + z/l^c); coefficient of z^r is zeta_m((c,)*r)."""
    return UnivarPoly(_nth(_grids((c, c, c), (0, bound), False), m)[0], bound)


def zeta_star_run_poly(m: int, c: int, bound: int) -> UnivarPoly:
    """Truncated product over l = 1..m of 1/(1 - z/l^c); z^r carries zeta_star_m((c,)*r)."""
    return UnivarPoly(_nth(_grids((c, c, c), (0, bound), True), m)[0], bound)


def extract_s(f: BivarPoly, p: int, q: int) -> Fraction:
    """Read s(p, q) off the plain/star series: the x^(2p) y^q coefficient."""
    if 2 * p > f.bound_x or q > f.bound_y:
        raise ValueError(f"(p={p}, q={q}) exceeds truncation bounds ({f.bound_x},{f.bound_y})")
    return f.coeff(2 * p, q)


def extract_t(g: BivarPoly, p: int, q: int) -> Fraction:
    """Read t(p, q) off the series: the x^(2p+1) y^q coefficient."""
    if 2 * p + 1 > g.bound_x or q > g.bound_y:
        raise ValueError(f"(p={p}, q={q}) exceeds truncation bounds ({g.bound_x},{g.bound_y})")
    return g.coeff(2 * p + 1, q)


@dataclass(frozen=True)
class SeriesIdentityReport:
    """Outcome of one truncated-series identity check at fixed cutoff m."""

    kind: str
    params: AbcParams
    m: int
    bounds: tuple[int, int]
    equal: bool
    mismatches: int


def star_factorization_sides(
    f: BivarPoly, fstar: BivarPoly, hstar: UnivarPoly
) -> tuple[BivarPoly, BivarPoly]:
    """Sides of F*(x, y) = F(x, -y) * H*(y - x) * H*(y + x), truncated."""
    bx, by = fstar.bound_x, fstar.bound_y
    if hstar.bound < bx + by:
        raise ValueError("run-series bound too small for the requested box")
    rhs = f.flip_y() * hstar.subs_linear(-1, 1, bx, by) * hstar.subs_linear(1, 1, bx, by)
    return fstar, rhs


def symmetric_form_sides(
    f: BivarPoly, fstar: BivarPoly, h: UnivarPoly
) -> tuple[BivarPoly, BivarPoly]:
    """Sides of the division-free symmetric form F*(x, y) H(x - y) H(-x - y) = F(x, -y)."""
    bx, by = fstar.bound_x, fstar.bound_y
    if h.bound < bx + by:
        raise ValueError("run-series bound too small for the requested box")
    lhs = fstar * h.subs_linear(1, -1, bx, by) * h.subs_linear(-1, -1, bx, by)
    return lhs, f.flip_y()


def _count_mismatches(lhs: BivarPoly, rhs: BivarPoly) -> int:
    keys = set(lhs.coeffs) | set(rhs.coeffs)
    return sum(1 for k in keys if lhs.coeff(*k) != rhs.coeff(*k))


def check_star_factorization(m: int, params: AbcParams, bounds: tuple[int, int]) -> SeriesIdentityReport:
    """Verify the star-series factorization through the plain series at cutoff m."""
    bx, by = bounds
    f, _ = family_series(m, params, (bx, by))
    fstar, _ = family_series_star(m, params, (bx, by))
    hstar = zeta_star_run_poly(m, params.c, bx + by)
    lhs, rhs = star_factorization_sides(f, fstar, hstar)
    n_bad = _count_mismatches(lhs, rhs)
    return SeriesIdentityReport("star-factorization", params, m, bounds, n_bad == 0, n_bad)


def check_symmetric_form(m: int, params: AbcParams, bounds: tuple[int, int]) -> SeriesIdentityReport:
    """Verify the division-free symmetric rearrangement at cutoff m.

    Also checks the run-series inverse relation H*(z) * H(-z) = 1 that the
    rearrangement rests on.
    """
    bx, by = bounds
    f, _ = family_series(m, params, (bx, by))
    fstar, _ = family_series_star(m, params, (bx, by))
    h = zeta_run_poly(m, params.c, bx + by)
    hstar = zeta_star_run_poly(m, params.c, bx + by)
    lhs, rhs = symmetric_form_sides(f, fstar, h)
    n_bad = _count_mismatches(lhs, rhs)
    if hstar * h.flip() != UnivarPoly.one(bx + by):
        n_bad += 1
    return SeriesIdentityReport("symmetric-form", params, m, bounds, n_bad == 0, n_bad)
