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
order.  Row 0 reads only its own left neighbour: it is the run series
H(y) = prod (1 + y/l^c), or H*(y) for the star step, whose y^r coefficient
is the value of the constant index (c, ..., c).  So row 0 runs to y-degree
bound_x + bound_y, as the identity checks need, and ``zeta_run_poly`` /
``zeta_star_run_poly`` are row 0 of a grid with bound_x = 0.

One engine, ``_grids``, advances any set of plain and star grids of one
letter triple.  They hold scaled numerators N[i][j] = H[i][j] L_m^w(i,j),
L_m = lcm(1..m), w(i, j) = ceil(i/2) b + floor(i/2) a + c j.  Per level the
engine takes one lcm step; at a prime-power level it computes
r = L_l/L_(l-1) to the power w once per distinct cell weight and rescales
every cell, then each grid runs its recurrence with the shared factors
(L_l/l)^c and (L_l/l)^e.  One ``Fraction`` per coefficient is built only
where a value leaves the module.  As a + b = 2c, every x^i y^j cell of F,
F* and of a run factor h(+-x +- y) has weight c(i + j), so the identity
checks compare integer grids over L_m^(c(i + j)) cell by cell.  F, F* and
the product of each identity's two run factors are even in x, so the checks
multiply and compare their even rows only, as grids in x^2.  A check reads
F, F* and the run series off one plain and one star grid; given a
``GridSweep``, a sweep over ascending cutoffs runs each level once.  The
``BivarPoly`` sides of both identities (``*_sides``) are kept as a
reference, off the hot path; the literal step matrices live with the tests'
oracles.
"""

from __future__ import annotations

import itertools
import math
from collections import namedtuple
from fractions import Fraction

from .indices import AbcParams, _check_pq

__all__ = [
    "BivarPoly",
    "GridSweep",
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
                term = cr * math.comb(r, s) * alpha**s * beta ** (r - s)
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


def _weight(exponents: tuple[int, int, int], i: int, j: int) -> int:
    """w(i, j): the x^i y^j cell has ceil(i/2) letters b, floor(i/2) letters a and j letters c."""
    return (i + 1) // 2 * exponents[1] + i // 2 * exponents[0] + j * exponents[2]


def _grids(exponents: tuple[int, int, int], bounds: tuple[int, int], stars: tuple[bool, ...]):
    """Yield (grids, L_m) at cutoffs m = 0, 1, 2, ...: one scaled grid per flag of ``stars``, advanced in place.

    A flag picks the plain (False) or the star (True) recurrence; the grids
    share each level's lcm step and powers.  Row 0 runs to y-degree bx + by,
    the other rows to by.
    """
    bx, by = bounds
    if bx < 0 or by < 0:
        raise ValueError("truncation bounds must be non-negative")
    widths = [bx + by + 1] + [by + 1] * bx
    weights = [[_weight(exponents, i, j) for j in range(n)] for i, n in enumerate(widths)]
    distinct = {w for row in weights for w in row}
    grids = tuple([[int(i == j == 0) for j in range(n)] for i, n in enumerate(widths)] for _ in stars)
    lcm = 1
    for l in itertools.count(1):
        yield grids, lcm
        r = math.lcm(lcm, l) // lcm
        lcm *= r
        if r > 1:  # l is a prime power: rescale every cell from L_(l-1) to L_l
            power = {w: r**w for w in distinct}
            for grid in grids:
                for row, row_weights in zip(grid, weights):
                    row[:] = [v * power[w] for v, w in zip(row, row_weights)]
        qa, qb, qc = ((lcm // l) ** e for e in exponents)
        for grid, star in zip(grids, stars):
            order = 1 if star else -1
            for i in range(len(grid))[::order]:
                row = grid[i]
                if i:
                    below, cross = grid[i - 1], qb if i % 2 else qa
                    for j in range(len(row))[::order]:
                        row[j] += (row[j - 1] * qc if j else 0) + below[j] * cross
                else:
                    for j in range(1, len(row))[::order]:
                        row[j] += row[j - 1] * qc


class GridSweep:
    """Scaled grids of one letter triple and box, advanced in place over ascending cutoffs.

    ``at(m)`` returns (grids, L_m) at cutoff m, one grid per flag of
    ``stars``; a later call may not ask for a lower cutoff.  The series checks
    take one as ``sweep=``, so a sweep over cutoffs runs each level once.
    """

    def __init__(self, exponents: tuple[int, int, int], bounds: tuple[int, int], stars=(False, True)):
        self.key = (tuple(exponents), tuple(bounds), tuple(stars))
        self._levels = _grids(*self.key)
        self._state = next(self._levels)
        self.m = 0

    def at(self, m: int):
        if m < 0:
            raise ValueError(f"cutoff m must be non-negative, got {m}")
        if m < self.m:
            raise ValueError(f"cutoffs must ascend: the sweep is at m={self.m}, asked for m={m}")
        for _ in range(m - self.m):
            self._state = next(self._levels)
        self.m = m
        return self._state


def _pair(grid, lcm: int, params: AbcParams, bounds: tuple[int, int]) -> tuple[BivarPoly, BivarPoly]:
    """Split a scaled grid into (F, G), the even and the odd x-degree rows up to y-degree by, as Fractions."""
    coeffs = ({}, {})
    for i, row in enumerate(grid):
        for j, v in enumerate(row[: bounds[1] + 1]):
            coeffs[i % 2][i, j] = Fraction(v, lcm ** _weight(params.as_tuple(), i, j))
    return BivarPoly(coeffs[0], *bounds), BivarPoly(coeffs[1], *bounds)


def _at(m: int, exponents: tuple[int, int, int], bounds: tuple[int, int], star: bool):
    """The scaled grid and L_m at cutoff m."""
    (grid,), lcm = GridSweep(exponents, bounds, (star,)).at(m)
    return grid, lcm


def iter_family_series(params: AbcParams, bounds: tuple[int, int]):
    """Yield the plain series pair (F, G) at cutoffs m = 0, 1, 2, ... indefinitely."""
    return (_pair(grid, lcm, params, bounds) for (grid,), lcm in _grids(params.as_tuple(), bounds, (False,)))


def iter_family_series_star(params: AbcParams, bounds: tuple[int, int]):
    """Yield the star series pair (F*, G*) at cutoffs m = 0, 1, 2, ... indefinitely."""
    return (_pair(grid, lcm, params, bounds) for (grid,), lcm in _grids(params.as_tuple(), bounds, (True,)))


def family_series(m: int, params: AbcParams, bounds: tuple[int, int]) -> tuple[BivarPoly, BivarPoly]:
    """The cutoff-m series pair (F, G); exact polynomials when bounds cover degree m."""
    return _pair(*_at(m, params.as_tuple(), bounds, False), params, bounds)


def family_series_star(m: int, params: AbcParams, bounds: tuple[int, int]) -> tuple[BivarPoly, BivarPoly]:
    """The cutoff-m star series pair (F*, G*), truncated to ``bounds``."""
    return _pair(*_at(m, params.as_tuple(), bounds, True), params, bounds)


def _run_poly(m: int, c: int, bound: int, star: bool) -> UnivarPoly:
    if not isinstance(c, int) or isinstance(c, bool) or c < 1:
        raise ValueError(f"letter c must be an integer >= 1, got {c!r}")
    (row,), lcm = _at(m, (c, c, c), (0, bound), star)
    return UnivarPoly([Fraction(v, lcm ** (c * r)) for r, v in enumerate(row)], bound)


def zeta_run_poly(m: int, c: int, bound: int) -> UnivarPoly:
    """Product over l = 1..m of (1 + z/l^c); coefficient of z^r is zeta_m((c,)*r)."""
    return _run_poly(m, c, bound, False)


def zeta_star_run_poly(m: int, c: int, bound: int) -> UnivarPoly:
    """Truncated product over l = 1..m of 1/(1 - z/l^c); z^r carries zeta_star_m((c,)*r)."""
    return _run_poly(m, c, bound, True)


def extract_s(f: BivarPoly, p: int, q: int) -> Fraction:
    """Read s(p, q) off the plain/star series: the x^(2p) y^q coefficient."""
    _check_pq(p, q)
    if 2 * p > f.bound_x or q > f.bound_y:
        raise ValueError(f"(p={p}, q={q}) exceeds truncation bounds ({f.bound_x},{f.bound_y})")
    return f.coeff(2 * p, q)


def extract_t(g: BivarPoly, p: int, q: int) -> Fraction:
    """Read t(p, q) off the series: the x^(2p+1) y^q coefficient."""
    _check_pq(p, q)
    if 2 * p + 1 > g.bound_x or q > g.bound_y:
        raise ValueError(f"(p={p}, q={q}) exceeds truncation bounds ({g.bound_x},{g.bound_y})")
    return g.coeff(2 * p + 1, q)


class SeriesIdentityReport(namedtuple("SeriesIdentityReport", "kind params m bounds equal mismatches")):
    """Outcome of one truncated-series identity check at fixed cutoff m."""

    __slots__ = ()


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


def _f_rows(grid, by: int, sign_y: int):
    """F(x, sign_y*y) from a scaled plain or star grid, as a grid in x^2: its even rows up to y-degree by."""
    return [[v * sign_y**j for j, v in enumerate(row[: by + 1])] for row in grid[::2]]


def _linear(h: list[int], alpha: int, bx: int, by: int):
    """The grid of h(alpha*x + y), alpha = +-1; h_r spreads over the cells i + j = r."""
    return [[math.comb(i + j, i) * alpha**i * h[i + j] for j in range(by + 1)] for i in range(bx + 1)]


def _mul(p, q, step: int = 1):
    """Rows 0, step, 2 step, ... of the truncated product of two dense grids of one shape."""
    nx, ny = len(p), len(p[0])
    out = [[0] * ny for _ in range(0, nx, step)]
    for i1, j1 in itertools.product(range(nx), range(ny)):
        if v := p[i1][j1]:
            for i2 in range(-i1 % step, nx - i1, step):
                row, qrow = out[(i1 + i2) // step], q[i2]
                for j2 in range(ny - j1):
                    row[j1 + j2] += v * qrow[j2]
    return out


def _times_runs(f, h: list[int], bx: int, by: int):
    """f(x, y) h(y - x) h(y + x), with f and the result as grids in x^2 (their even rows).

    Swapping x and -x swaps the two run factors, so their product is even in
    x: only its even rows are built, and they multiply f in the variable x^2.
    """
    return _mul(f, _mul(_linear(h, -1, bx, by), _linear(h, 1, bx, by), 2))


def _check_grids(m: int, params: AbcParams, bounds: tuple[int, int], sweep: GridSweep | None):
    """The scaled plain and star grids at cutoff m, read from ``sweep`` when given."""
    if sweep is None:
        sweep = GridSweep(params.as_tuple(), bounds)
    elif sweep.key != (params.as_tuple(), tuple(bounds), (False, True)):
        raise ValueError("the sweep's letters or box differ from the check's")
    return sweep.at(m)[0]


def check_star_factorization(
    m: int, params: AbcParams, bounds: tuple[int, int], sweep: GridSweep | None = None
) -> SeriesIdentityReport:
    """Verify the star-series factorization through the plain series at cutoff m.

    H* is row 0 of the star grid.  With ``sweep``, the grids come from it.
    """
    bx, by = bounds
    plain, star = _check_grids(m, params, bounds, sweep)
    f, fstar, hstar = _f_rows(plain, by, -1), _f_rows(star, by, 1), star[0]
    rhs = _times_runs(f, hstar, bx, by)
    n_bad = sum(u != v for lrow, rrow in zip(fstar, rhs) for u, v in zip(lrow, rrow))
    return SeriesIdentityReport("star-factorization", params, m, bounds, n_bad == 0, n_bad)


def check_symmetric_form(
    m: int, params: AbcParams, bounds: tuple[int, int], sweep: GridSweep | None = None
) -> SeriesIdentityReport:
    """Verify the division-free symmetric rearrangement at cutoff m.

    Also checks the run-series inverse relation H*(z) * H(-z) = 1 that the
    rearrangement rests on, with H and H* rows 0 of the plain and the star
    grid.  With ``sweep``, the grids come from it.
    """
    bx, by = bounds
    plain, star = _check_grids(m, params, bounds, sweep)
    f, fstar, hstar = _f_rows(plain, by, -1), _f_rows(star, by, 1), star[0]
    h_flip = [(-1) ** r * v for r, v in enumerate(plain[0])]  # H(-z): H(x - y) H(-x - y) = h_flip(y - x) h_flip(y + x)
    lhs = _times_runs(fstar, h_flip, bx, by)
    n_bad = sum(u != v for lrow, rrow in zip(lhs, f) for u, v in zip(lrow, rrow))
    n_bad += _mul([hstar], [h_flip]) != [[1] + [0] * (bx + by)]
    return SeriesIdentityReport("symmetric-form", params, m, bounds, n_bad == 0, n_bad)
