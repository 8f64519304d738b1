"""The quasi-shuffle algebra of zeta words.

Words are tuples of positive integers, read as the noncommutative monomials
z_{k_1} ... z_{k_n}; :class:`HPoly` is a finite rational linear combination
of words.  Three structures live here:

* the quasi-shuffle (harmonic) product, defined on words by

      z_k w * z_l w' = z_k (w * z_l w') + z_l (z_k w * w') + z_{k+l} (w * w')

  with the empty word as unit -- it models how products of nested sums
  recombine, and makes the span of words a commutative algebra;

* the star expansion map, the linear map sending a word to the sum of all
  its "merge adjacent letters" images:

      S(1) = 1,  S(z_k) = z_k,  S(z_k z_l w) = z_k S(z_l w) + S(z_{k+l} w)

  so a word of length n expands into 2^(n-1) summands (counted with
  multiplicity), matching how a weakly-decreasing sum splits into strictly
  decreasing ones;

* the evaluation maps ``z_eval`` (word -> truncated zeta value at cutoff m,
  an algebra homomorphism for the quasi-shuffle product) and ``z_star_eval``
  (evaluation after star expansion, giving truncated zeta-star values).

On top of these, ``word_sum_s`` / ``word_sum_t`` lift the shuffle families
to word sums, and the ``verify_*_symbolic`` functions check, purely
symbolically, the same identities that :mod:`mzvsums.zeta` checks
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .indices import AbcParams, index_family_I, index_family_J, validate_index
from .zeta import ZetaCache, identity_terms

Word = tuple[int, ...]

__all__ = [
    "HPoly",
    "Word",
    "WordIdentityReport",
    "concat",
    "harmonic_mul",
    "star_expand",
    "verify_identity_s_symbolic",
    "verify_identity_t_symbolic",
    "word_sum_s",
    "word_sum_t",
    "z_eval",
    "z_star_eval",
]


class HPoly:
    """Finite rational linear combination of words, in canonical form.

    The term map never stores zero coefficients, so ``==`` is structural.
    Addition, subtraction and scalar multiplication are the vector-space
    operations; the algebra products live in :func:`concat` and
    :func:`harmonic_mul`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, Fraction] | None = None):
        self.terms = {w: Fraction(v) for w, v in (terms or {}).items() if v != 0}

    @classmethod
    def zero(cls) -> "HPoly":
        return cls()

    @classmethod
    def unit(cls) -> "HPoly":
        return cls({(): Fraction(1)})

    @classmethod
    def word(cls, letters) -> "HPoly":
        return cls({validate_index(letters): Fraction(1)})

    def __add__(self, other: "HPoly") -> "HPoly":
        out = dict(self.terms)
        for w, v in other.terms.items():
            out[w] = out.get(w, Fraction(0)) + v
        return HPoly(out)

    def __neg__(self) -> "HPoly":
        return HPoly({w: -v for w, v in self.terms.items()})

    def __sub__(self, other: "HPoly") -> "HPoly":
        return self + (-other)

    def __mul__(self, scalar) -> "HPoly":
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return HPoly({w: v * scalar for w, v in self.terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, HPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for w, v in sorted(self.terms.items()):
            name = "*".join(f"z{k}" for k in w) if w else "1"
            parts.append(name if v == 1 else f"{v} {name}")
        return " + ".join(parts)


def concat(u: HPoly, v: HPoly) -> HPoly:
    """Bilinear word concatenation (the free, noncommutative product)."""
    out: dict[Word, Fraction] = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            w = w1 + w2
            out[w] = out.get(w, Fraction(0)) + c1 * c2
    return HPoly(out)


def _prefix_into(out: dict, letter: int, terms: dict, scale: Fraction) -> None:
    for w, v in terms.items():
        key = (letter,) + w
        out[key] = out.get(key, Fraction(0)) + scale * v


def _harmonic_words(w1: Word, w2: Word, memo: dict) -> dict[Word, Fraction]:
    if not w1:
        return {w2: Fraction(1)}
    if not w2:
        return {w1: Fraction(1)}
    key = (w1, w2)
    cached = memo.get(key)
    if cached is not None:
        return cached
    k, rest1 = w1[0], w1[1:]
    l, rest2 = w2[0], w2[1:]
    out: dict[Word, Fraction] = {}
    one = Fraction(1)
    _prefix_into(out, k, _harmonic_words(rest1, w2, memo), one)
    _prefix_into(out, l, _harmonic_words(w1, rest2, memo), one)
    _prefix_into(out, k + l, _harmonic_words(rest1, rest2, memo), one)
    memo[key] = out
    return out


def harmonic_mul(u: HPoly, v: HPoly) -> HPoly:
    """Quasi-shuffle product, extended bilinearly from words.

    Each recursion step pulls out one head letter or the merge of both;
    total word length strictly decreases, so it terminates.  Word-pair
    results are memoized for the duration of the call.
    """
    memo: dict = {}
    out: dict[Word, Fraction] = {}
    for w1, c1 in u.terms.items():
        for w2, c2 in v.terms.items():
            scale = c1 * c2
            for w, v0 in _harmonic_words(w1, w2, memo).items():
                out[w] = out.get(w, Fraction(0)) + scale * v0
    return HPoly(out)


def _star_words(w: Word, memo: dict) -> dict[Word, Fraction]:
    if len(w) <= 1:
        return {w: Fraction(1)}
    cached = memo.get(w)
    if cached is not None:
        return cached
    k, l, rest = w[0], w[1], w[2:]
    out: dict[Word, Fraction] = {}
    _prefix_into(out, k, _star_words((l,) + rest, memo), Fraction(1))
    for merged, v in _star_words((k + l,) + rest, memo).items():
        out[merged] = out.get(merged, Fraction(0)) + v
    memo[w] = out
    return out


def star_expand(u: HPoly) -> HPoly:
    """Linear star expansion: keep the head letter or merge it into the next.

    A single word of length n >= 1 maps to 2^(n-1) words counted with
    multiplicity; the empty word is fixed.
    """
    memo: dict = {}
    out: dict[Word, Fraction] = {}
    for w, c in u.terms.items():
        for w2, v in _star_words(w, memo).items():
            out[w2] = out.get(w2, Fraction(0)) + c * v
    return HPoly(out)


def z_eval(u: HPoly, m: int, cache: ZetaCache | None = None) -> Fraction:
    """Evaluate each word as a truncated zeta value at cutoff m, linearly.

    This is an algebra homomorphism for :func:`harmonic_mul`:
    z_eval(u * v) = z_eval(u) z_eval(v) at every cutoff.
    """
    if m < 0:
        raise ValueError(f"cutoff m must be non-negative, got {m}")
    if cache is None:
        cache = ZetaCache()
    return sum((c * cache.zeta(w, m) for w, c in u.terms.items()), Fraction(0))


def z_star_eval(u: HPoly, m: int, cache: ZetaCache | None = None) -> Fraction:
    """Evaluate after star expansion; on single words this is the zeta-star value."""
    return z_eval(star_expand(u), m, cache)


def word_sum_s(p: int, q: int, params: AbcParams) -> HPoly:
    """The s-family as a word sum: one word per index of index_family_I(p, q)."""
    return HPoly({w: Fraction(mult) for w, mult in index_family_I(p, q, params).items()})


def word_sum_t(p: int, q: int, params: AbcParams) -> HPoly:
    """The t-family as a word sum over index_family_J(p, q)."""
    return HPoly({w: Fraction(mult) for w, mult in index_family_J(p, q, params).items()})


@dataclass(frozen=True)
class WordIdentityReport:
    """Outcome of one symbolic identity check at fixed (p, q)."""

    params: AbcParams
    p: int
    q: int
    lhs_terms: int
    rhs_terms: int
    equal: bool


def _verify_word_identity(p: int, q: int, params: AbcParams, family_sum) -> WordIdentityReport:
    c = params.c
    lhs = star_expand(family_sum(p, q, params))
    star_runs = {r: star_expand(HPoly.word((c,) * r)) for r in range(2 * p + q + 1)}
    rhs = HPoly.zero()
    for weight, i, j, r1, r2 in identity_terms(p, q):
        term = harmonic_mul(family_sum(i, j, params), harmonic_mul(star_runs[r1], star_runs[r2]))
        rhs = rhs + weight * term
    return WordIdentityReport(params, p, q, len(lhs), len(rhs), lhs == rhs)


def verify_identity_s_symbolic(p: int, q: int, params: AbcParams) -> WordIdentityReport:
    """Check the s-family identity in the word algebra itself.

    The star expansion of the family word sum must equal the signed binomial
    combination of smaller family word sums quasi-shuffled with the star
    expansions of two c-runs.  Holding here (not just after evaluation) is
    strictly stronger than the numeric identity at any single cutoff.
    """
    return _verify_word_identity(p, q, params, word_sum_s)


def verify_identity_t_symbolic(p: int, q: int, params: AbcParams) -> WordIdentityReport:
    """Check the t-family identity in the word algebra."""
    return _verify_word_identity(p, q, params, word_sum_t)
