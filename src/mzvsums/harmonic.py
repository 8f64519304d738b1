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
  Evaluation fills the words in one ``ZetaCache`` fill, sums their scaled
  integer numerators (value times lcm(1..m)**weight) per weight and builds
  one ``Fraction``, not one per word.

On top of these, ``word_sum_s`` / ``word_sum_t`` lift the shuffle families
to word sums, and the ``verify_*_symbolic`` functions check, purely
symbolically, the same identities that :mod:`mzvsums.zeta` checks
numerically.  Their two sides come from unrelated code: the left side, the
star image of a family, from a block recursion over the family's two-state
automaton (``_star_family``), without listing the family's words; the right
side from the ``shuffles`` families, the star-expanded c-runs and the
quasi-shuffle product.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction

from .indices import AbcParams, index_family_I, index_family_J, validate_index
from .zeta import ZetaCache, identity_terms

Word = tuple[int, ...]

__all__ = [
    "HPoly",
    "Word",
    "WordIdentityReport",
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

    Words must be valid indices and coefficients ``int`` or ``Fraction``; the
    term map never stores zero coefficients, so ``==`` is structural.  The
    vector-space operations are methods; the algebra product is
    :func:`harmonic_mul`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Word, int | Fraction] | None = None):
        for v in (terms or {}).values():
            if isinstance(v, bool) or not isinstance(v, (int, Fraction)):
                raise TypeError(f"coefficients must be int or Fraction, got {v!r}")
        self.terms = {validate_index(w): v for w, v in (terms or {}).items() if v}

    @classmethod
    def zero(cls) -> "HPoly":
        return cls()

    @classmethod
    def unit(cls) -> "HPoly":
        return cls({(): 1})

    @classmethod
    def word(cls, letters) -> "HPoly":
        return cls({tuple(letters): 1})

    def __add__(self, other: "HPoly") -> "HPoly":
        out = dict(self.terms)
        _add_into(out, other.terms, 1)
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


def _add_into(out: dict, terms: dict, scale) -> None:
    """out += scale * terms, on term maps."""
    for w, v in terms.items():
        out[w] = out.get(w, 0) + scale * v


def _prefix_into(out: dict, letter: int, terms: dict) -> None:
    for w, v in terms.items():
        key = (letter,) + w
        out[key] = out.get(key, 0) + v


def _harmonic_words(w1: Word, w2: Word, memo: dict) -> dict[Word, int]:
    if not w1:
        return {w2: 1}
    if not w2:
        return {w1: 1}
    key = (w1, w2)
    cached = memo.get(key)
    if cached is not None:
        return cached
    k, rest1 = w1[0], w1[1:]
    l, rest2 = w2[0], w2[1:]
    out: dict[Word, int] = {}
    _prefix_into(out, k, _harmonic_words(rest1, w2, memo))
    _prefix_into(out, l, _harmonic_words(w1, rest2, memo))
    _prefix_into(out, k + l, _harmonic_words(rest1, rest2, memo))
    memo[key] = out
    return out


def _mul_terms(a: dict, b: dict, memo: dict) -> dict:
    """Quasi-shuffle product of two term maps; word pairs are looked up in *memo*."""
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            _add_into(out, _harmonic_words(w1, w2, memo), c1 * c2)
    return out


def harmonic_mul(u: HPoly, v: HPoly) -> HPoly:
    """Quasi-shuffle product, extended bilinearly from words.

    Each recursion step pulls out one head letter or the merge of both;
    total word length strictly decreases, so it terminates.  Word-pair
    results are memoized for the duration of the call.
    """
    return HPoly(_mul_terms(u.terms, v.terms, {}))


def _star_words(w: Word, memo: dict) -> dict[Word, int]:
    if len(w) <= 1:
        return {w: 1}
    cached = memo.get(w)
    if cached is not None:
        return cached
    k, l, rest = w[0], w[1], w[2:]
    out: dict[Word, int] = {}
    _prefix_into(out, k, _star_words((l,) + rest, memo))
    _add_into(out, _star_words((k + l,) + rest, memo), 1)
    memo[w] = out
    return out


def _star_terms(a: dict, memo: dict) -> dict:
    """Star expansion of a term map; words are looked up in *memo*."""
    out: dict = {}
    for w, c in a.items():
        _add_into(out, _star_words(w, memo), c)
    return out


def star_expand(u: HPoly) -> HPoly:
    """Linear star expansion: keep the head letter or merge it into the next.

    A single word of length n >= 1 maps to 2^(n-1) words counted with
    multiplicity; the empty word is fixed.
    """
    return HPoly(_star_terms(u.terms, {}))


def z_eval(u: HPoly, m: int, cache: ZetaCache | None = None) -> Fraction:
    """Evaluate each word as a truncated zeta value at cutoff m, linearly.

    This is an algebra homomorphism for :func:`harmonic_mul`:
    z_eval(u * v) = z_eval(u) z_eval(v) at every cutoff.  Reads u's scaled
    numerators from one ``cache.fill``, sums them per weight, then divides
    once, by lcm(1..m)**(largest weight).
    """
    if cache is None:
        cache = ZetaCache()
    by_weight: dict[int, int | Fraction] = {}  # weight -> sum of c * value * lcm(1..m)**weight
    for (w, c), n in zip(u.terms.items(), cache.fill(u.terms, m, False)):  # fill refuses a negative m
        weight = sum(w)
        by_weight[weight] = by_weight.get(weight, 0) + c * n
    top = max(by_weight, default=0)
    lm = cache.lcm(m) if top else 1  # a weight-0 value reads no lcm
    return Fraction(sum(n * lm ** (top - weight) for weight, n in by_weight.items()), lm**top)


def z_star_eval(u: HPoly, m: int, cache: ZetaCache | None = None) -> Fraction:
    """Evaluate after star expansion; on single words this is the zeta-star value."""
    return z_eval(star_expand(u), m, cache)


def word_sum_s(p: int, q: int, params: AbcParams) -> HPoly:
    """The s-family as a word sum: one word per index of index_family_I(p, q)."""
    return HPoly(index_family_I(p, q, params))


def word_sum_t(p: int, q: int, params: AbcParams) -> HPoly:
    """The t-family as a word sum over index_family_J(p, q)."""
    return HPoly(index_family_J(p, q, params))


class WordIdentityReport(namedtuple("WordIdentityReport", "params p q lhs_terms rhs_terms equal")):
    """Outcome of one symbolic identity check at fixed (p, q)."""

    __slots__ = ()


def _star_family(params: AbcParams, state: int, x: int, y: int, memo: dict) -> dict[Word, int]:
    """S of the family words with x more letters a/b, from ``state`` (0 expects a, 1 expects b), and y letters c.

    A star image merges a word into blocks.  A block of dx letters a/b and dy
    letters c, (dx, dy) != (0, 0), arises from comb(dx + dy, dx) interleavings;
    its letter is the sum of the next dx alternating letters plus c * dy, and
    an odd dx flips the state.  Results are memoised per (state, x, y).
    """
    if not x and not y:
        return {(): 1}
    key = (state, x, y)
    cached = memo.get(key)
    if cached is not None:
        return cached
    a, b, c = params.as_tuple()
    heads = (a, b)
    out: dict[Word, int] = {}
    for dx in range(x + 1):
        run = dx // 2 * (a + b) + (heads[state] if dx % 2 else 0)
        for dy in range(0 if dx else 1, y + 1):
            letter, weight = run + c * dy, math.comb(dx + dy, dx)
            for w, v in _star_family(params, state ^ (dx % 2), x - dx, y - dy, memo).items():
                word = (letter,) + w
                out[word] = out.get(word, 0) + weight * v
    memo[key] = out
    return out


def _verify_word_identity(p: int, q: int, params: AbcParams, family, state: int) -> WordIdentityReport:
    """Both sides of the (p, q) identity over ``family`` (I or J, starting in ``state``), in integers.

    The left side is the family's star image by the block recursion
    ``_star_family``; the right side multiplies the ``shuffles`` families by
    the star-expanded c-runs.  The product is bilinear, so per group of
    ``identity_terms`` the weighted run products S(c^r1) * S(c^r2), each
    built once per check, are summed into one combination that multiplies
    the (i, j) family once.
    """
    star_memo, mul_memo, products, rhs = {}, {}, {}, {}
    lhs = _star_family(params, state, 2 * p + state, q, {})
    runs = [_star_words((params.c,) * r, star_memo) for r in range(2 * p + q + 1)]
    for i, j, pairs in identity_terms(p, q):
        combo = {}
        for weight, r1, r2 in pairs:
            if (r1, r2) not in products:
                products[r1, r2] = _mul_terms(runs[r1], runs[r2], mul_memo)
            _add_into(combo, products[r1, r2], weight)
        _add_into(rhs, _mul_terms(family(i, j, params), {w: v for w, v in combo.items() if v}, mul_memo), 1)
    rhs = {w: v for w, v in rhs.items() if v}
    return WordIdentityReport(params, p, q, len(lhs), len(rhs), lhs == rhs)


def verify_identity_s_symbolic(p: int, q: int, params: AbcParams) -> WordIdentityReport:
    """Check the s-family identity in the word algebra itself.

    The star expansion of the family word sum must equal the signed binomial
    combination of smaller family word sums quasi-shuffled with the star
    expansions of two c-runs.  Holding here (not just after evaluation) is
    strictly stronger than the numeric identity at any single cutoff.
    """
    return _verify_word_identity(p, q, params, index_family_I, 0)


def verify_identity_t_symbolic(p: int, q: int, params: AbcParams) -> WordIdentityReport:
    """Check the t-family identity in the word algebra."""
    return _verify_word_identity(p, q, params, index_family_J, 1)
