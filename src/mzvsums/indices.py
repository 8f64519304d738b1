"""Indices and the shuffle-generated index families.

An index is a finite tuple of positive integer exponents; the empty tuple
is allowed.  The two families used throughout the package interleave a
repeated two-letter pattern ``(a, b)`` with copies of a third letter ``c``,
where the letters satisfy ``a + b = 2c`` and ``a >= 2``:

* ``index_family_I(p, q)`` -- all shuffles of ``(a,b)*p`` with ``(c,)*q``
* ``index_family_J(p, q)`` -- all shuffles of ``(b,) + (a,b)*p`` with ``(c,)*q``

Families are multisets: each interleaving pattern contributes one count,
so when letters collide (for instance ``a = b = c``) an index may carry a
multiplicity greater than one.  The total multiplicity of ``shuffles(s1, s2)``
is always ``binomial(len(s1)+len(s2), len(s1))``.
"""

from __future__ import annotations

import itertools
from collections import namedtuple

Index = tuple[int, ...]
IndexMultiset = dict[Index, int]

__all__ = [
    "AbcParams",
    "Index",
    "IndexMultiset",
    "index_family_I",
    "index_family_J",
    "shuffles",
    "validate_index",
]


def validate_index(k) -> Index:
    """Coerce *k* to a tuple and require every entry to be a positive integer (not a bool)."""
    k = tuple(k)
    for entry in k:
        if not isinstance(entry, int) or isinstance(entry, bool) or entry < 1:
            raise ValueError(f"index entries must be integers >= 1, got {entry!r}")
    return k


class AbcParams(namedtuple("AbcParams", "a b c")):
    """The letter triple (a, b, c) with a + b = 2c and a >= 2."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        for name, v in (("a", a), ("b", b), ("c", c)):
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if a + b != 2 * c:
            raise ValueError(f"a+b must equal 2c (got a={a}, b={b}, c={c})")
        if a < 2:
            raise ValueError(f"a must be at least 2 (got a={a})")
        return super().__new__(cls, a, b, c)

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)


def shuffles(s1, s2) -> IndexMultiset:
    """All interleavings of two sequences, counted per interleaving pattern.

    Both orders of each input are preserved.  Equal results from distinct
    position choices stack up as multiplicity, e.g.
    ``shuffles((2,), (2,)) == {(2, 2): 2}``.
    """
    s1 = validate_index(s1)
    s2 = validate_index(s2)
    n1, n2 = len(s1), len(s2)
    out: IndexMultiset = {}
    for positions in itertools.combinations(range(n1 + n2), n1):
        merged = list(s2)
        for pos, letter in zip(positions, s1):  # ascending, so each insert lands at its final place
            merged.insert(pos, letter)
        word = tuple(merged)
        out[word] = out.get(word, 0) + 1
    return out


def index_family_I(p: int, q: int, params: AbcParams) -> IndexMultiset:
    """Shuffles of p copies of (a, b) with q copies of (c,).

    Every index has length 2p + q; total multiplicity is binomial(2p+q, q).
    """
    _check_pq(p, q)
    return shuffles((params.a, params.b) * p, (params.c,) * q)


def index_family_J(p: int, q: int, params: AbcParams) -> IndexMultiset:
    """Shuffles of (b,) + p copies of (a, b) with q copies of (c,).

    Every index has length 2p + q + 1; total multiplicity is binomial(2p+q+1, q).
    """
    _check_pq(p, q)
    return shuffles((params.b,) + (params.a, params.b) * p, (params.c,) * q)


def _check_pq(p: int, q: int) -> None:
    if p < 0 or q < 0:
        raise ValueError(f"p and q must be non-negative, got p={p}, q={q}")
