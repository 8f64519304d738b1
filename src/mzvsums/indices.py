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
from dataclasses import dataclass
from math import comb

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


@dataclass(frozen=True)
class AbcParams:
    """The letter triple (a, b, c) with a + b = 2c and a >= 2."""

    a: int
    b: int
    c: int

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool) or v < 1:
                raise ValueError(f"{name} must be a positive integer, got {v!r}")
        if self.a + self.b != 2 * self.c:
            raise ValueError(f"a+b must equal 2c (got a={self.a}, b={self.b}, c={self.c})")
        if self.a < 2:
            raise ValueError(f"a must be at least 2 (got a={self.a})")

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
        merged = [0] * (n1 + n2)
        taken = set(positions)
        it1 = iter(s1)
        it2 = iter(s2)
        for i in range(n1 + n2):
            merged[i] = next(it1) if i in taken else next(it2)
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


def total_multiplicity(family: IndexMultiset) -> int:
    return sum(family.values())


def expected_family_size(p: int, q: int, with_prefix: bool = False) -> int:
    """Total multiplicity of the (p, q) family: binomial(2p+q(+1), q)."""
    n = 2 * p + q + (1 if with_prefix else 0)
    return comb(n, q)
