"""Curated small structures used across tests, the verify suites and docs.

Everything here is built from raw tables and passed through the same
validation paths a user's input would take, so the catalog doubles as a
regression corpus.
"""

from __future__ import annotations

import numpy as np

from .effect_algebras import FiniteEffectAlgebra, oml_to_ea
from .posets import BoundedOrtholattice, FinitePoset

__all__ = [
    "chain",
    "bowtie",
    "boolean_lattice",
    "mo2",
    "o6",
    "chain_effect_algebra",
    "boolean_effect_algebra",
    "mo2_effect_algebra",
    "diamond_pair",
    "product_effect_algebra",
]


def chain(n: int, labels=None) -> FinitePoset:
    """Total order on n elements, 0 at the bottom."""
    rel = np.triu(np.ones((n, n), dtype=bool))
    return FinitePoset(rel, labels)


def bowtie() -> FinitePoset:
    """Five elements: a bottom, two mid elements both under two tops.

    The two mid elements have meet equal to the bottom but no join,
    since their common upper bounds are the two incomparable tops.
    """
    labels = ("bot", "l1", "l2", "u1", "u2")
    pairs = [
        ("bot", "l1"), ("bot", "l2"),
        ("l1", "u1"), ("l1", "u2"),
        ("l2", "u1"), ("l2", "u2"),
    ]
    return FinitePoset.from_pairs(labels, pairs)


def boolean_lattice(k: int) -> BoundedOrtholattice:
    """Powerset of k points as bitmasks, complement as perp."""
    n = 1 << k
    rel = np.zeros((n, n), dtype=bool)
    for a in range(n):
        for b in range(n):
            rel[a, b] = (a & b) == a
    poset = FinitePoset(rel, labels=[f"s{m}" for m in range(n)])
    perp = [(n - 1) ^ m for m in range(n)]
    return BoundedOrtholattice(poset, 0, n - 1, perp)


def mo2() -> BoundedOrtholattice:
    """Height-two orthomodular lattice with four atoms paired a/a', b/b'.

    Standard witness for a non-distributive OML.
    """
    labels = ("0", "a", "a'", "b", "b'", "1")
    pairs = [("0", x) for x in labels[1:]] + [(x, "1") for x in labels[1:-1]]
    poset = FinitePoset.from_pairs(labels, pairs)
    perp = (5, 2, 1, 4, 3, 0)
    return BoundedOrtholattice(poset, 0, 5, perp)


def o6() -> BoundedOrtholattice:
    """The hexagon: chains 0 < a < b < 1 and 0 < b' < a' < 1.

    An ortholattice that is not orthomodular: b AND perp(a) = 0 although
    a < b, so a OR (b AND perp(a)) = a != b.
    """
    labels = ("0", "a", "b", "b'", "a'", "1")
    pairs = [
        ("0", "a"), ("a", "b"), ("b", "1"),
        ("0", "b'"), ("b'", "a'"), ("a'", "1"),
    ]
    poset = FinitePoset.from_pairs(labels, pairs)
    perp = (5, 4, 3, 2, 1, 0)
    return BoundedOrtholattice(poset, 0, 5, perp)


def chain_effect_algebra(steps: int) -> FiniteEffectAlgebra:
    """Equally spaced chain 0, 1/steps, ..., 1 with truncated addition.

    steps=2 is the three-element chain whose single state assigns 1/2 to
    the middle element.
    """
    n = steps + 1
    table = [[i + j if i + j <= steps else None for j in range(n)] for i in range(n)]
    labels = [f"{i}/{steps}" for i in range(n)]
    labels[0], labels[-1] = "0", "1"
    return FiniteEffectAlgebra(table, 0, steps, labels)


def boolean_effect_algebra(k: int) -> FiniteEffectAlgebra:
    return oml_to_ea(boolean_lattice(k))


def mo2_effect_algebra() -> FiniteEffectAlgebra:
    return oml_to_ea(mo2())


def diamond_pair() -> FiniteEffectAlgebra:
    """Lattice-ordered but not MV: {0, a, b, 1} with a+a = 1 and b+b = 1.

    a and b are disjoint in the induced order yet not orthogonal, so
    is_mv_effect_algebra must reject this one.
    """
    N = None
    table = [
        [0, 1, 2, 3],
        [1, 3, N, N],
        [2, N, 3, N],
        [3, N, N, N],
    ]
    return FiniteEffectAlgebra(table, 0, 3, ("0", "a", "b", "1"))


def product_effect_algebra(a: FiniteEffectAlgebra, b: FiniteEffectAlgebra) -> FiniteEffectAlgebra:
    """Coordinatewise product; defined exactly when both coordinates are."""
    pairs = [(i, j) for i in range(a.n) for j in range(b.n)]
    idx = {p: k for k, p in enumerate(pairs)}
    table = []
    for (i1, j1) in pairs:
        row = []
        for (i2, j2) in pairs:
            s1 = a.table[i1][i2]
            s2 = b.table[j1][j2]
            row.append(idx[(s1, s2)] if s1 is not None and s2 is not None else None)
        table.append(row)
    labels = [f"({a.labels[i]},{b.labels[j]})" for (i, j) in pairs]
    return FiniteEffectAlgebra(table, idx[(a.zero, b.zero)], idx[(a.one, b.one)], labels)
