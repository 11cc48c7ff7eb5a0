"""Raw tables of the benchmark's finite structures, built from scratch.

Nothing here imports synaptica: the documents the program under test
receives, and the answers the oracles expect, both come from these
constructions. An effect algebra is (labels, table, zero, one) with
table[e][f] the index of e + f, or None where the sum is undefined.
Known state-polytope vertices ride along with each effect algebra so
that the states-exact oracle can compare vertex sets exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class EffectAlgebra:
    name: str
    labels: tuple[str, ...]
    table: tuple[tuple[int | None, ...], ...]
    zero: int
    one: int
    # exact vertices of the state polytope, one value per element
    vertices: frozenset[tuple[Fraction, ...]]

    @property
    def n(self) -> int:
        return len(self.labels)


def boolean_ea(k: int) -> EffectAlgebra:
    n = 1 << k
    table = tuple(
        tuple(a | b if a & b == 0 else None for b in range(n)) for a in range(n)
    )
    verts = frozenset(
        tuple(Fraction((m >> i) & 1) for m in range(n)) for i in range(k)
    )
    return EffectAlgebra(f"2^{k}", tuple(f"s{m}" for m in range(n)), table, 0, n - 1, verts)


def chain_ea(steps: int) -> EffectAlgebra:
    n = steps + 1
    table = tuple(
        tuple(i + j if i + j <= steps else None for j in range(n)) for i in range(n)
    )
    labels = ["0"] + [f"{i}/{steps}" for i in range(1, steps)] + ["1"]
    verts = frozenset([tuple(Fraction(i, steps) for i in range(n))])
    return EffectAlgebra(f"chain({steps})", tuple(labels), table, 0, steps, verts)


def mo2_ea() -> EffectAlgebra:
    # 0, a, a', b, b', 1: x + y is defined when x <= y' and is then x OR y
    labels = ("0", "a", "a'", "b", "b'", "1")
    table = [[None] * 6 for _ in range(6)]
    for x in range(6):
        table[0][x] = table[x][0] = x
    for x, y in ((1, 2), (3, 4)):
        table[x][y] = table[y][x] = 5
    verts = frozenset(
        (Fraction(0), Fraction(a), Fraction(1 - a), Fraction(b), Fraction(1 - b), Fraction(1))
        for a in (0, 1)
        for b in (0, 1)
    )
    return EffectAlgebra("MO2", labels, tuple(map(tuple, table)), 0, 5, verts)


def diamond_ea() -> EffectAlgebra:
    # a + a = 1 and b + b = 1: the single state gives both one half
    N = None
    table = ((0, 1, 2, 3), (1, 3, N, N), (2, N, 3, N), (3, N, N, N))
    half = Fraction(1, 2)
    verts = frozenset([(Fraction(0), half, half, Fraction(1))])
    return EffectAlgebra("diamond", ("0", "a", "b", "1"), table, 0, 3, verts)


def product_ea(a: EffectAlgebra, b: EffectAlgebra) -> EffectAlgebra:
    """Coordinatewise sum; defined exactly when both coordinates are.

    A state on A x B splits as s(x, y) = t s_A(x) + (1 - t) s_B(y), so
    the vertices are the vertices of either factor, read through one
    coordinate.
    """
    pairs = [(i, j) for i in range(a.n) for j in range(b.n)]
    idx = {p: k for k, p in enumerate(pairs)}
    table = tuple(
        tuple(
            idx[(s1, s2)]
            if (s1 := a.table[i1][i2]) is not None and (s2 := b.table[j1][j2]) is not None
            else None
            for (i2, j2) in pairs
        )
        for (i1, j1) in pairs
    )
    verts = frozenset(
        [tuple(v[i] for (i, _) in pairs) for v in a.vertices]
        + [tuple(w[j] for (_, j) in pairs) for w in b.vertices]
    )
    labels = tuple(f"({a.labels[i]},{b.labels[j]})" for (i, j) in pairs)
    return EffectAlgebra(
        f"{a.name}x{b.name}", labels, table, idx[(a.zero, b.zero)], idx[(a.one, b.one)], verts
    )


def permuted(ea: EffectAlgebra, perm: list[int]) -> EffectAlgebra:
    """The same algebra with element i moved to position perm[i]."""
    n = ea.n
    inv = [0] * n
    for i, p in enumerate(perm):
        inv[p] = i
    table = tuple(
        tuple(
            None if (g := ea.table[inv[e]][inv[f]]) is None else perm[g]
            for f in range(n)
        )
        for e in range(n)
    )
    labels = tuple(ea.labels[inv[e]] for e in range(n))
    verts = frozenset(tuple(v[inv[e]] for e in range(n)) for v in ea.vertices)
    return EffectAlgebra(ea.name, labels, table, perm[ea.zero], perm[ea.one], verts)


def ea_document(ea: EffectAlgebra, label: str, table=None) -> dict:
    table = ea.table if table is None else table
    lab = ea.labels
    return {
        "kind": "effect_algebra",
        "label": label,
        "elements": list(lab),
        "zero": lab[ea.zero],
        "one": lab[ea.one],
        "osum": [
            [lab[e], lab[f], lab[g]]
            for e in range(ea.n)
            for f in range(ea.n)
            if (g := table[e][f]) is not None
        ],
    }


def is_exact_state(ea: EffectAlgebra, values) -> bool:
    """Normalized, [0, 1]-valued and additive on every defined sum."""
    if values[ea.one] != 1 or any(v < 0 or v > 1 for v in values):
        return False
    return all(
        values[e] + values[f] == values[g]
        for e in range(ea.n)
        for f in range(ea.n)
        if (g := ea.table[e][f]) is not None
    )


# ---------------------------------------------------------------------------
# ortholattices and posets, as documents with their expected flags


@dataclass(frozen=True)
class Ortholattice:
    name: str
    labels: tuple[str, ...]
    covers: tuple[tuple[str, str], ...]
    perp: tuple[int, ...]
    zero: int
    one: int
    # expected classification: lattice, distributive, boolean, orthomodular
    flags: tuple[bool, bool, bool, bool]

    def document(self, label: str) -> dict:
        lab = self.labels
        return {
            "kind": "ortholattice",
            "label": label,
            "elements": list(lab),
            "leq": [list(c) for c in self.covers],
            "perp": [[lab[i], lab[p]] for i, p in enumerate(self.perp)],
            "zero": lab[self.zero],
            "one": lab[self.one],
        }


def boolean_lattice(k: int) -> Ortholattice:
    n = 1 << k
    labels = tuple(f"s{m}" for m in range(n))
    covers = tuple(
        (labels[m], labels[m | 1 << i]) for m in range(n) for i in range(k) if not m >> i & 1
    )
    perp = tuple((n - 1) ^ m for m in range(n))
    return Ortholattice(f"2^{k}", labels, covers, perp, 0, n - 1, (True, True, True, True))


def mo2_lattice() -> Ortholattice:
    labels = ("0", "a", "a'", "b", "b'", "1")
    covers = tuple(("0", x) for x in labels[1:5]) + tuple((x, "1") for x in labels[1:5])
    return Ortholattice("MO2", labels, covers, (5, 2, 1, 4, 3, 0), 0, 5, (True, False, False, True))


def o6_lattice() -> Ortholattice:
    labels = ("0", "a", "b", "b'", "a'", "1")
    covers = (("0", "a"), ("a", "b"), ("b", "1"), ("0", "b'"), ("b'", "a'"), ("a'", "1"))
    return Ortholattice("O6", labels, covers, (5, 4, 3, 2, 1, 0), 0, 5, (True, False, False, False))


def chain_poset(n: int, label: str) -> dict:
    labels = [f"c{i}" for i in range(n)]
    return {
        "kind": "poset",
        "label": label,
        "elements": labels,
        "leq": [[labels[i], labels[i + 1]] for i in range(n - 1)],
    }


def bowtie_poset(label: str) -> dict:
    return {
        "kind": "poset",
        "label": label,
        "elements": ["bot", "l1", "l2", "u1", "u2"],
        "leq": [["bot", "l1"], ["bot", "l2"], ["l1", "u1"], ["l1", "u2"],
                ["l2", "u1"], ["l2", "u2"]],
    }


# ---------------------------------------------------------------------------
# MV algebras: Lukasiewicz chains, Boolean algebras and their products


@dataclass(frozen=True)
class MVAlgebra:
    name: str
    labels: tuple[str, ...]
    plus: tuple[tuple[int, ...], ...]
    perp: tuple[int, ...]
    zero: int

    def document(self, label: str) -> dict:
        lab = self.labels
        return {
            "kind": "mv_algebra",
            "label": label,
            "elements": list(lab),
            "plus": [[lab[v] for v in row] for row in self.plus],
            "perp": [[lab[i], lab[p]] for i, p in enumerate(self.perp)],
            "zero": lab[self.zero],
        }


def lukasiewicz_chain(steps: int) -> MVAlgebra:
    n = steps + 1
    plus = tuple(tuple(min(i + j, steps) for j in range(n)) for i in range(n))
    labels = tuple(f"{i}/{steps}" for i in range(n))
    return MVAlgebra(f"L{steps}", labels, plus, tuple(steps - i for i in range(n)), 0)


def boolean_mv(k: int) -> MVAlgebra:
    n = 1 << k
    plus = tuple(tuple(a | b for b in range(n)) for a in range(n))
    labels = tuple(f"s{m}" for m in range(n))
    return MVAlgebra(f"B{k}", labels, plus, tuple((n - 1) ^ m for m in range(n)), 0)


def product_mv(a: MVAlgebra, b: MVAlgebra) -> MVAlgebra:
    pairs = [(i, j) for i in range(len(a.labels)) for j in range(len(b.labels))]
    idx = {p: k for k, p in enumerate(pairs)}
    plus = tuple(
        tuple(idx[(a.plus[i1][i2], b.plus[j1][j2])] for (i2, j2) in pairs)
        for (i1, j1) in pairs
    )
    perp = tuple(idx[(a.perp[i], b.perp[j])] for (i, j) in pairs)
    labels = tuple(f"({a.labels[i]},{b.labels[j]})" for (i, j) in pairs)
    return MVAlgebra(f"{a.name}x{b.name}", labels, plus, perp, idx[(a.zero, b.zero)])
