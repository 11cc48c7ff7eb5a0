"""Finite posets and orthocomplemented lattices on index sets.

Elements are integers 0..n-1 with optional string labels, and the order
relation is a dense boolean matrix. Every predicate here is decided by
exhaustive scan, so at desk scale (n up to a few dozen) the answers are
exact and double as oracles for the rest of the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "StructureError",
    "FinitePoset",
    "BoundedOrtholattice",
    "Classification",
    "meet",
    "join",
    "subset_inf_sup",
    "classify",
    "is_oml",
]


class StructureError(ValueError):
    """Input data does not satisfy the axioms of the requested structure."""


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


class FinitePoset:
    """A finite partially ordered set given by its full relation table.

    ``leq[i, j]`` is True when element i is below element j. The
    constructor rejects tables that are not reflexive, antisymmetric and
    transitive, naming the offending pair.
    """

    def __init__(self, leq, labels=None):
        table = np.array(leq, dtype=bool)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise StructureError("relation table must be square")
        n = table.shape[0]
        if n == 0:
            raise StructureError("poset must be nonempty")
        diag = table.diagonal()
        if not diag.all():
            i = int(np.flatnonzero(~diag)[0])
            raise StructureError(f"not reflexive at element {i}")
        both = table & table.T
        np.fill_diagonal(both, False)
        if both.any():
            i, j = (int(v) for v in np.argwhere(both)[0])
            raise StructureError(f"antisymmetry fails on pair ({i}, {j})")
        reach = (table.astype(np.int64) @ table.astype(np.int64)) > 0
        gap = reach & ~table
        if gap.any():
            i, k = (int(v) for v in np.argwhere(gap)[0])
            raise StructureError(f"transitivity fails reaching ({i}, {k})")
        table.flags.writeable = False
        self._leq = table
        self.labels = tuple(labels) if labels is not None else _default_labels(n)
        if len(self.labels) != n:
            raise StructureError("label count does not match element count")
        if len(set(self.labels)) != n:
            raise StructureError("labels must be unique")

    @classmethod
    def from_pairs(cls, labels, pairs) -> "FinitePoset":
        """Build from a list of (below, above) pairs.

        The reflexive-transitive closure is applied, so covers suffice.
        Pairs may use labels or indices. A cycle surfaces as an
        antisymmetry failure.
        """
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)
        table = np.eye(n, dtype=bool)
        for a, b in pairs:
            i = index[a] if a in index else int(a)
            j = index[b] if b in index else int(b)
            table[i, j] = True
        for k in range(n):  # Warshall closure
            table |= table[:, k][:, None] & table[k, :][None, :]
        return cls(table, labels)

    @property
    def n(self) -> int:
        return self._leq.shape[0]

    def leq(self, a: int, b: int) -> bool:
        return bool(self._leq[a, b])

    def lt(self, a: int, b: int) -> bool:
        return a != b and bool(self._leq[a, b])

    def relation(self) -> np.ndarray:
        return self._leq

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def lower_bounds(self, subset) -> list[int]:
        rows = self._leq[:, list(subset)]
        return [int(i) for i in np.flatnonzero(rows.all(axis=1))]

    def upper_bounds(self, subset) -> list[int]:
        cols = self._leq[list(subset), :]
        return [int(i) for i in np.flatnonzero(cols.all(axis=0))]

    def minimum(self) -> int | None:
        hits = np.flatnonzero(self._leq.all(axis=1))
        return int(hits[0]) if hits.size else None

    def maximum(self) -> int | None:
        hits = np.flatnonzero(self._leq.all(axis=0))
        return int(hits[0]) if hits.size else None

    def __repr__(self) -> str:
        return f"FinitePoset(n={self.n})"


def _greatest(p: FinitePoset, candidates: list[int]) -> int | None:
    for c in candidates:
        if all(p.leq(d, c) for d in candidates):
            return c
    return None


def _least(p: FinitePoset, candidates: list[int]) -> int | None:
    for c in candidates:
        if all(p.leq(c, d) for d in candidates):
            return c
    return None


def meet(p: FinitePoset, a: int, b: int) -> int | None:
    """Greatest lower bound of a and b, or None when absent."""
    return _greatest(p, p.lower_bounds((a, b)))


def join(p: FinitePoset, a: int, b: int) -> int | None:
    """Least upper bound of a and b, or None when absent."""
    return _least(p, p.upper_bounds((a, b)))


def subset_inf_sup(p: FinitePoset, subset) -> tuple[int | None, int | None]:
    """(inf, sup) of a nonempty subset, each None when absent."""
    elems = list(subset)
    if not elems:
        raise ValueError("subset must be nonempty")
    return _greatest(p, p.lower_bounds(elems)), _least(p, p.upper_bounds(elems))


class BoundedOrtholattice:
    """Bounded lattice with an order-reversing involutive complementation.

    perp maps every element to its orthocomplement. Construction checks,
    exhaustively: the base is a lattice with the given bounds, perp is an
    involution, it reverses order, and a AND perp(a) = 0, a OR perp(a) = 1.
    """

    def __init__(self, poset: FinitePoset, zero: int, one: int, perp):
        self.poset = poset
        n = poset.n
        if poset.minimum() != zero:
            raise StructureError("zero is not the minimum")
        if poset.maximum() != one:
            raise StructureError("one is not the maximum")
        self.zero = zero
        self.one = one
        perp = tuple(int(x) for x in perp)
        if len(perp) != n or sorted(perp) != list(range(n)):
            raise StructureError("perp must be a permutation of the elements")
        meets = [[meet(poset, a, b) for b in range(n)] for a in range(n)]
        joins = [[join(poset, a, b) for b in range(n)] for a in range(n)]
        for a in range(n):
            for b in range(n):
                if meets[a][b] is None or joins[a][b] is None:
                    raise StructureError(f"not a lattice: pair ({a}, {b})")
        for a in range(n):
            if perp[perp[a]] != a:
                raise StructureError(f"perp is not an involution at {a}")
        for a in range(n):
            for b in range(n):
                if poset.leq(a, b) and not poset.leq(perp[b], perp[a]):
                    raise StructureError(f"perp does not reverse order on ({a}, {b})")
        for a in range(n):
            if meets[a][perp[a]] != zero or joins[a][perp[a]] != one:
                raise StructureError(f"perp({a}) is not a complement of {a}")
        self.perp = perp
        self._meets = meets
        self._joins = joins

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poset.labels

    def leq(self, a: int, b: int) -> bool:
        return self.poset.leq(a, b)

    def meet(self, a: int, b: int) -> int:
        return self._meets[a][b]

    def join(self, a: int, b: int) -> int:
        return self._joins[a][b]

    def __repr__(self) -> str:
        return f"BoundedOrtholattice(n={self.n})"


@dataclass(frozen=True)
class Classification:
    """Exhaustively decided structure flags for a finite poset.

    is_oml is None when the input carries no orthocomplementation; use
    the is_oml() function to get an error instead of None in that case.
    The three completeness flags are the finite-poset decisions: at this
    scale sigma-completeness and lattice-completeness coincide with
    being a lattice, and ascending sequences stabilize, so the monotone
    flag is always true.
    """

    is_lattice: bool
    is_distributive: bool
    is_complemented: bool
    is_boolean: bool
    is_oml: bool | None
    is_directed: bool
    is_lattice_complete: bool
    is_sigma_complete: bool
    is_dedekind_sigma_complete: bool
    is_monotone_sigma_complete: bool


def _orthomodular(latt: BoundedOrtholattice) -> bool:
    # a <= b must force b = a OR (b AND perp(a))
    for a in range(latt.n):
        for b in range(latt.n):
            if latt.leq(a, b):
                if latt.join(a, latt.meet(b, latt.perp[a])) != b:
                    return False
    return True


def classify(structure) -> Classification:
    """Decide the standard lattice-theoretic flags by exhaustive scan.

    An ortholattice brings the meet and join tables its constructor
    already built; a plain poset has them scanned here.
    """
    if isinstance(structure, BoundedOrtholattice):
        p, latt = structure.poset, structure
        meets, joins = structure._meets, structure._joins
    else:
        p, latt = structure, None
        meets = [[meet(p, a, b) for b in range(p.n)] for a in range(p.n)]
        joins = [[join(p, a, b) for b in range(p.n)] for a in range(p.n)]
    n = p.n
    is_lattice = all(
        meets[a][b] is not None and joins[a][b] is not None
        for a in range(n)
        for b in range(n)
    )
    bottom, top = p.minimum(), p.maximum()
    bounded = bottom is not None and top is not None

    is_distributive = False
    if is_lattice:
        is_distributive = all(
            meets[a][joins[b][c]] == joins[meets[a][b]][meets[a][c]]
            for a in range(n)
            for b in range(n)
            for c in range(n)
        )

    is_complemented = False
    if is_lattice and bounded:
        is_complemented = all(
            any(meets[a][b] == bottom and joins[a][b] == top for b in range(n))
            for a in range(n)
        )

    is_boolean = is_lattice and bounded and is_distributive and is_complemented

    oml: bool | None = None
    if latt is not None:
        oml = _orthomodular(latt)

    # in a lattice every pair has its join above and its meet below, so
    # directedness and the Dedekind condition need no scan there
    is_directed = is_lattice or all(
        p.upper_bounds((a, b)) and p.lower_bounds((a, b))
        for a in range(n)
        for b in range(n)
    )

    # Dedekind: pairs bounded above have joins, pairs bounded below have
    # meets; finite induction lifts this to arbitrary bounded subsets.
    dedekind = is_lattice or all(
        (not p.upper_bounds((a, b)) or joins[a][b] is not None)
        and (not p.lower_bounds((a, b)) or meets[a][b] is not None)
        for a in range(n)
        for b in range(n)
    )

    return Classification(
        is_lattice=is_lattice,
        is_distributive=is_distributive,
        is_complemented=is_complemented,
        is_boolean=is_boolean,
        is_oml=oml,
        is_directed=is_directed,
        is_lattice_complete=is_lattice,
        is_sigma_complete=is_lattice,
        is_dedekind_sigma_complete=dedekind,
        is_monotone_sigma_complete=True,
    )


def is_oml(structure) -> bool:
    """Orthomodularity test; errors on structures with no perp."""
    if not isinstance(structure, BoundedOrtholattice):
        raise ValueError("no orthocomplementation")
    return _orthomodular(structure)
