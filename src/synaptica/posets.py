"""Finite posets and orthocomplemented lattices on index sets.

Elements are integers 0..n-1 with optional string labels, and the order
relation is a dense boolean matrix. Every predicate here is decided by
exhaustive scan, so at desk scale (n up to a few dozen) the answers are
exact and double as oracles for the rest of the package.

The scans run over whole tables. lattice_tables computes every meet and
join at once with numpy, one row of O(n^2) booleans at a time, and the
ortholattice axioms and the classification flags are array comparisons
over those tables and the relation, each reporting its first failing
pair in row-major order. The scalar meet, join and subset_inf_sup stay
as single-pair queries.
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
    "lattice_tables",
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
        A pair member is a label, or else an int index in range (not a
        bool); anything else raises a StructureError naming the pair. A
        cycle surfaces as an antisymmetry failure.
        """
        labels = tuple(labels)
        index = {lab: i for i, lab in enumerate(labels)}
        n = len(labels)

        def resolve(x, pair) -> int:
            try:
                if x in index:
                    return index[x]
            except TypeError:  # unhashable, so not a label
                pass
            if isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n:
                return x
            raise StructureError(
                f"pair {pair!r}: {x!r} is neither a label nor an index below {n}"
            )

        table = np.eye(n, dtype=bool)
        for pair in pairs:
            try:
                a, b = pair
            except (TypeError, ValueError):
                raise StructureError(f"pair {pair!r} is not a (below, above) pair") from None
            table[resolve(a, pair), resolve(b, pair)] = True
        for k in range(n):  # Warshall closure
            table |= table[:, k][:, None] & table[k, :][None, :]
        return cls(table, labels)

    @property
    def n(self) -> int:
        return self._leq.shape[0]

    def leq(self, a: int, b: int) -> bool:
        return bool(self._leq[a, b])

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


# Entries of the boolean cube common[a, b, c] built per block of rows a:
# large enough that small posets take one block, small enough that the
# largest posets stay at one row per block and peak memory does not grow.
_BLOCK_ENTRIES = 1 << 14


def _glb_table(leq: np.ndarray) -> np.ndarray:
    """Greatest lower bound of every pair under leq, -1 where there is none.

    A pair's candidate is its common lower bound with the largest
    down-set. A greatest lower bound lies above every other common lower
    bound, so its down-set is the strictly largest; the candidate is
    therefore the greatest lower bound exactly when every common lower
    bound lies below it, and that containment is the whole check.
    """
    n = leq.shape[0]
    below = leq.T                          # below[b, c]: c <= b
    down = leq.sum(axis=0)                 # down[c]: size of c's down-set
    table = np.empty((n, n), dtype=np.intp)
    step = max(1, _BLOCK_ENTRIES // (n * n)) if n else 1
    for start in range(0, n, step):
        common = below & below[start:start + step, None, :]  # c <= a and c <= b
        cand = np.where(common, down, -1).argmax(axis=2)
        stray = common & ~below[cand]      # common lower bounds not below cand
        table[start:start + step] = np.where(
            common.any(axis=2) & ~stray.any(axis=2), cand, -1
        )
    return table


def lattice_tables(p: FinitePoset) -> tuple[np.ndarray, np.ndarray]:
    """(meets, joins): n x n integer tables, -1 where a pair has no meet or join.

    Exact and exhaustive, like meet and join pair by pair; the join
    table is the meet table of the reversed order.
    """
    leq = p.relation()
    return _glb_table(leq), _glb_table(leq.T)


def _first_pair(mask: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first True entry in row-major order, or None."""
    hits = np.argwhere(mask)
    return (int(hits[0, 0]), int(hits[0, 1])) if hits.size else None


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
        meets, joins = lattice_tables(poset)
        if hit := _first_pair((meets < 0) | (joins < 0)):
            raise StructureError("not a lattice: pair (%d, %d)" % hit)
        p = np.array(perp, dtype=np.intp)
        rows = np.arange(n)
        bad = np.flatnonzero(p[p] != rows)
        if bad.size:
            raise StructureError(f"perp is not an involution at {bad[0]}")
        leq = poset.relation()
        # leq[perp[b], perp[a]] at [a, b]
        if hit := _first_pair(leq & ~leq[np.ix_(p, p)].T):
            raise StructureError("perp does not reverse order on (%d, %d)" % hit)
        bad = np.flatnonzero((meets[rows, p] != zero) | (joins[rows, p] != one))
        if bad.size:
            raise StructureError(f"perp({bad[0]}) is not a complement of {bad[0]}")
        meets.flags.writeable = False
        joins.flags.writeable = False
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
        return self._meets.item(a, b)

    def join(self, a: int, b: int) -> int:
        return self._joins.item(a, b)

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
    n = latt.n
    rows = np.arange(n)
    inner = latt._meets[:, np.array(latt.perp)].T       # [a, b]: b AND perp(a)
    outer = latt._joins[rows[:, None], inner]           # [a, b]: a OR inner[a, b]
    return not (latt.poset.relation() & (outer != rows)).any()


def _distributive(meets: np.ndarray, joins: np.ndarray) -> bool:
    # a AND (b OR c) = (a AND b) OR (a AND c), over (b, c) at once per a
    for row in meets:
        if not np.array_equal(row[joins], joins[row[:, None], row]):
            return False
    return True


def classify(structure) -> Classification:
    """Decide the standard lattice-theoretic flags by exhaustive scan.

    An ortholattice brings the meet and join tables its constructor
    already built; a plain poset has them computed by lattice_tables.
    """
    if isinstance(structure, BoundedOrtholattice):
        p, latt = structure.poset, structure
        meets, joins = structure._meets, structure._joins
    else:
        p, latt = structure, None
        meets, joins = lattice_tables(p)
    has_meet, has_join = meets >= 0, joins >= 0
    is_lattice = bool(has_meet.all() and has_join.all())
    bottom, top = p.minimum(), p.maximum()
    bounded = bottom is not None and top is not None

    is_distributive = is_lattice and _distributive(meets, joins)

    is_complemented = False
    if is_lattice and bounded:
        is_complemented = bool(((meets == bottom) & (joins == top)).any(axis=1).all())

    is_boolean = is_lattice and bounded and is_distributive and is_complemented

    oml: bool | None = None
    if latt is not None:
        oml = _orthomodular(latt)

    # in a lattice every pair has its join above and its meet below, so
    # directedness and the Dedekind condition need no scan there
    is_directed = dedekind = True
    if not is_lattice:
        leq = p.relation().astype(np.int64)
        upper = (leq @ leq.T) > 0       # [a, b]: a common upper bound exists
        lower = (leq.T @ leq) > 0       # [a, b]: a common lower bound exists
        is_directed = bool((upper & lower).all())
        # Dedekind: pairs bounded above have joins, pairs bounded below
        # have meets; finite induction lifts this to bounded subsets.
        dedekind = bool(((~upper | has_join) & (~lower | has_meet)).all())

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
