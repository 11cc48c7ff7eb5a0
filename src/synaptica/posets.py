"""Finite posets and orthocomplemented lattices on index sets.

Elements are integers 0..n-1 with optional string labels, and the order
relation is a dense boolean matrix. Every predicate here is decided by
exhaustive scan, so at desk scale (n up to about a hundred) the
answers are exact and double as oracles for the rest of the package.

The table-wide work runs on down-sets packed into uint64 words, one row
of ceil(n/64) words per element. The common lower bounds of a and b
have a greatest element c exactly when they are c's down-set, and
distinct elements have distinct down-sets, so lattice_tables ANDs the
packed rows of every pair and looks each result up among the n sorted
down-sets: O(n^2) word operations per table, no n^3 cube. from_pairs
closes the order by squaring the relation over packed rows,
ceil(log2(n - 1)) times, and the constructor's transitivity check is
one such squaring. Distributivity is decided by join-prime
irreducibles: a finite lattice is distributive iff every
join-irreducible j (one whose strict down-set is the down-set of some
k, that is, one with a lower cover k whose down-set is one element
smaller) satisfies j <= b OR c only if j <= b or j <= c (Davey &
Priestley, Introduction to Lattices and Order, 2002, ch. 5), that is
iff the elements not above j make up the down-set of one element. That
down-set holds the down-set of each of its members, so it is one of
them exactly when the largest of those is as large as it: one
(irreducibles, n) array of down-set sizes. The squaring and the tables
run in row chunks of at most _CHUNK_WORDS words (one chunk up to 128
elements). The ortholattice axioms and the other classification flags
are array comparisons over the tables and the relation, each reporting
its first failing pair through first_pair; effect_algebras and stone use
it too, and read an ortholattice's meets and joins whole. The scalar
meet, join and subset_inf_sup read the relation pair by pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

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


# uint64 words a row chunk of _square or _glb_table holds: 128 x 128
# pairs of two-word rows, so an order of up to 128 elements is one chunk
_CHUNK_WORDS = 1 << 15


class StructureError(ValueError):
    """Input data does not satisfy the axioms of the requested structure."""


def _default_labels(n: int) -> tuple[str, ...]:
    return tuple(f"e{i}" for i in range(n))


def _pack(rows: np.ndarray) -> np.ndarray:
    """Boolean rows as uint64 words: column j is bit j % 8 of byte j // 8.

    Every word operation here is bitwise, and _unpack reads the bytes
    back in the same order, so the layout holds on either byte order.
    """
    packed = np.packbits(np.ascontiguousarray(rows), axis=1, bitorder="little")
    if packed.shape[1] % 8:
        octets = np.zeros((len(rows), packed.shape[1] // 8 * 8 + 8), dtype=np.uint8)
        octets[:, :packed.shape[1]] = packed
        packed = octets
    return packed.view(np.uint64)


def _unpack(words: np.ndarray, m: int) -> np.ndarray:
    """The first m columns of packed rows (C-contiguous), as booleans."""
    return np.unpackbits(words.view(np.uint8), axis=-1, count=m, bitorder="little").view(bool)


def _by_chunks(kernel, n: int, words_per_row: int) -> np.ndarray:
    """kernel(rows) on slices of n rows, each _CHUNK_WORDS words or one row at most, stacked."""
    step = max(_CHUNK_WORDS // words_per_row, 1)
    parts = [kernel(slice(i, i + step)) for i in range(0, n, step)]
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


def _square(table: np.ndarray, words: np.ndarray) -> np.ndarray:
    """Packed rows of the relation composed with itself: row i ORs the rows k with i R k.

    table is the relation as booleans and words its packed rows. Each
    chunk of rows is a C-ordered (rows, words, n) stack, so each OR runs
    along contiguous memory.
    """
    cols = np.ascontiguousarray(words.T)
    return _by_chunks(lambda rows: np.bitwise_or.reduce(cols * table[rows, None, :], axis=2),
                      len(table), cols.size)


def _keys(words: np.ndarray) -> np.ndarray:
    """One sortable key per packed row, equal exactly when the rows are."""
    width = words.shape[-1]
    if width == 1:
        return words[..., 0]
    return np.ascontiguousarray(words).view(np.dtype((np.void, 8 * width)))[..., 0]


def _index_pairs(labels: tuple, pairs: list) -> np.ndarray | None:
    """pairs as an (m, 2) index array when every member is an int index in range.

    Only when every label is a string, so no member means a label, and
    every pair is a list or tuple of two. None sends the pairs through
    the member-by-member reading, which also names any pair it cannot
    read.
    """
    if not all(type(lab) is str for lab in labels) or not set(map(type, pairs)) <= {list, tuple}:
        return None
    if set(map(len, pairs)) != {2}:
        return None
    members = list(chain.from_iterable(pairs))
    if set(map(type, members)) != {int}:
        return None
    if min(members) < 0 or max(members) >= len(labels):
        return None
    return np.array(members, dtype=np.intp).reshape(-1, 2)


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
        self._adopt(table, labels, closed=False)

    def _adopt(self, table: np.ndarray, labels, closed: bool) -> None:
        """Check a square table as an order on labels, and keep both.

        closed skips the transitivity test, for a table that the
        closure of from_pairs has made transitive.
        """
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
        if not closed:  # one squaring adds nothing to a transitive table
            words = _pack(table)
            reach = _square(table, words)
            if not np.array_equal(reach, words):
                raise StructureError("transitivity fails reaching (%d, %d)"
                                     % first_pair(_unpack(reach & ~words, n)))
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
        n = len(labels)
        table = np.eye(n, dtype=bool)
        pairs = pairs if isinstance(pairs, list) else list(pairs)
        hits = _index_pairs(labels, pairs)
        if hits is not None:
            table[hits[:, 0], hits[:, 1]] = True
        else:
            index = {lab: i for i, lab in enumerate(labels)}

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

            for pair in pairs:
                try:
                    a, b = pair
                except (TypeError, ValueError):
                    raise StructureError(f"pair {pair!r} is not a (below, above) pair") from None
                table[resolve(a, pair), resolve(b, pair)] = True
        # r squarings close every path of up to 2^r steps, and no path
        # without a repeated element has more than n - 1
        words = _pack(table)
        for _ in range(max(n - 2, 0).bit_length()):
            words = _square(table, words)
            table = _unpack(words, n)
        poset = cls.__new__(cls)
        poset._adopt(table, labels, closed=True)
        return poset

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


def _first_bound(rel: np.ndarray, candidates: list[int]) -> int | None:
    """The first candidate c with rel[d, c] for every candidate d, or None."""
    hits = np.flatnonzero(rel[np.ix_(candidates, candidates)].all(axis=0))
    return candidates[hits[0]] if hits.size else None


def meet(p: FinitePoset, a: int, b: int) -> int | None:
    """Greatest lower bound of a and b, or None when absent."""
    return _first_bound(p.relation(), p.lower_bounds((a, b)))


def join(p: FinitePoset, a: int, b: int) -> int | None:
    """Least upper bound of a and b, or None when absent."""
    return _first_bound(p.relation().T, p.upper_bounds((a, b)))


def subset_inf_sup(p: FinitePoset, subset) -> tuple[int | None, int | None]:
    """(inf, sup) of a nonempty subset, each None when absent."""
    elems = list(subset)
    if not elems:
        raise ValueError("subset must be nonempty")
    return (_first_bound(p.relation(), p.lower_bounds(elems)),
            _first_bound(p.relation().T, p.upper_bounds(elems)))


def _glb_table(leq: np.ndarray) -> np.ndarray:
    """Greatest lower bound of every pair under leq, -1 where there is none.

    The common lower bounds of a and b have a greatest element c exactly
    when they make up c's down-set, so each pair's packed AND is looked
    up among the down-sets, which antisymmetry keeps distinct.
    """
    down = _pack(leq.T)                    # down[c]: the elements c' <= c
    keys = _keys(down)
    order = np.argsort(keys)
    ranked = keys[order]

    def rows_of(rows: slice) -> np.ndarray:
        common = _keys(down[rows, None, :] & down[None, :, :])
        at = np.minimum(np.searchsorted(ranked, common), len(keys) - 1)
        return np.where(ranked[at] == common, order[at], -1)

    return _by_chunks(rows_of, len(down), down.size)


def lattice_tables(p: FinitePoset) -> tuple[np.ndarray, np.ndarray]:
    """(meets, joins): n x n integer tables, -1 where a pair has no meet or join.

    Exact and exhaustive, like meet and join pair by pair; the join
    table is the meet table of the reversed order.
    """
    leq = p.relation()
    return _glb_table(leq), _glb_table(leq.T)


def first_pair(mask: np.ndarray) -> tuple[int, int] | None:
    """(row, column) of the first True entry in row-major order, or None.

    argmax of a boolean array is its first True in row-major order,
    whatever its memory layout.
    """
    if not mask.any():
        return None
    return divmod(int(mask.argmax()), mask.shape[1])


class BoundedOrtholattice:
    """Bounded lattice with an order-reversing involutive complementation.

    perp maps every element to its orthocomplement. Construction checks,
    exhaustively: the base is a lattice with the given bounds, perp is an
    involution, it reverses order, and a AND perp(a) = 0, a OR perp(a) = 1.
    The n x n meet and join tables those checks read stay, read-only, as meets and joins.
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
        if hit := first_pair((meets < 0) | (joins < 0)):
            raise StructureError("not a lattice: pair (%d, %d)" % hit)
        p = np.array(perp, dtype=np.intp)
        rows = np.arange(n)
        bad = np.flatnonzero(p[p] != rows)
        if bad.size:
            raise StructureError(f"perp is not an involution at {bad[0]}")
        leq = poset.relation()
        # leq[perp[b], perp[a]] at [a, b]
        if hit := first_pair(leq & ~leq[np.ix_(p, p)].T):
            raise StructureError("perp does not reverse order on (%d, %d)" % hit)
        bad = np.flatnonzero((meets[rows, p] != zero) | (joins[rows, p] != one))
        if bad.size:
            raise StructureError(f"perp({bad[0]}) is not a complement of {bad[0]}")
        meets.flags.writeable = False
        joins.flags.writeable = False
        self.perp = perp
        self.meets = meets
        self.joins = joins

    @property
    def n(self) -> int:
        return self.poset.n

    @property
    def labels(self) -> tuple[str, ...]:
        return self.poset.labels

    def leq(self, a: int, b: int) -> bool:
        return self.poset.leq(a, b)

    def meet(self, a: int, b: int) -> int:
        return self.meets.item(a, b)

    def join(self, a: int, b: int) -> int:
        return self.joins.item(a, b)

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
    inner = latt.meets[:, np.array(latt.perp)].T        # [a, b]: b AND perp(a)
    outer = latt.joins[rows[:, None], inner]            # [a, b]: a OR inner[a, b]
    return not (latt.poset.relation() & (outer != rows)).any()


def _distributive(leq: np.ndarray) -> bool:
    # every join-irreducible j is join-prime: j <= b OR c forces j <= b
    # or j <= c, so the elements not above j are closed under joins, a
    # down-set that in a finite lattice is the down-set of one element.
    # j is join-irreducible when its strict down-set is the down-set of
    # some k < j, that is when some k < j has a down-set one element
    # smaller than j's.
    size = leq.sum(axis=0)                                      # size[x]: |down-set of x|
    up = leq[(leq & (size[:, None] == size - 1)).any(axis=0)]   # [j, x]: j <= x
    # the largest down-set of an x not above j against the count of those x
    return bool((np.where(up, 0, size).max(axis=1) == len(leq) - up.sum(axis=1)).all())


def classify(structure) -> Classification:
    """Decide the standard lattice-theoretic flags by exhaustive scan.

    An ortholattice brings the meet and join tables its constructor
    already built; a plain poset has them computed by lattice_tables.
    """
    if isinstance(structure, BoundedOrtholattice):
        p, latt = structure.poset, structure
        meets, joins = structure.meets, structure.joins
    else:
        p, latt = structure, None
        meets, joins = lattice_tables(p)
    has_meet, has_join = meets >= 0, joins >= 0
    is_lattice = bool(has_meet.all() and has_join.all())
    bottom, top = p.minimum(), p.maximum()
    bounded = bottom is not None and top is not None

    is_distributive = is_lattice and _distributive(p.relation())

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
