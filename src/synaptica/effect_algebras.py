"""Finite effect algebras and MV-algebras as explicit operation tables.

The partial orthosummation is a dense n x n table whose entries are
element indices or None where the sum is undefined. Axiom checking is
exhaustive and reports the first violated axiom together with a witness,
which makes the checker usable as an oracle against mutated tables. Both
scans read the table as one index array, an undefined sum as the index
n, and test associativity in one kernel of two array gathers over
chunks of rows, (d+e)+f and d+(e+f), of at most _CHUNK_ENTRIES entries
each; commutativity and the MV scan's Lukasiewicz identity compare a
table with its transpose. The first mismatch in C order is the witness
the plain loops name first.

The MV side stores a total operation table. The two presentations are
interconvertible: a lattice-ordered effect algebra in which disjoint
elements are orthogonal induces an MV-algebra, and every MV-algebra
restricts back to an effect algebra on the pairs x <= perp(y). The
conversions index whole tables and compare orders as whole relations:
the induced order puts e and f below g for each orthosum e + f = g, and
the MV order is the join formula read over the whole addition table.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, repeat

import numpy as np

from .posets import (FinitePoset, StructureError, first_pair, is_oml, lattice_tables,
                     pair_table)

__all__ = [
    "AxiomViolation",
    "EffectAlgebraError",
    "Validation",
    "FiniteEffectAlgebra",
    "check_ea_axioms",
    "induced_order",
    "oml_to_ea",
    "orthosum_family",
    "is_sub_effect_algebra",
    "MorphismReport",
    "check_morphism",
    "is_mv_effect_algebra",
    "FiniteMVAlgebra",
    "check_mv_axioms",
    "ea_to_mv",
    "mv_to_ea",
]

# The most entries one chunk of the associativity scan gathers per side;
# a table of up to 64 elements is one chunk.
_CHUNK_ENTRIES = 1 << 18


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} fails at {self.witness}: {self.detail}"


class EffectAlgebraError(StructureError):
    """Raised when a table fails the defining axioms.

    A constructor's scan attaches the first violation it found; a
    derived check raises with violation None.
    """

    def __init__(self, message: str, violation: AxiomViolation | None = None):
        super().__init__(message)
        self.violation = violation


@dataclass(frozen=True)
class Validation:
    """What check_ea_axioms or check_mv_axioms found: a structure or a violation."""

    structure: FiniteEffectAlgebra | FiniteMVAlgebra | None
    violation: AxiomViolation | None

    @property
    def ok(self) -> bool:
        return self.violation is None


def _normalize_table(table, n: int):
    """The table as a tuple of n row tuples of int indices or None.

    A table of n list or tuple rows of n entries, each an int in range
    or None, is taken as it is; any other table goes entry by entry
    through int() and a range check, which raises the first bad entry's
    error in row order.
    """
    if len(table) != n:
        raise StructureError("table must have one row per element")
    if set(map(type, table)) <= {list, tuple} and set(map(len, table)) <= {n}:
        rows = tuple(map(tuple, table))
        entries = list(chain.from_iterable(rows))
        # the types of every entry: a set of values would let True pass as 1
        if set(map(type, entries)) <= {int, type(None)}:
            indices = set(entries)
            indices.discard(None)
            if not indices or (min(indices) >= 0 and max(indices) < n):
                return rows

    def entry(v):
        if v is None:
            return None
        i = int(v)
        if not 0 <= i < n:
            raise StructureError(f"table entry {v!r} is not an element index")
        return i

    rows = []
    for row in table:
        row = list(row)
        if len(row) != n:
            raise StructureError("table rows must have one entry per element")
        rows.append(tuple(map(entry, row)))
    return tuple(rows)


def _extended(t) -> np.ndarray:
    """The normalised table t as an (n + 1) x (n + 1) index array.

    An undefined sum reads as the index n, and row n and column n are
    all n, so a sum with an undefined part is undefined. int16 holds the
    indices of tables below 2^15 elements, intp those of larger ones.
    """
    n = len(t)
    dtype = np.int16 if n < 1 << 15 else np.intp
    cells = chain(chain.from_iterable([row + (None,) for row in t]), repeat(None, n + 1))
    ext = np.fromiter((n if v is None else v for v in cells), dtype, (n + 1) ** 2)
    return ext.reshape(n + 1, n + 1)


def _first_nonassociative(ext: np.ndarray) -> tuple[int, int, int] | None:
    """The first (d, e, f) in C order with (d+e)+f != d+(e+f), or None.

    ext is _extended's array. For a chunk of rows d, (d+e)+f is ext read
    at the rows ext[d, e] and d+(e+f) is row d read at the indices
    ext[e, f]: two gathers of rows x n x n entries, at most
    _CHUNK_ENTRIES each (one row d at least). The chunks go in order of
    d, so the first mismatch is the triple the plain loop names first.
    """
    n = len(ext) - 1
    sums = ext[:n, :n]
    step = max(_CHUNK_ENTRIES // (n * n), 1)
    for d in range(0, n, step):
        hit = _first_mismatch(ext[:, :n].take(sums[d:d + step], axis=0),
                              ext[d:min(d + step, n)].take(sums, axis=1))
        if hit:
            return (d + hit[0],) + hit[1:]
    return None


def _first_mismatch(a: np.ndarray, b: np.ndarray) -> tuple[int, ...] | None:
    """The first index in C order at which a and b differ, or None.

    Equal arrays are told by their bytes, which on the small tables
    costs a tenth of an elementwise test; the index is looked up only
    after a mismatch.
    """
    if a.tobytes() == b.tobytes():
        return None
    return tuple(map(int, np.unravel_index(int((a != b).argmax()), a.shape)))


def _units(zero, one, n: int) -> tuple[int, int]:
    zero, one = int(zero), int(one)
    if not (0 <= zero < n and 0 <= one < n):
        raise StructureError("zero/one must be element indices")
    return zero, one


def _labels(labels, n: int, prefix: str) -> tuple:
    labels = tuple(labels) if labels is not None else tuple(f"{prefix}{i}" for i in range(n))
    if len(labels) != n or len(set(labels)) != n:
        raise StructureError("labels must be unique and match element count")
    return labels


class FiniteEffectAlgebra:
    """Effect algebra on an orthosummation table, validated on construction.

    The table is normalised, zero and one are range-checked, the table
    is scanned (see _ea_violation) and then the labels are checked. A
    failing scan raises EffectAlgebraError carrying the violation;
    check_ea_axioms reports it instead.
    """

    def __init__(self, table, zero: int, one: int, labels=None):
        n = len(table)
        self.table = _normalize_table(table, n)
        self.zero, self.one = _units(zero, one, n)
        violation = _ea_violation(self.table, self.zero, self.one)
        if violation is not None:
            raise EffectAlgebraError(str(violation), violation)
        self.labels = _labels(labels, n, "e")
        # orthosupplement is unique once the axioms hold
        self.perp = tuple(row.index(self.one) for row in self.table)
        self._order: FinitePoset | None = None

    @property
    def n(self) -> int:
        return len(self.table)

    @cached_property
    def orthosums(self) -> tuple[tuple[int, int, int], ...]:
        """Every defined orthosum (e, f, g = e + f) with e <= f, row by row.

        The table is commutative, so these triples carry every condition
        that an ordered pair of the table imposes.
        """
        return tuple(
            (e, f, g)
            for e, row in enumerate(self.table)
            for f, g in enumerate(row[e:], e)
            if g is not None
        )

    def osum(self, e: int, f: int) -> int | None:
        return self.table[e][f]

    def orthogonal(self, e: int, f: int) -> bool:
        return self.table[e][f] is not None

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def __repr__(self) -> str:
        return f"FiniteEffectAlgebra(n={self.n})"


def _ea_violation(t, zero: int, one: int) -> AxiomViolation | None:
    """Exhaustive axiom scan of a normalised table; the first violation or None.

    Scan order: commutativity, associativity (in the strong sense that a
    defined side forces the other side to be defined and equal),
    orthosupplement existence and uniqueness, then the zero-one law.
    Witnesses are element indices in scan order. Cancelation needs no
    scan: given the others, a + b = a + c makes b and c both
    orthosupplements of a + (a + b)', so b = c.
    """
    n = len(t)
    ext = _extended(t)
    if hit := _first_mismatch(ext, ext.T):
        e, f = hit
        return AxiomViolation(
            "commutativity",
            (e, f),
            f"osum({e},{f})={t[e][f]!r} but osum({f},{e})={t[f][e]!r}",
        )

    if hit := _first_nonassociative(ext):
        d, e, f = hit
        left, right = (None if v == n else int(v) for v in (ext[ext[d, e], f], ext[d, ext[e, f]]))
        return AxiomViolation(
            "associativity", (d, e, f), f"(d+e)+f={left!r} but d+(e+f)={right!r}"
        )

    for e, row in enumerate(t):
        if row.count(one) != 1:
            sups = [f for f, v in enumerate(row) if v == one]
            detail = "no orthosupplement" if not sups else f"multiple orthosupplements {sups}"
            return AxiomViolation("orthosupplement", (e,), detail)

    for e in range(n):
        if t[e][one] is not None and e != zero:
            return AxiomViolation(
                "zero-one law", (e,), f"osum({e}, one) is defined but {e} != zero"
            )
    return None


def check_ea_axioms(table, zero, one, labels=None) -> Validation:
    """The effect algebra on table, or the first violation its scan found.

    Malformed input (shape, entries, zero/one, labels) still raises
    StructureError, as the constructor does.
    """
    try:
        return Validation(FiniteEffectAlgebra(table, zero, one, labels), None)
    except EffectAlgebraError as exc:
        return Validation(None, exc.violation)


def induced_order(ea: FiniteEffectAlgebra) -> FinitePoset:
    """The order e <= f iff e + d = f for some d, as a validated poset.

    Re-verifies the two standard consequences, pair by pair in row-major
    order: order duality under perp, then that orthogonality of e, f is
    exactly e <= perp(f).
    """
    if ea._order is not None:
        return ea._order
    sums = np.array(ea.orthosums, dtype=np.intp).reshape(-1, 3)
    rel = np.zeros((ea.n, ea.n), dtype=bool)
    rel[sums[:, :2], sums[:, 2:]] = True
    poset = FinitePoset(rel, ea.labels)
    if (bad := np.flatnonzero(~rel[ea.zero] | ~rel[:, ea.one])).size:
        raise EffectAlgebraError(f"induced order is not bounded at {bad[0]}")
    p = np.array(ea.perp, dtype=np.intp)
    duality = rel != rel[np.ix_(p, p)].T             # [e, f]: perp(f) <= perp(e)
    orthogonality = (_sums(ea) >= 0) != rel[:, p]     # [e, f]: e <= perp(f)
    if hit := first_pair(duality | orthogonality):
        what = "order duality fails" if duality[hit] else "orthogonality mismatch"
        raise EffectAlgebraError(f"{what} on {hit}")
    ea._order = poset
    return poset


def _sums(ea: FiniteEffectAlgebra) -> np.ndarray:
    """The orthosummation as an n x n index array, -1 where undefined."""
    e, f, g = np.array(ea.orthosums, dtype=np.intp).reshape(-1, 3).T
    table = np.full((ea.n, ea.n), -1, dtype=np.intp)
    table[e, f] = table[f, e] = g
    return table


def oml_to_ea(latt) -> FiniteEffectAlgebra:
    """Effect algebra of an orthomodular lattice: p + q = p OR q when p <= perp(q)."""
    if not is_oml(latt):
        raise EffectAlgebraError("input is not an orthomodular lattice")
    leq = latt.poset.relation()
    orthogonal = leq[:, np.array(latt.perp, dtype=np.intp)]   # [p, q]: p <= perp(q)
    ea = FiniteEffectAlgebra(np.where(orthogonal, pair_table(latt.join, latt.n), None).tolist(),
                             latt.zero, latt.one, latt.labels)
    disagree = induced_order(ea).relation() != leq
    overlap = orthogonal & (pair_table(latt.meet, latt.n) != latt.zero)
    if hit := first_pair(disagree | overlap):
        if disagree[hit]:
            raise EffectAlgebraError(f"induced order disagrees with lattice at {hit}")
        raise EffectAlgebraError(f"orthogonal pair {hit} is not disjoint")
    return ea


def orthosum_family(ea: FiniteEffectAlgebra, elems) -> int | None:
    """Left fold of the orthosummation; None when any prefix is undefined.

    The result is independent of the order of the family (a consequence
    of associativity and commutativity, re-verified in the test suite on
    all permutations of small families). The empty family sums to zero.
    """
    acc = ea.zero
    for e in elems:
        nxt = ea.table[acc][e]
        if nxt is None:
            return None
        acc = nxt
    return acc


def is_sub_effect_algebra(ea: FiniteEffectAlgebra, subset) -> bool:
    """Closure test: contains 0 and 1, closed under perp and defined sums."""
    s = set(int(x) for x in subset)
    if ea.zero not in s or ea.one not in s:
        return False
    for e in s:
        if ea.perp[e] not in s:
            return False
    for e in s:
        for f in s:
            v = ea.table[e][f]
            if v is not None and v not in s:
                return False
    return True


@dataclass(frozen=True)
class MorphismReport:
    is_morphism: bool
    is_isomorphism: bool
    violation: str | None = None


def _morphism_violation(dom: FiniteEffectAlgebra, cod: FiniteEffectAlgebra, phi) -> str | None:
    """Why phi is no morphism dom -> cod, or None; the first failing pair in row-major order."""
    if phi[dom.one] != cod.one:
        return "unit is not preserved"
    phi, sums = np.array(phi, dtype=np.intp), _sums(dom)
    images = _sums(cod)[phi[:, None], phi]          # [e, f]: phi(e) + phi(f)
    apart = (sums >= 0) & (images < 0)
    if hit := first_pair(apart | (sums >= 0) & (images != phi[sums])):
        return (f"images of orthogonal pair {hit} are not orthogonal" if apart[hit]
                else f"additivity fails on {hit}")
    return None


def check_morphism(dom: FiniteEffectAlgebra, cod: FiniteEffectAlgebra, phi) -> MorphismReport:
    """Check unit preservation and additivity on orthogonal pairs.

    phi is a sequence mapping domain indices to codomain indices. The
    isomorphism flag additionally requires bijectivity and that the
    inverse map is a morphism.
    """
    phi = tuple(int(x) for x in phi)
    if len(phi) != dom.n or any(not (0 <= v < cod.n) for v in phi):
        raise ValueError("phi must map every domain element to a codomain element")
    violation = _morphism_violation(dom, cod, phi)
    if violation is not None:
        return MorphismReport(False, False, violation)
    iso = False
    if dom.n == cod.n and len(set(phi)) == dom.n:
        iso = _morphism_violation(cod, dom, np.argsort(phi).tolist()) is None
    return MorphismReport(True, iso, None)


def _mv_meets(ea: FiniteEffectAlgebra) -> np.ndarray | None:
    """Meet table of the induced order if ea is an MV-effect algebra, else None."""
    meets, joins = lattice_tables(induced_order(ea))
    if (meets < 0).any() or (joins < 0).any() or ((meets == ea.zero) & (_sums(ea) < 0)).any():
        return None
    return meets


def is_mv_effect_algebra(ea: FiniteEffectAlgebra) -> bool:
    """Lattice-ordered and every disjoint pair is orthogonal."""
    return _mv_meets(ea) is not None


# ---------------------------------------------------------------------------
# MV-algebras


def _mv_operands(plus, perp):
    """The addition table and perp as tuples, checked for shape and range."""
    n = len(plus)
    t = _normalize_table(plus, n)
    if any(v is None for row in t for v in row):
        raise StructureError("MV addition must be total")
    p = tuple(int(x) for x in perp)
    if len(p) != n or any(not (0 <= v < n) for v in p):
        raise StructureError("perp must map every element to an element")
    return t, p


class FiniteMVAlgebra:
    """MV-algebra on a total addition table and perp, validated on construction.

    As FiniteEffectAlgebra: normalise the operands, range-check zero and
    one, scan (see _mv_violation), then check the labels. A failing scan
    raises EffectAlgebraError carrying the violation.
    """

    def __init__(self, plus, perp, zero: int, one: int, labels=None):
        n = len(plus)
        self.plus_table, self.perp = _mv_operands(plus, perp)
        self.zero, self.one = _units(zero, one, n)
        violation = _mv_violation(self.plus_table, self.perp, self.zero, self.one)
        if violation is not None:
            raise EffectAlgebraError(str(violation), violation)
        self.labels = _labels(labels, n, "x")
        self._order: FinitePoset | None = None

    @property
    def n(self) -> int:
        return len(self.plus_table)

    def plus(self, x: int, y: int) -> int:
        return self.plus_table[x][y]

    def mv_join(self, x: int, y: int) -> int:
        # x OR y = x + (x + perp(y))'
        return self.plus_table[x][self.perp[self.plus_table[x][self.perp[y]]]]

    def leq(self, x: int, y: int) -> bool:
        return self.mv_join(x, y) == y

    def order(self) -> FinitePoset:
        if self._order is None:
            self._order = FinitePoset(_mv_leq(self), self.labels)
        return self._order

    def is_boolean(self) -> bool:
        """Idempotence of + characterizes the Boolean MV-algebras."""
        return all(self.plus_table[x][x] == x for x in range(self.n))

    def __repr__(self) -> str:
        return f"FiniteMVAlgebra(n={self.n})"


def _mv_violation(t, p, zero: int, one: int) -> AxiomViolation | None:
    """Exhaustive check of the seven MV axioms on normalised operands; first violation wins."""
    n = len(t)
    ext = _extended(t)
    if hit := _first_nonassociative(ext):
        return AxiomViolation("mv-associativity", hit, "x+(y+z) != (x+y)+z")
    if hit := _first_mismatch(ext, ext.T):
        return AxiomViolation("mv-commutativity", hit, "x+y != y+x")
    for x in range(n):
        if t[x][zero] != x:
            return AxiomViolation("mv-zero", (x,), "x+0 != x")
    for x in range(n):
        if p[p[x]] != x:
            return AxiomViolation("mv-involution", (x,), "perp(perp(x)) != x")
    if p[zero] != one:
        return AxiomViolation("mv-perp-zero", (zero,), "perp(0) != 1")
    for x in range(n):
        if t[x][p[x]] != one:
            return AxiomViolation("mv-complement", (x,), "x+perp(x) != 1")
    joins = _mv_joins(ext[:n, :n], np.array(p, dtype=np.intp))
    if hit := _first_mismatch(joins, joins.T):
        return AxiomViolation("mv-lukasiewicz", hit, "x+(x+perp(y))' != y+(y+perp(x))'")
    return None


def _mv_joins(t: np.ndarray, p: np.ndarray) -> np.ndarray:
    """[x, y]: x OR y = x + (x + perp(y))', from the addition and perp as arrays."""
    return t[np.arange(len(t))[:, None], p[t[:, p]]]


def check_mv_axioms(plus, perp, zero, one, labels=None) -> Validation:
    """The MV-algebra on plus and perp, or the first violation its scan found."""
    try:
        return Validation(FiniteMVAlgebra(plus, perp, zero, one, labels), None)
    except EffectAlgebraError as exc:
        return Validation(None, exc.violation)


def _mv_leq(mv: FiniteMVAlgebra) -> np.ndarray:
    """[x, y]: x <= y, that is x OR y = x + (x + perp(y))' is y."""
    t, p = np.array(mv.plus_table, dtype=np.intp), np.array(mv.perp, dtype=np.intp)
    return _mv_joins(t, p) == np.arange(mv.n)


def ea_to_mv(ea: FiniteEffectAlgebra) -> FiniteMVAlgebra:
    """Total MV addition x+y := x (+) (perp(x) AND y) on an MV-effect algebra.

    Validates the seven axioms on the result and checks that the MV
    order and join agree with the induced effect-algebra order.
    """
    meets = _mv_meets(ea)
    if meets is None:
        raise EffectAlgebraError("not an MV-effect algebra")
    below = meets[np.array(ea.perp, dtype=np.intp)]            # [x, y]: perp(x) AND y
    plus = _sums(ea)[np.arange(ea.n)[:, None], below]
    if hit := first_pair(plus < 0):  # x is orthogonal to anything below perp(x)
        raise EffectAlgebraError(f"internal: sum undefined on ({hit[0]}, {below[hit]})")
    mv = FiniteMVAlgebra(plus.tolist(), ea.perp, ea.zero, ea.one, ea.labels)
    if hit := first_pair(mv.order().relation() != induced_order(ea).relation()):
        raise EffectAlgebraError(f"MV order disagrees with induced order at {hit}")
    return mv


def mv_to_ea(mv: FiniteMVAlgebra) -> FiniteEffectAlgebra:
    """Restrict the total addition to the pairs x <= perp(y)."""
    orthogonal = _mv_leq(mv)[:, np.array(mv.perp, dtype=np.intp)]
    return FiniteEffectAlgebra(np.where(orthogonal, np.array(mv.plus_table), None).tolist(),
                               mv.zero, mv.one, mv.labels)
