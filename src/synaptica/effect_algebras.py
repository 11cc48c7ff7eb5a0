"""Finite effect algebras and MV-algebras as explicit operation tables.

A partial orthosummation comes as a dense n x n table of element
indices, None where the sum is undefined. One reading pass makes it the
one form a structure keeps, an (n + 1) x (n + 1) index array with the
index n for undefined; table and plus_table are row tuples built from
it on first read. Every index read here (table entries, zero and one, a
perp, a map, a subset, a family) must satisfy int(v) == v and
0 <= v < n. Axiom checking is exhaustive and reports the first violated
axiom together with a witness, which makes the checker usable as an
oracle against mutated tables. Both scans test associativity in one
kernel of two array gathers over chunks of rows, (d+e)+f and d+(e+f),
of at most _CHUNK_ENTRIES entries each; commutativity and the MV scan's
Lukasiewicz identity compare the array with its transpose. The first
mismatch in C order is the witness the plain loops name first.

The MV side stores a total operation table. The two presentations are
interconvertible: a lattice-ordered effect algebra in which disjoint
elements are orthogonal induces an MV-algebra, and every MV-algebra
restricts back to an effect algebra on the pairs x <= perp(y). The
conversions index whole tables and compare orders as whole relations:
the induced order puts e below g for each defined sum e + d = g, and
the MV order is the join formula read over the whole addition table.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np

from .posets import FinitePoset, StructureError, first_pair, is_oml, lattice_tables

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


def _index(v, n: int, message: str) -> int:
    """v as an element index below n, or StructureError(message.format(v)).

    v is kept when int(v) == v and 0 <= v < n, the rule of
    exact.integer_rank, and read as that int: 2.0 and True are indices,
    2.5, "1", -1 and n are not.
    """
    try:
        i = int(v)
        if i == v and 0 <= i < n:
            return i
    except (TypeError, ValueError, OverflowError):  # no number, NaN, infinity
        pass
    raise StructureError(message.format(v))


def _read_table(table, n: int) -> np.ndarray:
    """The operation table as its (n + 1) x (n + 1) index array.

    table has n rows of n entries, each None or an element index (see
    _index). An undefined sum reads as the index n, and row n and column
    n are all n, so a sum with an undefined part is undefined. The first
    bad row or entry in row order raises StructureError. Lists or tuples
    of n entries are read in one pass that looks each entry up in a dict
    of None and the indices, which holds what _index keeps under the
    same hashing and equality; other rows, and all rows after a miss, go
    entry by entry through _index. int16 holds the indices of tables
    below 2^15 elements, intp those of larger ones.
    """
    if len(table) != n:
        raise StructureError("table must have one row per element")
    ext = np.full((n + 1, n + 1), n, dtype=np.int16 if n < 1 << 15 else np.intp)
    if set(map(type, table)) <= {list, tuple} and set(map(len, table)) <= {n}:
        known = dict(zip([*range(n), None], [*range(n), n]))
        with suppress(KeyError, TypeError):  # not an index, or unhashable
            cells = map(known.__getitem__, chain.from_iterable(table))
            ext[:n, :n] = np.fromiter(cells, ext.dtype, n * n).reshape(n, n)
            return ext
    for e, row in enumerate(table):
        row = list(row)
        if len(row) != n:
            raise StructureError("table rows must have one entry per element")
        ext[e, :n] = [n if v is None else _index(v, n, "table entry {!r} is not an element index")
                      for v in row]
    return ext


def _rows(ext: np.ndarray) -> tuple:
    """The n x n part of an index array as n row tuples of ints, None for the index n."""
    n = len(ext) - 1
    return tuple(tuple(None if v == n else v for v in row) for row in ext[:n, :n].tolist())


class _view(cached_property):
    """A cached_property that refuses assignment: a view of the stored index array."""

    def __set__(self, instance, value):
        raise AttributeError(f"{self.attrname} is a read-only view of the stored table")


def _first_nonassociative(ext: np.ndarray) -> tuple[int, int, int] | None:
    """The first (d, e, f) in C order with (d+e)+f != d+(e+f), or None.

    ext is a table's index array (see _read_table). For a chunk of rows
    d, (d+e)+f is ext read at the rows ext[d, e] and d+(e+f) is row d
    read at the indices ext[e, f]: two gathers of rows x n x n entries, at most
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


def _units(zero, one, n: int) -> list[int]:
    return [_index(v, n, "zero/one must be element indices, not {!r}") for v in (zero, one)]


def _labels(labels, n: int, prefix: str) -> tuple:
    labels = tuple(labels) if labels is not None else tuple(f"{prefix}{i}" for i in range(n))
    if len(labels) != n or len(set(labels)) != n:
        raise StructureError("labels must be unique and match element count")
    return labels


def _first(mask: np.ndarray) -> tuple[int] | None:
    """(x,) for the first True entry of a boolean vector, or None."""
    return (int(mask.argmax()),) if mask.any() else None


class FiniteEffectAlgebra:
    """Effect algebra on an orthosummation table, validated on construction.

    The table is read into its index array (see _read_table), the one
    form the object keeps; zero and one are read as indices, the array
    is scanned (see _ea_violation) and then the labels are checked. A
    failing scan raises EffectAlgebraError carrying the violation;
    check_ea_axioms reports it instead.
    """

    def __init__(self, table, zero: int, one: int, labels=None):
        n = len(table)
        self._table = _read_table(table, n)
        self.zero, self.one = _units(zero, one, n)
        violation = _ea_violation(self._table, self.zero, self.one)
        if violation is not None:
            raise EffectAlgebraError(str(violation), violation)
        self.labels = _labels(labels, n, "e")
        # orthosupplement is unique once the axioms hold
        self.perp = tuple((self._table[:n, :n] == self.one).argmax(axis=1).tolist())
        self._order: FinitePoset | None = None

    @property
    def n(self) -> int:
        return len(self._table) - 1

    @_view
    def table(self) -> tuple[tuple[int | None, ...], ...]:
        """The orthosummation as n row tuples of int indices, None where undefined."""
        return _rows(self._table)

    @cached_property
    def orthosums(self) -> tuple[tuple[int, int, int], ...]:
        """Every defined orthosum (e, f, g = e + f) with e <= f, row by row.

        The table is commutative, so these triples carry every condition
        that an ordered pair of the table imposes.
        """
        n = self.n
        return tuple((e, f, g) for e, row in enumerate(self._table[:n, :n].tolist())
                     for f, g in enumerate(row[e:], e) if g != n)

    def osum(self, e: int, f: int) -> int | None:
        return self.table[e][f]

    def orthogonal(self, e: int, f: int) -> bool:
        return self.table[e][f] is not None

    def index(self, label: str) -> int:
        return self.labels.index(label)

    def __repr__(self) -> str:
        return f"FiniteEffectAlgebra(n={self.n})"


def _ea_violation(ext: np.ndarray, zero: int, one: int) -> AxiomViolation | None:
    """Exhaustive axiom scan of a table's index array; the first violation or None.

    Scan order: commutativity, associativity (in the strong sense that a
    defined side forces the other side to be defined and equal),
    orthosupplement existence and uniqueness, then the zero-one law.
    Witnesses are element indices in scan order. Cancelation needs no
    scan: given the others, a + b = a + c makes b and c both
    orthosupplements of a + (a + b)', so b = c.
    """
    n = len(ext) - 1

    def value(v) -> int | None:
        return None if v == n else int(v)

    if hit := _first_mismatch(ext, ext.T):
        e, f = hit
        detail = f"osum({e},{f})={value(ext[e, f])!r} but osum({f},{e})={value(ext[f, e])!r}"
        return AxiomViolation("commutativity", hit, detail)

    if hit := _first_nonassociative(ext):
        d, e, f = hit
        left, right = map(value, (ext[ext[d, e], f], ext[d, ext[e, f]]))
        return AxiomViolation("associativity", hit, f"(d+e)+f={left!r} but d+(e+f)={right!r}")

    hits = np.flatnonzero(ext[:n, :n] == one).tolist()     # e * n + f for each e + f = one
    rows = [h // n for h in hits]
    if rows != list(range(n)):                               # not one orthosupplement a row
        e = next(e for e in range(n) if rows.count(e) != 1)
        found = [h % n for h in hits if h // n == e]
        detail = "no orthosupplement" if not found else f"multiple orthosupplements {found}"
        return AxiomViolation("orthosupplement", (e,), detail)

    if beside := [e for e in np.flatnonzero(ext[:n, one] != n).tolist() if e != zero]:
        e = beside[0]
        return AxiomViolation("zero-one law", (e,), f"osum({e}, one) is defined but {e} != zero")
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
    sums = ea._table[:-1, :-1]
    defined = sums != ea.n
    rel = np.zeros((ea.n, ea.n), dtype=bool)
    rel[np.nonzero(defined)[0], sums[defined]] = True
    poset = FinitePoset(rel, ea.labels)
    if (bad := np.flatnonzero(~rel[ea.zero] | ~rel[:, ea.one])).size:
        raise EffectAlgebraError(f"induced order is not bounded at {bad[0]}")
    p = np.array(ea.perp, dtype=np.intp)
    duality = rel != rel[np.ix_(p, p)].T             # [e, f]: perp(f) <= perp(e)
    orthogonality = defined != rel[:, p]              # [e, f]: e <= perp(f)
    if hit := first_pair(duality | orthogonality):
        what = "order duality fails" if duality[hit] else "orthogonality mismatch"
        raise EffectAlgebraError(f"{what} on {hit}")
    ea._order = poset
    return poset


def oml_to_ea(latt) -> FiniteEffectAlgebra:
    """Effect algebra of an orthomodular lattice: p + q = p OR q when p <= perp(q)."""
    if not is_oml(latt):
        raise EffectAlgebraError("input is not an orthomodular lattice")
    leq = latt.poset.relation()
    orthogonal = leq[:, np.array(latt.perp, dtype=np.intp)]   # [p, q]: p <= perp(q)
    ea = FiniteEffectAlgebra(np.where(orthogonal, latt.joins, None).tolist(),
                             latt.zero, latt.one, latt.labels)
    disagree = induced_order(ea).relation() != leq
    overlap = orthogonal & (latt.meets != latt.zero)
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
    Each member is read as an index (see _index).
    """
    acc = ea.zero
    for e in [_index(e, ea.n, "family member {!r} is not an element index") for e in elems]:
        acc = ea._table.item(acc, e)
        if acc == ea.n:
            return None
    return acc


def is_sub_effect_algebra(ea: FiniteEffectAlgebra, subset) -> bool:
    """Closure test: contains 0 and 1, closed under perp and defined sums.

    Each member is read as an index (see _index).
    """
    members = [_index(x, ea.n, "subset member {!r} is not an element index") for x in subset]
    inside = np.zeros(ea.n + 1, dtype=bool)
    inside[members + [ea.n]] = True          # an undefined sum leaves nothing to close
    return bool(inside[ea.zero] and inside[ea.one]
                and inside[np.array(ea.perp, dtype=np.intp)[members]].all()
                and inside[ea._table[np.ix_(members, members)]].all())


@dataclass(frozen=True)
class MorphismReport:
    is_morphism: bool
    is_isomorphism: bool
    violation: str | None = None


def _morphism_violation(dom: FiniteEffectAlgebra, cod: FiniteEffectAlgebra, phi) -> str | None:
    """Why phi is no morphism dom -> cod, or None; the first failing pair in row-major order."""
    if phi[dom.one] != cod.one:
        return "unit is not preserved"
    image = np.array([*phi, cod.n], dtype=np.intp)          # undefined goes to undefined
    images = cod._table[image[:, None], image]             # [e, f]: phi(e) + phi(f)
    defined = dom._table != dom.n
    apart = defined & (images == cod.n)
    if hit := first_pair(apart | defined & (images != image[dom._table])):
        return (f"images of orthogonal pair {hit} are not orthogonal" if apart[hit]
                else f"additivity fails on {hit}")
    return None


def check_morphism(dom: FiniteEffectAlgebra, cod: FiniteEffectAlgebra, phi) -> MorphismReport:
    """Check unit preservation and additivity on orthogonal pairs.

    phi is a sequence mapping domain indices to codomain indices, each
    read as an index (see _index). The isomorphism flag additionally
    requires bijectivity and that the inverse map is a morphism.
    """
    message = "phi must map every domain element to a codomain element"
    phi = [_index(v, cod.n, message + ", not to {!r}") for v in phi]
    if len(phi) != dom.n:
        raise StructureError(message)
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
    apart = ea._table[:-1, :-1] == ea.n
    if (meets < 0).any() or (joins < 0).any() or ((meets == ea.zero) & apart).any():
        return None
    return meets


def is_mv_effect_algebra(ea: FiniteEffectAlgebra) -> bool:
    """Lattice-ordered and every disjoint pair is orthogonal."""
    return _mv_meets(ea) is not None


# ---------------------------------------------------------------------------
# MV-algebras


class FiniteMVAlgebra:
    """MV-algebra on a total addition table and perp, validated on construction.

    As FiniteEffectAlgebra: read the table into its index array, the
    one form the object keeps, and perp, zero and one as indices, scan
    (see _mv_violation), then check the labels. A failing scan raises
    EffectAlgebraError carrying the violation.
    """

    def __init__(self, plus, perp, zero: int, one: int, labels=None):
        n = len(plus)
        self._table = _read_table(plus, n)
        if (self._table[:n, :n] == n).any():
            raise StructureError("MV addition must be total")
        message = "perp must map every element to an element"
        self.perp = tuple(_index(v, n, message + ", not to {!r}") for v in perp)
        if len(self.perp) != n:
            raise StructureError(message)
        self.zero, self.one = _units(zero, one, n)
        violation = _mv_violation(self._table, self.perp, self.zero, self.one)
        if violation is not None:
            raise EffectAlgebraError(str(violation), violation)
        self.labels = _labels(labels, n, "x")
        self._order: FinitePoset | None = None

    @property
    def n(self) -> int:
        return len(self._table) - 1

    @_view
    def plus_table(self) -> tuple[tuple[int, ...], ...]:
        """The addition as n row tuples of int indices."""
        return _rows(self._table)

    def plus(self, x: int, y: int) -> int:
        return self._table[:-1, :-1].item(x, y)

    def mv_join(self, x: int, y: int) -> int:
        # x OR y = x + (x + perp(y))'
        return self.plus(x, self.perp[self.plus(x, self.perp[y])])

    def leq(self, x: int, y: int) -> bool:
        return self.mv_join(x, y) == y

    def order(self) -> FinitePoset:
        if self._order is None:
            self._order = FinitePoset(_mv_leq(self), self.labels)
        return self._order

    def is_boolean(self) -> bool:
        """Idempotence of + characterizes the Boolean MV-algebras."""
        return bool((self._table.diagonal() == np.arange(self.n + 1)).all())

    def __repr__(self) -> str:
        return f"FiniteMVAlgebra(n={self.n})"


def _mv_violation(ext: np.ndarray, perp, zero: int, one: int) -> AxiomViolation | None:
    """Exhaustive check of the seven MV axioms on the index array; first violation wins."""
    n = len(ext) - 1
    if hit := _first_nonassociative(ext):
        return AxiomViolation("mv-associativity", hit, "x+(y+z) != (x+y)+z")
    if hit := _first_mismatch(ext, ext.T):
        return AxiomViolation("mv-commutativity", hit, "x+y != y+x")
    t, p, rows = ext[:n, :n], np.array(perp, dtype=np.intp), np.arange(n)
    if hit := _first(t[:, zero] != rows):
        return AxiomViolation("mv-zero", hit, "x+0 != x")
    if hit := _first(p[p] != rows):
        return AxiomViolation("mv-involution", hit, "perp(perp(x)) != x")
    if p[zero] != one:
        return AxiomViolation("mv-perp-zero", (zero,), "perp(0) != 1")
    if hit := _first(t[rows, p] != one):
        return AxiomViolation("mv-complement", hit, "x+perp(x) != 1")
    joins = _mv_joins(t, p)
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
    t = mv._table[:-1, :-1]
    return _mv_joins(t, np.array(mv.perp, dtype=np.intp)) == np.arange(mv.n)


def ea_to_mv(ea: FiniteEffectAlgebra) -> FiniteMVAlgebra:
    """Total MV addition x+y := x (+) (perp(x) AND y) on an MV-effect algebra.

    Validates the seven axioms on the result and checks that the MV
    order and join agree with the induced effect-algebra order.
    """
    meets = _mv_meets(ea)
    if meets is None:
        raise EffectAlgebraError("not an MV-effect algebra")
    below = meets[np.array(ea.perp, dtype=np.intp)]            # [x, y]: perp(x) AND y
    plus = ea._table[np.arange(ea.n)[:, None], below]
    if hit := first_pair(plus == ea.n):  # x is orthogonal to anything below perp(x)
        raise EffectAlgebraError(f"internal: sum undefined on ({hit[0]}, {below[hit]})")
    mv = FiniteMVAlgebra(plus.tolist(), ea.perp, ea.zero, ea.one, ea.labels)
    if hit := first_pair(mv.order().relation() != induced_order(ea).relation()):
        raise EffectAlgebraError(f"MV order disagrees with induced order at {hit}")
    return mv


def mv_to_ea(mv: FiniteMVAlgebra) -> FiniteEffectAlgebra:
    """Restrict the total addition to the pairs x <= perp(y)."""
    orthogonal = _mv_leq(mv)[:, np.array(mv.perp, dtype=np.intp)]
    return FiniteEffectAlgebra(np.where(orthogonal, mv._table[:-1, :-1], None).tolist(),
                               mv.zero, mv.one, mv.labels)
