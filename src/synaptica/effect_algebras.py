"""Finite effect algebras and MV-algebras as explicit operation tables.

The partial orthosummation is a dense n x n table whose entries are
element indices or None where the sum is undefined. Axiom checking is
exhaustive and reports the first violated axiom together with a witness,
which makes the checker usable as an oracle against mutated tables. The
scan compares whole rows as tuples, so its n^3 associativity work runs
inside tuple comparison and operator.itemgetter, not a Python loop per
triple; a witness is searched entry by entry only once a row mismatches,
in the order of the plain triple loop.

The MV side stores a total operation table. The two presentations are
interconvertible: a lattice-ordered effect algebra in which disjoint
elements are orthogonal induces an MV-algebra, and every MV-algebra
restricts back to an effect algebra on the pairs x <= perp(y).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter

import numpy as np

from .posets import FinitePoset, StructureError, is_oml, lattice_tables

__all__ = [
    "AxiomViolation",
    "EffectAlgebraError",
    "EAValidation",
    "FiniteEffectAlgebra",
    "check_ea_axioms",
    "induced_order",
    "oml_to_ea",
    "orthosum_family",
    "is_sub_effect_algebra",
    "MorphismReport",
    "check_morphism",
    "is_mv_effect_algebra",
    "MVValidation",
    "FiniteMVAlgebra",
    "check_mv_axioms",
    "ea_to_mv",
    "mv_to_ea",
]


class EffectAlgebraError(StructureError):
    """Raised when a table fails the defining axioms."""


@dataclass(frozen=True)
class AxiomViolation:
    axiom: str
    witness: tuple[int, ...]
    detail: str

    def __str__(self) -> str:
        return f"{self.axiom} fails at {self.witness}: {self.detail}"


def _normalize_table(table, n: int):
    if len(table) != n:
        raise StructureError("table must have one row per element")

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


def _row_getters(rows):
    """getters[e](row) is the tuple of row's entries at the indices in rows[e].

    One C call per row instead of a Python loop over its entries.
    itemgetter with a single index returns a scalar, so one-entry rows
    get a getter that returns a 1-tuple.
    """
    if rows and len(rows[0]) == 1:
        return [lambda row, i=r[0]: (row[i],) for r in rows]
    return [itemgetter(*r) for r in rows]


def _first_difference(a, b) -> int:
    """First index at which the sequences a and b differ."""
    return next(i for i, (x, y) in enumerate(zip(a, b)) if x != y)


class FiniteEffectAlgebra:
    """Validated effect algebra; construct through check_ea_axioms.

    With _checked the table is taken as given: check_ea_axioms hands over
    the tuple of tuples it has normalised and scanned.
    """

    def __init__(self, table, zero: int, one: int, labels=None, _checked: bool = False):
        n = len(table)
        self.table = table if _checked else _normalize_table(table, n)
        self.zero = int(zero)
        self.one = int(one)
        self.labels = tuple(labels) if labels is not None else tuple(f"e{i}" for i in range(n))
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise StructureError("labels must be unique and match element count")
        if not _checked:
            result = check_ea_axioms(table, zero, one, labels)
            if result.violation is not None:
                raise EffectAlgebraError(str(result.violation))
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


@dataclass(frozen=True)
class EAValidation:
    structure: FiniteEffectAlgebra | None
    violation: AxiomViolation | None

    @property
    def ok(self) -> bool:
        return self.violation is None


def check_ea_axioms(table, zero, one, labels=None) -> EAValidation:
    """Exhaustive axiom scan; returns the structure or the first violation.

    Scan order: commutativity, associativity (in the strong sense that a
    defined side forces the other side to be defined and equal),
    orthosupplement existence and uniqueness, then the zero-one law.
    Witnesses are element indices in scan order. Cancelation needs no
    scan: given the others, a + b = a + c makes b and c both
    orthosupplements of a + (a + b)', so b = c.
    """
    n = len(table)
    t = _normalize_table(table, n)
    zero, one = int(zero), int(one)
    if not (0 <= zero < n and 0 <= one < n):
        raise StructureError("zero/one must be element indices")

    def fail(axiom: str, witness: tuple[int, ...], detail: str) -> EAValidation:
        return EAValidation(None, AxiomViolation(axiom, witness, detail))

    cols = tuple(zip(*t))
    if t != cols:
        e = _first_difference(t, cols)
        f = _first_difference(t[e], cols[e])
        return fail(
            "commutativity",
            (e, f),
            f"osum({e},{f})={t[e][f]!r} but osum({f},{e})={t[f][e]!r}",
        )

    # Associativity row by row: with an undefined sum read as index n and
    # row n all undefined, (d+e)+f over every f is row ext[d][e], and
    # d+(e+f) is row d read at the indices of row e.
    ext = tuple(tuple(n if v is None else v for v in row) + (n,) for row in t)
    ext += ((n,) * (n + 1),)
    getters = _row_getters(ext[:n])
    for d in range(n):
        row = ext[d]
        lhs = list(map(ext.__getitem__, row[:n]))
        rhs = [g(row) for g in getters]
        if lhs != rhs:
            e = _first_difference(lhs, rhs)
            f = _first_difference(lhs[e], rhs[e])
            left, right = (None if v == n else v for v in (lhs[e][f], rhs[e][f]))
            return fail("associativity", (d, e, f), f"(d+e)+f={left!r} but d+(e+f)={right!r}")

    for e, row in enumerate(t):
        if row.count(one) != 1:
            sups = [f for f, v in enumerate(row) if v == one]
            detail = "no orthosupplement" if not sups else f"multiple orthosupplements {sups}"
            return fail("orthosupplement", (e,), detail)

    for e in range(n):
        if t[e][one] is not None and e != zero:
            return fail("zero-one law", (e,), f"osum({e}, one) is defined but {e} != zero")

    ea = FiniteEffectAlgebra(t, zero, one, labels, _checked=True)
    return EAValidation(ea, None)


def induced_order(ea: FiniteEffectAlgebra) -> FinitePoset:
    """The order e <= f iff e + d = f for some d, as a validated poset.

    Re-verifies the two standard consequences: order duality under perp,
    and that orthogonality of e, f is exactly e <= perp(f).
    """
    if ea._order is not None:
        return ea._order
    n = ea.n
    rel = [
        [any(ea.table[e][d] == f for d in range(n)) for f in range(n)]
        for e in range(n)
    ]
    poset = FinitePoset(rel, ea.labels)
    for e in range(n):
        if not poset.leq(ea.zero, e) or not poset.leq(e, ea.one):
            raise EffectAlgebraError(f"induced order is not bounded at {e}")
    perp = ea.perp
    for e in range(n):
        for f in range(n):
            if poset.leq(e, f) != poset.leq(perp[f], perp[e]):
                raise EffectAlgebraError(f"order duality fails on ({e}, {f})")
            if ea.orthogonal(e, f) != poset.leq(e, perp[f]):
                raise EffectAlgebraError(f"orthogonality mismatch on ({e}, {f})")
    ea._order = poset
    return poset


def oml_to_ea(latt) -> FiniteEffectAlgebra:
    """Effect algebra of an orthomodular lattice: p + q = p OR q when p <= perp(q)."""
    if not is_oml(latt):
        raise EffectAlgebraError("input is not an orthomodular lattice")
    n = latt.n
    table = [
        [latt.join(p, q) if latt.leq(p, latt.perp[q]) else None for q in range(n)]
        for p in range(n)
    ]
    result = check_ea_axioms(table, latt.zero, latt.one, latt.labels)
    if result.violation is not None:  # cannot happen for an OML
        raise EffectAlgebraError(f"derived table is not an effect algebra: {result.violation}")
    ea = result.structure
    order = induced_order(ea)
    for a in range(n):
        for b in range(n):
            if order.leq(a, b) != latt.leq(a, b):
                raise EffectAlgebraError(f"induced order disagrees with lattice at ({a}, {b})")
            if ea.orthogonal(a, b) and latt.meet(a, b) != latt.zero:
                raise EffectAlgebraError(f"orthogonal pair ({a}, {b}) is not disjoint")
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


def check_morphism(
    dom: FiniteEffectAlgebra, cod: FiniteEffectAlgebra, phi, _check_iso: bool = True
) -> MorphismReport:
    """Check unit preservation and additivity on orthogonal pairs.

    phi is a sequence mapping domain indices to codomain indices. The
    isomorphism flag additionally requires bijectivity and that the
    inverse map is a morphism.
    """
    phi = tuple(int(x) for x in phi)
    if len(phi) != dom.n or any(not (0 <= v < cod.n) for v in phi):
        raise ValueError("phi must map every domain element to a codomain element")
    if phi[dom.one] != cod.one:
        return MorphismReport(False, False, "unit is not preserved")
    for e in range(dom.n):
        for f in range(dom.n):
            v = dom.table[e][f]
            if v is None:
                continue
            w = cod.table[phi[e]][phi[f]]
            if w is None:
                return MorphismReport(
                    False, False, f"images of orthogonal pair ({e}, {f}) are not orthogonal"
                )
            if w != phi[v]:
                return MorphismReport(
                    False, False, f"additivity fails on ({e}, {f})"
                )
    iso = False
    if _check_iso and dom.n == cod.n and len(set(phi)) == dom.n:
        inv = [0] * dom.n
        for i, v in enumerate(phi):
            inv[v] = i
        iso = check_morphism(cod, dom, inv, _check_iso=False).is_morphism
    return MorphismReport(True, iso, None)


def _mv_meets(ea: FiniteEffectAlgebra) -> np.ndarray | None:
    """Meet table of the induced order if ea is an MV-effect algebra, else None."""
    meets, joins = lattice_tables(induced_order(ea))
    if (meets < 0).any() or (joins < 0).any():
        return None
    if not all(ea.orthogonal(e, f) for e, f in np.argwhere(meets == ea.zero)):
        return None
    return meets


def is_mv_effect_algebra(ea: FiniteEffectAlgebra) -> bool:
    """Lattice-ordered and every disjoint pair is orthogonal."""
    return _mv_meets(ea) is not None


# ---------------------------------------------------------------------------
# MV-algebras


@dataclass(frozen=True)
class MVValidation:
    structure: "FiniteMVAlgebra | None"
    violation: AxiomViolation | None

    @property
    def ok(self) -> bool:
        return self.violation is None


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
    """Validated MV-algebra; construct through check_mv_axioms.

    With _checked the table and perp are taken as given: check_mv_axioms
    hands over the tuples it has normalised and scanned.
    """

    def __init__(self, plus, perp, zero: int, one: int, labels=None, _checked: bool = False):
        n = len(plus)
        self.plus_table, self.perp = (plus, perp) if _checked else _mv_operands(plus, perp)
        self.zero = int(zero)
        self.one = int(one)
        self.labels = tuple(labels) if labels is not None else tuple(f"x{i}" for i in range(n))
        if len(self.labels) != n or len(set(self.labels)) != n:
            raise StructureError("labels must be unique and match element count")
        if not _checked:
            result = check_mv_axioms(plus, perp, zero, one, labels)
            if result.violation is not None:
                raise EffectAlgebraError(str(result.violation))
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
            n = self.n
            self._order = FinitePoset(
                [[self.leq(x, y) for y in range(n)] for x in range(n)], self.labels
            )
        return self._order

    def is_boolean(self) -> bool:
        """Idempotence of + characterizes the Boolean MV-algebras."""
        return all(self.plus_table[x][x] == x for x in range(self.n))

    def __repr__(self) -> str:
        return f"FiniteMVAlgebra(n={self.n})"


def check_mv_axioms(plus, perp, zero, one, labels=None) -> MVValidation:
    """Exhaustive check of the seven MV axioms, first violation wins."""
    n = len(plus)
    t, p = _mv_operands(plus, perp)
    zero, one = int(zero), int(one)
    if not (0 <= zero < n and 0 <= one < n):
        raise StructureError("zero/one must be element indices")

    def fail(axiom: str, witness: tuple[int, ...], detail: str) -> MVValidation:
        return MVValidation(None, AxiomViolation(axiom, witness, detail))

    # Associativity row by row, as in check_ea_axioms: x+(y+z) over every
    # z is row x read at the indices of row y, (x+y)+z is row t[x][y].
    getters = _row_getters(t)
    for x, row in enumerate(t):
        lhs = [g(row) for g in getters]
        rhs = list(map(t.__getitem__, row))
        if lhs != rhs:
            y = _first_difference(lhs, rhs)
            z = _first_difference(lhs[y], rhs[y])
            return fail("mv-associativity", (x, y, z), "x+(y+z) != (x+y)+z")
    for x in range(n):
        for y in range(n):
            if t[x][y] != t[y][x]:
                return fail("mv-commutativity", (x, y), "x+y != y+x")
    for x in range(n):
        if t[x][zero] != x:
            return fail("mv-zero", (x,), "x+0 != x")
    for x in range(n):
        if p[p[x]] != x:
            return fail("mv-involution", (x,), "perp(perp(x)) != x")
    if p[zero] != one:
        return fail("mv-perp-zero", (zero,), "perp(0) != 1")
    for x in range(n):
        if t[x][p[x]] != one:
            return fail("mv-complement", (x,), "x+perp(x) != 1")
    for x in range(n):
        for y in range(n):
            lhs = t[x][p[t[x][p[y]]]]
            rhs = t[y][p[t[y][p[x]]]]
            if lhs != rhs:
                return fail(
                    "mv-lukasiewicz",
                    (x, y),
                    "x+(x+perp(y))' != y+(y+perp(x))'",
                )

    mv = FiniteMVAlgebra(t, p, zero, one, labels, _checked=True)
    return MVValidation(mv, None)


def ea_to_mv(ea: FiniteEffectAlgebra) -> FiniteMVAlgebra:
    """Total MV addition x+y := x (+) (perp(x) AND y) on an MV-effect algebra.

    Validates the seven axioms on the result and checks that the MV
    order and join agree with the induced effect-algebra order.
    """
    meets = _mv_meets(ea)
    if meets is None:
        raise EffectAlgebraError("not an MV-effect algebra")
    order = induced_order(ea)
    n = ea.n
    plus = []
    for x in range(n):
        row = []
        for y in range(n):
            m = meets.item(ea.perp[x], y)
            v = ea.table[x][m]
            if v is None:  # x is orthogonal to anything below perp(x)
                raise EffectAlgebraError(f"internal: sum undefined on ({x}, {m})")
            row.append(v)
        plus.append(row)
    result = check_mv_axioms(plus, ea.perp, ea.zero, ea.one, ea.labels)
    if result.violation is not None:
        raise EffectAlgebraError(f"derived table violates MV axioms: {result.violation}")
    mv = result.structure
    mv_order = mv.order()
    for x in range(n):
        for y in range(n):
            if mv_order.leq(x, y) != order.leq(x, y):
                raise EffectAlgebraError(f"MV order disagrees with induced order at ({x}, {y})")
    return mv


def mv_to_ea(mv: FiniteMVAlgebra) -> FiniteEffectAlgebra:
    """Restrict the total addition to the pairs x <= perp(y)."""
    n = mv.n
    table = [
        [mv.plus(x, y) if mv.leq(x, mv.perp[y]) else None for y in range(n)]
        for x in range(n)
    ]
    result = check_ea_axioms(table, mv.zero, mv.one, mv.labels)
    if result.violation is not None:
        raise EffectAlgebraError(f"restricted table is not an effect algebra: {result.violation}")
    return result.structure
