"""Exact rational linear algebra for small state polytopes.

Everything here works over fractions.Fraction and Python integers, so
vertex coordinates come out as exact rationals. The polytopes we care
about all have the shape

    { x in [0, 1]^n : A x = b }

(state spaces of finite effect algebras, probability simplexes). Vertex
enumeration parametrizes the affine solution set of the equalities as
x = p + B t, turning the box into a system G t <= h, and homogenises
that system to the cone {(t, s) : G t - h s <= 0, s >= 0}. The
double-description method of Motzkin et al. (1953), in the form of
Fukuda and Prodon (1996), builds the cone's extreme rays by inserting
one row at a time; the vertices are the rays with s > 0, read off as
t / s. Certificates are built only when something fails: the equality
elimination is re-run with an identity block to trace the combination
that reduces to 0 = nonzero, and a system without vertices is refuted
by Fourier-Motzkin elimination with the nonnegative multipliers traced
back to the original rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm

__all__ = [
    "rref",
    "solve_square",
    "affine_solution_set",
    "AffineSet",
    "InfeasibilityCertificate",
    "VertexEnumeration",
    "enumerate_box_vertices",
]

F = Fraction


def _frac_rows(rows) -> list[list[Fraction]]:
    return [[F(v) for v in row] for row in rows]


def rref(
    rows: list[list[Fraction]], ncols: int | None = None
) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form (copy) and the pivot column list.

    Pivots are sought in the first ncols columns only (all columns by
    default); the columns after them are carried along by the row
    operations.
    """
    m = [row[:] for row in rows]
    if not m:
        return m, []
    nrows = len(m)
    pivots: list[int] = []
    r = 0
    for c in range(len(m[0]) if ncols is None else ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = F(1) / m[r][c]
        pivot = m[r] = [v * inv if v else v for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                # the rows are mostly zeros; skipping them changes no value
                m[i] = [vi - factor * vr if vr else vi for vi, vr in zip(m[i], pivot)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def solve_square(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Solve a d x d system exactly; None when singular."""
    d = len(a)
    aug = [row[:] + [b[i]] for i, row in enumerate(a)]
    reduced, pivots = rref(aug)
    if pivots != list(range(d)):  # singular coefficient block
        return None
    return [reduced[i][d] for i in range(d)]


@dataclass(frozen=True)
class InfeasibilityCertificate:
    """Exact witness that a constraint system has no solution.

    kind is "equalities" (a rational combination of the equality rows
    reduces to 0 = nonzero), "bound" (a coordinate is forced outside
    [0, 1] by the equalities alone), or "inequalities" (nonnegative
    multipliers over the inequality rows sum to 0 <= negative).
    multipliers pairs row indices with their rational coefficients.
    """

    kind: str
    multipliers: tuple[tuple[int, Fraction], ...]
    detail: str


@dataclass
class AffineSet:
    """Solution set of A x = b as x = particular + basis @ t."""

    particular: list[Fraction]
    basis: list[list[Fraction]]  # one column vector per free parameter

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def point(self, t: list[Fraction]) -> list[Fraction]:
        x = self.particular[:]
        for j, col in enumerate(self.basis):
            if t[j] != 0:
                for i in range(len(x)):
                    x[i] += col[i] * t[j]
        return x


def affine_solution_set(
    a_rows, b_vals, n: int
) -> AffineSet | InfeasibilityCertificate:
    """Parametrize {x: A x = b} or certify inconsistency.

    [A | b] is reduced with pivots in the n coefficient columns. Only
    when a row reduces to 0 = nonzero is the reduction re-run with an
    identity block, so that the row knows which rational combination of
    the original equalities produced it; the pivot order is the same.
    """
    a = _frac_rows(a_rows)
    b = [F(v) for v in b_vals]
    nrows = len(a)
    m, pivots = rref([a[i] + [b[i]] for i in range(nrows)], n)
    r = len(pivots)

    if any(m[i][-1] != 0 for i in range(r, nrows)):
        # layout per row: n coefficient cols | nrows multiplier cols | rhs
        traced, _ = rref(
            [a[i] + [F(int(i == j)) for j in range(nrows)] + [b[i]] for i in range(nrows)],
            n,
        )
        row = next(row for row in traced[r:] if row[-1] != 0)  # 0 = nonzero
        mults = tuple((j, row[n + j]) for j in range(nrows) if row[n + j] != 0)
        return InfeasibilityCertificate(
            "equalities",
            mults,
            f"combination of equalities reduces to 0 = {row[-1]}",
        )

    free_cols = [c for c in range(n) if c not in pivots]
    particular = [F(0)] * n
    for row_i, c in enumerate(pivots):
        particular[c] = m[row_i][-1]
    basis = []
    for fc in free_cols:
        col = [F(0)] * n
        col[fc] = F(1)
        for row_i, c in enumerate(pivots):
            col[c] = -m[row_i][fc]
        basis.append(col)
    return AffineSet(particular, basis)


def _fourier_motzkin(rows: list[tuple[list[Fraction], Fraction]]) -> InfeasibilityCertificate | None:
    """Refute {t: rows} or return None if consistent.

    rows are (coeffs, rhs) meaning coeffs . t <= rhs. Multipliers over
    the original row list are tracked through every combination step.
    """
    d = len(rows[0][0]) if rows else 0
    work = [
        (coeffs[:], rhs, {i: F(1)}) for i, (coeffs, rhs) in enumerate(rows)
    ]
    for var in range(d):
        pos = [r for r in work if r[0][var] > 0]
        neg = [r for r in work if r[0][var] < 0]
        zero = [r for r in work if r[0][var] == 0]
        new = list(zero)
        for cp, rp, mp in pos:
            for cn, rn, mn in neg:
                # scale so the var cancels; multipliers stay nonnegative
                sp = F(1) / cp[var]
                sn = F(-1) / cn[var]
                coeffs = [sp * x + sn * y for x, y in zip(cp, cn)]
                rhs = sp * rp + sn * rn
                mults: dict[int, Fraction] = {}
                for k, v in mp.items():
                    mults[k] = mults.get(k, F(0)) + sp * v
                for k, v in mn.items():
                    mults[k] = mults.get(k, F(0)) + sn * v
                new.append((coeffs, rhs, mults))
        work = new
    for coeffs, rhs, mults in work:
        if rhs < 0:  # all coeffs are zero by now
            return InfeasibilityCertificate(
                "inequalities",
                tuple(sorted((k, v) for k, v in mults.items() if v != 0)),
                f"nonnegative combination of inequality rows gives 0 <= {rhs}",
            )
    return None


def _primitive(vec: list[Fraction]) -> list[int]:
    """The positive multiple of a nonzero rational vector with coprime integer entries."""
    den = lcm(*(v.denominator for v in vec))
    ints = [v.numerator * (den // v.denominator) for v in vec]
    g = gcd(*ints)
    return [x // g for x in ints]


def _double_description(
    rows: list[tuple[tuple[Fraction, ...], Fraction]], d: int
) -> list[list[Fraction]]:
    """Vertices of the bounded polytope {t : coeffs . t <= rhs for each row}.

    The rows are homogenised to the cone {(t, s) : G t - h s <= 0,
    -s <= 0} in D = d + 1 dimensions, each scaled to a primitive integer
    vector. The first D independent rows give a simplicial cone whose
    extreme rays seed the list. Every further row keeps the rays on its
    feasible side and adds, for each adjacent pair it separates, their
    positive combination on its hyperplane. Two rays are adjacent when
    the rows they both lie on number at least D - 2 and no other ray
    lies on all of them. Rays are kept as primitive integer vectors and
    the rows a ray lies on as a bitmask over the rows inserted so far.
    The polytope is bounded, so the cone is pointed and its extreme rays
    are the vertices scaled by s > 0; an empty polytope leaves no ray.
    """
    D = d + 1
    cone = [[0] * d + [-1]] + [_primitive(list(c) + [-r]) for c, r in rows]
    # the first D independent rows are the pivot columns of the transpose
    _, start = rref([[F(row[k]) for row in cone] for k in range(D)])
    if len(start) != D:
        raise RuntimeError("the box rows do not span the parameter space")
    # [A_K | I] reduces to [I | A_K^-1]; ray j solves A_K r = -e_j
    inverse, _ = rref(
        [[F(v) for v in cone[i]] + [F(int(i == j)) for j in start] for i in start], D
    )
    seeded = sum(1 << i for i in start)
    rays = [
        (_primitive([-inverse[k][D + j] for k in range(D)]), seeded & ~(1 << i))
        for j, i in enumerate(start)
    ]

    for i, a in enumerate(cone):
        if seeded >> i & 1:
            continue
        bit = 1 << i
        positive, negative, kept = [], [], []
        for ray, zeros in rays:
            v = sum(x * y for x, y in zip(a, ray))
            if v > 0:
                positive.append((v, ray, zeros))
            elif v < 0:
                negative.append((v, ray, zeros))
                kept.append((ray, zeros))
            else:
                kept.append((ray, zeros | bit))
        zero_sets = [zeros for _, zeros in rays]
        for vp, p, zp in positive:
            for vn, q, zq in negative:
                common = zp & zq
                if common.bit_count() < D - 2 or any(
                    (z & common) == common for z in zero_sets if z != zp and z != zq
                ):
                    continue
                ray = [vp * y - vn * x for x, y in zip(p, q)]
                g = gcd(*ray)
                kept.append(([x // g for x in ray], common | bit))
        rays = kept
        if not rays:
            break
    return [[F(x, ray[d]) for x in ray[:d]] for ray, _ in rays if ray[d] > 0]


@dataclass
class VertexEnumeration:
    """Outcome of exact vertex enumeration over {x in [0,1]^n : Ax = b}."""

    feasible: bool
    dimension: int
    vertices: list[list[Fraction]] = field(default_factory=list)
    certificate: InfeasibilityCertificate | None = None
    # inequality rows in parameter space, for reports: (coeffs, rhs)
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = field(default_factory=list)


def enumerate_box_vertices(a_rows, b_vals, n: int) -> VertexEnumeration:
    """All vertices of {x in [0,1]^n : A x = b}, exactly.

    The box becomes a system of rows in the d parameters of the affine
    solution set, and the vertices are the s > 0 extreme rays of its
    homogenised cone, found by the double-description method. Every
    vertex is re-checked exactly against every row. A bounded nonempty
    polytope has at least one vertex, so an empty vertex list means
    infeasible and comes with a certificate, built only then: from the
    equalities when they are inconsistent, from a coordinate they force
    outside [0, 1], or by Fourier-Motzkin elimination of the rows.
    """
    sol = affine_solution_set(a_rows, b_vals, n)
    if isinstance(sol, InfeasibilityCertificate):
        return VertexEnumeration(False, -1, certificate=sol)
    d = sol.dimension

    if d == 0:
        x = sol.particular
        for i, v in enumerate(x):
            if v < 0 or v > 1:
                cert = InfeasibilityCertificate(
                    "bound", ((i, F(1)),), f"coordinate {i} is forced to {v}"
                )
                return VertexEnumeration(False, 0, certificate=cert)
        return VertexEnumeration(True, 0, vertices=[x])

    # box constraints in parameter space: 0 <= particular + basis t <= 1
    raw_rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for i in range(n):
        coeffs = tuple(sol.basis[j][i] for j in range(d))
        p = sol.particular[i]
        if all(c == 0 for c in coeffs):
            if p < 0 or p > 1:
                cert = InfeasibilityCertificate(
                    "bound", ((i, F(1)),), f"coordinate {i} is forced to {p}"
                )
                return VertexEnumeration(False, d, certificate=cert)
            continue
        raw_rows.append((tuple(-c for c in coeffs), p))        # -(basis t) <= p
        raw_rows.append((coeffs, F(1) - p))                    # basis t <= 1 - p

    # dedupe identical left sides, keeping the tightest right side
    best: dict[tuple[Fraction, ...], Fraction] = {}
    for coeffs, rhs in raw_rows:
        if coeffs not in best or rhs < best[coeffs]:
            best[coeffs] = rhs
    rows = sorted(best.items())

    def satisfied(t: list[Fraction]) -> bool:
        return all(
            sum(c * tv for c, tv in zip(coeffs, t)) <= rhs for coeffs, rhs in rows
        )

    verts: list[list[Fraction]] = []
    for t in _double_description(rows, d):
        if not satisfied(t):
            raise RuntimeError(f"double description produced {t}, outside the rows")
        verts.append(sol.point(t))

    if not verts:
        cert = _fourier_motzkin([(list(c), r) for c, r in rows])
        if cert is None:
            raise RuntimeError("no vertices found for a feasible bounded system")
        return VertexEnumeration(False, d, certificate=cert, rows=rows)

    verts.sort(key=tuple)
    return VertexEnumeration(True, d, vertices=verts, rows=rows)
