"""Exact linear algebra for small state polytopes.

The state-polytope pipeline runs in Python integers inside and builds
fractions.Fraction only at the output, so vertex coordinates come out
as exact rationals. The polytopes we care about all have the shape

    { x in [0, 1]^n : A x = b }

(state spaces of finite effect algebras, probability simplexes). Vertex
enumeration writes each coordinate as an integer affine expression
x_i = (c_i + lin_i . t) / den_i in the parameters t of the solution set
of the equalities, and each expression gives the box rows of the cone
{(t, s) : -lin . t - c s <= 0, lin . t + (c - den) s <= 0, s >= 0},
lower bounds first. The double-description method of Motzkin et al.
(1953), in the form of Fukuda and Prodon (1996), builds the cone's
extreme rays by inserting one row at a time; the vertices are the rays
with s > 0. The cone rows and the rays are primitive integer vectors,
each ray is re-checked against every cone row in integers, and a
vertex coordinate becomes a Fraction, (c s + lin . ray) / (den s), only
when it is read off.

The expressions are found by substitution. The equalities of a state
space are mostly orthosum rows w(e) + w(f) - w(g) = 0, almost all of
them dependent, many repeated: each distinct row is substituted once,
a row with one variable left unexpressed defines it, and a variable no
row can define becomes a parameter. The denominator of an expression
stays 1 while every dividing coefficient is +-1. Every row is then
imposed again on the parameters, as a primitive integer row; the few
distinct rows left, usually none, are reduced densely by
affine_solution_set and composed into the expressions. On 2^6 none of
its 367 equality rows is left to eliminate. The one elimination,
fraction-free Gauss-Jordan on Python ints (Bareiss 1968), reduces those
rows, seeds the double description and is integer_rank, the rank test
of the vertex re-check in states.

Certificates are built only when something fails, by the dense route
over the original rows: the equality elimination is run on all of them,
and re-run with an identity block to trace the combination that reduces
to 0 = nonzero, and a system without vertices is refuted by
Fourier-Motzkin elimination of the box rows of that parametrization,
over Fractions, with the nonnegative multipliers traced back to them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import mul

__all__ = [
    "integer_rank",
    "affine_solution_set",
    "AffineSet",
    "InfeasibilityCertificate",
    "VertexEnumeration",
    "enumerate_box_vertices",
]

F = Fraction


def _gauss_jordan(
    rows: list[list[int]], ncols: int, limit: int | None = None
) -> tuple[list[list[int]], list[int], list[int]]:
    """Fraction-free Gauss-Jordan on integer rows: (rows, pivot columns, origin).

    Column by column over the first ncols columns, the first row at or
    below the current position with a nonzero entry is the pivot row
    and is swapped up; origin[i] is the input index of output row i. A
    row is reduced by a pivot row by integer cross multiplication, in
    the manner of Bareiss (1968), and divided by the gcd of its entries.
    Each output row is then a nonzero multiple of the row that the same
    elimination over Fractions gives: a pivot row is zero at every other
    pivot column, and a row below the pivot rows is zero in the first
    ncols columns. A row is reduced only when the pivot search reaches
    it. With a limit the search stops after that many pivots and the
    rows are left as far as it reduced them: only the pivots and origin
    are complete.
    """
    m = list(rows)
    nrows = len(m)
    origin = list(range(nrows))
    done = [0] * nrows  # row i is reduced by the pivot rows before done[i]
    pivots: list[int] = []

    def reduce(i: int, upto: int) -> None:
        row = m[i]
        for k in range(done[i], upto):
            c = pivots[k]
            if k != i and row[c]:
                a, b = m[k][c], row[c]
                row = [a * x - b * y for x, y in zip(row, m[k])]
                g = gcd(*row)
                if g > 1:
                    row = [x // g for x in row]
        m[i], done[i] = row, upto

    for c in range(ncols):
        r = len(pivots)
        for i in range(r, nrows):
            if done[i] < r:
                reduce(i, r)
            if m[i][c]:
                break
        else:
            continue
        m[r], m[i] = m[i], m[r]
        origin[r], origin[i] = origin[i], origin[r]
        done[r], done[i] = done[i], done[r]
        pivots.append(c)
        if r + 1 == limit:
            return m, pivots, origin
    if limit is None:
        for i in range(nrows):  # a pivot row i is reduced by the pivot rows after it
            reduce(i, len(pivots))
    return m, pivots, origin


def integer_rank(rows) -> int:
    """Rank of an integer matrix, by fraction-free elimination.

    The rank is at most the column count, so the elimination stops as
    soon as that many rows are independent. Entries are read as Python
    ints, so numpy integers cannot overflow.
    """
    ints = []
    for i, row in enumerate(rows):
        if ints and len(row) != len(ints[0]):
            raise ValueError(f"row {i} has {len(row)} entries, row 0 has {len(ints[0])}")
        try:
            ints.append([int(v) for v in row])
        except (ValueError, OverflowError):  # NaN, infinity
            raise ValueError(f"row {i} has an entry that is not finite") from None
    width = len(ints[0]) if ints else 0
    return len(_gauss_jordan(ints, width, width)[1])


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

    particular: list[int | Fraction]
    basis: list[list[int | Fraction]]  # one column vector per free parameter

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

    Each row of [A | b] is read as Python ints, times the lcm L of its
    denominators, and reduced by _gauss_jordan with pivots in the n
    coefficient columns; the entries come out as Fractions. Only when a
    row reduces to 0 = nonzero is the reduction re-run on [A | I L | b],
    so that the row knows which rational combination of the original
    equalities produced it; the pivot order is the same, and the row is
    divided by its entry in the column of its own equality.

    a_rows and b_vals may be any iterables; each row is a sequence of n
    entries. The checks of enumerate_box_vertices apply.
    """
    a_rows, b_vals = list(a_rows), list(b_vals)
    scaled = [_scaled([*a, b], i) for i, a, b in _system(a_rows, b_vals, n)]
    m, pivots, _ = _gauss_jordan([row for row, _ in scaled], n)
    r = len(pivots)

    if any(row[-1] for row in m[r:]):
        nrows = len(scaled)
        # layout per row: n coefficient cols | nrows multiplier cols | rhs
        traced, _, origin = _gauss_jordan(
            [row[:n] + [scale * (i == j) for j in range(nrows)] + row[n:]
             for i, (row, scale) in enumerate(scaled)],
            n,
        )
        i = next(i for i in range(r, nrows) if traced[i][-1])  # 0 = nonzero
        row, unit = traced[i], traced[i][n + origin[i]]
        mults = tuple((j, F(row[n + j], unit)) for j in range(nrows) if row[n + j])
        return InfeasibilityCertificate(
            "equalities",
            mults,
            f"combination of equalities reduces to 0 = {F(row[-1], unit)}",
        )

    particular = [F(0)] * n
    for row, c in zip(m, pivots):
        particular[c] = F(row[-1], row[c])
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        col = [F(0)] * n
        col[fc] = F(1)
        for row, c in zip(m, pivots):
            col[c] = F(-row[fc], row[c])
        basis.append(col)
    return AffineSet(particular, basis)


def _exact(v) -> int | Fraction:
    """An integral value as a Python int, any other as a Fraction of Python ints.

    int() keeps a numpy integer, which a Fraction would carry inside it,
    from overflowing.
    """
    if type(v) is int:
        return v
    q = v if type(v) is Fraction else F(v)
    num, den = int(q.numerator), int(q.denominator)
    return num if den == 1 else F(num, den)


def _system(a_rows, b_vals, n: int):
    """(index, row, rhs) for each equality of A x = b, in order, from two sequences.

    A row of other than n entries or without a right-hand side, or a
    right-hand side without a row, raises ValueError when reached, so
    that with the caller's entry checks the first bad row is named.
    """
    m, k = len(a_rows), len(b_vals)
    for i in range(max(m, k)):
        if i == k:
            raise ValueError(f"row {i} has no right-hand side")
        if i == m:
            raise ValueError(f"right-hand side {i} has no row")
        row = a_rows[i]
        if len(row) != n:
            raise ValueError(f"row {i} has {len(row)} entries, not {n}")
        yield i, row, b_vals[i]


def _scaled(row, i: int) -> tuple[list[int], int]:
    """Row i, a rational row, times the lcm of its denominators, in Python ints, and that lcm."""
    try:
        q = [_exact(v) for v in row]
    except (ValueError, OverflowError):  # NaN, infinity
        raise ValueError(f"row {i} has an entry that is not finite") from None
    scale = lcm(*(v.denominator for v in q))
    return [v.numerator * (scale // v.denominator) for v in q], scale


def _integer_row(row, b, i: int, columns) -> tuple[dict[int, int], int]:
    """Row i of A x = b as ({variable: nonzero coefficient}, rhs), in integers.

    A row with a non-integral entry is multiplied by the lcm of its
    denominators, which leaves its solution set as it is.
    """
    coeffs = {j: row[j] for j in compress(columns, row)}
    if type(b) is int and all(type(v) is int for v in coeffs.values()):
        return coeffs, b
    ints, _ = _scaled([*coeffs.values(), b], i)
    return dict(zip(coeffs, ints)), ints[-1]


# an affine expression (c + sum of coeff * t[param]) / den, as the integers
# (den, c, {param: coeff}) with den > 0
Affine = tuple[int, int, dict[int, int]]


def _combine(coeffs: dict[int, int], expr: list[Affine], start: int) -> Affine:
    """start + sum of a * expr[j] over coeffs, over the lcm of their denominators."""
    den = 1
    for j in coeffs:
        q = expr[j][0]
        if q != 1:
            den = lcm(den, q)
    const, lin = start * den, {}
    for j, a in coeffs.items():
        q, c, terms = expr[j]
        if q != den:
            a *= den // q
        const += a * c
        for t, v in terms.items():
            lin[t] = lin.get(t, 0) + a * v
    return den, const, {t: v for t, v in lin.items() if v}


def _divide(e: Affine, a: int) -> Affine:
    """e / a for a nonzero integer a, with the gcd of den and the entries divided out."""
    den, const, lin = e
    if a < 0:
        a, const, lin = -a, -const, {t: -v for t, v in lin.items()}
    den *= a
    if den != 1:
        g = gcd(den, const, *lin.values())
        if g != 1:
            den, const, lin = den // g, const // g, {t: v // g for t, v in lin.items()}
    return den, const, lin


def _substitute(
    rows: list[tuple[dict[int, int], int]], n: int
) -> tuple[list[Affine], int, set[int]]:
    """Express every variable as an affine function of free parameters.

    rows are (coeffs, rhs) in integers, with coeffs a {variable: nonzero
    coefficient} map. A row with exactly one variable left unexpressed
    defines it, rows whose lone variable has coefficient +-1 first, so
    that integer rows keep denominators 1; when no row can, the lowest
    unexpressed variable becomes a new parameter. A row that defined a
    variable holds identically; the others still have to be imposed on
    the parameters. Returns the expressions, the parameter count and
    the indices of the rows that defined a variable.
    """
    rows_of: list[list[int]] = [[] for _ in range(n)]
    for r, (coeffs, _) in enumerate(rows):
        for j in coeffs:
            rows_of[j].append(r)
    left = [len(coeffs) for coeffs, _ in rows]  # unexpressed variables per row
    expr: list[Affine | None] = [None] * n
    used: set[int] = set()
    unit: list[tuple[int, int]] = []   # (row, its lone variable) by coefficient
    other: list[tuple[int, int]] = []

    def queue(r: int) -> None:
        coeffs = rows[r][0]
        u = next(j for j in coeffs if expr[j] is None)
        (unit if coeffs[u] in (1, -1) else other).append((r, u))

    def settle(j: int, e: Affine) -> None:
        expr[j] = e
        for r in rows_of[j]:
            left[r] -= 1
            if left[r] == 1:
                queue(r)

    for r in range(len(rows)):
        if left[r] == 1:
            queue(r)
    params = lowest = 0
    while True:
        if unit or other:
            r, u = (unit or other).pop()
            if expr[u] is not None:
                continue  # expressed by another row since this one was queued
            coeffs, b = rows[r]
            # coeffs[u] * x_u = b - (the rest of the row)
            rest = _combine({j: -v for j, v in coeffs.items() if j != u}, expr, b)
            settle(u, _divide(rest, coeffs[u]))
            used.add(r)
            continue
        while lowest < n and expr[lowest] is not None:
            lowest += 1
        if lowest == n:
            return expr, params, used
        settle(lowest, (1, 0, {params: 1}))
        params += 1


def _residual(
    rows: list[tuple[dict[int, int], int]], expr: list[Affine], params: int, used: set[int]
) -> tuple[list[list[int]], list[int]]:
    """The rows that defined no variable, imposed on the parameters.

    The used rows hold identically and are skipped. Each other row,
    times its positive denominator, is an integer row lin . t + const =
    0; divided by the gcd of its entries and signed so that its lowest
    parameter has a positive coefficient, rows that differ by a factor
    count once. Returns the distinct nonzero rows left, as dense integer
    coefficient rows over the parameters and their right sides.
    """
    distinct: dict[tuple, None] = {}
    for r, (coeffs, b) in enumerate(rows):
        if r in used:
            continue
        _, const, lin = _combine(coeffs, expr, -b)
        if lin:
            g = gcd(const, *lin.values())
            if lin[min(lin)] < 0:
                g = -g
            const, lin = const // g, {t: v // g for t, v in lin.items()}
        elif const:
            const = 1  # 0 = nonzero: one such row is enough
        else:
            continue
        distinct[(tuple(sorted(lin.items())), const)] = None
    a_rows, b_vals = [], []
    for lin, const in distinct:
        terms = dict(lin)
        a_rows.append([terms.get(t, 0) for t in range(params)])
        b_vals.append(-const)
    return a_rows, b_vals


def _parametrize(a_rows, b_vals, n: int) -> tuple[list[Affine], int] | None:
    """{x : A x = b} as (expressions x_i = (c_i + lin_i . s) / den_i, d), or None if inconsistent.

    Each distinct (row, rhs) pair is substituted once: its exact twin
    would define the same variable with the same expression. Substitution
    expresses x = (c + E t) / den over a few parameters t. When every
    row defined a variable, t is s itself. Otherwise the rows it has not
    used up are reduced by affine_solution_set to t = q + C s, and the
    two compose to x = (c + E q + E C s) / den, put back over one
    positive integer denominator per coordinate. Read out as particular
    c_i / den_i and basis lin_i[j] / den_i, the expressions are the
    affine solution set, whichever rows defined the variables.
    """
    columns = range(n)
    distinct: dict[tuple, tuple[dict[int, int], int]] = {}
    for i, row, b in _system(a_rows, b_vals, n):
        key = (*row, b)
        if key not in distinct:
            distinct[key] = _integer_row(row, b, i, columns)
    rows = list(distinct.values())
    expr, params, used = _substitute(rows, n)
    a_left, b_left = _residual(rows, expr, params, used)
    if not a_left:
        return expr, params
    sub = affine_solution_set(a_left, b_left, params)
    if isinstance(sub, InfeasibilityCertificate):
        return None
    composed = []
    for den, c, lin in expr:
        values = [F(c + sum(v * sub.particular[t] for t, v in lin.items()), den)]
        values += [F(sum(v * col[t] for t, v in lin.items()), den) for col in sub.basis]
        scale = lcm(*(v.denominator for v in values))
        const, *coeffs = (v.numerator * (scale // v.denominator) for v in values)
        composed.append((scale, const, {j: v for j, v in enumerate(coeffs) if v}))
    return composed, sub.dimension


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


def _simplicial_rays(rows: list[list[int]]) -> list[list[int]]:
    """The rays r_j solving A r_j = -e_j for a nonsingular integer D x D matrix A.

    They are the extreme rays of the simplicial cone {r : A r <= 0},
    each as its primitive integer vector. _gauss_jordan takes [A | I] to
    [diag(p) | M], so that A^-1 has the rows M_k / p_k; r_j is column j
    of -A^-1, scaled by the lcm of the |p_k| and divided by its gcd.
    """
    D = len(rows)
    identity = [[int(i == j) for j in range(D)] for i in range(D)]
    m, _, _ = _gauss_jordan([list(a) + e for a, e in zip(rows, identity)], D)
    scale = lcm(*(m[k][k] for k in range(D)))
    rays = []
    for j in range(D, 2 * D):
        ray = [-row[j] * (scale // row[k]) for k, row in enumerate(m)]
        g = gcd(*ray)
        rays.append([x // g for x in ray])
    return rays


def _double_description(cone: list[list[int]], d: int) -> list[list[int]]:
    """The s > 0 extreme rays of the cone {(t, s) : a . (t, s) <= 0 for each row a}.

    cone holds primitive integer rows in D = d + 1 dimensions, row 0
    being -s <= 0. The D pivot rows of _gauss_jordan give a simplicial
    cone whose extreme rays seed the list. Every further row keeps the rays
    on its feasible side and adds, for each adjacent pair it separates,
    their positive combination on its hyperplane. Two rays are adjacent
    when the rows they both lie on number at least D - 2 and no other
    ray lies on all of them. Rays are kept as primitive integer vectors
    and the rows a ray lies on as a bitmask over the rows inserted so
    far. The polytope is bounded, so the cone is pointed and its extreme
    rays are the vertices scaled by s > 0; an empty polytope leaves no
    ray.
    """
    D = d + 1
    _, pivots, origin = _gauss_jordan(cone, D, D)
    if len(pivots) != D:
        raise RuntimeError("the box rows do not span the parameter space")
    start = origin[:D]
    seeded = sum(1 << i for i in start)
    rays = [
        (ray, seeded & ~(1 << i))
        for ray, i in zip(_simplicial_rays([cone[i] for i in start]), start)
    ]

    for i, a in enumerate(cone):
        if seeded >> i & 1:
            continue
        bit = 1 << i
        positive, negative, kept = [], [], []
        for ray, zeros in rays:
            v = sum(map(mul, a, ray))
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
    return [ray for ray, _ in rays if ray[d] > 0]


@dataclass
class VertexEnumeration:
    """Outcome of exact vertex enumeration over {x in [0,1]^n : Ax = b}."""

    feasible: bool
    dimension: int
    vertices: list[list[Fraction]] = field(default_factory=list)
    certificate: InfeasibilityCertificate | None = None
    # inequality rows coeffs . t <= rhs in parameter space, for reports. With
    # vertices: the integer box rows in the order double description took
    # them, each a positive multiple of the row 0 <= x_i or x_i <= 1 it came
    # from. With an inequality certificate: the rows of the dense route, to
    # which the multipliers refer.
    rows: list[tuple[tuple[int | Fraction, ...], int | Fraction]] = field(default_factory=list)


def _bound_failure(i: int, v: Fraction) -> InfeasibilityCertificate:
    return InfeasibilityCertificate("bound", ((i, F(1)),), f"coordinate {i} is forced to {v}")


def _box_rows(sol: AffineSet, n: int):
    """0 <= particular + basis t <= 1 as rows (coeffs, rhs) meaning coeffs . t <= rhs.

    Identical left sides keep the tightest right side, and the rows come
    sorted. A coordinate the equalities fix outside [0, 1] is returned
    as a bound certificate instead; the lowest such coordinate is named,
    and which coordinates are fixed, and where, does not depend on the
    parametrization.
    """
    d = sol.dimension
    best: dict[tuple[int | Fraction, ...], int | Fraction] = {}
    for i in range(n):
        coeffs = tuple(sol.basis[j][i] for j in range(d))
        p = sol.particular[i]
        if all(c == 0 for c in coeffs):
            if p < 0 or p > 1:
                return _bound_failure(i, p)
            continue
        for lhs, rhs in ((tuple(-c for c in coeffs), p), (coeffs, 1 - p)):
            if lhs not in best or rhs < best[lhs]:
                best[lhs] = rhs
    return sorted(best.items())


def _cone(expr: list[Affine], d: int) -> list[list[int]] | InfeasibilityCertificate:
    """The box 0 <= x <= 1, homogenised, as primitive integer rows a . (t, s) <= 0.

    Row 0 is -s <= 0. A coordinate x_i = (c + lin . t) / den that some
    parameter moves gives the lower-bound row -lin . t - c s <= 0 and the
    upper-bound row lin . t + (c - den) s <= 0, and every lower-bound row
    comes before every upper-bound row: the upper bounds of a simplex
    are redundant, and inserted first they would build a cube. Rows
    whose parameter parts are positive multiples of each other keep the
    tightest, in the place of the first. A coordinate the equalities fix
    outside [0, 1] is returned as a bound certificate instead; the
    lowest such coordinate is named.
    """
    lower, upper = [], []  # (primitive parameter part, s entry, the factor divided out)
    for i, (den, c, lin) in enumerate(expr):
        if not lin:
            if c < 0 or c > den:
                return _bound_failure(i, F(c, den))
            continue
        a = [lin.get(t, 0) for t in range(d)]
        g = gcd(*a)
        lower.append((tuple(-x // g for x in a), -c, g))
        upper.append((tuple(x // g for x in a), c - den, g))
    # key . t <= -(h / g) s is tightest where h / g is largest
    tightest: dict[tuple[int, ...], tuple[int, int]] = {}
    for key, h, g in lower + upper:
        best = tightest.get(key)
        if best is None or h * best[1] > best[0] * g:
            tightest[key] = h, g
    cone = [[0] * d + [-1]]
    for key, (h, g) in tightest.items():
        e = gcd(g, h)
        cone.append([x * (g // e) for x in key] + [h // e])
    return cone


def _dense_certificate(a_rows, b_vals, n: int) -> tuple[InfeasibilityCertificate, list]:
    """The certificate of an infeasible system, by the dense route.

    The equalities are eliminated in full, so an equality certificate
    combines the original rows, and Fourier-Motzkin multipliers refer to
    the box rows of that parametrization, which are returned with it.
    """
    sol = affine_solution_set(a_rows, b_vals, n)
    if isinstance(sol, InfeasibilityCertificate):
        return sol, []
    rows = _box_rows(sol, n)
    if isinstance(rows, InfeasibilityCertificate):
        return rows, []
    cert = _fourier_motzkin([(list(c), r) for c, r in rows])
    if cert is None:
        raise RuntimeError("no vertices found for a feasible bounded system")
    return cert, rows


def enumerate_box_vertices(a_rows, b_vals, n: int) -> VertexEnumeration:
    """All vertices of {x in [0,1]^n : A x = b}, exactly.

    a_rows and b_vals may be any iterables, each read once; each row is
    a sequence of n entries. A row of other than n entries, a right-hand
    side count other than the row count, or a NaN or infinite entry
    raises ValueError naming the first bad row. The vertices are the s > 0 extreme rays of the
    cone that _cone writes from the expressions of _parametrize, found
    by double description. Every ray is re-checked against every cone
    row as a . ray <= 0, in integers, before it is read off; each
    distinct coordinate value is built as a Fraction once. A bounded
    nonempty polytope has at least one vertex, so an empty vertex list
    means infeasible and comes with a certificate, built only then. A
    coordinate forced outside [0, 1] is named directly; otherwise the
    dense route, eliminating all the original rows, gives an equality
    certificate over them, or Fourier-Motzkin multipliers over its own
    box rows.
    """
    a_rows, b_vals = list(a_rows), list(b_vals)
    found = _parametrize(a_rows, b_vals, n)
    if found is None:
        cert, _ = _dense_certificate(a_rows, b_vals, n)
        if cert.kind != "equalities":
            raise RuntimeError("substitution and elimination disagree on consistency")
        return VertexEnumeration(False, -1, certificate=cert)
    expr, d = found
    cone = _cone(expr, d)
    if isinstance(cone, InfeasibilityCertificate):
        return VertexEnumeration(False, d, certificate=cone)

    # x_i = (lin . t + c s) / (den s) for the ray (t, s)
    numerators = [([lin.get(t, 0) for t in range(d)] + [c], den) for den, c, lin in expr]
    values: dict[tuple[int, int], Fraction] = {}
    verts: list[list[Fraction]] = []
    for ray in _double_description(cone, d):
        s = ray[d]
        if s <= 0 or any(sum(map(mul, row, ray)) > 0 for row in cone):
            raise RuntimeError(f"double description produced the ray {ray}, outside the rows")
        vert = []
        for row, den in numerators:
            key = (sum(map(mul, row, ray)), den * s)
            if key not in values:
                values[key] = F(*key)
            vert.append(values[key])
        verts.append(vert)

    if not verts:
        cert, dense_rows = _dense_certificate(a_rows, b_vals, n)
        if cert.kind != "inequalities":
            raise RuntimeError("substitution and elimination disagree on the box")
        return VertexEnumeration(False, d, certificate=cert, rows=dense_rows)

    verts.sort(key=tuple)
    return VertexEnumeration(True, d, vertices=verts,
                             rows=[(tuple(row[:d]), -row[d]) for row in cone[1:]])
