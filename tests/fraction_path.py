"""The library's former exact paths, the oracles of its integer path.

The substitution over dicts of Fractions, the Fraction Gauss-Jordan
seed of double description and the dense elimination of A x = b over
Fractions with its traced certificate, as the state-polytope pipeline
ran them before it kept its expressions and its eliminations in
integers; and the route from the parametrization to the cone as it ran
before the cone was written from the integer expressions: an affine
set, its Fraction box rows merged on identical left sides and sorted,
each scaled to a primitive integer cone row. The integer path must
match them vertex for vertex and certificate for certificate and, on
integer input, entry type for entry type. Like tests/helpers.py, this
module shares no code with src/; it lives apart because perfbench's
worker loads helpers.py from source in every pass, and its peak memory
grows with that file.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from helpers import _eliminate, _refute


def _exact_value(v):
    """An integral value as a Python int, any other as a Fraction."""
    q = Fraction(v)
    return q.numerator if q.denominator == 1 else q


def affine_by_fraction_substitution(a_rows, b_vals, n):
    """{x : A x = b} as (particular, basis), or None if inconsistent.

    The substitution the library ran over dicts of Fractions: an
    expression is (c, {param: coeff}), Python ints until a coefficient
    other than +-1 divides. A row with one variable left unexpressed
    defines it, the last queued of the rows whose lone coefficient is
    +-1 first; a variable no row defines becomes the next parameter. The
    rows left over, scaled to coefficient 1 at their lowest parameter
    and deduplicated, are reduced over Fractions; integral entries of
    the result are ints.
    """
    rows = [({j: _exact_value(v) for j, v in enumerate(row) if v}, _exact_value(b))
            for row, b in zip(a_rows, b_vals)]
    expr, used, unit, other = [None] * n, set(), [], []
    left = [len(coeffs) for coeffs, _ in rows]

    def combine(coeffs, const):
        lin = {}
        for j, a in coeffs.items():
            const += a * expr[j][0]
            for t, v in expr[j][1].items():
                lin[t] = lin.get(t, 0) + a * v
        return const, {t: v for t, v in lin.items() if v}

    def divide(const, lin, a):
        if a in (1, -1):
            return a * const, {t: a * v for t, v in lin.items()}
        return Fraction(const) / a, {t: Fraction(v) / a for t, v in lin.items()}

    def settle(j, e):
        expr[j] = e
        for r, (coeffs, _) in enumerate(rows):
            if j in coeffs:
                left[r] -= 1
                if left[r] == 1:
                    u = next(i for i in coeffs if expr[i] is None)
                    (unit if coeffs[u] in (1, -1) else other).append((r, u))

    for r, (coeffs, _) in enumerate(rows):
        if left[r] == 1:
            (unit if next(iter(coeffs.values())) in (1, -1) else other).append((r, *coeffs))
    params = lowest = 0
    while unit or other or None in expr:
        if unit or other:
            r, u = (unit or other).pop()
            if expr[u] is None:
                coeffs, b = rows[r]
                rest = combine({j: -v for j, v in coeffs.items() if j != u}, b)
                settle(u, divide(*rest, coeffs[u]))
                used.add(r)
            continue
        while expr[lowest] is not None:
            lowest += 1
        settle(lowest, (0, {params: 1}))
        params += 1

    distinct = {}
    for r, (coeffs, b) in enumerate(rows):
        const, lin = combine(coeffs, -b)
        if r not in used and (lin or const):
            const, lin = divide(const, lin, lin[min(lin)]) if lin else (1, {})
            distinct[(tuple(sorted(lin.items())), const)] = None
    m = [[Fraction(dict(lin).get(t, 0)) for t in range(params)] + [Fraction(-c)]
         for lin, c in distinct]
    pivots = _eliminate(m, params)
    if any(row[-1] != 0 for row in m[len(pivots):]):
        return None
    q = [0] * params
    for r, c in enumerate(pivots):
        q[c] = m[r][-1]
    cols = []
    for fc in (c for c in range(params) if c not in pivots):
        cols.append([int(i == fc) for i in range(params)])
        for r, c in enumerate(pivots):
            cols[-1][c] = -m[r][fc]
    particular = [_exact_value(c + sum(v * q[t] for t, v in lin.items())) for c, lin in expr]
    basis = [[_exact_value(sum(v * col[t] for t, v in lin.items())) for _, lin in expr]
             for col in cols]
    return particular, basis


def simplicial_rays_by_rref(rows):
    """The rays r_j with A r_j = -e_j for a nonsingular integer A, as primitive integers.

    [A | I] is reduced over Fractions to [I | A^-1], and column j of
    -A^-1 is scaled to coprime integers.
    """
    d = len(rows)
    m = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(d)]
         for i, row in enumerate(rows)]
    _eliminate(m, d)
    rays = []
    for j in range(d):
        vec = [-m[k][d + j] for k in range(d)]
        ints = [v * lcm(*(w.denominator for w in vec)) for v in vec]
        rays.append([int(x / gcd(*map(int, ints))) for x in ints])
    return rays


def affine_by_rref(a_rows, b_vals, n):
    """{x : A x = b} as (particular, basis) over Fractions, or the certificate
    (kind, multipliers, detail) of an inconsistent system.

    [A | b] is reduced over Fractions with pivots in the n coefficient
    columns. When a row reduces to 0 = nonzero, the reduction is re-run
    on [A | I | b] and the first such row gives the multipliers of the
    original equalities.
    """
    a = [[Fraction(v) for v in row] for row in a_rows]
    b = [Fraction(v) for v in b_vals]
    k = len(a)
    m = [a[i] + [b[i]] for i in range(k)]
    pivots = _eliminate(m, n)
    r = len(pivots)
    if any(row[-1] != 0 for row in m[r:]):
        traced = [a[i] + [Fraction(int(i == j)) for j in range(k)] + [b[i]] for i in range(k)]
        _eliminate(traced, n)
        row = next(row for row in traced[r:] if row[-1] != 0)
        mults = tuple((j, row[n + j]) for j in range(k) if row[n + j] != 0)
        return "equalities", mults, f"combination of equalities reduces to 0 = {row[-1]}"
    particular = [Fraction(0)] * n
    for i, c in enumerate(pivots):
        particular[c] = m[i][-1]
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        col = [Fraction(0)] * n
        col[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            col[c] = -m[i][fc]
        basis.append(col)
    return particular, basis


class SortedConeResult(NamedTuple):
    feasible: bool
    dimension: int
    vertices: list             # sorted lists of Fractions
    certificate: tuple | None  # (kind, multipliers, detail)
    rows: list                 # box rows (coeffs, rhs) over Fractions, sorted


def _sorted_box_rows(particular, basis):
    """0 <= particular + basis t <= 1 as sorted rows (coeffs, rhs), or a bound certificate.

    Identical left sides keep the tightest right side. A coordinate no
    parameter moves and that lies outside [0, 1] is named, the lowest
    first.
    """
    tightest = {}
    for i, p in enumerate(particular):
        coeffs = tuple(Fraction(col[i]) for col in basis)
        if not any(coeffs):
            if not 0 <= p <= 1:
                return ("bound", ((i, Fraction(1)),), f"coordinate {i} is forced to {p}")
            continue
        for lhs, rhs in ((tuple(-c for c in coeffs), Fraction(p)), (coeffs, 1 - Fraction(p))):
            if lhs not in tightest or rhs < tightest[lhs]:
                tightest[lhs] = rhs
    return sorted(tightest.items())


def _primitive(vec):
    """The positive multiple of a nonzero rational vector with coprime integer entries."""
    den = lcm(*(v.denominator for v in vec))
    ints = [int(v * den) for v in vec]
    g = gcd(*ints)
    return [x // g for x in ints]


def vertices_by_sorted_cone(a_rows, b_vals, n, double_description) -> SortedConeResult:
    """All vertices of {x in [0,1]^n : A x = b} by the former route to the cone.

    The Fraction substitution gives the affine set (particular, basis);
    its box rows, sorted, become primitive integer cone rows after -s <=
    0, in that order, and double_description(cone, d) returns the s > 0
    extreme rays, read off as particular + basis t with t = ray[:d] / s.
    The certificate of an infeasible system comes from the dense route:
    the elimination of all the original rows, the sorted box rows of its
    affine set, and Fourier-Motzkin elimination over them.
    """
    found = affine_by_fraction_substitution(a_rows, b_vals, n)
    if found is None:
        return SortedConeResult(False, -1, [], affine_by_rref(a_rows, b_vals, n), [])
    particular, basis = found
    d = len(basis)
    rows = _sorted_box_rows(particular, basis)
    if isinstance(rows, tuple):
        return SortedConeResult(False, d, [], rows, [])
    cone = [[0] * d + [-1]] + [_primitive(list(c) + [-r]) for c, r in rows]
    vertices = sorted(
        [Fraction(p * ray[d] + sum(col[i] * r for col, r in zip(basis, ray)), ray[d])
         for i, p in enumerate(particular)]
        for ray in double_description(cone, d)
    )
    if vertices:
        return SortedConeResult(True, d, vertices, None, rows)
    dense_rows = _sorted_box_rows(*affine_by_rref(a_rows, b_vals, n))
    return SortedConeResult(False, d, [], _refute(dense_rows), dense_rows)
