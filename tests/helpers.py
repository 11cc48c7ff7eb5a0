"""Independent oracles for the test suite.

Everything here re-derives its answers from raw data (tables, arrays)
without touching library internals, so a library bug cannot hide by
breaking its own checker. The effect-algebra oracle collects every
failure instead of stopping at the first one; validity is the empty
failure list.

The vertex oracle is the combinations scan: every d-subset of the box
rows in parameter space is solved exactly, and the feasible solutions
are the vertices. It is slow but has nothing to get wrong about
adjacency, so it checks the library's double-description enumeration
for completeness as well as soundness.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

import numpy as np


def ea_axiom_failures(table, zero, one):
    """All axiom failures of a partial-sum table, as (axiom, witness)."""
    n = len(table)
    fails = []

    for e in range(n):
        for f in range(n):
            if table[e][f] != table[f][e]:
                fails.append(("commutativity", (e, f)))

    for d in range(n):
        for e in range(n):
            for f in range(n):
                de = table[d][e]
                lhs = table[de][f] if de is not None else None
                ef = table[e][f]
                rhs = table[d][ef] if ef is not None else None
                if lhs != rhs:
                    fails.append(("associativity", (d, e, f)))

    for e in range(n):
        partners = [f for f in range(n) if table[e][f] == one]
        if len(partners) != 1:
            fails.append(("orthosupplement", (e,)))

    for e in range(n):
        if e != zero and table[e][one] is not None:
            fails.append(("zero-one law", (e,)))

    return fails


def is_valid_ea(table, zero, one) -> bool:
    return not ea_axiom_failures(table, zero, one)


def replay_witness(table, zero, one, axiom: str, witness) -> bool:
    """Does the named witness actually break the named axiom, on the raw table?"""
    if axiom == "commutativity":
        e, f = witness
        return table[e][f] != table[f][e]
    if axiom == "associativity":
        d, e, f = witness
        de = table[d][e]
        lhs = table[de][f] if de is not None else None
        ef = table[e][f]
        rhs = table[d][ef] if ef is not None else None
        return lhs != rhs
    if axiom == "orthosupplement":
        (e,) = witness
        return len([f for f in range(len(table)) if table[e][f] == one]) != 1
    if axiom == "zero-one law":
        (e,) = witness
        return e != zero and table[e][one] is not None
    if axiom == "cancelation":
        e, f, d = witness
        return e != f and table[e][d] is not None and table[e][d] == table[f][d]
    raise AssertionError(f"unrecognized axiom name: {axiom}")


def single_entry_mutations(table):
    """Every way to change one cell of the table, in deterministic order.

    Yields (row, col, new_value, mutated_table). The replacement value
    ranges over None and all element indices other than the current
    entry.
    """
    n = len(table)
    for i in range(n):
        for j in range(n):
            current = table[i][j]
            for new in [None] + list(range(n)):
                if new == current:
                    continue
                rows = [list(r) for r in table]
                rows[i][j] = new
                yield i, j, new, tuple(tuple(r) for r in rows)


def invalid_mutations(table, zero, one, count: int):
    """The first `count` single-entry mutations that break the axioms.

    Some single-entry edits produce a different but perfectly valid
    effect algebra (completing a Boolean 2x2 table at (a, a) yields the
    four-element chain), so candidates are screened against the oracle
    and only genuine violations are kept.
    """
    out = []
    for i, j, new, mutated in single_entry_mutations(table):
        if not is_valid_ea(mutated, zero, one):
            out.append((i, j, new, mutated))
            if len(out) == count:
                break
    return out


def eig_step_family(matrix: np.ndarray, lam: float) -> np.ndarray:
    """Spectral step at lam straight from numpy's eigendecomposition."""
    w, u = np.linalg.eigh(matrix)
    keep = w <= lam + 1e-12
    return (u[:, keep] @ u[:, keep].T)


def sym_norm(matrix: np.ndarray) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(matrix))))


# ---------------------------------------------------------------------------
# Exact vertex oracle: the combinations scan over {x in [0,1]^n : A x = b}


class ScanResult(NamedTuple):
    feasible: bool
    dimension: int
    vertices: list            # sorted lists of Fractions
    certificate: tuple | None  # (kind, multipliers, detail)


def _eliminate(m, ncols):
    """Gauss-Jordan in place over the first ncols columns; the pivot columns."""
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        p = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        lead = m[r][c]
        m[r] = [v / lead for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
    return pivots


def _refute(rows):
    """Fourier-Motzkin on rows (coeffs, rhs) meaning coeffs . t <= rhs."""
    work = [(list(c), r, {i: Fraction(1)}) for i, (c, r) in enumerate(rows)]
    for var in range(len(rows[0][0]) if rows else 0):
        new = [w for w in work if w[0][var] == 0]
        for cp, rp, mp in (w for w in work if w[0][var] > 0):
            for cn, rn, mn in (w for w in work if w[0][var] < 0):
                sp, sn = 1 / cp[var], -1 / cn[var]
                mults = {}
                for k, v in mp.items():
                    mults[k] = mults.get(k, 0) + sp * v
                for k, v in mn.items():
                    mults[k] = mults.get(k, 0) + sn * v
                new.append(([sp * x + sn * y for x, y in zip(cp, cn)], sp * rp + sn * rn, mults))
        work = new
    for _, rhs, mults in work:
        if rhs < 0:
            return ("inequalities", tuple(sorted((k, v) for k, v in mults.items() if v != 0)),
                    f"nonnegative combination of inequality rows gives 0 <= {rhs}")
    return None


def state_equalities(table, zero, one):
    """Rows and right sides of the state equalities of a partial-sum table.

    w(zero) = 0, w(one) = 1, and w(e) + w(f) = w(g) for every defined
    e + f = g with e <= f, in the order the library lists them.
    """
    n = len(table)
    rows = [[int(i == zero) for i in range(n)], [int(i == one) for i in range(n)]]
    rhs = [0, 1]
    for e in range(n):
        for f in range(e, n):
            g = table[e][f]
            if g is None:
                continue
            row = [0] * n
            row[e] += 1
            row[f] += 1
            row[g] -= 1
            if any(row):
                rows.append(row)
                rhs.append(0)
    return rows, rhs


def box_vertices_by_scan(a_rows, b_vals, n) -> ScanResult:
    """Vertices of {x in [0,1]^n : A x = b} by solving every d-subset of box rows."""
    k = len(a_rows)
    m = [[Fraction(v) for v in a_rows[i]] + [Fraction(int(i == j)) for j in range(k)]
         + [Fraction(b_vals[i])] for i in range(k)]
    pivots = _eliminate(m, n)
    for row in m[len(pivots):]:
        if row[-1] != 0:
            mults = tuple((j, row[n + j]) for j in range(k) if row[n + j] != 0)
            return ScanResult(False, -1, [], ("equalities", mults,
                              f"combination of equalities reduces to 0 = {row[-1]}"))
    free = [c for c in range(n) if c not in pivots]
    d = len(free)
    particular = [Fraction(0)] * n
    for r, c in enumerate(pivots):
        particular[c] = m[r][-1]
    # x = particular + sum_j t_j basis[j]; coordinate i moves with basis[j][i]
    basis = []
    for fc in free:
        col = [Fraction(int(i == fc)) for i in range(n)]
        for r, c in enumerate(pivots):
            col[c] = -m[r][fc]
        basis.append(col)

    def bound_failure(i, v):
        return ("bound", ((i, Fraction(1)),), f"coordinate {i} is forced to {v}")

    if d == 0:
        for i, v in enumerate(particular):
            if not 0 <= v <= 1:
                return ScanResult(False, 0, [], bound_failure(i, v))
        return ScanResult(True, 0, [particular], None)

    tightest = {}
    for i in range(n):
        coeffs = tuple(basis[j][i] for j in range(d))
        p = particular[i]
        if not any(coeffs):
            if not 0 <= p <= 1:
                return ScanResult(False, d, [], bound_failure(i, p))
            continue
        for lhs, rhs in ((tuple(-c for c in coeffs), p), (coeffs, 1 - p)):
            if lhs not in tightest or rhs < tightest[lhs]:
                tightest[lhs] = rhs
    rows = sorted(tightest.items())

    found = set()
    for combo in combinations(rows, d):
        sq = [list(c) + [r] for c, r in combo]
        if len(_eliminate(sq, d)) < d:
            continue
        t = [sq[i][-1] for i in range(d)]
        if all(sum(c * v for c, v in zip(cs, t)) <= r for cs, r in rows):
            found.add(tuple(p + sum(basis[j][i] * t[j] for j in range(d))
                            for i, p in enumerate(particular)))
    if not found:
        return ScanResult(False, d, [], _refute(rows))
    return ScanResult(True, d, [list(v) for v in sorted(found)], None)


def proper_combination(points):
    """A witness (i, j, k) that point i = t point j + (1 - t) point k, 0 < t < 1, or None.

    The pairwise check on a vertex list, exact on rational coordinates.
    """
    for i, u in enumerate(points):
        for j, v in enumerate(points):
            for k in range(j + 1, len(points)):
                if i in (j, k):
                    continue
                w = points[k]
                t = None
                for uc, vc, wc in zip(u, v, w):
                    if vc == wc:
                        if uc != wc:
                            break
                    elif t is None:
                        t = Fraction(uc - wc) / (vc - wc)
                    elif Fraction(uc - wc) / (vc - wc) != t:
                        break
                else:
                    if t is not None and 0 < t < 1:
                        return (i, j, k)
    return None
