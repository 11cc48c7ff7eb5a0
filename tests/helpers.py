"""Independent oracles for the test suite.

Everything here re-derives its answers from raw data (tables, arrays)
without touching library internals, so a library bug cannot hide by
breaking its own checker. The effect-algebra oracle collects every
failure instead of stopping at the first one; validity is the empty
failure list. Its first-violation twins, ea_first_violation and
mv_first_violation, are the plain per-triple loops in the library's
scan order, so they check its row-at-a-time scans for the same axiom,
witness and detail string.

The vertex oracle is the combinations scan: every d-subset of the box
rows in parameter space is solved exactly, and the feasible solutions
are the vertices. It is slow but has nothing to get wrong about
adjacency, so it checks the library's double-description enumeration
for completeness as well as soundness.

The exact state oracle is the n^2 loop over every ordered pair of a
partial-sum table in Fraction arithmetic, which checks the library's
integer test over one common denominator; its float twin checks the
tolerance test. Both walk the whole table, where the library walks only
its list of defined orthosums. The rank oracle is Gauss-Jordan
elimination over Fractions, which checks the library's fraction-free
integer_rank.

The prefix-walk oracle is the atom tree grown one child at a time,
each child a product, a symmetrisation with its asymmetry check and a
Frobenius norm of its own; it checks the library's level-at-a-time
stacked tree for the same leaves, bit for bit, and for the same first
failing child. The generator and resolution oracles are the per-pair
loops, in the order i, then j > i, that name the first witness the
stacked checks must name too. The rounding oracle is the per-entry
round(float(x), 12) that the spectral report's vectorised rounding
must reproduce.

The commutative extremality oracle scans each of the five conditions
one indicator or one subset at a time, where the library evaluates
them over whole arrays.

The atom oracle is the sign-pattern scan over all 2^m products of
commuting projections and their complements; it checks the library's
pruned prefix tree atom for atom, bit for bit.

The lattice oracles work pair by pair on a raw relation table: every
meet and join by searching the common bounds, every classification
flag by its defining loop, and the ortholattice axioms in the order the
library checks them, so the first failing pair names the same witness.
glb_table_by_rows is the former meet-table construction, one row at a
time; it checks the library's down-set lookup entry for entry and dtype
for dtype.
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


def normalized_table_by_entries(table, n):
    """A table as row tuples of ints or None, or the (error name, message) it fails with.

    Per row, the length first, then every entry through an index check,
    then the converted row: the two passes the library made before it
    converted and checked a row in one. The index check is the one rule
    added to that reading: an entry is an index when int(v) == v and
    0 <= v < n, so one that int() cannot read or would truncate fails it
    as one out of range does, where the reading took int(v) before.
    """
    def is_index(v):
        try:
            return int(v) == v and 0 <= int(v) < n
        except (TypeError, ValueError, OverflowError):
            return False

    try:
        if len(table) != n:
            return ("StructureError", "table must have one row per element")
        rows = []
        for row in table:
            row = list(row)
            if len(row) != n:
                return ("StructureError", "table rows must have one entry per element")
            for v in row:
                if v is not None and not is_index(v):
                    return ("StructureError", f"table entry {v!r} is not an element index")
            rows.append(tuple(None if v is None else int(v) for v in row))
        return tuple(rows)
    except TypeError as exc:  # a table or a row with no length
        return (type(exc).__name__, str(exc))


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


def sign_pattern_atoms_by_scan(unit, payloads):
    """Atoms of commuting projections by the exhaustive sign-pattern scan.

    unit and payloads are symmetric matrices (the identity and the
    projections), or vectors for the function instance. For every one
    of the 2^m masks the product over i of p_i (bit i set) or 1 - p_i is
    formed left to right from the unit, symmetrised after each step, and
    kept when its norm exceeds 0.5 (spectral norm on matrices, max|.| on
    vectors). Returns (atoms, patterns) in mask order. Exponential in m:
    an oracle for small families only.
    """
    unit = np.asarray(unit, dtype=float)
    payloads = [np.asarray(p, dtype=float) for p in payloads]
    m = len(payloads)
    atoms, patterns = [], []
    for mask in range(1 << m):
        bits = tuple(mask >> i & 1 for i in range(m))
        prod = unit
        for bit, p in zip(bits, payloads):
            factor = p if bit else unit - p
            if unit.ndim == 2:
                xf = prod @ factor
                prod = (xf + xf.T) / 2.0
            else:
                prod = prod * factor
        norm = sym_norm(prod) if unit.ndim == 2 else float(np.max(np.abs(prod)))
        if norm > 0.5:
            atoms.append(prod)
            patterns.append(bits)
    return atoms, patterns


def _times(x, y):
    """The ambient product: matrix product, or pointwise on vectors."""
    return x @ y if x.ndim == 2 else x * y


def _order_unit_norm(x) -> float:
    return sym_norm(x) if x.ndim == 2 else float(np.max(np.abs(x)))


def prefix_tree_by_children(unit, payloads):
    """(masks, leaves) of the pruned prefix tree, one child at a time.

    Every live prefix, in order, is multiplied by 1 - p_i and then by
    p_i. A matrix child is symmetrised as m/2 + m.T/2 and rejected as an
    element would be: "non-finite entry" when its asymmetry is NaN,
    "matrix is not symmetric (asymmetry ...)" past 1e-10; a vector child
    must be finite. Children of Frobenius norm at most 1/4 are dropped;
    leaves of order-unit norm above 1/2 are kept, in mask order. Raises
    ValueError for the first failing child.
    """
    unit = np.asarray(unit, dtype=float)
    live = [(0, unit)]
    for i, p in enumerate(np.asarray(q, dtype=float) for q in payloads):
        grown = []
        for mask, prod in live:
            for bit, factor in ((0, unit - p), (1 << i, p)):
                child = _times(prod, factor)
                if child.ndim == 2:
                    with np.errstate(invalid="ignore"):
                        sym = child / 2.0 + child.T / 2.0
                        drift = float(np.max(np.abs(child - sym)))
                    if drift != drift:
                        raise ValueError("non-finite entry")
                    if drift > 1e-10:
                        raise ValueError(f"matrix is not symmetric (asymmetry {drift:.3e})")
                    child = sym
                elif not np.isfinite(child).all():
                    raise ValueError("non-finite entry")
                if np.linalg.norm(child) > 0.25:
                    grown.append((mask | bit, child))
        live = grown
    leaves = sorted(((mask, x) for mask, x in live if _order_unit_norm(x) > 0.5),
                    key=lambda leaf: leaf[0])
    return [mask for mask, _ in leaves], [x for _, x in leaves]


def generator_failure_by_pairs(payloads):
    """The message naming the first generator that is no projection, then
    the first pair (i, j), i < j, that does not commute; None if neither.

    Matrices: ||p^2 - p|| and ||pq - qp|| within 1e-9 times
    max(1, ||p||), respectively max(1, ||p|| ||q||). Vectors: each entry
    exactly 0 or 1, and every pair commutes.
    """
    payloads = [np.asarray(p, dtype=float) for p in payloads]
    for i, p in enumerate(payloads):
        if p.ndim == 2:
            residual = float(np.max(np.abs(p @ p - p)))
            ok = residual <= 1e-9 * max(1.0, sym_norm(p))
        else:
            ok = bool(np.all((p == 0.0) | (p == 1.0)))
        if not ok:
            return f"generator {i} is not a projection"
    for i, p in enumerate(payloads):
        for j in range(i + 1, len(payloads)):
            q = payloads[j]
            if p.ndim == 2:
                pq = p @ q
                scale = max(1.0, sym_norm(p) * sym_norm(q))
                if float(np.max(np.abs(pq - pq.T))) > 1e-9 * scale:
                    return f"generators ({i}, {j}) do not commute; no commutative span"
    return None


def resolution_failure_by_pairs(payloads, allowed):
    """The first member that is no projection, or pair that is not
    orthogonal, within allowed, as the resolution check words it: the
    square of i, then each pair (i, j > i), before the next i."""
    payloads = [np.asarray(p, dtype=float) for p in payloads]
    for i, p in enumerate(payloads):
        if np.max(np.abs(_times(p, p) - p)) > allowed:
            return f"resolution member {i} is not a projection"
        for q in payloads[i + 1:]:
            if np.max(np.abs(_times(p, q))) > allowed:
                return "resolution projections are not orthogonal"
    return None


def rounded_by_entries(values) -> list:
    """round(float(x), 12) entry by entry, as the spectral report rounded."""
    return [round(float(x), 12) for x in np.ravel(values)]


def commutative_extremality_by_loops(points, mu, tol: float = 1e-9) -> dict:
    """The seven fields of the commutative extremality report, by loops.

    mu is a probability vector on the labels in points. Every condition
    is scanned the way its definition reads, one indicator or one subset
    at a time, with the state evaluated as a dot product: membership
    among the unit vectors of the simplex, evaluation at a point,
    rho(ab) = rho(a) rho(b) on pairs of point indicators, rho in {0, 1}
    on the indicator of every subset, and the min-rule on pairs of
    distinct point indicators, stopping at the first failing pair in
    row-major order.
    """
    mu = np.asarray(mu, dtype=float)
    k = len(points)

    def rho(v):
        return float(np.dot(mu, v))

    def indicator(subset):
        v = np.zeros(k)
        for i in subset:
            v[i] = 1.0
        return v

    units = [[float(i == j) for i in range(k)] for j in range(k)]
    is_vertex = any(all(abs(vc - m) <= tol for vc, m in zip(u, mu)) for u in units)

    point_evaluation = None
    for i in range(k):
        if np.max(np.abs(mu - indicator([i]))) <= tol:
            point_evaluation = points[i]
            break

    is_multiplicative = all(
        abs(rho(indicator([i]) * indicator([j])) - rho(indicator([i])) * rho(indicator([j])))
        <= tol
        for i in range(k) for j in range(k)
    )
    zero_one = True
    for mask in range(1 << k):
        v = rho(indicator([i for i in range(k) if mask >> i & 1]))
        if min(abs(v), abs(v - 1.0)) > tol:
            zero_one = False
            break

    witness = None
    for i in range(k):
        for j in range(k):
            a, b = indicator([i]), indicator([j])
            if i != j and abs(rho(np.minimum(a, b)) - min(rho(a), rho(b))) > tol:
                witness = (points[i], points[j])
                break
        if witness:
            break

    flags = (is_vertex, point_evaluation is not None, is_multiplicative, zero_one)
    return {
        "is_vertex": is_vertex,
        "point_evaluation": point_evaluation,
        "is_multiplicative": is_multiplicative,
        "zero_one_on_projections": zero_one,
        "all_equivalent": len(set(flags)) == 1,
        "min_rule_holds": witness is None,
        "min_rule_witness": witness,
    }


def ea_first_violation(table, zero, one):
    """(axiom, witness, detail) of the first failure in scan order, or None.

    Commutativity, associativity, orthosupplement, the zero-one law, then
    cancelation, each a plain loop over pairs or triples of indices. The
    library does not scan cancelation, which cannot fail once the others
    pass; the suite checks that on the tables it accepts.
    """
    n = len(table)
    for e in range(n):
        for f in range(n):
            if table[e][f] != table[f][e]:
                return ("commutativity", (e, f),
                        f"osum({e},{f})={table[e][f]!r} but osum({f},{e})={table[f][e]!r}")
    for d in range(n):
        for e in range(n):
            de = table[d][e]
            for f in range(n):
                lhs = table[de][f] if de is not None else None
                ef = table[e][f]
                rhs = table[d][ef] if ef is not None else None
                if lhs != rhs:
                    return ("associativity", (d, e, f), f"(d+e)+f={lhs!r} but d+(e+f)={rhs!r}")
    for e in range(n):
        sups = [f for f in range(n) if table[e][f] == one]
        if len(sups) != 1:
            kind = "no orthosupplement" if not sups else f"multiple orthosupplements {sups}"
            return ("orthosupplement", (e,), kind)
    for e in range(n):
        if table[e][one] is not None and e != zero:
            return ("zero-one law", (e,), f"osum({e}, one) is defined but {e} != zero")
    witness = cancelation_failure(table)
    if witness is not None:
        e, f, d = witness
        return ("cancelation", witness, f"osum({e},{d}) == osum({f},{d}) with {e} != {f}")
    return None


def cancelation_failure(table):
    """The first (e, f, d) with e != f and e + d = f + d defined, or None."""
    n = len(table)
    for d in range(n):
        for e in range(n):
            for f in range(e + 1, n):
                if table[e][d] is not None and table[e][d] == table[f][d]:
                    return (e, f, d)
    return None


def mv_first_violation(plus, perp, zero, one):
    """(axiom, witness, detail) of the first failing MV axiom, or None."""
    t, p, n = plus, perp, len(plus)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if t[x][t[y][z]] != t[t[x][y]][z]:
                    return ("mv-associativity", (x, y, z), "x+(y+z) != (x+y)+z")
    for x in range(n):
        for y in range(n):
            if t[x][y] != t[y][x]:
                return ("mv-commutativity", (x, y), "x+y != y+x")
    for x in range(n):
        if t[x][zero] != x:
            return ("mv-zero", (x,), "x+0 != x")
    for x in range(n):
        if p[p[x]] != x:
            return ("mv-involution", (x,), "perp(perp(x)) != x")
    if p[zero] != one:
        return ("mv-perp-zero", (zero,), "perp(0) != 1")
    for x in range(n):
        if t[x][p[x]] != one:
            return ("mv-complement", (x,), "x+perp(x) != 1")
    for x in range(n):
        for y in range(n):
            if t[x][p[t[x][p[y]]]] != t[y][p[t[y][p[x]]]]:
                return ("mv-lukasiewicz", (x, y), "x+(x+perp(y))' != y+(y+perp(x))'")
    return None


# ---------------------------------------------------------------------------
# Lattice oracles on a raw relation table: leq[i][j] is True when i <= j


def lattice_tables_by_scan(leq):
    """(meets, joins) as lists of lists, -1 where a pair has no meet or join."""
    n = len(leq)

    def greatest(bounds, below):
        for c in bounds:
            if all(below(d, c) for d in bounds):
                return c
        return -1

    meets = [[-1] * n for _ in range(n)]
    joins = [[-1] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            lower = [c for c in range(n) if leq[c][a] and leq[c][b]]
            upper = [c for c in range(n) if leq[a][c] and leq[b][c]]
            meets[a][b] = greatest(lower, lambda d, c: leq[d][c])
            joins[a][b] = greatest(upper, lambda d, c: leq[c][d])
    return meets, joins


def glb_table_by_rows(leq: np.ndarray) -> np.ndarray:
    """Greatest lower bounds under a boolean relation array, one row a at a time.

    Each pair's candidate is its common lower bound with the largest
    down-set; it is the meet when every common lower bound lies below it.
    """
    n = leq.shape[0]
    below = leq.T
    down = leq.sum(axis=0)
    table = np.empty((n, n), dtype=np.intp)
    for a in range(n):
        common = below & leq[:, a]
        cand = np.where(common, down, -1).argmax(axis=1)
        stray = common & ~below[cand]
        table[a] = np.where(common.any(axis=1) & ~stray.any(axis=1), cand, -1)
    return table


def _extreme(leq, below: bool):
    n = len(leq)
    for c in range(n):
        if all((leq[c][d] if below else leq[d][c]) for d in range(n)):
            return c
    return None


def classification_by_scan(leq, perp=None) -> dict:
    """Every classification flag by its defining loop, keyed like the library's.

    is_oml is None without a perp. Directedness and the Dedekind
    condition are scanned on every input, lattices included.
    """
    n = len(leq)
    meets, joins = lattice_tables_by_scan(leq)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    lattice = all(meets[a][b] >= 0 and joins[a][b] >= 0 for a, b in pairs)
    bottom, top = _extreme(leq, True), _extreme(leq, False)
    bounded = bottom is not None and top is not None
    distributive = lattice and all(
        meets[a][joins[b][c]] == joins[meets[a][b]][meets[a][c]]
        for a in range(n)
        for b, c in pairs
    )
    complemented = lattice and bounded and all(
        any(meets[a][b] == bottom and joins[a][b] == top for b in range(n))
        for a in range(n)
    )
    oml = None
    if perp is not None:
        oml = all(joins[a][meets[b][perp[a]]] == b for a, b in pairs if leq[a][b])

    def bounded_above(a, b):
        return any(leq[a][c] and leq[b][c] for c in range(n))

    def bounded_below(a, b):
        return any(leq[c][a] and leq[c][b] for c in range(n))

    directed = all(bounded_above(a, b) and bounded_below(a, b) for a, b in pairs)
    dedekind = all(
        (not bounded_above(a, b) or joins[a][b] >= 0)
        and (not bounded_below(a, b) or meets[a][b] >= 0)
        for a, b in pairs
    )
    return {
        "is_lattice": lattice,
        "is_distributive": distributive,
        "is_complemented": complemented,
        "is_boolean": lattice and bounded and distributive and complemented,
        "is_oml": oml,
        "is_directed": directed,
        "is_lattice_complete": lattice,
        "is_sigma_complete": lattice,
        "is_dedekind_sigma_complete": dedekind,
        "is_monotone_sigma_complete": True,
    }


def ortholattice_failure_by_scan(leq, zero, one, perp):
    """The first failed ortholattice axiom as the library words it, or None.

    Checks bounds, permutation, lattice, involution, order reversal and
    complements in that order, each pair by pair in row-major order.
    """
    n = len(leq)
    if _extreme(leq, True) != zero:
        return "zero is not the minimum"
    if _extreme(leq, False) != one:
        return "one is not the maximum"
    if sorted(perp) != list(range(n)):
        return "perp must be a permutation of the elements"
    meets, joins = lattice_tables_by_scan(leq)
    for a in range(n):
        for b in range(n):
            if meets[a][b] < 0 or joins[a][b] < 0:
                return f"not a lattice: pair ({a}, {b})"
    for a in range(n):
        if perp[perp[a]] != a:
            return f"perp is not an involution at {a}"
    for a in range(n):
        for b in range(n):
            if leq[a][b] and not leq[perp[b]][perp[a]]:
                return f"perp does not reverse order on ({a}, {b})"
    for a in range(n):
        if meets[a][perp[a]] != zero or joins[a][perp[a]] != one:
            return f"perp({a}) is not a complement of {a}"
    return None


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


def rank_by_elimination(rows, ncols) -> int:
    """Rank of a rational matrix with ncols columns, over Fractions."""
    return len(_eliminate([[Fraction(v) for v in row] for row in rows], ncols))


def is_state_by_loops(table, one, values) -> bool:
    """The exact state conditions on a partial-sum table, pair by pair.

    values are exact rationals (ints, bools, Fractions, numpy integers),
    each read as a Fraction of Python ints first.
    """
    vals = [Fraction(int(v.numerator), int(v.denominator)) for v in values]
    if vals[one] != 1 or any(v < 0 or v > 1 for v in vals):
        return False
    n = len(table)
    for e in range(n):
        for f in range(n):
            g = table[e][f]
            if g is not None and vals[e] + vals[f] != vals[g]:
                return False
    return True


def is_float_state_by_loops(table, one, values, tol) -> bool:
    """The float state conditions, to tol, pair by pair over the whole table."""
    vals = [float(v) for v in values]
    if abs(vals[one] - 1.0) > tol or any(v < -tol or v > 1.0 + tol for v in vals):
        return False
    n = len(table)
    for e in range(n):
        for f in range(n):
            g = table[e][f]
            if g is not None and abs(vals[e] + vals[f] - vals[g]) > tol:
                return False
    return True


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
