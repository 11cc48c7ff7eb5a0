"""Former pair-by-pair conversions, the oracles of the whole-table ones.

The effect-algebra order induced by an orthosummation table, the order
of an MV-algebra read off its join formula, the tables of the
orthomodular-lattice, MV and effect-algebra conversions and the checks
they end with, the additivity of a map between effect algebras, and the
atoms and per-point homomorphism checks of the Stone space, each
computed one element, one pair or one point at a time
on raw tables and scalar operations, as the library did before it read
whole relations and tables. Where a conversion validates its result as
a poset or an algebra, the oracle stops short of that step and returns
what it would validate, so that a test can run the library's
constructor on it. The reading of an operation table that the
library made in two passes, into row tuples and then into the index
array its scans read, the orthosums and orthosupplements it read off
those tuples, and the meet and join tables it built one scalar call per
pair, are kept here too. Like tests/per_call_paths.py, this module
shares no code with src/ and lives apart from tests/helpers.py, which
perfbench loads in every worker.
"""

from __future__ import annotations

from itertools import chain, repeat

import numpy as np


class StructureError(ValueError):
    """The error the two-pass reading raised, told apart by its name."""


def normalize_table(table, n: int):
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


def extended(t) -> np.ndarray:
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


def orthosums(t) -> tuple[tuple[int, int, int], ...]:
    """Every defined orthosum (e, f, g = e + f) of the row tuples t with e <= f, row by row."""
    return tuple((e, f, g) for e, row in enumerate(t) for f, g in enumerate(row[e:], e)
                 if g is not None)


def orthosupplements(t, one) -> tuple[int, ...]:
    """For each row e of the row tuples t, the f with e + f = one."""
    return tuple(row.index(one) for row in t)


def pair_table(op, n: int) -> np.ndarray:
    """The n x n table of op(a, b), one call per pair in row-major order."""
    rows, cols = np.indices((n, n)).reshape(2, -1).tolist()
    return np.array(list(map(op, rows, cols)), dtype=np.intp).reshape(n, n)


def induced_relation(table) -> list[list[bool]]:
    """[e][f]: e + d = f for some d."""
    n = len(table)
    return [[any(table[e][d] == f for d in range(n)) for f in range(n)] for e in range(n)]


def induced_order_failure(rel, table, zero, one, perp) -> str | None:
    """The first message the induced order's checks raise, or None.

    Bounds element by element, then per pair in row-major order order
    duality under perp before orthogonality as e <= perp(f).
    """
    n = len(table)
    for e in range(n):
        if not rel[zero][e] or not rel[e][one]:
            return f"induced order is not bounded at {e}"
    for e in range(n):
        for f in range(n):
            if rel[e][f] != rel[perp[f]][perp[e]]:
                return f"order duality fails on ({e}, {f})"
            if (table[e][f] is not None) != rel[e][perp[f]]:
                return f"orthogonality mismatch on ({e}, {f})"
    return None


def mv_join(plus, perp, x, y):
    """x OR y = x + (x + perp(y))'."""
    return plus[x][perp[plus[x][perp[y]]]]


def mv_relation(plus, perp) -> list[list[bool]]:
    """[x][y]: x OR y is y."""
    n = len(plus)
    return [[mv_join(plus, perp, x, y) == y for y in range(n)] for x in range(n)]


def oml_table(leq, join, perp) -> list[list[int | None]]:
    """p + q = join(p, q) where p <= perp(q), None elsewhere."""
    n = len(leq)
    return [[join(p, q) if leq[p][perp[q]] else None for q in range(n)] for p in range(n)]


def oml_failure(order, leq, table, meet, zero) -> str | None:
    """The first pair where the induced order and the lattice's differ, or an
    orthogonal pair is not disjoint; the order test first at each pair."""
    n = len(leq)
    for a in range(n):
        for b in range(n):
            if order[a][b] != leq[a][b]:
                return f"induced order disagrees with lattice at ({a}, {b})"
            if table[a][b] is not None and meet(a, b) != zero:
                return f"orthogonal pair ({a}, {b}) is not disjoint"
    return None


def disjoint_are_orthogonal(meets, table, zero) -> bool:
    """Every pair meeting in zero has a defined orthosum."""
    n = len(table)
    return all(table[e][f] is not None
               for e in range(n) for f in range(n) if meets[e][f] == zero)


def mv_plus(table, meets, perp):
    """x + y := x (+) (perp(x) AND y), or the message of its first undefined sum."""
    n = len(table)
    plus = []
    for x in range(n):
        row = []
        for y in range(n):
            m = meets[perp[x]][y]
            v = table[x][m]
            if v is None:
                return f"internal: sum undefined on ({x}, {m})"
            row.append(v)
        plus.append(row)
    return plus


def order_disagreement(mv_order, order) -> str | None:
    n = len(order)
    for x in range(n):
        for y in range(n):
            if mv_order[x][y] != order[x][y]:
                return f"MV order disagrees with induced order at ({x}, {y})"
    return None


def mv_restriction(plus, perp) -> list[list[int | None]]:
    """x + y where x <= perp(y) in the MV order, None elsewhere."""
    n = len(plus)
    return [[plus[x][y] if mv_join(plus, perp, x, perp[y]) == perp[y] else None
             for y in range(n)] for x in range(n)]


def morphism_violation(dom_table, dom_one, cod_table, cod_one, phi) -> str | None:
    """Why phi is no effect-algebra morphism, pair by pair, or None."""
    if phi[dom_one] != cod_one:
        return "unit is not preserved"
    n = len(dom_table)
    for e in range(n):
        for f in range(n):
            v = dom_table[e][f]
            if v is None:
                continue
            w = cod_table[phi[e]][phi[f]]
            if w is None:
                return f"images of orthogonal pair ({e}, {f}) are not orthogonal"
            if w != phi[v]:
                return f"additivity fails on ({e}, {f})"
    return None


def atoms(leq, zero) -> list[int]:
    """The elements whose strict down-set is exactly {zero}."""
    n = len(leq)
    out = []
    for a in range(n):
        if a == zero:
            continue
        below = [x for x in range(n) if leq[x][a] and x != a]
        if below == [zero]:
            out.append(a)
    return out


def stone_failure(char, zero, one, perp, meet, join) -> str | None:
    """The first homomorphism check a point fails, point by point, or None.

    Per point: the bounds, then for each b its complement, then its meet
    and its join with each c in turn. Then injectivity and onto of
    b |-> the set of points taking 1 at b.
    """
    n = len(perp)
    for p, row in enumerate(char):
        if row[zero] != 0 or row[one] != 1:
            return f"point {p} does not preserve the bounds"
        for b in range(n):
            if row[perp[b]] != 1 - row[b]:
                return f"point {p} does not preserve complements"
            for c in range(n):
                if row[meet(b, c)] != min(row[b], row[c]):
                    return f"point {p} does not preserve meets"
                if row[join(b, c)] != max(row[b], row[c]):
                    return f"point {p} does not preserve joins"
    images = [frozenset(p for p in range(len(char)) if char[p][b] == 1) for b in range(n)]
    if len(set(images)) != n:
        return "clopen-set map is not injective"
    if set(images) != {frozenset(s for s in range(len(char)) if mask >> s & 1)
                       for mask in range(1 << len(char))}:
        return "clopen-set map is not onto the subset field"
    return None
