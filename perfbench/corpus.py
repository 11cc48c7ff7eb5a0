"""Seeded corpus generator: the items of one pass of each workload.

The same seed gives the same items in the same order. The seed changes
element orders, labels, matrices and the order of the items; it never
changes how many items of each shape a pass holds, so the work of a
pass stays comparable from seed to seed. The program under test only
ever sees the documents written here and the argv built for them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from structures import (
    EffectAlgebra,
    boolean_ea,
    boolean_lattice,
    boolean_mv,
    bowtie_poset,
    chain_ea,
    chain_poset,
    diamond_ea,
    ea_document,
    is_exact_state,
    lukasiewicz_chain,
    mo2_ea,
    mo2_lattice,
    o6_lattice,
    permuted,
    product_ea,
    product_mv,
)

WORKLOADS = ("states-exact", "spectral-lattice", "check-docs")


@dataclass
class Item:
    """One call to the public surface and what its answer must be.

    op is "cli" (argv after the program name, with FILE placeholders
    resolved against the pass's document directory), "meet" (a
    projection triple through proj_meet/proj_join) or "funrep" (a
    functional representation of commuting projections). expect holds
    whatever the oracle for this item needs.
    """

    name: str
    op: str
    argv: list[str] = field(default_factory=list)
    doc: object = None
    data: dict = field(default_factory=dict)
    expect: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# states-exact


def _states_exact(rng: random.Random) -> list[Item]:
    # (constructor, copies per pass). The pass uses exact two ways with about
    # equal weight: many equality rows in low dimension (2^4, 2^2 x 2^2,
    # MO2 x chain(2): dimension 3, 16-18 elements) and one equality row
    # in high dimension (the simplexes, cold once per pass, 7 points
    # trying C(14, 6) bases). 2^5 (7-10 s), MO2 x 2^2 (2 s), the cold
    # 8-point simplex (4.6 s) and MO2 x MO2 (120 s) would each be most of
    # a pass and leave too few passes in a run. Only algebras of up to 8
    # elements get a seeded element order: the scan's cost on the larger
    # ones moves by up to 25% with the row order, which would swamp the
    # comparison between seeds.
    mo2, b1, b2 = mo2_ea(), boolean_ea(1), boolean_ea(2)
    mix = [
        (lambda: boolean_ea(2), 10),
        (lambda: boolean_ea(3), 10),
        (lambda: boolean_ea(4), 4),
        (mo2_ea, 10),
        (diamond_ea, 6),
        (lambda: product_ea(mo2, b1), 4),
        (lambda: product_ea(mo2, chain_ea(2)), 3),
        (lambda: product_ea(b2, b2), 3),
    ] + [(lambda s=s: chain_ea(s), 3) for s in range(2, 9)]
    items = []
    for build, copies in mix:
        for _ in range(copies):
            ea = build()
            if ea.n <= 8:
                perm = list(range(ea.n))
                rng.shuffle(perm)
                ea = permuted(ea, perm)
            items.append(
                Item(f"states:{ea.name}", "cli", ["states", "--extremal", "FILE"],
                     doc=ea_document(ea, "ea"), expect={"ea": ea})
            )
    for k in range(2, 8):
        for _ in range(5):
            points = [f"x{rng.randrange(10**6)}_{i}" for i in range(k)]
            doc = {"kind": "function_algebra", "label": "f", "points": points}
            items.append(
                Item(f"states:simplex({k})", "cli", ["states", "--extremal", "FILE"],
                     doc=doc, expect={"points": points})
            )
    rng.shuffle(items)
    return items


# ---------------------------------------------------------------------------
# spectral-lattice


def _orthonormal(nrng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(nrng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def _spectrum(nrng: np.random.Generator, n: int, shape: str) -> list[float]:
    """Eigenvalues with well separated clusters (gaps of at least 0.25)."""
    if shape == "generic":
        distinct = n
    elif shape == "clustered":
        distinct = max(1, n // 3)
    else:  # low rank: many zero eigenvalues, a few nonzero ones
        distinct = max(2, n // 4 + 1)
    values = np.cumsum(nrng.uniform(0.25, 1.0, distinct)) - nrng.uniform(0.0, 2.0)
    values = [round(float(v), 6) for v in values]
    if shape == "low-rank":
        values[nrng.integers(distinct)] = 0.0
        counts = [1] * distinct
        counts[values.index(0.0)] += n - distinct
    else:
        counts = [1] * distinct
        for _ in range(n - distinct):
            counts[nrng.integers(distinct)] += 1
    return [v for v, c in zip(values, counts) for _ in range(c)]


def _projector(basis: np.ndarray) -> np.ndarray:
    return basis @ basis.T


def _spectral_lattice(rng: random.Random, nrng: np.random.Generator) -> list[Item]:
    items = []
    shapes = ("generic", "clustered", "low-rank")
    for n, copies in ((2, 9), (4, 9), (8, 9), (16, 6)):
        for c in range(copies):
            shape = shapes[c % 3]
            lam = _spectrum(nrng, n, shape)
            u = _orthonormal(nrng, n)
            m = (u * lam) @ u.T
            m = (m + m.T) / 2.0
            doc = {"kind": "sym_matrix", "label": "m", "n": n,
                   "entries": [float(x) for x in m.ravel()]}
            items.append(
                Item(f"spectral:sym({n}):{shape}", "cli", ["spectral", "FILE"], doc=doc,
                     expect={"matrix": m, "distinct": sorted(set(lam))})
            )
    for k in range(3, 9):
        for _ in range(2):
            levels = [round(float(v), 6) for v in np.cumsum(nrng.uniform(0.25, 1.0, 3))]
            vec = [levels[int(i)] for i in nrng.integers(0, 3, k)]
            points = [f"p{i}" for i in range(k)]
            doc = {"kind": "function_algebra", "label": "fa", "points": points,
                   "values": {"g": vec}}
            items.append(
                Item(f"spectral:function({k})", "cli", ["spectral", "FILE"], doc=doc,
                     expect={"matrix": np.diag(vec), "distinct": sorted(set(vec))})
            )
    for n, copies in ((4, 20), (8, 20)):
        for _ in range(copies):
            items.append(_meet_triple(nrng, n))
    for n, m, copies in ((3, 2, 4), (4, 3, 4), (5, 3, 4), (6, 4, 4), (7, 5, 4), (8, 6, 4), (8, 7, 4)):
        for _ in range(copies):
            items.append(_commuting_family(nrng, n, m))
    rng.shuffle(items)
    return items


def _meet_triple(nrng: np.random.Generator, n: int) -> Item:
    """P1, P2 share exactly the span of `shared` columns; P3 is generic.

    The oracle knows P1 AND P2 (the shared span) and (P1 AND P2) OR P3
    (the span of the shared columns and P3's range) from the
    construction, not from the library.
    """
    u = _orthonormal(nrng, n)
    shared = int(nrng.integers(1, n // 2 + 1))
    extra = int(nrng.integers(0, n // 2 - shared + 1)) if shared < n // 2 else 0
    a = u[:, :shared]
    b1 = np.hstack([a, u[:, shared:shared + extra]])
    # P2's own directions mix P1's extra columns with the rest, so they
    # leave range(P1) and P1 and P2 do not commute in general
    rest = u[:, shared:]
    w = rest @ nrng.standard_normal((n - shared, n // 2 - shared))
    b2 = np.linalg.qr(np.hstack([a, w]))[0]
    r3 = int(nrng.integers(1, n - shared))
    b3 = np.linalg.qr(nrng.standard_normal((n, r3)))[0]
    join = np.linalg.qr(np.hstack([a, b3]))[0]
    return Item(
        f"meet:sym({n})", "meet",
        data={"n": n, "p1": _projector(b1), "p2": _projector(b2), "p3": _projector(b3)},
        expect={"meet": _projector(a), "join": _projector(join)},
    )


def _commuting_family(nrng: np.random.Generator, n: int, m: int) -> Item:
    u = _orthonormal(nrng, n)
    diags = (nrng.random((m, n)) < 0.5).astype(float)
    return Item(
        f"funrep:sym({n})x{m}", "funrep",
        data={"n": n, "projections": [(u * d) @ u.T for d in diags]},
        expect={"atoms": sorted({tuple(col) for col in diags.T.astype(int).tolist()})},
    )


# ---------------------------------------------------------------------------
# check-docs


def _check_docs(rng: random.Random, nrng: np.random.Generator, replay) -> list[Item]:
    items: list[Item] = []

    def check(name, doc, code, **expect):
        items.append(Item(f"check:{name}", "cli", ["check", "FILE"], doc=doc,
                          expect={"code": code, **expect}))

    lattices = [(boolean_lattice(3), 4), (boolean_lattice(4), 3), (boolean_lattice(5), 2),
                (boolean_lattice(6), 1), (mo2_lattice(), 4), (o6_lattice(), 4)]
    for lat, copies in lattices:
        for _ in range(copies):
            check(f"ortholattice:{lat.name}", lat.document("L"), 0, flags=lat.flags)
    for n in range(2, 8):
        check(f"poset:chain({n})", chain_poset(n, "P"), 0)
    for _ in range(3):
        check("poset:bowtie", bowtie_poset("P"), 0)

    mo2, b2 = mo2_ea(), boolean_ea(2)
    algebras = [boolean_ea(2), boolean_ea(3), boolean_ea(4), mo2, diamond_ea(),
                chain_ea(3), chain_ea(5), chain_ea(8), product_ea(mo2, boolean_ea(1)),
                product_ea(mo2, chain_ea(2)), product_ea(b2, b2), product_ea(mo2, b2),
                product_ea(chain_ea(2), chain_ea(3)), product_ea(mo2, mo2)]
    shuffled = []
    for ea in algebras:
        perm = list(range(ea.n))
        rng.shuffle(perm)
        shuffled.append(permuted(ea, perm))
    for ea in shuffled + shuffled[-7:]:
        check(f"effect_algebra:{ea.name}", ea_document(ea, "E"), 0)

    mvs = [lukasiewicz_chain(s) for s in (2, 3, 5, 8)] + [boolean_mv(2), boolean_mv(3)]
    mvs += [product_mv(lukasiewicz_chain(2), lukasiewicz_chain(3)),
            product_mv(lukasiewicz_chain(3), lukasiewicz_chain(3)),
            product_mv(boolean_mv(2), lukasiewicz_chain(2))]
    for mv in mvs:
        check(f"mv_algebra:{mv.name}", mv.document("M"), 0)

    # states over an effect algebra: exact convex combinations of vertices
    for ea in shuffled[:8]:
        verts = sorted(ea.vertices)
        weights = [Fraction(rng.randint(1, 5)) for _ in verts]
        total = sum(weights)
        values = [sum(w * v[e] for w, v in zip(weights, verts)) / total for e in range(ea.n)]
        ok = is_exact_state(ea, values)
        check(f"state:{ea.name}", [ea_document(ea, "E"), _ea_state(values)], 0 if ok else 1)
    for n in (2, 3, 4, 6):
        u = _orthonormal(nrng, n)
        w = nrng.dirichlet(np.ones(n))
        density = (u * w) @ u.T
        base = {"kind": "sym_matrix", "label": "S", "n": n,
                "entries": [float(x) for x in np.eye(n).ravel()]}
        state = {"kind": "state", "over": "S",
                 "density": [float(x) for x in ((density + density.T) / 2).ravel()]}
        check(f"state:sym({n})", [base, state], 0)
    for k in (2, 3, 5, 7, 8):
        base = {"kind": "function_algebra", "label": "F", "points": [f"p{i}" for i in range(k)]}
        weights = [float(x) for x in nrng.dirichlet(np.ones(k))]
        check(f"state:function({k})", [base, {"kind": "state", "over": "F", "vector": weights}], 0)

    # -- bad input: a quarter of the pass -------------------------------------
    # single-entry mutations: exit 1, and the reported witness must replay
    for ea in (shuffled * 2)[:15]:
        table = _mutation(rng, ea, replay)
        check(f"mutation:{ea.name}", ea_document(ea, "E", table), 1,
              table=table, zero=ea.zero, one=ea.one, labels=ea.labels)
    # states that break additivity or positivity: exit 1
    for ea in shuffled[:2]:
        values = list(sorted(ea.vertices)[0])
        while is_exact_state(ea, values):
            values[rng.choice([e for e in range(ea.n) if e not in (ea.zero, ea.one)])] = \
                Fraction(rng.randint(1, 6), 7)
        check(f"bad-state:{ea.name}", [ea_document(ea, "E"), _ea_state(values)], 1)
    for k in (3, 4):
        base = {"kind": "function_algebra", "label": "F", "points": [f"p{i}" for i in range(k)]}
        vector = [0.75, -0.25] + [0.5 / (k - 2)] * (k - 2)
        check(f"bad-state:function({k})", [base, {"kind": "state", "over": "F", "vector": vector}], 1)
    # unusable documents: exit 2
    for ea in shuffled[:3]:
        doc = ea_document(ea, "E")
        doc["osum"][rng.randrange(len(doc["osum"]))][2] = "no-such-element"
        check(f"unknown-label:{ea.name}", doc, 2)
    for ea in shuffled[3:6]:
        raw = [str(v) for v in sorted(ea.vertices)[0]]
        raw[rng.randrange(ea.n)] = "1/x"
        check(f"bad-rational:{ea.name}", [ea_document(ea, "E"), _ea_state(raw)], 2)
    ea = shuffled[6]
    check(f"wrong-length:state:{ea.name}",
          [ea_document(ea, "E"), _ea_state([str(v) for v in sorted(ea.vertices)[0]][:-1])], 2)
    fa = {"kind": "function_algebra", "label": "F", "points": ["p", "q", "r"],
          "values": {"g": [1.0, 2.0]}}
    check("wrong-length:function", fa, 2)

    rng.shuffle(items)
    return items


def _ea_state(values) -> dict:
    return {"kind": "state", "over": "E", "table": [str(v) for v in values]}


def _mutation(rng: random.Random, ea: EffectAlgebra, replay):
    """Change one cell of the table until the axioms break."""
    while True:
        e, f = rng.randrange(ea.n), rng.randrange(ea.n)
        new = rng.choice([None] + [g for g in range(ea.n) if g != ea.table[e][f]])
        if new == ea.table[e][f]:
            continue
        table = [list(row) for row in ea.table]
        table[e][f] = new
        if replay.ea_axiom_failures(table, ea.zero, ea.one):
            return tuple(map(tuple, table))


def probes() -> list[Item]:
    """The robustness-probe inputs: each must get a report or a clean exit.

    "codes" is the set of acceptable exit codes; raising out of main
    is never acceptable. These run after every check-docs pass, outside
    the timed items.
    """
    bad_ea = ea_document(chain_ea(2), "E")
    bad_ea["osum"] = [t for t in bad_ea["osum"] if t[:2] != ["1/2", "1/2"]]
    return [
        Item("probe:spectral:asymmetric", "cli", ["spectral", "FILE"],
             doc={"kind": "sym_matrix", "label": "m", "n": 2, "entries": [1.0, 2.0, 0.0, 1.0]},
             expect={"codes": (1, 2)}),
        Item("probe:spectral:non-numeric", "cli", ["spectral", "FILE"],
             doc={"kind": "sym_matrix", "label": "m", "n": 2, "entries": [1.0, "x", "x", 1.0]},
             expect={"codes": (2,)}),
        Item("probe:spectral:n-zero", "cli", ["spectral", "FILE"],
             doc={"kind": "sym_matrix", "label": "m", "n": 0, "entries": []},
             expect={"codes": (2,)}),
        Item("probe:spectral:nan", "cli", ["spectral", "FILE"],
             doc={"kind": "sym_matrix", "label": "m", "n": 2,
                  "entries": [1.0, float("nan"), float("nan"), 1.0]},
             expect={"codes": (2,)}),
        Item("probe:check:nan", "cli", ["check", "FILE"],
             doc={"kind": "sym_matrix", "label": "m", "n": 2,
                  "entries": [float("nan"), 0.0, 0.0, 1.0]},
             expect={"codes": (2,)}),
        Item("probe:states:axiom-failure", "cli", ["states", "FILE"], doc=bad_ea,
             expect={"codes": (1,)}),
        Item("probe:states:non-numeric", "cli", ["states", "FILE"],
             doc={"kind": "function_algebra", "label": "F", "points": ["p", "q"],
                  "values": {"g": [1.0, "x"]}},
             expect={"codes": (2,)}),
    ]


def build(workload: str, seed: int, replay) -> list[Item]:
    rng = random.Random(f"{workload}:{seed}")
    nrng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    if workload == "states-exact":
        return _states_exact(rng)
    if workload == "spectral-lattice":
        return _spectral_lattice(rng, nrng)
    return _check_docs(rng, nrng, replay)
