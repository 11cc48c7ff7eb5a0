"""Seeded self-check suites behind the ``verify`` CLI command.

Each suite returns a list of CheckResult records with stable names and
deterministic detail strings, so a report produced twice from the same
seed is byte-identical. Checks resolve library functions through the
module namespace at call time; patching a library function is enough
to make the corresponding check go red, with the violated identity
named in the check itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import catalog as cat
from . import effect_algebras as eff
from . import order_unit as ou
from . import posets as po
from . import states as stt
from . import stone as stn
from . import synaptic as sa

__all__ = ["CheckResult", "SUITES", "run_suite", "run_suites"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _fmt(x: float) -> str:
    return f"{x:.3e}"


# ---------------------------------------------------------------------------


def suite_posets(seed: int) -> list[CheckResult]:
    out = []

    c = po.classify(cat.chain(4))
    out.append(
        CheckResult(
            "posets: chain(4) is a distributive non-complemented lattice",
            c.is_lattice and c.is_distributive and not c.is_complemented,
            f"lattice={c.is_lattice} distributive={c.is_distributive} complemented={c.is_complemented}",
        )
    )

    b = po.classify(cat.boolean_lattice(3))
    out.append(
        CheckResult(
            "posets: 2^3 is a Boolean OML",
            b.is_boolean and b.is_oml is True,
            f"boolean={b.is_boolean} oml={b.is_oml}",
        )
    )

    m = po.classify(cat.mo2())
    out.append(
        CheckResult(
            "posets: MO2 is a non-distributive OML",
            m.is_oml is True and not m.is_distributive,
            f"oml={m.is_oml} distributive={m.is_distributive}",
        )
    )

    o = po.classify(cat.o6())
    out.append(
        CheckResult(
            "posets: O6 is an ortholattice that is not orthomodular",
            o.is_lattice and o.is_oml is False,
            f"lattice={o.is_lattice} oml={o.is_oml}",
        )
    )

    w = po.classify(cat.bowtie())
    out.append(
        CheckResult(
            "posets: bowtie is not a lattice",
            not w.is_lattice,
            f"lattice={w.is_lattice}",
        )
    )

    out.append(
        CheckResult(
            "posets: finite completeness decisions agree with lattice flag",
            b.is_lattice_complete == b.is_lattice
            and b.is_sigma_complete == b.is_lattice
            and b.is_monotone_sigma_complete
            and w.is_lattice_complete == w.is_lattice,
            f"2^3 complete={b.is_lattice_complete} bowtie complete={w.is_lattice_complete}",
        )
    )
    return out


def suite_effect(seed: int) -> list[CheckResult]:
    out = []
    models = [
        ("3-chain", cat.chain_effect_algebra(2)),
        ("2^2", cat.boolean_effect_algebra(2)),
        ("2^3", cat.boolean_effect_algebra(3)),
        ("MO2-EA", cat.mo2_effect_algebra()),
        ("diamond", cat.diamond_pair()),
    ]
    all_ok = True
    for name, ea in models:
        v = eff.check_ea_axioms(ea.table, ea.zero, ea.one)
        if not v.ok:
            all_ok = False
    out.append(
        CheckResult(
            "effect: curated models satisfy the effect-algebra axioms",
            all_ok,
            f"models={len(models)}",
        )
    )

    broken = [list(r) for r in cat.boolean_effect_algebra(2).table]
    broken[1][2] = 1  # a (+) a' should be 1; point it at a instead
    v = eff.check_ea_axioms(broken, 0, 3)
    out.append(
        CheckResult(
            "effect: a corrupted table fails with a witness",
            (not v.ok) and v.violation is not None and len(v.violation.witness) > 0,
            f"axiom={v.violation.axiom if v.violation else None} witness={v.violation.witness if v.violation else None}",
        )
    )

    ok = True
    for k in (2, 3):
        lat = cat.boolean_lattice(k)
        ea = eff.oml_to_ea(lat)
        v = eff.check_ea_axioms(ea.table, ea.zero, ea.one)
        ok = ok and v.ok
    out.append(
        CheckResult(
            "effect: oml_to_ea output re-validates on Boolean lattices",
            ok,
            "k=2,3",
        )
    )

    rt_ok = True
    detail = []
    for name, ea in [
        ("3-chain", cat.chain_effect_algebra(2)),
        ("5-chain", cat.chain_effect_algebra(4)),
        ("2^2", cat.boolean_effect_algebra(2)),
        ("2^3", cat.boolean_effect_algebra(3)),
    ]:
        mv = eff.ea_to_mv(ea)
        back = eff.mv_to_ea(mv)
        same = back.table == ea.table and back.zero == ea.zero and back.one == ea.one
        rt_ok = rt_ok and same
        detail.append(f"{name}:{'id' if same else 'DIFFERS'}")
    out.append(
        CheckResult(
            "effect: ea_to_mv / mv_to_ea round-trip is the identity",
            rt_ok,
            " ".join(detail),
        )
    )

    mo2_mv = eff.is_mv_effect_algebra(cat.mo2_effect_algebra())
    dia_mv = eff.is_mv_effect_algebra(cat.diamond_pair())
    out.append(
        CheckResult(
            "effect: MO2 and the diamond are lattice-ordered but not MV",
            (not mo2_mv) and (not dia_mv),
            f"mo2={mo2_mv} diamond={dia_mv}",
        )
    )
    return out


def suite_order_unit(seed: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)
    V = ou.SymmetricMatrixSpace(5)
    F = ou.FunctionSpace(tuple(f"x{i}" for i in range(5)))

    worst_pos = True
    worst_norm = 0.0
    for _ in range(30):
        a = V.random_element(rng)
        rep = stt.element_duality_report(a)
        worst_pos = worst_pos and rep.positivity_matches
        worst_norm = max(worst_norm, abs(rep.norm - rep.sup_abs_extremal))
    for _ in range(30):
        a = F.element(rng.uniform(-2, 2, size=5))
        rep = stt.element_duality_report(a)
        worst_pos = worst_pos and rep.positivity_matches
        worst_norm = max(worst_norm, abs(rep.norm - rep.sup_abs_extremal))
    out.append(
        CheckResult(
            "order-unit: positivity and norm agree with the extremal-state reading",
            worst_pos and worst_norm <= 1e-9,
            f"max norm gap={_fmt(worst_norm)}",
        )
    )

    ok = True
    for _ in range(20):
        a = V.random_element(rng)
        b, c = ou.positive_decomposition(a)
        ok = ok and V.contains_positive(c) and (b - a - c).norm() <= 1e-9
        e = V.random_effect(rng)
        ok = ok and ou.in_unit_interval(e)
    out.append(
        CheckResult(
            "order-unit: a = b - c with b a unit multiple and c positive",
            ok,
            "20 matrix samples",
        )
    )

    D = rng.random(4)
    D /= D.sum()
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    dm = q @ np.diag(D) @ q.T
    W = ou.SymmetricMatrixSpace(4)
    omega = lambda e: float(np.trace(dm @ e.payload))
    xi = ou.extend_effect_morphism(omega, W, target_unit=1.0)
    gap = 0.0
    for _ in range(20):
        a = W.random_element(rng)
        b = W.random_element(rng)
        s, t = rng.uniform(-2, 2, size=2)
        lin = abs(xi(a * float(s) + b * float(t)) - (s * xi(a) + t * xi(b)))
        gap = max(gap, lin)
    restr = 0.0
    for _ in range(10):
        e = W.random_effect(rng)
        restr = max(restr, abs(xi(e) - omega(e)))
    out.append(
        CheckResult(
            "order-unit: effect valuations extend linearly and restrict back",
            gap <= 1e-9 and restr <= 1e-9,
            f"linearity gap={_fmt(gap)} restriction gap={_fmt(restr)}",
        )
    )

    raised = False
    try:
        V.element(np.triu(np.ones((5, 5))))
    except ValueError:
        raised = True
    out.append(
        CheckResult(
            "order-unit: visibly asymmetric input is rejected",
            raised,
            "upper-triangular ones",
        )
    )
    return out


def suite_synaptic(seed: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)
    V = ou.SymmetricMatrixSpace(5)
    F = ou.FunctionSpace(tuple(f"x{i}" for i in range(4)))

    worst = 0.0
    props_ok = True
    for _ in range(25):
        a = V.random_element(rng)
        mod, plus, minus = sa.decompose(a)
        worst = max(worst, (a - (plus - minus)).norm())
        props_ok = (
            props_ok
            and V.contains_positive(plus)
            and V.contains_positive(minus)
            and sa.jordan(plus, minus).norm() <= 1e-8
            and (mod - (plus + minus)).norm() <= 1e-9
        )
    for _ in range(10):
        a = F.element(rng.uniform(-3, 3, size=4))
        mod, plus, minus = sa.decompose(a)
        worst = max(worst, (a - (plus - minus)).norm())
        props_ok = props_ok and (mod - (plus + minus)).norm() == 0.0
    out.append(
        CheckResult(
            "synaptic: a = a_plus - a_minus with orthogonal positive parts",
            worst <= 1e-9 and props_ok,
            f"max residual={_fmt(worst)}",
        )
    )

    worst = 0.0
    for _ in range(15):
        a = V.random_element(rng)
        worst = max(worst, (sa.sqrt(sa.jordan(a, a)) - sa.decompose(a)[0]).norm())
    out.append(
        CheckResult(
            "synaptic: sqrt(a^2) equals |a|",
            worst <= 1e-8,
            f"max residual={_fmt(worst)}",
        )
    )

    worst = 0.0
    for _ in range(15):
        a = V.random_element(rng)
        b = V.random_element(rng)
        lhs = sa.quadratic(a, b)
        rhs = V.element(a.payload @ b.payload @ a.payload)
        worst = max(worst, (lhs - rhs).norm())
    out.append(
        CheckResult(
            "synaptic: the quadratic map agrees with a b a",
            worst <= 1e-8,
            f"max residual={_fmt(worst)}",
        )
    )

    law_ok = True
    for _ in range(60):
        k = int(rng.integers(0, 4))
        d = np.zeros(5)
        d[: 5 - k] = rng.uniform(0.5, 2.0, size=5 - k)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        a = V.element(q @ np.diag(d) @ q.T)
        overlap = int(rng.integers(0, 5))
        e = np.zeros(5)
        e[overlap:] = rng.uniform(0.5, 2.0, size=5 - overlap)
        b = V.element(q @ np.diag(e) @ q.T)
        ab_zero = (a.payload @ b.payload).__abs__().max() <= 1e-8
        ca = sa.carrier(a)
        law_ok = law_ok and (
            ab_zero == ((ca.payload @ b.payload).__abs__().max() <= 1e-7)
        )
    out.append(
        CheckResult(
            "synaptic: ab = 0 iff carrier(a) b = 0",
            law_ok,
            "60 controlled-kernel pairs",
        )
    )

    worst_rec = 0.0
    worst_step = 0.0
    for _ in range(20):
        a = V.random_element(rng)
        res = sa.spectral_resolution(a, verify=False)
        worst_rec = max(worst_rec, (res.reconstruct() - a).norm())
        for lam in list(res.eigenvalues) + [res.eigenvalues[0] - 1.0]:
            step = sa.step_projection(a, lam)
            worst_step = max(worst_step, (step - res.step(lam)).norm())
    out.append(
        CheckResult(
            "synaptic: spectral resolutions reconstruct and match the step formula",
            worst_rec <= 1e-9 and worst_step <= 1e-9,
            f"reconstruction={_fmt(worst_rec)} step gap={_fmt(worst_step)}",
        )
    )

    a = V.element(np.diag([1.0, 2.0, 3.0, 4.0, 5.0]))
    com = sa.commutant(V, [a])
    cen = sa.center(V)
    dc = sa.double_commutant(V, [a])
    out.append(
        CheckResult(
            "synaptic: commutant dimensions of a generic diagonal",
            len(com) == 5 and len(cen) == 1 and len(dc) == 5,
            f"commutant={len(com)} center={len(cen)} double={len(dc)}",
        )
    )

    om_ok = True
    worst_om = 0.0
    for _ in range(50):
        p = V.random_projection(rng)
        q2 = V.random_projection(rng)
        m = sa.proj_meet(p, q2)
        j = sa.proj_join(p, q2)
        om_ok = om_ok and sa.is_projection(m) and sa.is_projection(j)
        low = sa.proj_meet(p, m)
        worst_om = max(worst_om, (low - m).norm())
    out.append(
        CheckResult(
            "synaptic: projection meets and joins are projections",
            om_ok and worst_om <= 1e-7,
            f"meet idempotence gap={_fmt(worst_om)}",
        )
    )
    return out


def suite_states(seed: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)

    poly = stt.state_polytope(cat.chain_effect_algebra(2))
    unique_half = (
        len(poly.vertices) == 1
        and poly.vertices[0].values[1] == Fraction(1, 2)
        and poly.dimension == 0
    )
    out.append(
        CheckResult(
            "states: the 3-chain has exactly one state, with value 1/2",
            unique_half,
            f"vertices={len(poly.vertices)} dim={poly.dimension}",
        )
    )

    counts = []
    ok = True
    for k, expect in ((2, 2), (3, 3)):
        p = stt.state_polytope(cat.boolean_effect_algebra(k))
        counts.append(f"2^{k}:{len(p.vertices)}")
        ok = ok and len(p.vertices) == expect
        for v in p.vertices:
            ok = ok and stt.is_state(p.ea, v)
    pm = stt.state_polytope(cat.mo2_effect_algebra())
    counts.append(f"MO2:{len(pm.vertices)}")
    ok = ok and len(pm.vertices) == 4
    out.append(
        CheckResult(
            "states: vertex counts on Boolean blocks and MO2",
            ok,
            " ".join(counts),
        )
    )

    # a state on a product splits as w(e, f) = w(e, 0) + w(0, f), so its
    # vertices are each factor's vertices, constant along the other factor
    def padded(a, b):
        left = {tuple(v.values[i] for i in range(a.n) for _ in range(b.n))
                for v in stt.state_polytope(a).vertices}
        right = {tuple(v.values[j] for _ in range(a.n) for j in range(b.n))
                 for v in stt.state_polytope(b).vertices}
        return left | right

    mo2 = cat.mo2_effect_algebra()
    mo2_sq = cat.product_effect_algebra(mo2, mo2)
    two = cat.boolean_effect_algebra(1)
    predicted = {
        "2^5": (cat.boolean_effect_algebra(5), 4,
                {tuple(Fraction(m >> p & 1) for m in range(32)) for p in range(5)}),
        "MO2xMO2": (mo2_sq, 5, padded(mo2, mo2)),
        "MO2xMO2x2^1": (cat.product_effect_algebra(mo2_sq, two), 6, padded(mo2_sq, two)),
    }
    ok, found = True, []
    for name, (ea, dim, verts) in predicted.items():
        p = stt.state_polytope(ea)
        found.append(f"{name}:dim={p.dimension},vertices={len(p.vertices)}")
        ok = ok and p.dimension == dim and {v.values for v in p.vertices} == verts
    out.append(
        CheckResult(
            "states: product polytopes have the padded factor vertices",
            ok,
            " ".join(found),
        )
    )

    mid_ok = True
    vs = pm.vertices
    for i in range(len(vs)):
        for j in range(i + 1, len(vs)):
            mid = [
                Fraction(x, 1) / 2 + Fraction(y, 1) / 2
                for x, y in zip(vs[i].values, vs[j].values)
            ]
            mid_ok = mid_ok and stt.is_state(pm.ea, mid)
    out.append(
        CheckResult(
            "states: midpoints of vertices are again states",
            mid_ok,
            f"pairs={len(vs) * (len(vs) - 1) // 2}",
        )
    )

    V = ou.SymmetricMatrixSpace(3)
    w = rng.random(3)
    w /= w.sum()
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    D = stt.DensityState(V, q @ np.diag(w) @ q.T)
    nr = stt.state_norm_report(V, D)
    rest = stt.restrict_state_to_effects(V, D)
    ext = stt.extend_effects_valuation(V, lambda e: D(e))
    gap = 0.0
    for _ in range(10):
        e = V.random_effect(rng)
        gap = max(gap, abs(rest(e) - D(e)), abs(ext(e) - D(e)))
    out.append(
        CheckResult(
            "states: density states have norm one at the unit and round-trip",
            stt.is_state(V, D) and nr.identity_holds and gap <= 1e-9,
            f"norm={_fmt(nr.norm)} round-trip gap={_fmt(gap)}",
        )
    )

    F = ou.FunctionSpace(("p", "q", "r", "s"))
    flags_ok = True
    for i in range(4):
        gamma = (np.arange(4) == i).astype(float)
        repc = stt.extremal_commutative_characterization(F, gamma)
        flags_ok = flags_ok and repc.all_equivalent and repc.is_vertex and repc.min_rule_holds
    interior_ok = True
    for _ in range(10):
        mu = rng.dirichlet(np.ones(4) * 5.0)
        repc = stt.extremal_commutative_characterization(F, mu)
        interior_ok = (
            interior_ok
            and repc.all_equivalent
            and not repc.is_vertex
            and not repc.min_rule_holds
            and repc.min_rule_witness is not None
        )
    out.append(
        CheckResult(
            "states: the four extremality conditions agree, with the min-rule",
            flags_ok and interior_ok,
            "4 vertices, 10 interior states",
        )
    )
    return out


def suite_stone(seed: int) -> list[CheckResult]:
    out = []
    rng = np.random.default_rng(seed)

    ok = True
    counts = []
    for k in (1, 2, 3, 4):
        st = stn.stone_space(cat.boolean_lattice(k))
        counts.append(f"2^{k}:{len(st.atoms)}")
        ok = ok and len(st.atoms) == k
    out.append(
        CheckResult(
            "stone: 2^k has exactly k points and a verified clopen isomorphism",
            ok,
            " ".join(counts),
        )
    )

    V = ou.SymmetricMatrixSpace(3)
    projs = [V.element(np.diag([1.0, 0, 0])), V.element(np.diag([0, 1.0, 0]))]
    rep = stn.functional_representation(V, projs)
    worst = 0.0
    for _ in range(10):
        lam = rng.uniform(-2, 2, size=len(rep.atoms))
        a = rep.from_function(ou.Element(rep.function_space, lam))
        worst = max(worst, (rep.from_function(rep.to_function(a)) - a).norm())
    out.append(
        CheckResult(
            "stone: the functional representation verifies and round-trips",
            rep.report.passed and worst <= 1e-12,
            f"round-trip residual={_fmt(worst)}",
        )
    )

    w = rng.random(3)
    w /= w.sum()
    D = stt.DensityState(V, np.diag(w))
    mu = stn.transport_state(rep, D)
    gam = stt.DensityState(rep.function_space, (np.arange(3) == 1).astype(float))
    back = stn.pull_back_state(rep, gam)
    atom_vals = sorted(round(back(qq), 9) for qq in rep.atoms)
    out.append(
        CheckResult(
            "stone: states transport across the representation",
            stt.is_state(rep.function_space, mu) and atom_vals == [0.0, 0.0, 1.0],
            f"transported={[round(float(x), 6) for x in mu.density]}",
        )
    )

    rr = stn.rickart_completeness_report(ou.FunctionSpace(("a", "b", "c", "d")), seed=seed)
    out.append(
        CheckResult(
            "stone: annihilators are principal and indicators form a complete lattice",
            rr.rickart_holds and rr.indicators_complete and rr.chain_suprema_ok,
            f"samples={rr.rickart_samples} families={rr.families_checked}",
        )
    )
    return out


SUITES = {
    "posets": suite_posets,
    "effect": suite_effect,
    "order-unit": suite_order_unit,
    "synaptic": suite_synaptic,
    "states": suite_states,
    "stone": suite_stone,
}


def run_suite(name: str, seed: int = 0) -> list[CheckResult]:
    if name not in SUITES:
        raise KeyError(f"unknown suite: {name}")
    return SUITES[name](seed)


def run_suites(names, seed: int = 0) -> dict[str, list[CheckResult]]:
    return {name: run_suite(name, seed) for name in names}
