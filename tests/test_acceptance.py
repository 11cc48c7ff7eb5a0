"""Acceptance gate: ten end-to-end criteria, each with a time budget.

Every test prints exactly one [PASS]/[FAIL] line (visible under -s or
in captured output) and then asserts both the property and the budget.
The oracles here are deliberately independent of the code under test:
brute-force axiom scans, numpy eigendecompositions, exact rational
arithmetic, and a subprocess for the CLI.
"""

import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np

from helpers import eig_step_family, invalid_mutations, replay_witness, sym_norm
from synaptica import effect_algebras as eff
from synaptica import posets as po
from synaptica import states as stt
from synaptica import stone as stn
from synaptica import synaptic as sa
from synaptica.catalog import (
    boolean_effect_algebra,
    boolean_lattice,
    chain_effect_algebra,
    mo2,
    mo2_effect_algebra,
    o6,
)
from synaptica.order_unit import (
    Element,
    FunctionSpace,
    SymmetricMatrixSpace,
    extend_effect_morphism,
)


def _gate(num: int, label: str, ok: bool, elapsed: float, budget: float) -> None:
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num}: {label} ({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"criterion {num} failed: {label}"
    assert elapsed < budget, f"criterion {num} overran: {elapsed:.2f}s >= {budget:g}s"


def test_criterion_01_effect_algebra_oracle_and_mutations():
    t0 = time.perf_counter()
    corpus = [
        chain_effect_algebra(2),
        boolean_effect_algebra(1),
        boolean_effect_algebra(2),
        boolean_effect_algebra(3),
        boolean_effect_algebra(4),
        mo2_effect_algebra(),
    ]
    ok = True
    for ea in corpus:
        ok = ok and eff.check_ea_axioms(ea.table, ea.zero, ea.one).ok
        muts = invalid_mutations(ea.table, ea.zero, ea.one, 20)
        # small tables admit fewer than 20 invalid single-entry edits
        ok = ok and (len(muts) == 20 or ea.n <= 2)
        for _, _, _, mut in muts:
            v = eff.check_ea_axioms(mut, ea.zero, ea.one)
            ok = ok and not v.ok
            ok = ok and replay_witness(
                mut, ea.zero, ea.one, v.violation.axiom, v.violation.witness
            )
    _gate(1, "axiom oracle accepts the corpus, rejects mutations with replayable witnesses",
          ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_mv_round_trip_and_lukasiewicz():
    t0 = time.perf_counter()
    corpus = [
        chain_effect_algebra(1),
        chain_effect_algebra(2),
        chain_effect_algebra(3),
        chain_effect_algebra(4),
        boolean_effect_algebra(1),
        boolean_effect_algebra(2),
        boolean_effect_algebra(3),
    ]
    ok = True
    for ea in corpus:
        ok = ok and eff.is_mv_effect_algebra(ea)
        mv = eff.ea_to_mv(ea)
        back = eff.mv_to_ea(mv)
        ok = ok and back.table == ea.table
        ok = ok and back.zero == ea.zero and back.one == ea.one
        # the truncation axiom, exhaustively: (x' + y)' + y = (y' + x)' + x
        plus, perp = mv.plus_table, mv.perp
        for x in range(mv.n):
            for y in range(mv.n):
                lhs = plus[perp[plus[perp[x]][y]]][y]
                rhs = plus[perp[plus[perp[y]][x]]][x]
                ok = ok and lhs == rhs
    _gate(2, "MV round trip is the identity; truncation axiom exhaustive",
          ok, time.perf_counter() - t0, 1.0)


def test_criterion_03_spectral_resolution_batch():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst_rec = worst_step = worst_riemann = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 9))
        space = SymmetricMatrixSpace(n)
        a = space.random_element(rng)
        res = sa.spectral_resolution(a, verify=False)
        worst_rec = max(worst_rec, (res.reconstruct() - a).norm())
        probes = list(res.eigenvalues) + [
            (x + y) / 2.0 for x, y in zip(res.eigenvalues, res.eigenvalues[1:])
        ]
        for lam in probes:
            gap = sym_norm(sa.step_projection(a, lam).payload - eig_step_family(a.payload, lam))
            worst_step = max(worst_step, gap)
        approx = sa.stieltjes_reconstruct(a, 1e-3)
        worst_riemann = max(worst_riemann, sym_norm(approx.payload - a.payload))
    ok = worst_rec <= 1e-9 and worst_step <= 1e-9 and worst_riemann <= 1e-3
    _gate(3, f"200 resolutions: reconstruct {worst_rec:.1e}, step formula {worst_step:.1e}, "
             f"mesh-1e-3 sum {worst_riemann:.1e}",
          ok, time.perf_counter() - t0, 10.0)


def test_criterion_04_carrier_annihilator_law():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    n = 6
    space = SymmetricMatrixSpace(n)
    ok = True
    nonzero_products = 0
    for _ in range(500):
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        ra = int(rng.integers(1, n))           # a lives on the first ra columns
        overlap = int(rng.integers(0, n))      # b starts at this column
        da = np.zeros(n)
        da[:ra] = rng.uniform(0.5, 2.0, ra)
        db = np.zeros(n)
        db[overlap:] = rng.uniform(0.5, 2.0, n - overlap)
        a = space.element(q @ np.diag(da) @ q.T)
        b = space.element(q @ np.diag(db) @ q.T)
        ab_zero = np.max(np.abs(a.payload @ b.payload)) <= 1e-8
        ca = sa.carrier(a)
        cb = sa.carrier(b)
        ca_b_zero = np.max(np.abs(ca.payload @ b.payload)) <= 1e-7
        cb_ca_zero = np.max(np.abs(cb.payload @ ca.payload)) <= 1e-7
        ok = ok and (ab_zero == ca_b_zero == cb_ca_zero)
        nonzero_products += 0 if ab_zero else 1
    # the batch must exercise both sides of the biconditional
    ok = ok and 0 < nonzero_products < 500
    _gate(4, f"ab = 0 iff carrier(a) b = 0 iff carrier(b) carrier(a) = 0 "
             f"({nonzero_products}/500 with ab != 0)",
          ok, time.perf_counter() - t0, 5.0)


def test_criterion_05_order_and_norm_through_extremal_states():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(2)
    for space in (SymmetricMatrixSpace(6), FunctionSpace(tuple(f"p{i}" for i in range(5)))):
        for i in range(200):
            a = space.random_element(rng)
            if i % 3 == 0:
                a = a + space.unit() * (a.norm() + 0.1)  # force a positive case
            rep = stt.element_duality_report(a)
            ok = ok and rep.positivity_matches and rep.norm_matches
    _gate(5, "positivity and norm agree with the extremal-state minimum and supremum",
          ok, time.perf_counter() - t0, 5.0)


def test_criterion_06_extension_of_effect_morphisms():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(3)

    sym = SymmetricMatrixSpace(4)
    e = sym.random_effect(rng)
    density = e.payload / np.trace(e.payload)
    fn = FunctionSpace(("x", "y", "z"))
    weights = rng.dirichlet(np.ones(3))

    cases = [
        (sym, lambda el: float(np.trace(density @ el.payload)),
         stt.DensityState(sym, density)),
        (fn, lambda el: float(np.dot(weights, el.payload)),
         stt.DensityState(fn, weights)),
    ]
    for space, omega, rho in cases:
        xi = extend_effect_morphism(omega, space, target_unit=1.0)
        for _ in range(100):
            a = space.random_element(rng)
            b = space.random_element(rng)
            s, t = rng.uniform(-2.0, 2.0, 2)
            lin_gap = abs(xi(a * float(s) + b * float(t)) - (s * xi(a) + t * xi(b)))
            ok = ok and lin_gap <= 1e-9
        for _ in range(100):
            f = space.random_effect(rng)
            ok = ok and abs(xi(f) - omega(f)) <= 1e-9

        # state -> valuation -> state round trip is the identity
        restricted = stt.rho_omega_bijection(space, rho)
        extended = stt.rho_omega_bijection(space, restricted)
        for _ in range(100):
            a = space.random_element(rng)
            ok = ok and abs(extended(a) - rho(a)) <= 1e-9
        f = space.random_effect(rng)
        ok = ok and abs(restricted(f) - rho(f)) <= 1e-12
    _gate(6, "effect valuations extend linearly, restrict back, and round-trip with states",
          ok, time.perf_counter() - t0, 5.0)


def test_criterion_07_extremal_states_of_function_algebras():
    t0 = time.perf_counter()
    ok = True
    rng = np.random.default_rng(4)
    for k in range(2, 7):
        space = FunctionSpace(tuple(f"x{i}" for i in range(k)))
        verts = stt.simplex_vertices(space)
        unit_vectors = sorted(
            [Fraction(1) if j == i else Fraction(0) for j in range(k)] for i in range(k)
        )
        ok = ok and sorted(verts) == unit_vectors and len(verts) == k

        for v in verts:
            rep = stt.extremal_commutative_characterization(space, np.array([float(x) for x in v]))
            ok = ok and rep.is_vertex and rep.point_evaluation is not None
            ok = ok and rep.is_multiplicative and rep.zero_one_on_projections
            ok = ok and rep.all_equivalent and rep.min_rule_holds

        tested = 0
        while tested < 100:
            mu = rng.dirichlet(np.ones(k))
            if np.max(mu) > 1.0 - 1e-3:
                continue  # keep a float margin from the vertices
            rep = stt.extremal_commutative_characterization(space, mu)
            ok = ok and not rep.is_vertex and rep.point_evaluation is None
            ok = ok and not rep.is_multiplicative and not rep.zero_one_on_projections
            ok = ok and rep.all_equivalent
            ok = ok and not rep.min_rule_holds and rep.min_rule_witness is not None
            tested += 1
    _gate(7, "vertex enumeration = coordinate evaluations; four conditions and the min-rule "
             "separate extremal from mixed",
          ok, time.perf_counter() - t0, 5.0)


def test_criterion_08_stone_pipeline():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 5):
        lat = boolean_lattice(k)
        st = stn.stone_space(lat)          # construction re-verifies the isomorphism
        ok = ok and len(st.points) == k
        ok = ok and len({stn.stone_map(st, b) for b in range(lat.n)}) == 2**k

        space = SymmetricMatrixSpace(k)
        gens = []
        for i in range(k):
            m = np.zeros((k, k))
            m[i, i] = 1.0
            gens.append(space.element(m))
        rep = stn.functional_representation(space, gens)
        ok = ok and rep.report.passed and len(rep.atoms) == k

        # the Boolean restriction agrees with the clopen-set map: for
        # every lattice element, the indicator from psi names the same
        # atom set as the Stone image
        atom_coord = [int(np.argmax(np.diag(q.payload))) for q in rep.atoms]
        for b in range(lat.n):
            mask = int(lat.labels[b][1:])
            p_b = space.element(np.diag([float(mask >> i & 1) for i in range(k)]))
            via_psi = {
                atom_coord[t] for t, v in enumerate(rep.psi(p_b).payload) if v == 1.0
            }
            via_stone = {
                int(lat.labels[st.atoms[pos]][1:]).bit_length() - 1
                for pos in stn.stone_map(st, b)
            }
            ok = ok and via_psi == via_stone

        # extremal states transport bijectively
        images = []
        for i in range(k):
            d = np.zeros((k, k))
            d[i, i] = 1.0
            mu = stn.transport_state(rep, stt.DensityState(space, d))
            ok = ok and stt.is_state(rep.function_space, mu)
            images.append(tuple(np.round(mu.density, 9)))
            pulled = stn.pull_back_state(rep, mu)
            for q in rep.atoms:
                ok = ok and abs(pulled(q) - float(np.trace(d @ q.payload))) <= 1e-9
        ok = ok and len(set(images)) == k
        ok = ok and all(sorted(img) == [0.0] * (k - 1) + [1.0] for img in images)
    _gate(8, "Stone spaces, the diagonal-algebra representation, and state transport verify",
          ok, time.perf_counter() - t0, 2.0)


def test_criterion_09_orthomodularity_battery():
    t0 = time.perf_counter()
    ok = True
    for k in range(1, 5):
        flags = po.classify(boolean_lattice(k))
        ok = ok and flags.is_boolean and flags.is_oml is True
    m = po.classify(mo2())
    ok = ok and m.is_oml is True and not m.is_distributive
    o = po.classify(o6())
    ok = ok and o.is_oml is False

    rng = np.random.default_rng(6)
    space = SymmetricMatrixSpace(4)
    one = space.unit()
    worst_order = 0.0   # how far q - p dips below the cone
    worst_identity = 0.0
    for _ in range(10_000):
        p = sa.proj_meet(space.random_projection(rng), space.random_projection(rng))
        q = sa.proj_join(p, space.random_projection(rng))
        worst_order = max(worst_order, -float(np.min(np.linalg.eigvalsh(q.payload - p.payload))))
        rebuilt = sa.proj_join(p, sa.proj_meet(q, one - p))
        worst_identity = max(worst_identity, sym_norm(q.payload - rebuilt.payload))
    ok = ok and worst_order <= 1e-9 and worst_identity <= 1e-9
    _gate(9, f"classification flags plus 10^4 orthomodular pairs "
             f"(order residual {worst_order:.1e}, identity residual {worst_identity:.1e})",
          ok, time.perf_counter() - t0, 10.0)


def test_criterion_10_cli_determinism():
    t0 = time.perf_counter()
    env = dict(os.environ)
    env.pop("SYNAPTICA_TOL", None)
    cmd = [sys.executable, "-m", "synaptica.cli", "verify", "all", "--seed", "0"]
    first = subprocess.run(cmd, capture_output=True, env=env)
    second = subprocess.run(cmd, capture_output=True, env=env)
    ok = first.returncode == 0 and second.returncode == 0
    ok = ok and first.stdout == second.stdout and len(first.stdout) > 0
    report = json.loads(first.stdout)
    ok = ok and report["ok"] is True
    _gate(10, "verify all --seed 0 exits 0 and is byte-identical across runs",
          ok, time.perf_counter() - t0, 60.0)
