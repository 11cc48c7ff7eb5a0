"""Stone points, clopen sets, and the functional picture of commuting
projections.

The hom-set reading is tested the hard way once: every {0,1}-valued map
on the four-element Boolean lattice is scanned, and exactly the two
honest homomorphisms must survive, matching the constructed points.
"""

import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import generator_failure_by_pairs, prefix_tree_by_children, sign_pattern_atoms_by_scan
from synaptica.catalog import boolean_lattice, mo2, o6
from synaptica.order_unit import Element, FunctionSpace, SymmetricMatrixSpace
from synaptica import stone
from synaptica.posets import StructureError
from synaptica.states import DensityState, is_state
from synaptica.stone import (
    FunctionalRepresentation,
    functional_representation,
    pull_back_state,
    rickart_completeness_report,
    stone_map,
    stone_space,
    transport_state,
)


def diag(space, *entries):
    return space.element(np.diag(np.array(entries, dtype=float)))


def rotated_family(rng, n, diags):
    """Commuting projections (u diag(d) u^T) sharing one random eigenbasis u."""
    space = SymmetricMatrixSpace(n)
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return space, [space.element((u * np.asarray(d, dtype=float)) @ u.T) for d in diags]


def assert_atoms_match_scan(space, rep, generators):
    atoms, patterns = sign_pattern_atoms_by_scan(
        space.unit().payload, [p.payload for p in generators]
    )
    assert list(rep.patterns) == patterns
    assert len(rep.atoms) == len(atoms)
    assert all(np.array_equal(q.payload, a) for q, a in zip(rep.atoms, atoms))


# ---------------------------------------------------------------------------
# Stone spaces of Boolean lattices


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_point_count_is_the_atom_count(k):
    st = stone_space(boolean_lattice(k))
    assert len(st.points) == k
    # clopen images enumerate the full subset field
    images = {stone_map(st, b) for b in range(st.lattice.n)}
    assert len(images) == 2**k


def test_frozen_clopen_sets_on_the_square():
    lat = boolean_lattice(2)
    st = stone_space(lat)
    assert st.points == ("s1", "s2")
    assert stone_map(st, lat.zero) == frozenset()
    assert stone_map(st, lat.one) == frozenset({0, 1})
    a = lat.labels.index("s1")
    assert stone_map(st, a) == frozenset({0})
    assert stone_map(st, lat.perp[a]) == frozenset({1})


def test_every_two_valued_hom_is_a_point():
    # brute force: scan all 16 maps into {0,1}, keep the lattice homs
    lat = boolean_lattice(2)
    st = stone_space(lat)
    homs = []
    for vals in itertools.product((0, 1), repeat=lat.n):
        if vals[lat.zero] != 0 or vals[lat.one] != 1:
            continue
        ok = all(vals[lat.perp[b]] == 1 - vals[b] for b in range(lat.n))
        ok = ok and all(
            vals[lat.meet(b, c)] == min(vals[b], vals[c])
            and vals[lat.join(b, c)] == max(vals[b], vals[c])
            for b in range(lat.n)
            for c in range(lat.n)
        )
        if ok:
            homs.append(vals)
    assert sorted(homs) == sorted(st.char)


def test_a_lattice_whose_meet_lies_is_rejected(monkeypatch):
    lat = boolean_lattice(2)
    monkeypatch.setattr(lat, "meet", lambda b, c: lat.one)  # classify reads the table
    with pytest.raises(StructureError, match="does not preserve meets"):
        stone_space(lat)


def test_non_boolean_lattices_are_rejected():
    for lat in (mo2(), o6()):
        with pytest.raises(StructureError, match="Boolean"):
            stone_space(lat)


# ---------------------------------------------------------------------------
# Functional representation


@pytest.fixture
def sym3():
    return SymmetricMatrixSpace(3)


def test_diagonal_projections_read_off(sym3):
    p = diag(sym3, 1.0, 0.0, 0.0)
    q = diag(sym3, 0.0, 1.0, 0.0)
    rep = functional_representation(sym3, [p, q])
    # three of the four sign patterns survive; p*q vanishes
    assert len(rep.atoms) == 3
    assert rep.report.passed
    a = diag(sym3, 2.0, 3.0, 5.0)
    fa = rep.to_function(a)
    assert sorted(fa.payload.tolist()) == [2.0, 3.0, 5.0]
    back = rep.from_function(fa)
    assert np.max(np.abs(back.payload - a.payload)) <= 1e-12
    # the Boolean restriction sends each generator to its indicator
    ind = rep.psi(p)
    assert set(ind.payload.tolist()) == {0.0, 1.0} and ind.payload.sum() == 1.0


def test_empty_generator_list_gives_one_point(sym3):
    rep = functional_representation(sym3, [])
    assert len(rep.atoms) == 1
    assert rep.report.passed
    fa = rep.to_function(sym3.unit() * 4.5)
    assert np.allclose(fa.payload, [4.5])
    fs = FunctionSpace(("u", "v"))
    rep = functional_representation(fs, [])
    assert rep.patterns == ((),) and rep.report.passed
    assert rep.to_function(fs.unit() * -2.0).payload.tolist() == [-2.0]


def test_single_projection_gives_two_points(sym3):
    p = diag(sym3, 1.0, 1.0, 0.0)
    rep = functional_representation(sym3, [p])
    assert len(rep.atoms) == 2
    a = diag(sym3, 1.0, 1.0, 2.0)  # lives in span{p, 1-p}
    fa = rep.to_function(a)
    assert sorted(fa.payload.tolist()) == [1.0, 2.0]
    assert rep.psi(p).payload.tolist() in ([0.0, 1.0], [1.0, 0.0])


def test_rejections(sym3):
    with pytest.raises(ValueError, match="not a projection"):
        functional_representation(sym3, [diag(sym3, 0.5, 0.0, 0.0)])
    p = diag(sym3, 1.0, 0.0, 0.0)
    v = np.zeros((3, 3))
    v[:2, :2] = 0.5
    q = sym3.element(v)  # projection onto span(e1+e2)
    with pytest.raises(ValueError, match="do not commute"):
        functional_representation(sym3, [p, q])
    rep = functional_representation(sym3, [p])
    off = sym3.element(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(ValueError, match="not in the represented span"):
        rep.to_function(off)
    with pytest.raises(ValueError, match="projections only"):
        rep.psi(diag(sym3, 2.0, 0.0, 0.0))


def corrupted(rep, index, factor):
    """rep with atom index scaled by factor, the stacked atom data rebuilt to match."""
    atoms = list(rep.atoms)
    atoms[index] = atoms[index] * factor
    rep.atoms = tuple(atoms)
    rep._atom_matrix = np.stack([q.payload.ravel() for q in atoms], axis=1)
    rep._atom_weights = np.array([rep.space.pairing(q.payload, q.payload) for q in atoms])
    return rep


def test_batched_checks_catch_a_corrupted_atom(sym3):
    # 1.5 q is no projection: the unit maps to 1/1.5 on it, and squares go wrong
    report = corrupted(functional_representation(sym3, []), 0, 1.5)._verify()
    assert not report.unital and not report.multiplicative and not report.passed
    assert report.linear and report.round_trip  # still a linear bijection
    # with generators, a generator's image leaves the indicators
    space, gens = rotated_family(np.random.default_rng(45), 4, [(1, 1, 0, 0), (0, 1, 1, 0)])
    rep = functional_representation(space, gens)
    assert rep.report.passed
    with pytest.raises(ValueError, match="does not map to an indicator"):
        corrupted(rep, 1, 1.5)._verify()


def test_batched_checks_catch_a_generator_off_its_indicator(monkeypatch):
    space, gens = rotated_family(np.random.default_rng(46), 3, [(1, 0, 0), (1, 1, 0)])
    rep = functional_representation(space, gens)
    # the second generator's pattern column read as the first's
    monkeypatch.setattr(rep, "patterns", tuple((p[0], p[0]) for p in rep.patterns))
    report = rep._verify()
    assert not report.projections_to_indicators
    assert report.linear and report.unital and report.round_trip


def test_nearly_commuting_generators_are_rejected():
    rng = np.random.default_rng(47)
    n = 4
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    space = SymmetricMatrixSpace(n)
    p = space.element((u * [1.0, 1.0, 0.0, 0.0]) @ u.T)
    for angle, commuting in ((1e-13, True), (1e-6, False)):
        turn = np.eye(n)
        turn[1:3, 1:3] = [[np.cos(angle), -np.sin(angle)], [np.sin(angle), np.cos(angle)]]
        w = u @ turn
        q = space.element((w * [0.0, 1.0, 0.0, 0.0]) @ w.T)
        if commuting:
            assert functional_representation(space, [p, q]).report.passed
        else:
            with pytest.raises(ValueError, match="do not commute"):
                functional_representation(space, [p, q])


def test_round_trip_and_spectrum_on_random_spans(sym3):
    rng = np.random.default_rng(44)
    p = diag(sym3, 1.0, 0.0, 0.0)
    q = diag(sym3, 0.0, 1.0, 0.0)
    rep = functional_representation(sym3, [p, q])
    for _ in range(15):
        coeffs = rng.uniform(-3, 3, size=len(rep.atoms))
        a = rep.from_function(Element(rep.function_space, coeffs))
        assert (rep.from_function(rep.to_function(a)) - a).norm() <= 1e-12
        from synaptica.synaptic import spectrum

        assert np.allclose(
            sorted(set(np.round(rep.to_function(a).payload, 9))), spectrum(a), atol=1e-6
        )


def test_representation_works_inside_function_spaces():
    fs = FunctionSpace(("u", "v", "w"))
    p = fs.indicator(["u", "v"])
    rep = functional_representation(fs, [p])
    assert len(rep.atoms) == 2
    assert rep.report.passed
    assert_atoms_match_scan(fs, rep, [p])

    fs = FunctionSpace(tuple("abcdef"))
    gens = [fs.indicator("abc"), fs.indicator("bd"), fs.zero_element(), fs.indicator("bd"),
            fs.unit(), fs.indicator("af")]
    rep = functional_representation(fs, gens)
    assert rep.report.passed
    assert_atoms_match_scan(fs, rep, gens)


# ---------------------------------------------------------------------------
# The pruned prefix tree against the exhaustive sign-pattern scan


@st.composite
def commuting_families(draw):
    """Up to six commuting projections in Sym(n), n <= 6, with repeated
    generators and the exact zero and unit mixed in."""
    n = draw(st.integers(min_value=1, max_value=6))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from(("pattern", "repeat", "zero", "one")), max_size=6))
    bit = st.integers(min_value=0, max_value=1)
    space, patterned = rotated_family(
        rng, n, [draw(st.lists(bit, min_size=n, max_size=n)) for _ in kinds]
    )
    gens = []
    for kind, p in zip(kinds, patterned):
        if kind == "repeat" and gens:
            gens.append(gens[draw(st.integers(min_value=0, max_value=len(gens) - 1))])
        elif kind == "zero":
            gens.append(space.zero_element())
        elif kind == "one":
            gens.append(space.unit())
        else:
            gens.append(p)
    return space, gens


@given(commuting_families())
@settings(max_examples=60, deadline=None)
def test_pruned_atoms_are_the_scans_atoms(family):
    space, gens = family
    rep = functional_representation(space, gens)
    assert_atoms_match_scan(space, rep, gens)
    assert rep.report.passed


def outcome(build):
    """What build() returns, or the text of the ValueError it raises."""
    try:
        return build()
    except ValueError as exc:
        return str(exc)


def tree_outcome(space, generators):
    """The library's masks and leaves, or its ValueError text."""
    unit = space.unit().payload
    stack = np.reshape([g.payload for g in generators], (-1,) + unit.shape)
    return outcome(lambda: stone._sign_pattern_leaves(space, unit, stack))


def assert_tree_is_the_child_walk(space, generators):
    found = tree_outcome(space, generators)
    expected = outcome(lambda: prefix_tree_by_children(
        space.unit().payload, [g.payload for g in generators]))
    if isinstance(expected, str):
        assert found == expected
        return
    masks, live = found
    norms = space.norm_of(live)
    kept = sorted((mask, x) for mask, x, norm in zip(masks, live, norms) if norm > 0.5)
    assert [mask for mask, _ in kept] == expected[0]
    assert all(np.array_equal(x, y) for (_, x), y in zip(kept, expected[1]))


@st.composite
def indicator_families(draw):
    """Up to six 0/1 vectors on up to six points, with the zero and unit among them."""
    k = draw(st.integers(min_value=1, max_value=6))
    bit = st.sampled_from((0.0, 1.0))
    space = FunctionSpace([f"x{i}" for i in range(k)])
    vectors = draw(st.lists(st.lists(bit, min_size=k, max_size=k), max_size=6))
    return space, [space.element(v) for v in vectors]


@given(commuting_families() | indicator_families())
@settings(max_examples=60, deadline=None)
def test_stacked_tree_is_the_child_walk(family):
    space, gens = family
    assert_tree_is_the_child_walk(space, gens)
    assert outcome(lambda: stone._check_generators(
        space, np.reshape([g.payload for g in gens], (-1,) + space.unit().payload.shape)
    )) is None


def test_tree_with_no_generators_is_the_unit():
    for space in (SymmetricMatrixSpace(3), FunctionSpace("abc")):
        rep = functional_representation(space, [])
        assert rep.patterns == ((),)
        assert np.array_equal(rep.atoms[0].payload, space.unit().payload)
        assert_tree_is_the_child_walk(space, [])


def turned(n, plane, angle):
    turn = np.eye(n)
    i, j = plane
    turn[[i, i, j, j], [i, j, i, j]] = [np.cos(angle), -np.sin(angle), np.sin(angle), np.cos(angle)]
    return turn


@st.composite
def nearly_commuting_families(draw):
    """Rank-one and diagonal projections, some turned by angles around the
    asymmetry allowance, so that a child may be asymmetric while every pair
    still passes the commutation test."""
    n = draw(st.integers(min_value=2, max_value=5))
    space = SymmetricMatrixSpace(n)
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        d = np.diag(draw(st.lists(st.sampled_from((0.0, 1.0)), min_size=n, max_size=n)))
        i = draw(st.integers(min_value=0, max_value=n - 2))
        angle = draw(st.sampled_from((0.0, 1e-10, 3e-10, 6e-10, 1e-9, 3e-9)))
        u = turned(n, (i, i + 1), angle)
        gens.append(Element(space, (u @ d) @ u.T))
    return space, gens


@given(nearly_commuting_families())
@settings(max_examples=150, deadline=None)
def test_stacked_checks_name_the_loops_first_witness(family):
    space, gens = family
    unit = space.unit().payload
    stack = np.reshape([g.payload for g in gens], (-1,) + unit.shape)
    expected = generator_failure_by_pairs([g.payload for g in gens])
    assert outcome(lambda: stone._check_generators(space, stack)) == expected
    if expected is None:
        assert_tree_is_the_child_walk(space, gens)


def test_planted_generator_failures_are_named():
    space = SymmetricMatrixSpace(3)
    p = space.element(np.diag([1.0, 0.0, 0.0]))
    r = space.element(np.diag([0.0, 1.0, 0.0]))
    half = space.element(np.diag([0.5, 0.0, 0.0]))
    q = space.element(np.full((3, 3), 1.0 / 3.0))  # commutes with neither p nor r
    for gens, message in (
        ([p, r, half, q, half], "generator 2 is not a projection"),
        ([p, r, q], "generators (0, 2) do not commute; no commutative span"),
        ([p, r, space.unit(), q], "generators (0, 3) do not commute; no commutative span"),
    ):
        assert generator_failure_by_pairs([g.payload for g in gens]) == message
        with pytest.raises(ValueError) as caught:
            functional_representation(space, gens)
        assert str(caught.value) == message


def test_generator_check_holds_at_most_m_products():
    # all m^2 products at once would be 64 MB on 200 points and 17 MB in
    # Sym(24); the check takes one generator against the rest at a time
    rng = np.random.default_rng(14)
    u = np.linalg.qr(rng.standard_normal((24, 24)))[0]
    for space, stack in (
        (FunctionSpace([f"x{i}" for i in range(200)]), np.eye(200)),
        (SymmetricMatrixSpace(24),
         np.stack([(u * d) @ u.T for d in (rng.random((60, 24)) < 0.5)])),
    ):
        tracemalloc.start()
        try:
            stone._check_generators(space, stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * stack.nbytes


def test_planted_asymmetric_child_names_the_first_drift():
    # q turned from p by 5e-10: the pair passes the commutation test, but
    # the first child (1 - p)(1 - q) moves 2.5e-10 under symmetrising
    space = SymmetricMatrixSpace(3)
    p = space.element(np.diag([1.0, 0.0, 0.0]))
    u = turned(3, (0, 1), 5e-10)
    q = Element(space, (u @ p.payload) @ u.T)
    message = "matrix is not symmetric (asymmetry 2.500e-10)"
    assert outcome(lambda: prefix_tree_by_children(np.eye(3), [p.payload, q.payload])) == message
    with pytest.raises(ValueError) as caught:
        functional_representation(space, [p, q])
    assert str(caught.value) == message
    # exact diagonal p0, p1, then p2 turned by 8e-10 in one plane and by
    # 5e-10 in another: the third level's first prefix, diag(0, 0, 0, 1),
    # meets the smaller turn, and its last, diag(1, 0, 0, 0), the larger
    space = SymmetricMatrixSpace(4)
    p0 = space.element(np.diag([1.0, 1.0, 0.0, 0.0]))
    p1 = space.element(np.diag([1.0, 0.0, 1.0, 0.0]))
    u = turned(4, (0, 1), 8e-10) @ turned(4, (2, 3), 5e-10)
    p2 = Element(space, (u @ p1.payload) @ u.T)
    assert tree_outcome(space, [p0, p1, p2]) == message
    assert_tree_is_the_child_walk(space, [p0, p1, p2])


def test_twenty_generators_need_no_exhaustive_scan():
    # 2^20 sign patterns; at most four of them survive in Sym(4)
    rng = np.random.default_rng(20)
    diags = (rng.random((20, 4)) < 0.5).astype(int)
    space, gens = rotated_family(rng, 4, diags)
    rep = functional_representation(space, gens)
    columns = {tuple(col) for col in diags.T.tolist()}
    assert sorted(rep.patterns) == sorted(columns)
    total = sum((q.payload for q in rep.atoms), np.zeros((4, 4)))
    assert np.max(np.abs(total - np.eye(4))) <= 1e-9
    assert rep.report.passed


def test_construction_work_is_counted_and_bounded(monkeypatch):
    n, m = 8, 7
    rng = np.random.default_rng(7)
    space, gens = rotated_family(rng, n, (rng.random((m, n)) < 0.5).astype(int))
    counts = Counter()
    functions_of = FunctionalRepresentation._functions_of
    multiply = SymmetricMatrixSpace.multiply
    leaves = stone._sign_pattern_leaves

    def counted_functions_of(self, stack):
        counts["mapped calls"] += 1
        counts["mapped elements"] += len(stack)
        return functions_of(self, stack)

    def counted_multiply(self, x, y):
        product = multiply(self, x, y)
        counts["products"] += 1
        counts["matrices"] += product.size // (n * n)
        return product

    def counted_leaves(*args):
        before = counts.copy()
        found = leaves(*args)
        counts["tree products"] = counts["products"] - before["products"]
        counts["tree matrices"] = counts["matrices"] - before["matrices"]
        return found

    monkeypatch.setattr(FunctionalRepresentation, "_functions_of", counted_functions_of)
    monkeypatch.setattr(SymmetricMatrixSpace, "multiply", counted_multiply)
    monkeypatch.setattr(stone, "_sign_pattern_leaves", counted_leaves)
    rep = functional_representation(space, gens)
    assert rep.report.passed
    # the report maps all 15 + m of its elements in one batch
    assert counts["mapped calls"] == 1 and counts["mapped elements"] == 15 + m
    # one stacked product per generator, of at most 2 n prefix products
    assert 0 < counts["tree products"] <= m
    assert 0 < counts["tree matrices"] <= 2 * n * m


# ---------------------------------------------------------------------------
# State transport


def test_state_transport_both_directions(sym3):
    p = diag(sym3, 1.0, 0.0, 0.0)
    q = diag(sym3, 0.0, 1.0, 0.0)
    rep = functional_representation(sym3, [p, q])
    rho = DensityState(sym3, np.diag([0.5, 0.3, 0.2]))
    mu = transport_state(rep, rho)
    assert is_state(rep.function_space, mu)
    assert sorted(np.round(mu.density, 12).tolist()) == [0.2, 0.3, 0.5]

    back = pull_back_state(rep, mu)
    for a in (p, q, diag(sym3, 1.0, 2.0, 3.0)):
        assert abs(back(a) - rho(a)) <= 1e-9

    # transport of the pull-back returns the same weights
    again = transport_state(rep, back)
    assert np.max(np.abs(again.density - mu.density)) <= 1e-12


# ---------------------------------------------------------------------------
# Annihilator projections and completeness on the function instance


def test_rickart_report_small_space():
    space = FunctionSpace(("x", "y", "z"))
    rep = rickart_completeness_report(space, seed=3)
    assert rep.rickart_holds
    assert rep.indicators_complete
    assert rep.families_checked == 2 ** (2**3) - 1  # every nonempty family
    assert rep.chain_suprema_ok
    assert "finite" in rep.note


def test_rickart_report_larger_space_samples():
    space = FunctionSpace(tuple(f"p{i}" for i in range(6)))
    rep = rickart_completeness_report(space, seed=1)
    assert rep.rickart_holds and rep.indicators_complete


def test_rickart_rejects_matrix_spaces():
    with pytest.raises(ValueError, match="commutative"):
        rickart_completeness_report(SymmetricMatrixSpace(2))
