"""States: exact polytope vertices, duality reports, the commutative
extremal-state characterization.

Vertex sets below are frozen from the defining equalities worked by
hand; the polytope code must reproduce them exactly (as Fractions, not
floats).
"""

import sys
import time
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as hs

from helpers import (
    commutative_extremality_by_loops,
    is_float_state_by_loops,
    is_state_by_loops,
    proper_combination,
)
from synaptica.catalog import (
    boolean_effect_algebra,
    chain_effect_algebra,
    diamond_pair,
    mo2_effect_algebra,
    product_effect_algebra,
)
from synaptica.exact import enumerate_box_vertices
from synaptica.order_unit import Element, FunctionSpace, SymmetricMatrixSpace
from synaptica import states as stt
from synaptica.states import (
    DensityState,
    EffectAlgebraState,
    density_from_functional,
    element_duality_report,
    extend_effects_valuation,
    extremal_commutative_characterization,
    extremal_states,
    is_state,
    restrict_state_to_effects,
    rho_omega_bijection,
    simplex_vertices,
    state_norm_report,
    state_polytope,
)

F = Fraction


# ---------------------------------------------------------------------------
# Exact vertex enumeration


def test_three_chain_has_a_unique_state():
    poly = state_polytope(chain_effect_algebra(2))
    assert poly.feasible and poly.dimension == 0
    assert [st.values for st in poly.vertices] == [(F(0), F(1, 2), F(1))]


def test_diamond_has_a_unique_state():
    poly = state_polytope(diamond_pair())
    assert [st.values for st in poly.vertices] == [(F(0), F(1, 2), F(1, 2), F(1))]


def test_boolean_vertices_are_the_point_evaluations():
    poly = state_polytope(boolean_effect_algebra(2))
    assert poly.dimension == 1
    assert sorted(st.values for st in poly.vertices) == [
        (F(0), F(0), F(1), F(1)),
        (F(0), F(1), F(0), F(1)),
    ]
    assert len(extremal_states(boolean_effect_algebra(3))) == 3


def test_mo2_has_four_dispersion_free_states():
    poly = state_polytope(mo2_effect_algebra())
    assert poly.dimension == 2
    vals = sorted(st.values for st in poly.vertices)
    # labels: 0, a, a', b, b', 1 -- every vertex picks one of {a, a'}
    # and one of {b, b'} independently
    assert vals == [
        (F(0), F(0), F(1), F(0), F(1), F(1)),
        (F(0), F(0), F(1), F(1), F(0), F(1)),
        (F(0), F(1), F(0), F(0), F(1), F(1)),
        (F(0), F(1), F(0), F(1), F(0), F(1)),
    ]
    for st in poly.vertices:
        assert st.is_exact()
        assert set(st.values) <= {F(0), F(1)}


def test_midpoints_are_states_but_not_vertices():
    ea = mo2_effect_algebra()
    poly = state_polytope(ea)
    u, v = poly.vertices[0], poly.vertices[1]
    mid = [(x + y) / 2 for x, y in zip(u.values, v.values)]
    assert is_state(ea, mid)
    assert all(mid != list(st.values) for st in poly.vertices)


def test_catalog_vertices_pass_the_pairwise_oracle():
    algebras = [chain_effect_algebra(s) for s in range(1, 6)] + [
        boolean_effect_algebra(k) for k in range(1, 5)
    ] + [mo2_effect_algebra(), diamond_pair(),
         product_effect_algebra(mo2_effect_algebra(), boolean_effect_algebra(1))]
    for ea in algebras:
        pts = [st.values for st in state_polytope(ea).vertices]
        assert proper_combination(pts) is None


def test_non_extreme_point_is_rejected(monkeypatch):
    # a midpoint of two vertices is a state, so only the rank test can
    # catch it; the pairwise oracle agrees that it is no vertex
    def with_midpoint(rows, rhs, n):
        enum = enumerate_box_vertices(rows, rhs, n)
        u, v = enum.vertices[:2]
        enum.vertices.append([(x + y) / 2 for x, y in zip(u, v)])
        return enum

    monkeypatch.setattr(stt, "enumerate_box_vertices", with_midpoint)
    ea = mo2_effect_algebra()
    with pytest.raises(AssertionError, match="vertex 4 is not extreme"):
        state_polytope(ea)
    monkeypatch.undo()
    pts = [st.values for st in state_polytope(ea).vertices]
    mid = tuple((x + y) / 2 for x, y in zip(pts[0], pts[1]))
    assert proper_combination(pts + [mid]) == (4, 0, 1)


def test_non_extreme_point_among_twin_rows_is_rejected(monkeypatch):
    # MO2 x chain(2) has equality rows that are exact twins, which the
    # rank test drops once before the vertices
    ea = product_effect_algebra(mo2_effect_algebra(), chain_effect_algebra(2))
    rows = state_equality_rows(ea)
    assert len(set(map(tuple, rows))) < len(rows)
    count = len(state_polytope(ea).vertices)

    def with_midpoint(rows, rhs, n):
        enum = enumerate_box_vertices(rows, rhs, n)
        u, v = enum.vertices[:2]
        enum.vertices.append([(x + y) / 2 for x, y in zip(u, v)])
        return enum

    monkeypatch.setattr(stt, "enumerate_box_vertices", with_midpoint)
    with pytest.raises(AssertionError, match=f"vertex {count} is not extreme"):
        state_polytope(ea)


def state_equality_rows(ea):
    """The nonzero rows e + f - (e + f) of ea's defined orthosums, as the polytope builds them."""
    rows = []
    for e, f, g in ea.orthosums:
        row = [0] * ea.n
        row[e] += 1
        row[f] += 1
        row[g] -= 1
        if any(row):
            rows.append(row)
    return rows


class _Point:
    def __init__(self, values):
        self.values = values


def test_a_single_free_coordinate_is_ranked_as_a_one_entry_row():
    # one coordinate inside (0, 1): extreme exactly when some row is nonzero there
    half = Fraction(1, 2)
    stt._assert_vertices_are_extreme([[1, 1, 0], [1, 1, 0], [0, 0, 1]], [_Point((1, half, 0))])
    with pytest.raises(AssertionError, match="^vertex 1 is not extreme: the equalities fix only "
                                             "0 of its 1 coordinates strictly inside"):
        stt._assert_vertices_are_extreme([[1, 0, 0], [1, 0, 0], [0, 0, 1]],
                                         [_Point((0, 0, 1)), _Point((1, half, 0))])


def test_non_state_vertex_is_rejected(monkeypatch):
    # a vertex that breaks additivity must be caught by the is_state re-check
    def with_non_state(rows, rhs, n):
        enum = enumerate_box_vertices(rows, rhs, n)
        bad = enum.vertices[0][:]
        bad[1] = F(1, 2)  # a = 1/2 while a' stays 0 or 1
        enum.vertices.append(bad)
        return enum

    monkeypatch.setattr(stt, "enumerate_box_vertices", with_non_state)
    with pytest.raises(AssertionError, match="enumerated vertex is not a state"):
        state_polytope(mo2_effect_algebra())


# ---------------------------------------------------------------------------
# Product polytopes, each held to one wall budget
#
# A state on a product E x F splits as w(e, f) = w(e, 0) + w(0, f), so the
# vertices of the product are each factor's vertices, constant along the
# other factor. Measured at 0.01-0.12 s each on a 2-vCPU x86-64 host with
# CPython 3.11; the budget leaves room for slower machines.

POLYTOPE_BUDGET_S = 1.0


def timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    elapsed = time.perf_counter() - start
    assert elapsed < POLYTOPE_BUDGET_S, f"{elapsed:.2f} s over the budget"
    return result


def padded_union(a, b):
    pairs = [(i, j) for i in range(a.n) for j in range(b.n)]
    left = {tuple(st.values[i] for i, _ in pairs) for st in state_polytope(a).vertices}
    right = {tuple(st.values[j] for _, j in pairs) for st in state_polytope(b).vertices}
    return left | right


@pytest.mark.parametrize(
    "factors, dimension, count",
    [
        ((mo2_effect_algebra, mo2_effect_algebra), 5, 8),
        ((mo2_effect_algebra, lambda: boolean_effect_algebra(2)), 4, 6),
    ],
    ids=["MO2xMO2", "MO2x2^2"],
)
def test_product_vertices_are_the_padded_factor_vertices(factors, dimension, count):
    a, b = (make() for make in factors)
    poly = timed(state_polytope, product_effect_algebra(a, b))
    assert poly.feasible and poly.dimension == dimension
    assert len(poly.vertices) == count
    assert {st.values for st in poly.vertices} == padded_union(a, b)


def test_boolean_2_5_vertices_are_the_point_evaluations():
    # 2^5 is the product of five copies of 2^1, whose one state is padded
    # into the evaluation at one point
    poly = timed(state_polytope, boolean_effect_algebra(5))
    assert poly.dimension == 4
    assert {st.values for st in poly.vertices} == {
        tuple(F(m >> p & 1) for m in range(32)) for p in range(5)
    }


def test_boolean_2_6_and_2_7_vertices_are_the_point_evaluations():
    for k in (6, 7):
        poly = timed(state_polytope, boolean_effect_algebra(k))
        assert poly.feasible and poly.dimension == k - 1
        assert {st.values for st in poly.vertices} == {
            tuple(F(m >> p & 1) for m in range(1 << k)) for p in range(k)
        }


def test_three_factor_product_vertices_are_the_padded_factor_vertices():
    # MO2 x MO2 x 2^1, 72 elements: MO2 x MO2's eight vertices and the
    # one state of 2^1, each padded along the other factor
    a = product_effect_algebra(mo2_effect_algebra(), mo2_effect_algebra())
    b = boolean_effect_algebra(1)
    ea = product_effect_algebra(a, b)
    assert ea.n == 72
    poly = timed(state_polytope, ea)
    assert poly.feasible and poly.dimension == 6
    assert {st.values for st in poly.vertices} == padded_union(a, b)


def test_elimination_sees_only_the_rows_substitution_leaves(monkeypatch):
    # 2^6 has 367 state equalities; substitution along the orthosum table
    # expresses every element through a few parameters, so no exact
    # elimination of equalities, seed rays or ranks may see more rows than
    # twice the parameter space, and states itself eliminates no
    # equalities. The seed's pivot search runs over the box-row cone (63
    # rows here) and is not counted
    from synaptica import exact

    sizes, callers = [], []

    def counted(real):
        def counting(rows, *args):
            sizes.append(len(rows))
            callers.append((real.__name__, sys._getframe(1).f_globals["__name__"]))
            return real(rows, *args)
        return counting

    monkeypatch.setattr(exact, "affine_solution_set", counted(exact.affine_solution_set))
    monkeypatch.setattr(exact, "_simplicial_rays", counted(exact._simplicial_rays))
    monkeypatch.setattr(exact, "integer_rank", counted(exact.integer_rank))
    monkeypatch.setattr(stt, "integer_rank", exact.integer_rank)  # bound by name there
    poly = state_polytope(boolean_effect_algebra(6))
    assert poly.dimension == 5 and len(poly.vertices) == 6
    assert sizes and max(sizes) <= 2 * (poly.dimension + 1), sizes
    assert not hasattr(stt, "affine_solution_set")
    assert ("affine_solution_set", "synaptica.states") not in callers


@pytest.mark.parametrize("make", [
    lambda: boolean_effect_algebra(3),
    mo2_effect_algebra,
    lambda: chain_effect_algebra(8),
    lambda: product_effect_algebra(boolean_effect_algebra(2), boolean_effect_algebra(2)),
], ids=["2^3", "MO2", "chain(8)", "2^2x2^2"])
def test_state_polytope_calls_no_rref(monkeypatch, make):
    # substitution leaves no row to eliminate, so the dense elimination of
    # the equalities never runs
    from synaptica import exact

    calls = []
    real = exact.affine_solution_set
    monkeypatch.setattr(exact, "affine_solution_set",
                        lambda *args: calls.append(args) or real(*args))
    poly = state_polytope(make())
    assert poly.feasible and poly.vertices and calls == []


def test_cold_eight_point_simplex():
    enum = timed(enumerate_box_vertices, [[1] * 8], [1], 8)
    assert enum.dimension == 7
    assert enum.vertices == [[F(int(i == j)) for i in range(8)] for j in reversed(range(8))]


# ---------------------------------------------------------------------------
# is_state, exact and float paths


def test_is_state_exact_path_is_strict():
    ea = chain_effect_algebra(2)
    assert is_state(ea, [F(0), F(1, 2), F(1)])
    # exact data gets no tolerance: off by any amount fails
    assert not is_state(ea, [F(0), F(1, 2) + F(1, 10**12), F(1)])


def test_is_state_float_path_uses_the_tolerance():
    ea = chain_effect_algebra(2)
    assert is_state(ea, [0.0, 0.5 + 1e-12, 1.0])
    assert not is_state(ea, [0.0, 0.5 + 1e-6, 1.0])
    assert is_state(ea, [0.0, 0.5 + 1e-6, 1.0], tol=1e-5)


def test_is_state_float_path_survives_huge_exact_values():
    # one float sends the values down the float path, where 1e400 has no float
    ea = chain_effect_algebra(2)
    assert not is_state(ea, [F(0), 0.5, F(10**400)])
    assert not is_state(ea, [F(-(10**400)), 0.5, 1.0])
    assert is_state(ea, [F(0), 0.5, F(1)])


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize(
    "structure, state, non_finite",
    [
        (mo2_effect_algebra(), [0.0, 0.5, 0.5, 0.5, 0.5, 1.0],
         [[NAN] * 6, [0.0, NAN, NAN, NAN, NAN, 1.0], [0.0, INF, 0.5, 0.5, 0.5, 1.0]]),
        (SymmetricMatrixSpace(2), np.eye(2) / 2,
         [np.full((2, 2), NAN), np.array([[0.5, NAN], [NAN, 0.5]]), np.diag([INF, 0.5])]),
        (FunctionSpace(["p", "q"]), np.array([0.5, 0.5]),
         [np.array([NAN, NAN]), np.array([NAN, 1.0]), np.array([INF, 0.5])]),
    ],
    ids=["effect-algebra", "sym-matrix", "function-space"],
)
def test_is_state_rejects_non_finite_values(structure, state, non_finite):
    # NaN fails every comparison, so a bound test alone lets it through
    assert is_state(structure, state)
    for candidate in non_finite:
        assert not is_state(structure, candidate)


ORACLE_ALGEBRAS = {
    **{f"chain({s})": (lambda s=s: chain_effect_algebra(s)) for s in range(1, 6)},
    **{f"2^{k}": (lambda k=k: boolean_effect_algebra(k)) for k in range(1, 4)},
    "MO2": mo2_effect_algebra,
    "diamond": diamond_pair,
    "MO2x2^1": lambda: product_effect_algebra(mo2_effect_algebra(), boolean_effect_algebra(1)),
}


@lru_cache(maxsize=None)
def oracle_algebra(name):
    ea = ORACLE_ALGEBRAS[name]()
    return ea, [st.values for st in state_polytope(ea).vertices]


@hs.composite
def exact_candidates(draw):
    """A convex combination of vertices, perhaps nudged, in mixed exact types."""
    ea, verts = oracle_algebra(draw(hs.sampled_from(sorted(ORACLE_ALGEBRAS))))
    scale = draw(hs.sampled_from([5, 10**30 + 57]))  # small or large denominators
    weights = draw(hs.lists(hs.integers(0, scale), min_size=len(verts), max_size=len(verts)))
    weights[0] += 1
    total = sum(weights)
    vals = [sum(F(w, total) * v[i] for w, v in zip(weights, verts)) for i in range(ea.n)]
    nudge = draw(hs.sampled_from([None, F(1, 10**12), F(-1, 10**12), F(1, 3), F(-1)]))
    if nudge is not None:
        vals[draw(hs.integers(0, ea.n - 1))] += nudge
    typed = []
    for v in vals:
        if v.denominator == 1:
            kinds = [int, np.int64, F] + ([bool] if v in (0, 1) else [])
            typed.append(draw(hs.sampled_from(kinds))(int(v)))
        else:
            typed.append(v)
    return ea, typed, nudge is None


@given(exact_candidates())
@settings(max_examples=150, deadline=None)
def test_exact_is_state_agrees_with_the_loop_oracle(case):
    ea, vals, untouched = case
    verdict = is_state(ea, vals)
    assert verdict == is_state_by_loops(ea.table, ea.one, vals)
    if untouched:
        assert verdict  # a convex combination of vertices is a state


@given(exact_candidates(), hs.sampled_from([0.0, 1e-10, -1e-10, 1e-8, 1e-3]))
@settings(max_examples=150, deadline=None)
def test_float_is_state_agrees_with_the_loop_oracle(case, jitter):
    ea, vals, _ = case
    floats = [float(v) + jitter * (-1) ** i for i, v in enumerate(vals)]
    assert is_state(ea, floats) == is_float_state_by_loops(ea.table, ea.one, floats, 1e-9)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_orthosums_carry_every_defined_ordered_pair(name):
    ea = ORACLE_ALGEBRAS[name]()
    defined = {(e, f, g) for e, row in enumerate(ea.table) for f, g in enumerate(row)
               if g is not None}
    assert len(set(ea.orthosums)) == len(ea.orthosums)
    assert all(e <= f for e, f, _ in ea.orthosums)
    assert {(min(e, f), max(e, f), g) for e, f, g in defined} == set(ea.orthosums)
    assert ea.orthosums is ea.orthosums  # built once per algebra


def test_is_state_accepts_label_dicts():
    ea = mo2_effect_algebra()
    w = {"0": F(0), "a": F(1, 2), "a'": F(1, 2), "b": F(1, 2), "b'": F(1, 2), "1": F(1)}
    assert is_state(ea, w)
    w["b"] = F(1, 3)
    assert not is_state(ea, w)


def test_effect_algebra_state_shape_check():
    with pytest.raises(ValueError, match="one value per element"):
        EffectAlgebraState(chain_effect_algebra(2), [F(0), F(1)])


def test_density_state_checks():
    space = SymmetricMatrixSpace(3)
    assert is_state(space, np.eye(3) / 3.0)
    assert is_state(space, DensityState(space, np.diag([0.5, 0.5, 0.0])))
    assert not is_state(space, np.eye(3))                 # trace 3
    assert not is_state(space, np.diag([1.5, -0.5, 0.0]))  # not PSD
    bad = np.eye(3) / 3.0
    bad[0, 1] = 0.2                                       # not symmetric
    assert not is_state(space, bad)
    assert not is_state(space, np.eye(2) / 2.0)           # wrong shape


def test_density_state_repr_names_its_space():
    assert repr(DensityState(FunctionSpace(("x", "y")), [0.25, 0.75])) == (
        "DensityState(FunctionSpace(['x', 'y']), [0.25, 0.75])")
    assert repr(DensityState(SymmetricMatrixSpace(2), np.eye(2) / 2.0)) == (
        "DensityState(SymmetricMatrixSpace(2), [[0.5, 0.0], [0.0, 0.5]])")


@pytest.mark.filterwarnings("error")
def test_a_density_past_the_float_range_is_no_state():
    # the trace (or sum) overflows to inf without a warning, and inf is not one
    assert not is_state(SymmetricMatrixSpace(2), np.array([[1e308, 1.5e308], [1.5e308, 1e308]]))
    assert not is_state(FunctionSpace(("a", "b")), np.array([1e308, 1e308]))


@pytest.mark.filterwarnings("error")
def test_matrix_density_past_half_the_float_range_is_kept_without_overflow():
    space = SymmetricMatrixSpace(2)
    huge = np.array([[1e308, 1.5e308], [1.5e308, 1e308]])
    assert np.array_equal(DensityState(space, huge).density, huge)
    # ordinary and subnormal entries keep (d + d.T) / 2 bit for bit
    for d in (np.array([[0.3, 0.1], [0.7, 0.4]]), np.array([[5e-324, 1e-320], [3e-320, 0.5]])):
        assert DensityState(space, d).density.tobytes() == ((d + d.T) / 2.0).tobytes()


@pytest.mark.filterwarnings("error")
def test_vector_density_past_half_the_float_range_is_kept_without_overflow():
    space = FunctionSpace(("a", "b", "c"))
    for d in ([1e308, 1e308, -1.7e308], [5e-324, -1e-320, 0.25], [0.2, 0.3, 0.5]):
        assert DensityState(space, d).density.tobytes() == np.array(d).tobytes()


@pytest.mark.parametrize("off", [0.0, 1.5e-10, 1.9e-10, 2.1e-10, 3e-10, 1e-3])
def test_density_asymmetry_is_measured_as_element_measures_it(off):
    space = SymmetricMatrixSpace(2)
    d = np.array([[0.5, off], [0.0, 0.5]])
    try:
        space.element(d)
        accepted = True
    except ValueError:
        accepted = False
    assert is_state(space, d) is accepted


def test_probability_vector_checks():
    space = FunctionSpace(("x", "y", "z"))
    assert is_state(space, [0.2, 0.3, 0.5])
    assert not is_state(space, [0.6, 0.6, -0.2])
    assert not is_state(space, [0.2, 0.3, 0.4])


def test_simplex_vertices_are_the_unit_vectors():
    space = FunctionSpace(("x", "y", "z"))
    assert sorted(simplex_vertices(space)) == [
        [F(0), F(0), F(1)],
        [F(0), F(1), F(0)],
        [F(1), F(0), F(0)],
    ]


# ---------------------------------------------------------------------------
# Order and norm through states


def test_duality_report_on_positive_and_signed_elements():
    space = SymmetricMatrixSpace(4)
    rng = np.random.default_rng(8)
    for _ in range(30):
        a = space.random_element(rng)
        rep = element_duality_report(a)
        assert rep.positivity_matches
        assert rep.norm_matches
        assert abs(rep.norm - rep.sup_abs_extremal) <= 1e-9
        if not rep.is_positive:
            # the witness is a pure state seeing the negative part
            assert rep.witness_state is not None
            assert rep.witness_state(a) <= rep.min_extremal + 1e-9
        else:
            assert rep.witness_state is None


def test_duality_report_on_functions():
    space = FunctionSpace(("x", "y"))
    rep = element_duality_report(space.element(np.array([3.0, -1.0])))
    assert rep.min_extremal == -1.0 and rep.norm == 3.0
    assert not rep.is_positive and rep.witness_state(space.element(np.array([3.0, -1.0]))) == -1.0


def test_state_norm_report_for_genuine_states():
    space = SymmetricMatrixSpace(3)
    rho = DensityState(space, np.diag([0.5, 0.3, 0.2]))
    rep = state_norm_report(space, rho)
    assert rep.identity_holds
    assert rep.maximizer_in_ball
    assert abs(rep.norm - 1.0) <= 1e-12
    assert abs(rep.value_at_unit - 1.0) <= 1e-12
    # a genuine state is maximized by the unit itself
    assert np.allclose(rep.maximizer.payload, np.eye(3))


def test_state_norm_report_flags_signed_functionals():
    # trace one but not positive: the norm exceeds the value at the unit
    space = SymmetricMatrixSpace(2)
    rho = DensityState(space, np.diag([1.5, -0.5]))
    rep = state_norm_report(space, rho)
    assert rep.norm == 2.0 and rep.value_at_unit == 1.0
    assert not rep.identity_holds
    assert abs(rho(rep.maximizer) - rep.norm) <= 1e-12

    fspace = FunctionSpace(("x", "y", "z"))
    rep2 = state_norm_report(fspace, DensityState(fspace, [0.25, 0.25, 0.5]))
    assert rep2.identity_holds and rep2.norm == 1.0


# ---------------------------------------------------------------------------
# Restriction to effects and back


def test_restriction_rejects_non_effects():
    space = SymmetricMatrixSpace(3)
    rho = DensityState(space, np.eye(3) / 3.0)
    omega = restrict_state_to_effects(space, rho)
    assert abs(omega(space.unit()) - 1.0) <= 1e-12
    with pytest.raises(ValueError, match="not an effect"):
        omega(2.0 * space.unit())


def test_extension_inverts_restriction():
    space = SymmetricMatrixSpace(3)
    rng = np.random.default_rng(77)
    d = space.random_effect(rng)
    dm = d.payload / np.trace(d.payload)
    rho = DensityState(space, dm)
    omega = rho_omega_bijection(space, rho)          # restrict
    back = rho_omega_bijection(space, omega)         # extend
    for _ in range(20):
        a = space.random_element(rng)
        assert abs(back(a) - rho(a)) <= 1e-8 * max(1.0, a.norm())


def test_extension_rejects_garbage():
    space = SymmetricMatrixSpace(2)
    with pytest.raises(TypeError, match="state or an effect valuation"):
        rho_omega_bijection(space, np.eye(2))


def test_extension_of_a_raw_valuation():
    space = FunctionSpace(("x", "y"))
    mu = DensityState(space, [0.75, 0.25])
    xi = extend_effects_valuation(space, lambda e: mu(e))
    a = space.element(np.array([4.0, -8.0]))
    assert abs(xi(a) - mu(a)) <= 1e-9


def test_extension_is_a_density_state_every_state_function_accepts():
    matrices = SymmetricMatrixSpace(2)
    rho = DensityState(matrices, [[0.75, 0.125], [0.125, 0.25]])
    back = extend_effects_valuation(matrices, restrict_state_to_effects(matrices, rho))
    assert isinstance(back, DensityState)
    assert np.max(np.abs(back.density - rho.density)) <= 1e-12
    assert is_state(matrices, back)
    assert state_norm_report(matrices, back).identity_holds

    points = FunctionSpace(("x", "y", "z"))
    mu = DensityState(points, [0.5, 0.25, 0.25])
    back = rho_omega_bijection(points, rho_omega_bijection(points, mu))
    assert isinstance(back, DensityState)
    assert np.max(np.abs(back.density - mu.density)) <= 1e-12
    assert is_state(points, back)
    assert state_norm_report(points, back).identity_holds
    report = extremal_commutative_characterization(points, back)
    assert report.all_equivalent and not report.is_vertex


# ---------------------------------------------------------------------------
# Reconstruction of the representing data


def _random_density_matrix():
    space = SymmetricMatrixSpace(4)
    e = space.random_effect(np.random.default_rng(21))
    return space, e.payload / np.trace(e.payload)


@pytest.mark.parametrize("space, d", [
    _random_density_matrix(),
    (FunctionSpace(("x", "y", "z")), np.array([0.1, 0.6, 0.3])),
], ids=["sym_matrix", "function_algebra"])
def test_density_round_trip(space, d):
    rec = density_from_functional(space, DensityState(space, d))
    assert np.max(np.abs(rec.density - d)) <= 1e-12
    assert is_state(space, rec)


# ---------------------------------------------------------------------------
# Extremal states of the commutative instance


def test_point_evaluations_satisfy_all_four_conditions():
    space = FunctionSpace(("x", "y", "z"))
    for i, label in enumerate(space.points):
        mu = (np.arange(3) == i).astype(float)
        rep = extremal_commutative_characterization(space, mu)
        assert rep.is_vertex
        assert rep.point_evaluation == label
        assert rep.is_multiplicative
        assert rep.zero_one_on_projections
        assert rep.all_equivalent
        assert rep.min_rule_holds and rep.min_rule_witness is None


def test_interior_state_fails_all_four_conditions():
    space = FunctionSpace(("x", "y", "z"))
    rep = extremal_commutative_characterization(space, [1 / 3, 1 / 3, 1 / 3])
    assert not rep.is_vertex
    assert rep.point_evaluation is None
    assert not rep.is_multiplicative
    assert not rep.zero_one_on_projections
    assert rep.all_equivalent          # all four agree on "no"
    assert not rep.min_rule_holds
    assert rep.min_rule_witness is not None


def test_boundary_state_still_fails_all_four():
    # supported on two points: on the simplex boundary, yet not a vertex
    space = FunctionSpace(("x", "y", "z"))
    rep = extremal_commutative_characterization(space, [0.5, 0.5, 0.0])
    assert not rep.is_vertex
    assert rep.point_evaluation is None
    assert not rep.is_multiplicative
    assert not rep.zero_one_on_projections
    assert rep.all_equivalent
    assert not rep.min_rule_holds
    assert rep.min_rule_witness == ("x", "y")


def test_characterization_rejects_matrix_spaces_and_non_states():
    with pytest.raises(ValueError, match="commutative algebras only"):
        extremal_commutative_characterization(SymmetricMatrixSpace(2), np.eye(2) / 2.0)
    space = FunctionSpace(("x", "y"))
    with pytest.raises(ValueError, match="not a state"):
        extremal_commutative_characterization(space, [0.9, 0.3])


def test_random_mixtures_are_never_flagged_extremal():
    space = FunctionSpace(tuple("pqrs"))
    rng = np.random.default_rng(15)
    for _ in range(40):
        mu = rng.dirichlet(np.ones(4))
        if np.max(mu) > 1.0 - 1e-3:
            continue  # too close to a vertex for the float test
        rep = extremal_commutative_characterization(space, mu)
        assert not rep.is_vertex and not rep.min_rule_holds


REPORT_FIELDS = ("is_vertex", "point_evaluation", "is_multiplicative",
                 "zero_one_on_projections", "all_equivalent", "min_rule_holds",
                 "min_rule_witness")


@hs.composite
def simplex_probes(draw):
    """k points, and probability vectors of every kind on them.

    Every vertex; a Dirichlet interior point; a vertex with 1e-10, 3e-9
    or 1e-8 of its mass moved to another point, or added to or taken
    from it (one size below the tolerance 1e-9, two above it); the
    equal split of two points.
    """
    k = draw(hs.integers(min_value=1, max_value=10))
    probes = [np.eye(k)[i] for i in range(k)]
    seed = draw(hs.integers(min_value=0, max_value=2**32 - 1))
    probes.append(np.random.default_rng(seed).dirichlet(np.ones(k)))
    i = draw(hs.integers(min_value=0, max_value=k - 1))
    j = draw(hs.integers(min_value=0, max_value=k - 1))
    for eps in (1e-10, 3e-9, 1e-8):
        for sign in (1.0, -1.0):
            mu = np.eye(k)[i]
            mu[i] += sign * eps
            probes.append(mu)
        if i != j:
            mu = np.eye(k)[i]
            mu[i] -= eps
            mu[j] += eps
            probes.append(mu)
    if i != j:
        probes.append(np.eye(k)[i] / 2.0 + np.eye(k)[j] / 2.0)
    return k, probes


@given(simplex_probes())
@settings(max_examples=60, deadline=None)
def test_characterization_agrees_with_the_loops(case):
    k, probes = case
    space = FunctionSpace(tuple(f"p{i}" for i in range(k)))
    for mu in probes:
        if mu.min() < -1e-12 or abs(mu.sum() - 1.0) > 1e-9:
            with pytest.raises(ValueError, match="not a state"):
                extremal_commutative_characterization(space, mu)
            continue
        rep = extremal_commutative_characterization(space, mu)
        got = {name: getattr(rep, name) for name in REPORT_FIELDS}
        assert got == commutative_extremality_by_loops(space.points, mu)
        flags = ("is_vertex", "is_multiplicative", "zero_one_on_projections",
                 "all_equivalent", "min_rule_holds")
        assert all(type(got[name]) is bool for name in flags)  # JSON needs Python bools


@given(simplex_probes(), hs.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_stacked_characterization_agrees_with_the_loops_row_by_row(case, rnd):
    # vertices, near-vertices, an interior point and a two-point split in
    # one stack, in a drawn order: each row's report is the loops' answer,
    # and the one-row report of the public function
    k, probes = case
    space = FunctionSpace(tuple(f"p{i}" for i in range(k)))
    stack = [mu for mu in probes if mu.min() >= -1e-12 and abs(mu.sum() - 1.0) <= 1e-9]
    rnd.shuffle(stack)
    reports = stt._extremal_reports(space, np.array(stack))
    assert len(reports) == len(stack)
    flags = ("is_vertex", "is_multiplicative", "zero_one_on_projections",
             "all_equivalent", "min_rule_holds")
    for mu, rep in zip(stack, reports):
        got = {name: getattr(rep, name) for name in REPORT_FIELDS}
        assert got == commutative_extremality_by_loops(space.points, mu)
        assert all(type(got[name]) is bool for name in flags)
        assert rep == extremal_commutative_characterization(space, mu)


def test_stacked_characterization_fails_on_one_bad_row_in_order():
    space = FunctionSpace(("x", "y", "z"))
    good = np.eye(3)
    for bad in ([0.9, 0.3, 0.0], [np.nan, 0.5, 0.5], [1.5, -0.5, 0.0]):
        stack = np.vstack([good[:1], [bad], good[1:]])
        with pytest.raises(ValueError, match="commutative algebras only"):
            stt._extremal_reports(SymmetricMatrixSpace(3), stack)
        with pytest.raises(ValueError, match="not a state on the function algebra"):
            stt._extremal_reports(space, stack)
    big = FunctionSpace(tuple(f"p{i}" for i in range(17)))
    with pytest.raises(ValueError, match="not a state on the function algebra"):
        stt._extremal_reports(big, np.vstack([np.eye(17)[:2], [[2.0] + [0.0] * 16]]))
    with pytest.raises(ValueError, match="keep the point set small"):
        stt._extremal_reports(big, np.eye(17)[:3])


def test_characterization_keeps_its_size_guard():
    space = FunctionSpace(tuple(f"p{i}" for i in range(17)))
    with pytest.raises(ValueError, match="keep the point set small"):
        extremal_commutative_characterization(space, np.eye(17)[0])


def test_simplex_vertex_reports_are_the_one_row_reports():
    for k in (1, 2, 5):
        space = FunctionSpace(tuple(f"p{i}" for i in range(k)))
        verts = stt.simplex_vertices(space)
        assert stt.simplex_vertex_reports(space) == [
            extremal_commutative_characterization(space, np.array(v, dtype=float)) for v in verts
        ]


def test_the_simplex_bound_comes_before_any_enumeration(monkeypatch):
    def no_enumeration(rows, rhs, n):
        raise AssertionError(f"enumerated a box of {n} coordinates")

    monkeypatch.setattr(stt, "enumerate_box_vertices", no_enumeration)
    space = FunctionSpace(tuple(f"p{i}" for i in range(17)))
    for call in (stt.simplex_vertices, stt.simplex_vertex_reports):
        with pytest.raises(ValueError, match="at most 16 points, got 17"):
            call(space)
