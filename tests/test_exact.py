"""Rational linear algebra and vertex enumeration, checked exactly."""

import sys
from fractions import Fraction
from math import lcm

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fraction_path import (
    affine_by_fraction_substitution,
    affine_by_rref,
    simplicial_rays_by_rref,
    vertices_by_sorted_cone,
)
from helpers import _eliminate, box_vertices_by_scan, rank_by_elimination, state_equalities
from synaptica import exact
from synaptica.catalog import (
    boolean_effect_algebra,
    chain_effect_algebra,
    diamond_pair,
    mo2_effect_algebra,
    product_effect_algebra,
)
from synaptica.exact import (
    InfeasibilityCertificate,
    affine_solution_set,
    enumerate_box_vertices,
    integer_rank,
)

F = Fraction


def test_integer_rank_of_large_entries():
    assert integer_rank([[10**20, 1], [10**20 + 1, 1]]) == 2
    assert integer_rank([[10**20, 3], [2 * 10**20, 6], [0, 0]]) == 1
    assert integer_rank([]) == 0 and integer_rank([[], []]) == 0


@st.composite
def integer_matrices(draw):
    ncols = draw(st.integers(min_value=0, max_value=5))
    entry = st.integers(min_value=-3, max_value=3)
    rows = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols), max_size=5))
    extra = []
    for row in rows:
        kind = draw(st.sampled_from(["none", "duplicate", "multiple", "zero"]))
        if kind == "duplicate":
            extra.append(row[:])
        elif kind == "multiple":
            extra.append([-2 * v for v in row])
        elif kind == "zero":
            extra.append([0] * ncols)
    return draw(st.permutations(rows + extra)), ncols


@given(integer_matrices())
@settings(max_examples=200, deadline=None)
def test_integer_rank_agrees_with_elimination(case):
    rows, ncols = case
    assert integer_rank(rows) == rank_by_elimination(rows, ncols)


class OriginRow(list):
    origin: int


class OriginTracked(list):
    """Rows for helpers._eliminate that carry their input index along.

    _eliminate swaps two rows by assigning each to the other's place and
    replaces a row it reduces by a new plain list, which takes the index
    of the row it replaces.
    """

    def __init__(self, rows):
        super().__init__(self._tagged(row, i) for i, row in enumerate(rows))

    @staticmethod
    def _tagged(row, origin):
        row = OriginRow(row)
        row.origin = origin
        return row

    def __setitem__(self, i, row):
        if not isinstance(row, OriginRow):
            row = self._tagged(row, self[i].origin)
        super().__setitem__(i, row)


@given(integer_matrices(), st.integers(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_gauss_jordan_matches_elimination_over_fractions(case, cut):
    rows, width = case
    ncols = min(cut, width)  # pivots in the leading columns only, or in all
    reduced, pivots, origin = exact._gauss_jordan(rows, ncols)
    oracle = OriginTracked([[F(v) for v in row] for row in rows])
    assert pivots == _eliminate(oracle, ncols)
    assert origin == [row.origin for row in oracle]
    for row, c, expected in zip(reduced, pivots, oracle):
        assert [F(x, row[c]) for x in row] == expected
    assert all(not any(row[:ncols]) for row in reduced[len(pivots):])
    assert all(type(x) is int for row in reduced for x in row)
    for limit in range(1, len(pivots) + 1):  # stopping early takes the same path
        _, first, moved = exact._gauss_jordan(rows, ncols, limit)
        assert first == pivots[:limit] and moved[:limit] == origin[:limit]


def test_numpy_integers_are_read_as_python_ints():
    # products of entries near 2^40 overflow int64, so every entry must
    # reach the elimination as a Python int
    rows = [[2**40 + 1, 3, 0], [5, 2**40 + 1, 7], [1, 1, 1]]
    rhs = [1, 2, 3]
    assert type(exact._exact(np.int64(3))) is int
    assert integer_rank(np.array(rows)) == integer_rank(rows) == 3
    found = affine_solution_set(np.array(rows), np.array(rhs), 3)
    expected = affine_solution_set(rows, rhs, 3)
    assert typed(found.particular) == typed(expected.particular)
    assert [typed(col) for col in found.basis] == [typed(col) for col in expected.basis]
    # the sum of the first two rows with a right side other than 1 + 2
    rows, rhs = rows + [[2**40 + 6, 2**40 + 4, 7]], rhs + [4]
    found = enumerate_box_vertices(np.array(rows), np.array(rhs), 3).certificate
    expected = enumerate_box_vertices(rows, rhs, 3).certificate
    assert found.kind == "equalities" and found == expected
    assert [typed(m) for m in found.multipliers] == [typed(m) for m in expected.multipliers]


MALFORMED = {
    "short row": ([[1]], [1], 2, "row 0 has 1 entries, not 2"),
    "long row": ([[1, 0], [1, 1, 1]], [1, 1], 2, "row 1 has 3 entries, not 2"),
    "row without a right side": ([[1, 0], [0, 1]], [1], 2, "row 1 has no right-hand side"),
    "right side without a row": ([[1, 0]], [1, 0], 2, "right-hand side 1 has no row"),
    "NaN entry": ([[1, 0], [0, float("nan")]], [1, 1], 2, "row 1 has an entry that is not finite"),
    "infinite entry": ([[float("inf"), 0]], [1], 2, "row 0 has an entry that is not finite"),
    "infinite right side": ([[1, 0]], [float("-inf")], 2, "row 0 has an entry that is not finite"),
    "NaN before a short row": ([[float("nan"), 0], [1]], [0, 1], 2,
                               "row 0 has an entry that is not finite"),
    "numpy short rows": (np.ones((2, 1), dtype=np.int64), [1, 1], 2, "row 0 has 1 entries, not 2"),
}


@pytest.mark.parametrize("case", list(MALFORMED.values()), ids=list(MALFORMED))
@pytest.mark.parametrize("solve", [affine_solution_set, enumerate_box_vertices])
def test_a_malformed_system_is_refused_at_its_first_bad_row(solve, case):
    rows, rhs, n, message = case
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve(rows, rhs, n)


@pytest.mark.parametrize("rows, message", [
    ([[1, 2], [3]], "row 1 has 1 entries, row 0 has 2"),
    ([[1, 2], [2, 4, 1]], "row 1 has 3 entries, row 0 has 2"),
    ([[1, 2], [float("inf"), 1]], "row 1 has an entry that is not finite"),
    ([[float("nan"), 1]], "row 0 has an entry that is not finite"),
], ids=["short", "long", "infinite", "NaN"])
def test_integer_rank_refuses_ragged_and_non_finite_rows(rows, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        integer_rank(rows)


def test_numpy_arrays_of_the_right_shape_are_read():
    rows = np.array([[1, 1, 0], [0, 1, 1]])
    found = enumerate_box_vertices(rows, np.array([1, 1]), 3)
    assert found == enumerate_box_vertices(rows.tolist(), [1, 1], 3)
    assert integer_rank(rows) == 2 and integer_rank(np.zeros((0, 3))) == 0


def test_iterables_of_rows_are_read_as_lists():
    # rows and right sides from generators and map objects, read once,
    # including by the dense route that an infeasible system takes
    for rows, rhs in [([[1, 1, 0], [0, 1, 1]], [1, 1]),
                      ([[1, 1, 0], [1, 1, 0]], [1, 2]),
                      ([[1, 1, 1]], [4])]:
        for solve in (affine_solution_set, enumerate_box_vertices):
            got = solve((list(row) for row in rows), map(int, rhs), 3)
            assert got == solve(rows, rhs, 3)


def test_affine_solution_set_parametrizes():
    # x + y + z = 1 has a 2-dimensional solution set
    sol = affine_solution_set([[F(1), F(1), F(1)]], [F(1)], 3)
    assert sol.dimension == 2
    pt = sol.point([F(1, 3), F(1, 5)])
    assert sum(pt) == 1


def test_affine_infeasible_certificate():
    # x + y = 1 and x + y = 2: subtracting gives 0 = 1
    sol = affine_solution_set([[F(1), F(1)], [F(1), F(1)]], [F(1), F(2)], 2)
    assert isinstance(sol, InfeasibilityCertificate)
    assert sol.kind == "equalities"


def test_simplex_vertices_are_unit_vectors():
    enum = enumerate_box_vertices([[1, 1, 1]], [1], 3)
    assert enum.feasible
    assert enum.dimension == 2
    expect = [
        [F(0), F(0), F(1)],
        [F(0), F(1), F(0)],
        [F(1), F(0), F(0)],
    ]
    assert enum.vertices == expect


def test_unconstrained_box_has_corner_vertices():
    enum = enumerate_box_vertices([], [], 2)
    assert enum.dimension == 2
    assert enum.vertices == [
        [F(0), F(0)],
        [F(0), F(1)],
        [F(1), F(0)],
        [F(1), F(1)],
    ]


def test_three_chain_state_system():
    # w0 = 0, w2 = 1, w1 + w1 = w2: the unique solution has w1 = 1/2
    rows = [[1, 0, 0], [0, 0, 1], [0, 2, -1]]
    rhs = [0, 1, 0]
    enum = enumerate_box_vertices(rows, rhs, 3)
    assert enum.dimension == 0
    assert enum.vertices == [[F(0), F(1, 2), F(1)]]


def test_equality_infeasibility_certificate():
    rows = [[1, 1], [1, 1]]
    rhs = [1, 2]
    enum = enumerate_box_vertices(rows, rhs, 2)
    assert not enum.feasible
    assert enum.certificate is not None
    assert enum.certificate.kind == "equalities"
    # the multipliers recombine the rows into 0 = nonzero
    mults = enum.certificate.multipliers
    lhs = [sum(m * F(rows[k][j]) for k, m in mults) for j in range(2)]
    rhs_comb = sum(m * F(rhs[k]) for k, m in mults)
    assert all(v == 0 for v in lhs)
    assert rhs_comb != 0


def test_bound_infeasibility_certificate():
    # x = 2 cannot meet the [0, 1] box; solution set is a single point
    enum = enumerate_box_vertices([[1]], [2], 1)
    assert not enum.feasible
    assert enum.certificate.kind == "bound"


def test_box_infeasibility_via_elimination():
    # x - y = 2 is affinely fine but incompatible with 0 <= x, y <= 1
    enum = enumerate_box_vertices([[1, -1]], [2], 2)
    assert not enum.feasible
    assert enum.certificate.kind in ("inequalities", "bound")


def test_vertices_satisfy_constraints_exactly():
    rows = [[1, 1, 0, 0], [0, 0, 1, 1]]
    rhs = [1, 1]
    enum = enumerate_box_vertices(rows, rhs, 4)
    assert enum.dimension == 2
    assert len(enum.vertices) == 4
    for v in enum.vertices:
        assert v[0] + v[1] == 1
        assert v[2] + v[3] == 1
        assert all(0 <= c <= 1 for c in v)
        assert all(c in (F(0), F(1)) for c in v)  # product of two segments


@pytest.mark.parametrize(
    "stray", [[2, 2, 1], [1, 0, 0]], ids=["outside-the-box", "no-s-coordinate"]
)
def test_a_ray_outside_the_rows_is_rejected(monkeypatch, stray):
    # every ray is re-checked against every cone row before it is read off
    real = exact._double_description

    def with_stray_ray(cone, d):
        return real(cone, d) + [stray]

    monkeypatch.setattr(exact, "_double_description", with_stray_ray)
    with pytest.raises(RuntimeError, match="outside the rows"):
        enumerate_box_vertices([[1, 1, 1]], [1], 3)


@st.composite
def random_systems(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=3))
    coeff = st.integers(min_value=-2, max_value=2)
    rows = [[draw(coeff) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(min_value=0, max_value=2)) for _ in range(m)]
    return rows, rhs, n


@given(random_systems())
@settings(max_examples=60, deadline=None)
def test_enumeration_is_sound(case):
    rows, rhs, n = case
    enum = assert_agrees_with_scan(rows, rhs, n)  # the scan finds every vertex
    if not enum.feasible:
        assert enum.certificate is not None
        return
    for v in enum.vertices:
        assert all(0 <= c <= 1 for c in v)
        for row, b in zip(rows, rhs):
            assert sum(F(c) * x for c, x in zip(row, v)) == F(b)
    # no vertex may be the midpoint of two others
    vset = {tuple(v) for v in enum.vertices}
    vl = sorted(vset)
    for i, u in enumerate(vl):
        for j, w in enumerate(vl):
            if i < j:
                mid = tuple((a + b) / 2 for a, b in zip(u, w))
                assert mid not in vset - {u, w}


# ---------------------------------------------------------------------------
# Cross-check against the combinations scan in tests/helpers.py, which
# finds every vertex by brute force: agreement shows completeness as well
# as soundness, and certificates must agree to the multiplier.


def assert_agrees_with_scan(rows, rhs, n):
    enum = enumerate_box_vertices(rows, rhs, n)
    scan = box_vertices_by_scan(rows, rhs, n)
    assert enum.feasible == scan.feasible
    assert enum.dimension == scan.dimension
    assert enum.vertices == scan.vertices
    # Fractions in every path, the d == 0 point included, never bare ints
    assert all(type(x) is F for v in enum.vertices for x in v)
    cert = enum.certificate
    assert (cert and (cert.kind, cert.multipliers, cert.detail)) == scan.certificate
    return enum


def ea_system(ea):
    """The state equalities of an effect algebra as (rows, rhs, n)."""
    return (*state_equalities(ea.table, ea.zero, ea.one), ea.n)


CATALOG = {
    **{f"chain({s})": (lambda s=s: chain_effect_algebra(s)) for s in range(1, 9)},
    **{f"2^{k}": (lambda k=k: boolean_effect_algebra(k)) for k in range(1, 5)},
    "MO2": mo2_effect_algebra,
    "diamond": diamond_pair,
}


@pytest.mark.parametrize("name", list(CATALOG))
def test_catalog_algebras_agree_with_scan(name):
    ea = CATALOG[name]()
    enum = assert_agrees_with_scan(*ea_system(ea))
    assert enum.feasible


PRODUCT_FACTORS = {
    "MO2x2^1": (mo2_effect_algebra, lambda: boolean_effect_algebra(1)),
    "MO2xchain(2)": (mo2_effect_algebra, lambda: chain_effect_algebra(2)),
    "2^2x2^2": (lambda: boolean_effect_algebra(2), lambda: boolean_effect_algebra(2)),
    "chain(2)xchain(3)": (lambda: chain_effect_algebra(2), lambda: chain_effect_algebra(3)),
    "diamondxMO2": (diamond_pair, mo2_effect_algebra),
    "MO2x2^2": (mo2_effect_algebra, lambda: boolean_effect_algebra(2)),
}


@pytest.mark.parametrize("name", sorted(PRODUCT_FACTORS))
def test_products_agree_with_scan(name):
    a, b = (make() for make in PRODUCT_FACTORS[name])
    ea = product_effect_algebra(a, b)
    assert ea.n <= 24
    enum = assert_agrees_with_scan(*ea_system(ea))
    assert enum.feasible


@pytest.mark.parametrize("k", range(2, 8))
def test_simplexes_agree_with_scan(k):
    enum = assert_agrees_with_scan([[1] * k], [1], k)
    assert len(enum.vertices) == k


@pytest.mark.parametrize(
    "rows, rhs, n",
    [
        ([], [], 5),                                              # the 5-cube
        ([[1] * 6], [3], 6),                                      # hypersimplex, 20 vertices
        ([[1, 1, 1, 0, 0, 0], [0, 0, 0, 1, 1, 1]], [1, 2], 6),   # two simplexes, product
    ],
    ids=["cube(5)", "hypersimplex(6,3)", "simplex-x-hypersimplex"],
)
def test_higher_dimensional_systems_agree_with_scan(rows, rhs, n):
    # dimensions 4-5, where adjacency needs the zero-set containment test
    # and not only the count of common zeros
    assert_agrees_with_scan(rows, rhs, n)


def test_certificates_agree_with_scan():
    # one system per certificate kind, each checked to the multiplier
    cases = {
        "equalities": ([[1, 1, 0], [0, 1, 1], [1, 2, 1]], [1, 1, 1], 3),
        "bound": ([[1, 0], [1, 1]], [2, 2], 2),
        "inequalities": ([[1, 1, 1]], [4], 3),
    }
    for kind, (rows, rhs, n) in cases.items():
        enum = assert_agrees_with_scan(rows, rhs, n)
        assert not enum.feasible and enum.certificate.kind == kind


# ---------------------------------------------------------------------------
# The integer pipeline against the Fraction path it replaced: the
# substitution over dicts of Fractions and the Fraction Gauss-Jordan seed
# of double description, both kept in tests/fraction_path.py.


def typed(values) -> list:
    return [(type(v), v) for v in values]


def as_expressions(particular, basis):
    """An affine set as exact._parametrize gives it: ([(den, c, {param: coeff})], d)."""
    expr = []
    for i, p in enumerate(particular):
        values = [F(p)] + [F(col[i]) for col in basis]
        den = lcm(*(v.denominator for v in values))
        c, *lin = (int(v * den) for v in values)
        expr.append((den, c, {j: v for j, v in enumerate(lin) if v}))
    return expr, len(basis)


def read_out(expr, d):
    """Integer expressions as (particular, basis), integral entries as ints."""
    def value(num, den):
        q = F(num, den)
        return q.numerator if q.denominator == 1 else q

    return ([value(c, den) for den, c, _ in expr],
            [[value(lin.get(j, 0), den) for den, _, lin in expr] for j in range(d)])


def fraction_path(rows, rhs, n):
    """enumerate_box_vertices with the Fraction substitution and seed swapped in."""
    def parametrize(a_rows, b_vals, n):
        found = affine_by_fraction_substitution(a_rows, b_vals, n)
        return None if found is None else as_expressions(*found)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exact, "_parametrize", parametrize)
        mp.setattr(exact, "_simplicial_rays", simplicial_rays_by_rref)
        return enumerate_box_vertices(rows, rhs, n)


def assert_scales_sorted_rows(rows, sorted_rows):
    """Each row is a positive multiple of a sorted row, and each sorted row
    has a parallel row at least as tight among them."""
    def direction(coeffs, rhs):
        g = F(max(abs(c) for c in coeffs))
        return tuple(F(c) / g for c in coeffs), F(rhs) / g

    old = [direction(c, r) for c, r in sorted_rows]
    new = dict(direction(c, r) for c, r in rows)
    assert len(new) == len(rows) and set(new.items()) <= set(old)
    assert all(new[lhs] <= rhs for lhs, rhs in old)


def assert_matches_sorted_cone(rows, rhs, n):
    """Same vertices, dimension, feasibility and certificate as the former
    route through the sorted Fraction box rows, and its box rows scaled."""
    new = enumerate_box_vertices(rows, rhs, n)
    old = vertices_by_sorted_cone(rows, rhs, n, exact._double_description)
    assert (new.feasible, new.dimension, new.vertices) == (old.feasible, old.dimension,
                                                           old.vertices)
    cert = new.certificate
    assert (cert and (cert.kind, cert.multipliers, cert.detail)) == old.certificate
    if new.feasible:
        assert all(type(x) is int for c, r in new.rows for x in c + (r,))
        assert_scales_sorted_rows(new.rows, old.rows)
    else:
        assert new.rows == old.rows
    return new


def assert_matches_fraction_path(rows, rhs, n):
    """Same vertices, dimension, feasibility and certificate; for integer
    input also the same affine set and box rows, entry types included."""
    new, old = assert_matches_sorted_cone(rows, rhs, n), fraction_path(rows, rhs, n)
    assert (new.feasible, new.dimension, new.vertices) == (old.feasible, old.dimension,
                                                           old.vertices)
    assert new.certificate == old.certificate
    if all(type(v) is int for row in rows for v in row) and all(type(b) is int for b in rhs):
        found, expected = exact._parametrize(rows, rhs, n), affine_by_fraction_substitution(
            rows, rhs, n)
        assert (found is None) == (expected is None)
        if found is not None:
            particular, basis = read_out(*found)
            assert typed(particular) == typed(expected[0])
            assert [typed(col) for col in basis] == [typed(col) for col in expected[1]]
        assert [typed(c + (r,)) for c, r in new.rows] == [typed(c + (r,)) for c, r in old.rows]
    return new


@st.composite
def rational_systems(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=0, max_value=4))
    value = st.builds(F, st.integers(min_value=-3, max_value=3), st.integers(min_value=1,
                                                                             max_value=3))
    integral = draw(st.booleans())
    coeff = st.integers(min_value=-2, max_value=2) if integral else value
    rows = [[draw(coeff) for _ in range(n)] for _ in range(m)]
    rhs = [draw(st.integers(min_value=0, max_value=2) if integral else value)
           for _ in range(m)]
    return rows, rhs, n


@given(rational_systems())
@settings(max_examples=150, deadline=None)
def test_integer_pipeline_matches_the_fraction_path(case):
    assert_matches_fraction_path(*case)


@given(rational_systems())
@example(([[0, 1], [0, 1], [1, 0]], [0, 1, 0], 2))  # a swap decides which row is 0 = -1
@settings(max_examples=150, deadline=None)
def test_affine_solution_set_matches_the_fraction_rref(case):
    found, expected = affine_solution_set(*case), affine_by_rref(*case)
    if isinstance(expected[0], str):
        kind, mults, detail = expected
        assert (found.kind, found.detail) == (kind, detail)
        assert [typed(m) for m in found.multipliers] == [typed(m) for m in mults]
    else:
        assert typed(found.particular) == typed(expected[0])
        assert [typed(col) for col in found.basis] == [typed(col) for col in expected[1]]


@pytest.mark.parametrize("name", list(CATALOG) + sorted(PRODUCT_FACTORS))
def test_algebras_match_the_fraction_path(name):
    # the chains' rows carry the coefficient 2 (w(e) + w(e) = w(g))
    if name in CATALOG:
        ea = CATALOG[name]()
    else:
        ea = product_effect_algebra(*(make() for make in PRODUCT_FACTORS[name]))
    enum = assert_matches_fraction_path(*ea_system(ea))
    assert enum.feasible


def test_certificates_match_the_fraction_path():
    cases = {
        "equalities": ([[1, 1, 0], [0, 1, 1], [1, 2, 1]], [1, 1, 1], 3),
        "bound": ([[1, 0], [1, 1]], [2, 2], 2),
        "inequalities": ([[1, 1, 1]], [4], 3),
        "equalities, coefficient 2": ([[2, 0], [1, 0]], [1, 1], 2),
        "bound, coefficient 2": ([[2, 1], [0, 1]], [3, 0], 2),
        "inequalities, coefficient 2": ([[2, 2, 1]], [F(11, 2)], 3),
    }
    for name, (rows, rhs, n) in cases.items():
        enum = assert_matches_fraction_path(rows, rhs, n)
        assert not enum.feasible and enum.certificate.kind == name.split(",")[0]


@st.composite
def nonsingular_matrices(draw):
    d = draw(st.integers(min_value=1, max_value=5))
    rows = [[draw(st.integers(min_value=-3, max_value=3)) for _ in range(d)] for _ in range(d)]
    assume(integer_rank(rows) == d)
    return rows


@given(nonsingular_matrices())
@settings(max_examples=150, deadline=None)
def test_integer_seed_rays_match_the_fraction_rref(rows):
    rays = exact._simplicial_rays(rows)
    assert rays == simplicial_rays_by_rref(rows)
    assert all(type(x) is int for ray in rays for x in ray)


# ---------------------------------------------------------------------------
# The cone written from the integer expressions, lower bounds first, against
# the former route through sorted Fraction box rows.


@st.composite
def systems_with_twins(draw):
    """Random systems with repeated rows, scaled copies, coordinates fixed
    inside and outside [0, 1], and rows contradicting the row they repeat."""
    rows, rhs, n = draw(random_systems())
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        kind = draw(st.sampled_from(["twin", "multiple", "fixed", "contradiction"]))
        if kind == "fixed":
            j = draw(st.integers(min_value=0, max_value=n - 1))
            row, b = [int(i == j) for i in range(n)], draw(st.sampled_from([0, F(1, 2), 1, 2, -1]))
        elif not rows:
            continue
        else:
            k = draw(st.integers(min_value=0, max_value=len(rows) - 1))
            row, b = rows[k], rhs[k]
            if kind == "multiple":
                row, b = [-2 * v for v in row], -2 * b
            elif kind == "contradiction":
                b += 1
        at = draw(st.integers(min_value=0, max_value=len(rows)))
        rows, rhs = rows[:at] + [list(row)] + rows[at:], rhs[:at] + [b] + rhs[at:]
    return rows, rhs, n


@given(systems_with_twins())
@example(([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 0]], [1, 1, 1, 1], 3))  # a residual row
@example(([[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 0, -1]], [1, 1, 1, 1], 3))  # residual 0 = 1
@example(([[1, 1, 1], [1, 0, 0], [1, 1, 1]], [1, F(1, 2), 1], 3))  # fixed inside [0, 1]
@example(([[0, 1, 0], [1, 1, 1], [0, 1, 0]], [2, 1, 2], 3))  # fixed outside [0, 1]
@settings(max_examples=200, deadline=None)
def test_twins_residuals_and_fixed_coordinates_match_the_sorted_cone(case):
    assert_matches_fraction_path(*case)


# infeasible systems with repeated rows, and their certificates as the
# enumeration through the sorted Fraction box rows gave them
TWIN_CERTIFICATES = {
    "equalities": (([[1, 1, 0], [1, 1, 0], [0, 1, 1], [1, 2, 1], [0, 1, 1]], [1] * 5, 3), -1,
                   ((0, F(-1)), (2, F(-1)), (3, F(1))), "0 = -1"),
    "equalities, twin contradicted": (([[1, 1], [1, 1], [1, 1]], [1, 1, 2], 2), -1,
                                      ((0, F(-1)), (2, F(1))), "0 = 1"),
    "equalities, residual": (([[1, 1, 1, 0], [0, 1, 1, 1], [1, 1, 1, 0], [1, 0, 0, -1]],
                              [1] * 4, 4), -1, ((0, F(-1)), (1, F(1)), (3, F(1))), "0 = 1"),
    "bound": (([[1, 0], [1, 1], [1, 0]], [2, 2, 2], 2), 0, ((0, F(1)),), "coordinate 0"),
    "inequalities": (([[1, 1, 1], [1, 1, 1], [2, 2, 2]], [4, 4, 8], 3), 2,
                     ((0, F(1)), (3, F(1)), (4, F(1))), "0 <= -1"),
}


@pytest.mark.parametrize("name", list(TWIN_CERTIFICATES))
def test_certificates_of_repeated_rows_are_the_sorted_cones(name):
    system, dimension, multipliers, detail = TWIN_CERTIFICATES[name]
    enum = enumerate_box_vertices(*system)
    assert (enum.feasible, enum.dimension) == (False, dimension)
    cert = enum.certificate
    assert (cert.kind, cert.multipliers) == (name.split(",")[0], multipliers)
    assert detail in cert.detail
    assert [typed(m) for m in cert.multipliers] == [typed(m) for m in multipliers]
    assert_matches_fraction_path(*system)


def largest_ray_list(enumerate_vertices):
    """The enumeration's result and the most rays double description held at once."""
    largest = 0

    def watch(frame, event, arg):
        nonlocal largest
        largest = max(largest, len(frame.f_locals.get("rays", ())))
        return watch

    def calls(frame, event, arg):
        return watch if frame.f_code is exact._double_description.__code__ else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = enumerate_vertices()
    finally:
        sys.settrace(previous)
    return result, largest


WORK_CASES = {
    **{f"simplex({k})": (lambda k=k: ([[1] * k], [1], k)) for k in range(2, 17)},
    "2^6": lambda: ea_system(boolean_effect_algebra(6)),
    "MO2xMO2": lambda: ea_system(
        product_effect_algebra(mo2_effect_algebra(), mo2_effect_algebra())),
}


@pytest.mark.parametrize("name", list(WORK_CASES))
def test_the_ray_list_never_outgrows_the_vertex_list(name):
    # the lower bounds go in first, so the k-point simplex holds k rays at
    # most, where the upper bounds first would build the (k-1)-cube's
    # 2^(k-1); 2^6 and MO2 x MO2 peaked at 17 and 14 rays that way
    rows, rhs, n = WORK_CASES[name]()
    enum, largest = largest_ray_list(lambda: enumerate_box_vertices(rows, rhs, n))
    assert enum.feasible and largest == len(enum.vertices)
