"""Spectral machinery over the two concrete instances.

The load-bearing checks here keep two routes to the same object apart:
the step family from the library's carrier formula versus the step
family read straight off numpy's eigendecomposition, and the quadratic
map written through Jordan products versus a plain a @ b @ a.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import per_call_paths as per_call
from helpers import eig_step_family, resolution_failure_by_pairs, sym_norm
from synaptica.order_unit import PROJ_TOL, Element, FunctionSpace, SymmetricMatrixSpace
from synaptica.synaptic import (
    SpectralResolution,
    apply_polynomial,
    carrier,
    center,
    check_synaptic_morphism,
    commutant,
    decompose,
    double_commutant,
    in_span,
    inverse,
    is_effect,
    is_invertible,
    is_projection,
    jordan,
    proj_join,
    proj_meet,
    proper_effect_decomposition,
    quadratic,
    simple_form,
    spectral_resolution,
    spectrum,
    sqrt,
    step_projection,
    stieltjes_reconstruct,
    supremum_of_ascending_chain,
)
from synaptica.order_unit import RANK_RTOL
from synaptica.synaptic import (
    RESOLUTION_TOL,
    _running_sums,
    _step_stack,
    _verify_resolution,
    spectra,
)


@pytest.fixture
def sym3():
    return SymmetricMatrixSpace(3)


@pytest.fixture
def sym5():
    return SymmetricMatrixSpace(5)


@pytest.fixture
def fn4():
    return FunctionSpace(("a", "b", "c", "d"))


def diag(space, *entries):
    return space.element(np.diag(np.array(entries, dtype=float)))


# ---------------------------------------------------------------------------
# Frozen small cases


def test_absolute_value_of_diag_1_minus_2():
    space = SymmetricMatrixSpace(2)
    a = diag(space, 1.0, -2.0)
    absolute, plus, minus = decompose(a)
    assert np.allclose(absolute.payload, np.diag([1.0, 2.0]), atol=1e-12)
    assert np.allclose(plus.payload, np.diag([1.0, 0.0]), atol=1e-12)
    assert np.allclose(minus.payload, np.diag([0.0, 2.0]), atol=1e-12)
    assert spectrum(a) == (-2.0, 1.0)


def test_decompose_identity(sym3):
    rng = np.random.default_rng(31)
    for _ in range(25):
        a = sym3.random_element(rng)
        absolute, plus, minus = decompose(a)
        assert sym_norm((plus - minus).payload - a.payload) <= 1e-9
        assert sym_norm((plus + minus).payload - absolute.payload) <= 1e-9
        # the parts are positive and annihilate each other
        assert sym3.contains_positive(plus)
        assert sym3.contains_positive(minus)
        assert np.max(np.abs(sym3.product(plus, minus))) <= 1e-8 * max(1.0, a.norm() ** 2)


def test_sqrt_of_square_is_absolute_value(sym3):
    rng = np.random.default_rng(5)
    for _ in range(10):
        a = sym3.random_element(rng)
        absolute, _, _ = decompose(a)
        root = sqrt(jordan(a, a))
        assert sym_norm(root.payload - absolute.payload) <= 1e-8

    with pytest.raises(ValueError, match="positive cone"):
        sqrt(diag(sym3, 1.0, -1.0, 0.0))


def test_quadratic_matches_direct_sandwich(sym3):
    # quadratic() is assembled from Jordan products only; the oracle is
    # the associative sandwich itself.
    rng = np.random.default_rng(17)
    for _ in range(30):
        a = sym3.random_element(rng)
        b = sym3.random_element(rng)
        direct = a.payload @ b.payload @ a.payload
        assert sym_norm(quadratic(a, b).payload - direct) <= 1e-9 * max(1.0, a.norm() ** 2 * b.norm())


def test_jordan_is_commutative_not_associative(sym3):
    a = sym3.element(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    b = diag(sym3, 1.0, 2.0, 3.0)
    c = sym3.element(np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]))
    assert np.allclose(jordan(a, b).payload, jordan(b, a).payload)
    lhs = jordan(jordan(a, b), c)
    rhs = jordan(a, jordan(b, c))
    assert sym_norm(lhs.payload - rhs.payload) > 1e-3


# ---------------------------------------------------------------------------
# Carrier


def test_carrier_frozen_and_law(sym3):
    a = diag(sym3, 2.0, 0.0, -1.0)
    c = carrier(a)
    assert np.allclose(c.payload, np.diag([1.0, 0.0, 1.0]), atol=1e-12)
    assert is_projection(c)
    assert sym_norm(sym3.product(c, a) - a.payload) <= 1e-12


def test_carrier_is_smallest(sym3):
    # any projection q with qa = a must dominate the carrier
    rng = np.random.default_rng(41)
    for _ in range(20):
        p = sym3.random_projection(rng)
        x = sym3.random_element(rng)
        a = quadratic(p, jordan(x, x))  # positive, supported inside p
        c = carrier(a)
        assert sym_norm(sym3.product(c, a) - a.payload) <= 1e-8 * max(1.0, a.norm())
        assert np.min(np.linalg.eigvalsh(p.payload - c.payload)) >= -1e-8


def test_carrier_on_functions(fn4):
    a = fn4.element(np.array([0.0, -2.0, 0.0, 5.0]))
    assert carrier(a).payload.tolist() == [0.0, 1.0, 0.0, 1.0]


# ---------------------------------------------------------------------------
# Spectral resolutions


def test_resolution_on_frozen_diagonal(sym3):
    a = diag(sym3, 1.0, 1.0, 4.0)
    res = spectral_resolution(a)
    assert res.eigenvalues == (1.0, 4.0)
    assert res.lower == 1.0 and res.upper == 4.0
    assert np.allclose(res.projections[0].payload, np.diag([1.0, 1.0, 0.0]))
    assert np.allclose(res.projections[1].payload, np.diag([0.0, 0.0, 1.0]))
    assert sym_norm(res.reconstruct().payload - a.payload) <= 1e-12


def test_step_family_two_routes(sym5):
    # library route: 1 - carrier((a - lam)^+). oracle route: collect the
    # eigenvectors below lam. the two must agree away from eigenvalues,
    # and at them.
    rng = np.random.default_rng(101)
    for _ in range(20):
        a = sym5.random_element(rng)
        vals = np.linalg.eigvalsh(a.payload)
        probes = list(vals) + [
            (x + y) / 2.0 for x, y in zip(vals, vals[1:]) if y - x > 1e-6
        ] + [vals[0] - 1.0, vals[-1] + 1.0]
        for lam in probes:
            lhs = step_projection(a, lam).payload
            rhs = eig_step_family(a.payload, lam)
            assert sym_norm(lhs - rhs) <= 1e-8


def test_resolution_verify_catches_forged_family(sym3):
    a = diag(sym3, 1.0, 2.0, 3.0)
    good = spectral_resolution(a)
    bad = SpectralResolution(a, good.eigenvalues, tuple(reversed(good.projections)))

    with pytest.raises(AssertionError):
        _verify_resolution(bad)


def test_resolution_rejects_unreadable_data_when_made(sym3):
    space = FunctionSpace("abc")
    f = space.element([1.0, 2.0, 3.0])
    res = spectral_resolution(f)
    values, projections = res.eigenvalues, res.projections
    other = spectral_resolution(FunctionSpace("abc").element([1.0, 2.0, 3.0])).projections
    for args, message in (
        ((values[:2], projections), "resolution has 2 eigenvalues but 3 projections"),
        ((values, projections[1:]), "resolution has 3 eigenvalues but 2 projections"),
        (((), ()), "resolution has no eigenvalues"),
        ((values, projections[:2] + other[2:]),
         "resolution projection 2 is not in its element's space"),
        ((values, spectral_resolution(diag(sym3, 1.0, 2.0, 3.0)).projections),
         "resolution projection 0 is not in its element's space"),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            SpectralResolution(f, *args)
    # the order of the values is not checked: forged resolutions are made on purpose
    assert SpectralResolution(f, values[::-1], projections).upper == 1.0


def resolution_outcome(res):
    try:
        _verify_resolution(res)
    except AssertionError as exc:
        return str(exc)
    return None


def assert_pairs_checked_as_the_loop(res):
    allowed = RESOLUTION_TOL * max(1.0, res.element.norm())
    expected = resolution_failure_by_pairs([p.payload for p in res.projections], allowed)
    found = resolution_outcome(res)
    if expected is None:
        assert found is None or "projection" not in found
    else:
        assert found == expected


@st.composite
def forged_resolutions(draw):
    """The resolution of a random element, its members perturbed, scaled,
    repeated or swapped for one another, on either space."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    if draw(st.booleans()):
        n = draw(st.integers(min_value=1, max_value=5))
        space = SymmetricMatrixSpace(n)
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        a = space.element((u * rng.integers(-2, 3, n)) @ u.T)
    else:
        n = draw(st.integers(min_value=1, max_value=6))
        space = FunctionSpace([f"x{i}" for i in range(n)])
        a = space.element(rng.integers(-2, 3, n).astype(float))
    res = spectral_resolution(a)
    members = [p.payload for p in res.projections]
    for i in range(len(members)):
        edit = draw(st.sampled_from(("keep", "keep", "noise", "scale", "copy")))
        if edit == "noise":
            size = draw(st.sampled_from((1e-12, 1e-8, 1e-3)))
            noise = rng.standard_normal(members[i].shape) * size
            members[i] = members[i] + (noise + noise.T) / 2.0
        elif edit == "scale":
            members[i] = members[i] * draw(st.sampled_from((1.0 + 1e-6, 1.5)))
        elif edit == "copy":
            members[i] = members[draw(st.integers(min_value=0, max_value=len(members) - 1))]
    return SpectralResolution(a, res.eigenvalues, tuple(Element(space, m) for m in members))


@given(forged_resolutions())
@settings(max_examples=120, deadline=None)
def test_stacked_resolution_check_names_the_loops_first_witness(res):
    assert_pairs_checked_as_the_loop(res)


def test_stacked_spectra_are_each_elements_spectrum(sym5, fn4):
    rng = np.random.default_rng(141)
    u = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    for space, stack in (
        (sym5, np.stack([(u * rng.integers(-2, 3, 5)) @ u.T for _ in range(6)]
                        + [sym5.random_element(rng).payload for _ in range(3)])),
        (fn4, rng.integers(-2, 3, (6, 4)).astype(float)),
    ):
        assert spectra(space, stack) == [spectrum(Element(space, x)) for x in stack]
        # eigenvalues the caller already holds stand in for the eigh
        assert spectra(space, stack, space.eigh(stack)[0]) == spectra(space, stack)


def test_planted_resolution_failures_are_named(sym3, fn4):
    a = diag(sym3, 1.0, 2.0, 3.0)
    p1, p2, p3 = spectral_resolution(a).projections
    overlap = p2 + p3  # a projection, but not orthogonal to p3
    for members, message in (
        ((p1, p2 * 1.5, p3), "resolution member 1 is not a projection"),
        ((p1, overlap, p3), "resolution projections are not orthogonal"),
        ((p1, overlap, p3 * 1.5), "resolution projections are not orthogonal"),
    ):
        res = SpectralResolution(a, (1.0, 2.0, 3.0), members)
        assert resolution_outcome(res) == message
        assert_pairs_checked_as_the_loop(res)
    f = fn4.element([0.0, 1.0, 1.0, 2.0])
    q0, q1, q2 = spectral_resolution(f).projections
    res = SpectralResolution(f, (0.0, 1.0, 2.0), (q0, q1 + q2, q2))
    assert resolution_outcome(res) == "resolution projections are not orthogonal"


def test_resolution_check_holds_at_most_k_products():
    # 300 distinct values: all k^2 products at once would be 216 MB, one
    # row of at most k products is 0.72 MB, and the step cross-check's
    # stacks of 2k - 1 payloads come to about 13 MB
    k = 300
    space = FunctionSpace([f"p{i}" for i in range(k)])
    a = space.element(np.arange(k, dtype=float))
    res = spectral_resolution(a, verify=False)
    tracemalloc.start()
    try:
        _verify_resolution(res)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 32 * k * a.payload.nbytes


def test_batched_step_check_names_the_first_failing_point(sym3):
    # values out of order: projections, sum and reconstruction all hold,
    # but step(1) stops at the leading 2 and misses the projection at 1
    a = diag(sym3, 1.0, 2.0, 3.0)
    p1, p2, p3 = spectral_resolution(a).projections
    bad = SpectralResolution(a, (2.0, 1.0, 3.0), (p2, p1, p3))
    with pytest.raises(AssertionError, match="carrier formula at 1.0$"):
        _verify_resolution(bad)


def test_step_stack_is_the_single_point_formula_bit_for_bit(sym5, fn4):
    # the former one-point path, decompose then carrier, is the oracle
    rng = np.random.default_rng(202)
    u = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    elements = [sym5.random_element(rng) for _ in range(4)]
    elements += [sym5.element((u * rng.integers(-2, 3, 5).astype(float)) @ u.T) for _ in range(4)]
    elements += [fn4.element(rng.integers(-2, 3, 4) / 2.0) for _ in range(4)]
    for a in elements:
        vals = spectrum(a)
        lams = list(vals) + [(x + y) / 2.0 for x, y in zip(vals, vals[1:])]
        lams += [vals[0] - 1.0, vals[-1] + 1.0]
        stack = _step_stack(a, lams)
        assert stack.shape == (len(lams),) + a.payload.shape
        for lam, step in zip(lams, stack):
            assert np.array_equal(step, per_call.step_one(a.payload, lam))
            assert np.array_equal(step, step_projection(a, lam).payload)


def calculus_samples():
    """Elements of Sym(1..5) and of R^1..R^6: random, and with repeated eigenvalues."""
    rng = np.random.default_rng(2121)
    out = []
    for n in (1, 2, 3, 5):
        space = SymmetricMatrixSpace(n)
        u = np.linalg.qr(rng.standard_normal((n, n)))[0]
        out += [space.random_element(rng) for _ in range(3)]
        out += [space.element((u * rng.integers(-2, 3, n).astype(float)) @ u.T) for _ in range(3)]
    for k in (1, 3, 6):
        space = FunctionSpace([f"x{i}" for i in range(k)])
        out += [space.random_element(rng)]
        out += [space.element(rng.integers(-2, 3, k) / 2.0) for _ in range(3)]
    return out


def test_decompose_carrier_and_spectrum_are_the_per_call_bodies_bit_for_bit():
    # a resolution answers from the eigendecomposition it was built from,
    # and one built by hand, which has none, from a fresh one
    for a in calculus_samples():
        res = spectral_resolution(a)
        bare = SpectralResolution(a, res.eigenvalues, res.projections)
        assert res.eigen is not None and bare.eigen is None
        for parts in (decompose(a), res.decompose(), bare.decompose()):
            for x, y in zip(parts, per_call.decompose_one(a.payload)):
                assert np.array_equal(x.payload, y)
        for c in (carrier(a), res.carrier(), bare.carrier()):
            assert np.array_equal(c.payload, per_call.carrier_one(a.payload))
        assert spectrum(a) == per_call.spectrum_one(a.payload)


def assert_sums_are_the_loops(res):
    """step, reconstruct and the running sums of res against the loops, bit for bit."""
    values = res.eigenvalues
    members = [p.payload for p in res.projections]
    lams = sorted(values) + [(x + y) / 2.0 for x, y in zip(values, values[1:])]
    lams += [min(values) - 1.0, max(values) + 1.0, float("nan")]
    for lam in lams:
        assert np.array_equal(res.step(lam).payload, per_call.step_by_loop(values, members, lam))
    assert np.array_equal(res.reconstruct().payload, per_call.reconstruct_by_loop(values, members))
    total, running = per_call.resolution_sums_by_loop(members)
    assert np.array_equal(_running_sums(np.stack(members)), running)
    assert np.array_equal(_running_sums(members)[-1], total)
    assert np.array_equal(_running_sums(np.stack(members), values)[-1],
                          per_call.reconstruct_by_loop(values, members))


def test_sums_in_order_are_the_per_call_loops_bit_for_bit():
    for a in calculus_samples():
        res = spectral_resolution(a)
        values, members = res.eigenvalues, [p.payload for p in res.projections]
        assert_sums_are_the_loops(res)
        for mesh in (0.5, 1e-3):
            assert np.array_equal(stieltjes_reconstruct(a, mesh).payload,
                                  per_call.stieltjes_by_loop(values, members, mesh))
        partition = [values[0] - 1.0] + [v + 0.25 for v in values]
        assert np.array_equal(stieltjes_reconstruct(a, 1.0, partition=partition).payload,
                              per_call.stieltjes_by_loop(values, members, 1.0, partition))
        for f in (lambda t: t * t - 3.0 * t, lambda t: -1, np.exp):
            assert np.array_equal(apply_polynomial(a, f).payload,
                                  per_call.polynomial_by_loop(values, members, f))
        total, result = per_call.simple_form_by_loop(values, members)
        assert np.array_equal(simple_form(a.space, values, res.projections).payload, result)
        assert np.array_equal(_running_sums(members)[-1], total)


def test_sums_on_forged_out_of_order_resolutions_are_the_loops(sym3, fn4):
    a = diag(sym3, 1.0, 2.0, 3.0)
    p1, p2, p3 = spectral_resolution(a).projections
    assert_sums_are_the_loops(SpectralResolution(a, (2.0, 1.0, 3.0), (p2, p1, p3)))
    assert_sums_are_the_loops(SpectralResolution(a, (3.0, -1.0, 0.5), (p1, p2, p3)))
    f = fn4.element([0.0, 1.0, 1.0, 2.0])
    q0, q1, q2 = spectral_resolution(f).projections
    assert_sums_are_the_loops(SpectralResolution(f, (1.0, 0.0, 2.0), (q1, q0, q2)))


@given(forged_resolutions())
@settings(max_examples=60, deadline=None)
def test_sums_on_forged_resolutions_are_the_loops(res):
    assert_sums_are_the_loops(res)


def test_spectrum_is_the_resolutions_values(sym5, fn4):
    rng = np.random.default_rng(203)
    u = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    for a in (sym5.random_element(rng), sym5.element((u * [1.0, 1.0, 2.0, 2.0, 2.0]) @ u.T),
              fn4.element(np.array([3.0, 1.0, 3.0, 1.0]))):
        assert spectrum(a) == spectral_resolution(a, verify=False).eigenvalues


def test_stieltjes_mesh_bound(sym3):
    rng = np.random.default_rng(53)
    for mesh in (0.5, 0.1, 1e-3):
        for _ in range(5):
            a = sym3.random_element(rng)
            approx = stieltjes_reconstruct(a, mesh)
            assert sym_norm(approx.payload - a.payload) <= mesh + 1e-12


def test_stieltjes_bound_counts_the_merged_eigenvalues(sym3):
    # 1e6 and 1e6 + 5e-3 lie within RANK_RTOL * 1e6 = 1e-2 of each other, so
    # they merge into one value halfway between: off by 2.5e-3, past the mesh
    space = SymmetricMatrixSpace(2)
    a = space.element(np.diag([1e6, 1e6 + 5e-3]))
    mesh = 1e-3
    gap = sym_norm(stieltjes_reconstruct(a, mesh).payload - a.payload)
    assert mesh < gap <= mesh + (2 - 1) * RANK_RTOL * max(1.0, a.norm())
    assert abs(gap - 2.5e-3) <= 1e-9
    rng = np.random.default_rng(54)
    u = np.linalg.qr(rng.standard_normal((3, 3)))[0]
    for spread in (0.0, 1e-9, 2e-9, 3e-8):
        a = sym3.element((u * [-4.0, 7.0, 7.0 + spread]) @ u.T)
        for mesh in (0.5, 1e-3):
            gap = sym_norm(stieltjes_reconstruct(a, mesh).payload - a.payload)
            assert gap <= mesh + (3 - 1) * RANK_RTOL * max(1.0, a.norm()) + 1e-12


def test_stieltjes_exact_partition(sym3):
    a = diag(sym3, -1.0, 0.5, 2.0)
    # partition points that land on the eigenvalues reproduce a exactly
    approx = stieltjes_reconstruct(a, 10.0, partition=[-1.5, -1.0, 0.5, 2.0])
    assert sym_norm(approx.payload - a.payload) <= 1e-12


def test_stieltjes_rejects_bad_partitions(sym3):
    a = diag(sym3, -1.0, 0.5, 2.0)
    with pytest.raises(ValueError, match="positive"):
        stieltjes_reconstruct(a, 0.0)
    with pytest.raises(ValueError, match="increasing"):
        stieltjes_reconstruct(a, 1.0, partition=[-2.0, 1.0, 1.0, 3.0])
    with pytest.raises(ValueError, match="cover"):
        stieltjes_reconstruct(a, 1.0, partition=[-0.5, 1.0, 3.0])


def test_function_instance_is_exact(fn4):
    a = fn4.element(np.array([0.25, 0.25, -1.0, 3.0]))
    res = spectral_resolution(a)
    assert res.eigenvalues == (-1.0, 0.25, 3.0)
    assert res.projections[1].payload.tolist() == [1.0, 1.0, 0.0, 0.0]
    assert np.array_equal(res.reconstruct().payload, a.payload)
    assert carrier(a).payload.tolist() == [1.0, 1.0, 1.0, 1.0]


def test_apply_polynomial(sym3):
    a = diag(sym3, 1.0, 2.0, 3.0)
    sq = apply_polynomial(a, lambda t: t * t)
    assert np.allclose(sq.payload, np.diag([1.0, 4.0, 9.0]))


# ---------------------------------------------------------------------------
# Invertibility


def test_invertibility_borderline(sym3):
    assert is_invertible(diag(sym3, 1.0, 2.0, 3.0))
    assert not is_invertible(diag(sym3, 1.0, 2.0, 0.0))
    # below the relative rank threshold counts as singular
    assert not is_invertible(diag(sym3, 1.0, 1.0, 1e-12))
    a = diag(sym3, 1.0, 2.0, 4.0)
    assert sym_norm(sym3.product(inverse(a), a) - np.eye(3)) <= 1e-12
    with pytest.raises(ValueError, match="invertible"):
        inverse(diag(sym3, 1.0, 0.0, 1.0))


# ---------------------------------------------------------------------------
# Commutants


def test_commutant_dimensions_frozen(sym5):
    a = diag(sym5, 1.0, 2.0, 3.0, 4.0, 5.0)
    assert len(commutant(sym5, [a])) == 5
    assert len(commutant(sym5, [])) == 15
    assert len(center(sym5)) == 1
    assert len(double_commutant(sym5, [a])) == 5


def test_commutant_members_commute(sym5):
    rng = np.random.default_rng(71)
    g = sym5.random_element(rng)
    for x in commutant(sym5, [g]):
        assert sym5.commutes(x, g)


def test_commutant_of_functions(fn4):
    assert len(commutant(fn4, [fn4.element(np.array([1.0, 2.0, 3.0, 4.0]))])) == 4


def test_in_span(sym3):
    basis = [sym3.unit(), diag(sym3, 1.0, 2.0, 3.0)]
    assert in_span(basis, diag(sym3, 0.0, 1.0, 2.0))
    assert not in_span(basis, sym3.element(np.eye(3)[::-1].copy() + np.eye(3)[::-1].T.copy()))
    assert in_span([], sym3.zero_element())


def full_in_span_rule(basis, a, tol=1e-8) -> bool:
    mat = np.stack([b.payload.ravel() for b in basis], axis=1)
    coeffs = np.linalg.lstsq(mat, a.payload.ravel(), rcond=None)[0]
    residual = np.max(np.abs(mat @ coeffs - a.payload.ravel()))
    return bool(residual <= tol * max(1.0, sym_norm(a.payload)))


def test_in_span_gives_the_full_rules_verdict(sym3):
    rng = np.random.default_rng(17)
    basis = [sym3.unit(), diag(sym3, 1.0, 2.0, 3.0), diag(sym3, 0.0, 0.0, 1.0)]
    for _ in range(30):
        inside = sum((b * float(c) for b, c in zip(basis, rng.uniform(-5, 5, 3))),
                     sym3.zero_element())
        for a in (inside, sym3.random_element(rng), inside + 1e-7 * sym3.random_element(rng)):
            assert in_span(basis, a) is full_in_span_rule(basis, a)


def test_in_span_borderline_needs_the_norm(monkeypatch):
    # diag(s, 0) + eps [[0, 1], [1, 0]] against span{diag(1, 0)}: the
    # residual eps is above tol, against the allowance tol * ||a|| ~ tol * s
    space = SymmetricMatrixSpace(2)
    basis = [space.element(np.diag([1.0, 0.0]))]
    for eps, verdict in ((5e-5, True), (2e-4, False)):
        a = space.element(np.array([[1e4, eps], [eps, 0.0]]))
        assert full_in_span_rule(basis, a) is verdict
        calls = count_eigvalsh(monkeypatch)
        assert in_span(basis, a) is verdict
        assert len(calls) == 1
    calls = count_eigvalsh(monkeypatch)
    assert in_span(basis, space.element(np.diag([7.0, 0.0])))
    assert calls == []


# ---------------------------------------------------------------------------
# Projection lattice


def test_proj_meet_join_properties(sym5):
    rng = np.random.default_rng(13)
    one = sym5.unit()
    for _ in range(25):
        p = sym5.random_projection(rng)
        q = sym5.random_projection(rng)
        m = proj_meet(p, q)
        j = proj_join(p, q)
        assert is_projection(m) and is_projection(j)
        # meet below both, join above both
        for r in (p, q):
            assert np.min(np.linalg.eigvalsh(r.payload - m.payload)) >= -1e-8
            assert np.min(np.linalg.eigvalsh(j.payload - r.payload)) >= -1e-8
        # De Morgan against the complement
        dual = one - proj_join(one - p, one - q)
        assert sym_norm(m.payload - dual.payload) <= 1e-8


def test_proj_meet_frozen_nontrivial():
    # two rank-1 projections in Sym(2) at an angle meet at zero
    space = SymmetricMatrixSpace(2)
    p = space.element(np.array([[1.0, 0.0], [0.0, 0.0]]))
    v = np.array([[1.0], [1.0]]) / np.sqrt(2.0)
    q = space.element(v @ v.T)
    assert sym_norm(proj_meet(p, q).payload) <= 1e-12
    assert sym_norm(proj_join(p, q).payload - np.eye(2)) <= 1e-12


def test_proj_meet_rejects_non_projections(sym3):
    with pytest.raises(ValueError, match="projection"):
        proj_meet(diag(sym3, 0.5, 0.0, 0.0), sym3.unit())


def test_proj_meet_exact_on_functions(fn4):
    p = fn4.indicator(["a", "b"])
    q = fn4.indicator(["b", "c"])
    assert proj_meet(p, q).payload.tolist() == [0.0, 1.0, 0.0, 0.0]
    assert proj_join(p, q).payload.tolist() == [1.0, 1.0, 1.0, 0.0]


def test_proj_join_rejects_elements_of_different_spaces(sym3, fn4):
    other = SymmetricMatrixSpace(3)
    for p, q in ((sym3.unit(), other.unit()), (fn4.unit(), sym3.unit())):
        for op in (proj_meet, proj_join):
            with pytest.raises(ValueError, match="elements live in different spaces"):
                op(p, q)


def count_eigvalsh(monkeypatch) -> list:
    calls = []
    original = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def test_proj_meet_on_projections_needs_no_eigenvalues(monkeypatch):
    space = SymmetricMatrixSpace(8)
    rng = np.random.default_rng(21)
    pairs = [(space.random_projection(rng), space.random_projection(rng)) for _ in range(20)]
    calls = count_eigvalsh(monkeypatch)
    for p, q in pairs:
        proj_meet(p, q)
        proj_join(p, q)
    # the residual ||p^2 - p|| alone decides every genuine projection
    assert calls == []


def test_projection_verdict_past_the_bare_tolerance(monkeypatch):
    # c P for the projection P onto the uniform vector of R^128: the
    # residual c (c - 1) / 128 sits just above PROJ_TOL but, for the first
    # c, within PROJ_TOL * ||c P|| = PROJ_TOL * c, so only the norm accepts it
    space = SymmetricMatrixSpace(128)
    uniform = np.full((128, 128), 1.0 / 128.0)
    inside = space.element((1.0 + 128e-9 - 1e-14) * uniform)
    outside = space.element((1.0 + 128e-9 + 1e-12) * uniform)
    for a, verdict in ((inside, True), (outside, False)):
        residual = np.max(np.abs(a.payload @ a.payload - a.payload))
        assert residual > PROJ_TOL
        assert bool(residual <= PROJ_TOL * a.norm()) is verdict
        calls = count_eigvalsh(monkeypatch)
        assert is_projection(a) is verdict
        assert len(calls) == 1


# ---------------------------------------------------------------------------
# Simple elements


def test_simple_form_assembles_and_validates(sym3):
    p0 = diag(sym3, 1.0, 0.0, 0.0)
    p1 = diag(sym3, 0.0, 1.0, 1.0)
    a = simple_form(sym3, [2.0, 5.0], [p0, p1])
    assert np.allclose(a.payload, np.diag([2.0, 5.0, 5.0]))
    with pytest.raises(ValueError, match="increasing"):
        simple_form(sym3, [5.0, 2.0], [p0, p1])
    with pytest.raises(ValueError, match="identity"):
        simple_form(sym3, [2.0, 5.0], [p0, diag(sym3, 0.0, 1.0, 0.0)])
    with pytest.raises(ValueError, match="one coefficient per projection"):
        simple_form(sym3, [2.0], [p0, p1])


# ---------------------------------------------------------------------------
# Effects


def test_projections_admit_no_proper_split(sym3):
    rng = np.random.default_rng(97)
    for _ in range(10):
        p = sym3.random_projection(rng)
        assert proper_effect_decomposition(p) is None
    e = diag(sym3, 0.5, 1.0, 0.0)
    split = proper_effect_decomposition(e)
    assert split is not None
    x, y = split
    assert is_effect(x) and is_effect(y)
    assert sym_norm(0.5 * (x + y).payload - e.payload) <= 1e-12
    assert sym_norm(x.payload - y.payload) > 1e-6
    with pytest.raises(ValueError, match="effect"):
        proper_effect_decomposition(diag(sym3, 2.0, 0.0, 0.0))


def test_ascending_chain_supremum(sym3):
    p = diag(sym3, 1.0, 0.0, 0.0)
    q = diag(sym3, 1.0, 1.0, 0.0)
    assert supremum_of_ascending_chain([p, q, q]) is q
    with pytest.raises(ValueError, match="ascending"):
        supremum_of_ascending_chain([q, p])
    with pytest.raises(ValueError, match="stabilized"):
        supremum_of_ascending_chain([p, q])
    with pytest.raises(ValueError, match="nonempty"):
        supremum_of_ascending_chain([])


# ---------------------------------------------------------------------------
# Morphisms


def test_conjugation_is_a_morphism(sym3):
    rng = np.random.default_rng(3)
    m = rng.normal(size=(3, 3))
    o, _ = np.linalg.qr(m)

    def phi(a):
        return Element(a.space, o @ a.payload @ o.T)

    samples = [sym3.random_element(rng) for _ in range(6)]
    report = check_synaptic_morphism(phi, sym3, sym3, samples)
    assert report.passed and report.violation is None


def test_shift_is_not_a_morphism(sym3):
    def phi(a):
        return a + a.space.unit()

    report = check_synaptic_morphism(phi, sym3, sym3, [sym3.unit()])
    assert not report.passed
    assert "unit" in report.violation
