import numpy as np
import pytest

from helpers import sym_norm
from synaptica.order_unit import (
    Element,
    FunctionSpace,
    SymmetricMatrixSpace,
    allclose,
    extend_effect_morphism,
    in_unit_interval,
    positive_decomposition,
)


@pytest.fixture
def sym4():
    return SymmetricMatrixSpace(4)


@pytest.fixture
def fn3():
    return FunctionSpace(("x", "y", "z"))


def test_norm_is_the_spectral_radius(sym4):
    rng = np.random.default_rng(11)
    for _ in range(25):
        a = sym4.random_element(rng)
        assert abs(a.norm() - sym_norm(a.payload)) <= 1e-12


def test_norm_on_functions(fn3):
    a = fn3.element(np.array([3.0, -5.0, 1.0]))
    assert a.norm() == 5.0


def test_positive_cone(sym4, fn3):
    assert sym4.contains_positive(sym4.unit())
    assert not sym4.contains_positive(sym4.unit() * -1.0)
    assert fn3.contains_positive(fn3.element(np.array([0.0, 1.0, 2.0])))
    assert not fn3.contains_positive(fn3.element(np.array([0.0, -1e-6, 2.0])))


def test_unit_interval(sym4):
    rng = np.random.default_rng(7)
    for _ in range(10):
        e = sym4.random_effect(rng)
        assert in_unit_interval(e)
        assert in_unit_interval(sym4.unit() - e)
    assert not in_unit_interval(sym4.unit() * 1.5)
    assert not in_unit_interval(sym4.unit() * -0.5)


def test_positive_decomposition_properties(sym4):
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = sym4.random_element(rng)
        b, c = positive_decomposition(a)
        # b is an integer multiple of the unit dominating a; c makes up the difference
        assert sym4.contains_positive(c)
        assert allclose(a, b - c)
        assert sym4.contains_positive(b - a)


def test_element_is_immutable(sym4):
    a = sym4.unit()
    with pytest.raises(AttributeError):
        a.payload = np.zeros((4, 4))
    with pytest.raises(ValueError):
        a.payload[0, 0] = 5.0


def test_cross_space_arithmetic_is_rejected(sym4):
    other = SymmetricMatrixSpace(4)
    with pytest.raises(TypeError):
        sym4.unit() + other.unit()


def test_asymmetric_input_is_rejected(sym4):
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        sym4.element(bad)
    # tiny drift is symmetrized silently
    nearly = np.eye(4)
    nearly[0, 1] = 1e-12
    a = sym4.element(nearly)
    assert np.array_equal(a.payload, a.payload.T)


@pytest.mark.filterwarnings("error")
def test_symmetrising_does_not_overflow():
    space = SymmetricMatrixSpace(2)
    huge = np.full((2, 2), 1e308)
    assert np.array_equal(space.element(huge).payload, huge)
    with pytest.raises(ValueError, match=r"asymmetry 1\.700e\+308"):
        space.element(np.array([[0.0, 1.7e308], [-1.7e308, 0.0]]))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_elements_reject_non_finite_entries(bad):
    m = np.eye(2)
    m[0, 1] = bad
    with pytest.raises(ValueError, match="non-finite entry"):
        SymmetricMatrixSpace(2).element(m)
    m[1, 0] = bad  # symmetric, still not a matrix of reals
    with pytest.raises(ValueError, match="non-finite entry"):
        SymmetricMatrixSpace(2).element(m)
    with pytest.raises(ValueError, match="non-finite entry"):
        FunctionSpace(("x", "y")).element([1.0, bad])


def test_symmetrising_rounds_like_the_plain_mean(sym4):
    rng = np.random.default_rng(5)
    for scale in (1e-300, 1e-8, 1.0, 1e12, 1e300):
        s = rng.standard_normal((4, 4)) * scale
        m = s + s.T + 1e-11 * rng.standard_normal((4, 4))   # inside the asymmetry allowance
        assert np.array_equal(sym4.element(m).payload, (m + m.T) / 2.0)


def test_extension_is_linear_and_restricts(sym4):
    rng = np.random.default_rng(3)
    d = rng.random(4)
    d /= d.sum()
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    dm = q @ np.diag(d) @ q.T

    omega = lambda e: float(np.trace(dm @ e.payload))
    xi = extend_effect_morphism(omega, sym4, target_unit=1.0)

    for _ in range(50):
        a, b = sym4.random_element(rng), sym4.random_element(rng)
        s, t = rng.uniform(-3, 3, size=2)
        assert abs(xi(a * float(s) + b * float(t)) - (s * xi(a) + t * xi(b))) <= 1e-9
    for _ in range(20):
        e = sym4.random_effect(rng)
        assert abs(xi(e) - omega(e)) <= 1e-10
    assert abs(xi(sym4.unit()) - 1.0) <= 1e-12


def test_extension_vector_valued(fn3):
    # an algebra morphism into a smaller function space extends linearly
    target = FunctionSpace(("p",))
    omega = lambda e: target.element(np.array([e.payload[1]]))
    xi = extend_effect_morphism(omega, fn3, target_unit=target.unit())
    a = fn3.element(np.array([4.0, -2.5, 0.0]))
    out = xi(a)
    assert abs(out.payload[0] - (-2.5)) <= 1e-12


def test_extension_rejects_non_additive_maps(sym4):
    squared = lambda e: float(np.trace(e.payload @ e.payload))
    with pytest.raises(ValueError, match="additivity"):
        extend_effect_morphism(squared, sym4, target_unit=squared(sym4.unit()))


def test_extension_rejects_unit_violation(sym4):
    half = lambda e: 0.5 * float(np.trace(e.payload)) / 4.0
    with pytest.raises(ValueError, match="unit"):
        extend_effect_morphism(half, sym4, target_unit=1.0)


def test_function_space_products(fn3):
    a = fn3.element(np.array([1.0, 2.0, 3.0]))
    b = fn3.element(np.array([2.0, 0.0, -1.0]))
    # product() hands back the raw array: it is the ambient associative
    # product, which in a matrix space may leave the symmetric subspace.
    assert np.array_equal(fn3.product(a, b), np.array([2.0, 0.0, -3.0]))
    assert fn3.commutes(a, b)


def test_indicator(fn3):
    e = fn3.indicator(["x", "z"])
    assert e.payload.tolist() == [1.0, 0.0, 1.0]
    assert fn3.indicator([]).payload.tolist() == [0.0, 0.0, 0.0]


# ---------------------------------------------------------------------------
# The stack-aware part of the protocol: eigh, assemble, rank_tol, norm_of


def _matrix_stack(rng, n, shape):
    """Symmetric matrices, half of them with repeated eigenvalues."""
    space = SymmetricMatrixSpace(n)
    out = []
    for i in range(int(np.prod(shape))):
        if i % 2:
            u = np.linalg.qr(rng.standard_normal((n, n)))[0]
            out.append(space.element((u * rng.integers(-2, 3, n).astype(float)) @ u.T).payload)
        else:
            out.append(space.random_element(rng).payload)
    return space, np.stack(out).reshape(shape + (n, n))


@pytest.mark.parametrize("n", [1, 2, 5, 16])
def test_stacked_matrix_calls_are_the_slice_calls_bit_for_bit(n):
    space, stack = _matrix_stack(np.random.default_rng(n), n, (3, 4))
    w, frame = space.eigh(stack)
    rebuilt = space.assemble(frame, np.abs(w))
    tols = space.rank_tol(w)
    norms = space.norm_of(stack)
    assert w.shape == (3, 4, n) and frame.shape == rebuilt.shape == stack.shape
    assert tols.shape == norms.shape == (3, 4)
    for i in range(3):
        for j in range(4):
            wi, fi = space.eigh(stack[i, j])
            assert np.array_equal(w[i, j], wi) and np.array_equal(frame[i, j], fi)
            assert np.array_equal(rebuilt[i, j], space.assemble(fi, np.abs(wi)))
            assert tols[i, j] == space.rank_tol(wi)
            assert norms[i, j] == space.norm_of(stack[i, j])
    assert type(space.norm_of(stack[0, 0])) is float


@pytest.mark.parametrize("d", [1, 3, 9])
def test_stacked_function_calls_are_the_slice_calls_bit_for_bit(d):
    space = FunctionSpace([f"p{i}" for i in range(d)])
    rng = np.random.default_rng(d)
    stack = rng.integers(-3, 4, (2, 5, d)) / 2.0  # ties, so the stable order matters
    w, frame = space.eigh(stack)
    rebuilt = space.assemble(frame, 2.0 * w)
    norms = space.norm_of(stack)
    assert norms.shape == (2, 5)
    for i in range(2):
        for j in range(5):
            wi, fi = space.eigh(stack[i, j])
            assert np.array_equal(w[i, j], wi) and np.array_equal(frame[i, j], fi)
            assert np.array_equal(rebuilt[i, j], space.assemble(fi, 2.0 * wi))
            assert np.array_equal(rebuilt[i, j], 2.0 * stack[i, j])
            assert norms[i, j] == space.norm_of(stack[i, j])
    # the exact instance's threshold is a scalar 0.0 that broadcasts over any stack
    assert space.rank_tol(w) == 0.0 and space.rank_tol(w[0, 0]) == 0.0
    assert type(space.norm_of(stack[0, 0])) is float


def test_unit_is_shared_and_read_only(sym4, fn3):
    for space in (sym4, fn3):
        one = space.unit()
        assert one.payload is space.unit().payload
        with pytest.raises(ValueError):
            one.payload[0] = 2.0
    assert np.array_equal(sym4.unit().payload, np.eye(4))
    assert np.array_equal(fn3.unit().payload, np.ones(3))


# ---------------------------------------------------------------------------
# commutes: the norms only past the bare tolerance


def count_eigvalsh(monkeypatch) -> list:
    calls = []
    original = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


def full_commutes_rule(a, b, tol=1e-9) -> bool:
    ab = a.payload @ b.payload
    scale = max(1.0, sym_norm(a.payload) * sym_norm(b.payload))
    return bool(np.max(np.abs(ab - ab.T)) <= tol * scale)


def test_commutes_gives_the_full_rules_verdict(sym4):
    rng = np.random.default_rng(31)
    u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    pairs = []
    for _ in range(40):
        pairs.append((sym4.random_element(rng, 3.0), sym4.random_element(rng)))
        # commuting up to rounding: a shared eigenbasis
        pairs.append(tuple(sym4.element((u * rng.uniform(-5, 5, 4)) @ u.T) for _ in range(2)))
    for a, b in pairs:
        assert sym4.commutes(a, b) is full_commutes_rule(a, b)


def test_commutes_borderline_needs_the_norms(monkeypatch):
    # a = s diag(1, -1) against b = diag(1, 0) + delta [[0, 1], [1, 0]]:
    # the gap is 2 s delta, above tol, against the allowance tol * s * ||b||
    space = SymmetricMatrixSpace(2)
    s = 1e3
    a = space.element(s * np.diag([1.0, -1.0]))
    for delta, verdict in ((4e-10, True), (6e-10, False)):
        b = space.element(np.array([[1.0, delta], [delta, 0.0]]))
        assert full_commutes_rule(a, b) is verdict
        calls = count_eigvalsh(monkeypatch)
        assert space.commutes(a, b) is verdict
        assert len(calls) == 2
    calls = count_eigvalsh(monkeypatch)
    assert space.commutes(a, space.element(np.diag([3.0, 4.0])))
    assert calls == []


def test_commutativity_is_a_protocol_query():
    # Sym(1) is R as an algebra, but its elements are not read as functions on points
    assert FunctionSpace(("a",)).commutative
    assert not SymmetricMatrixSpace(1).commutative and not SymmetricMatrixSpace(3).commutative
