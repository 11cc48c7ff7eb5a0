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
