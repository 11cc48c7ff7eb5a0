"""Order-unit normed spaces: symmetric matrices and finite function algebras.

Two concrete instances carry the whole package. SymmetricMatrixSpace(n)
is real symmetric n x n matrices ordered by the positive semidefinite
cone with the identity as order unit; FunctionSpace(points) is R^X with
the pointwise order and the constant one function. The order-unit norm
is inf{lam > 0 : -lam v <= a <= lam v}, which comes out as the largest
absolute eigenvalue, respectively the largest absolute value.

Numerical policy. Cone membership tolerates eigenvalues down to
-1e-9 * max(1, ||a||) on the matrix instance and values down to -1e-12
on the function instance; the function instance otherwise computes
pointwise and exactly, which makes it the oracle for every commutative
identity. Matrices are symmetrized on construction, and inputs whose
asymmetry max|m - (m/2 + m.T/2)| exceeds 1e-10 are rejected rather
than silently repaired; `symmetrised` computes both without overflow,
and the CLI's `check` measures asymmetry with it too. Either space's
`element` rejects a NaN or infinite entry.

The space protocol. Both classes define the same methods, and synaptic,
states and stone are written once against them; nothing outside this
module asks which instance it holds. x, y, d are payload arrays; a, p,
q are Elements.

  element, unit, zero_element, basis    construction
  norm_of, contains_positive            order-unit norm and cone
  product, commutes                     ambient associative product
  eigh(x)                 ascending eigenvalues and a frame; on functions
                          the values themselves, sorted, and the points
                          they sit at, with no tolerance
  assemble(frame, vals)   sum of vals[i] e_i over the frame members
  projector(frame, idx)   projection onto the span of frame members idx
  rank_tol(vals)          RANK_RTOL * max(1, max|vals|), or 0.0 on
                          functions, so one |lam| > tol test is exact there
  pairing(x, y)           trace(xy), or the dot product
  is_projection(a)        p^2 = p, to PROJ_TOL, or exactly
  commutant(gens)         null space of the commutators, or everything
  projection_meet(p, q)   range intersection by SVD, or the minimum
  is_density(d, tol)      d represents a state through the pairing

Each method is defined directly on each class, with no shared base:
perfbench/tracer.py wraps the construction, norm, cone and product
methods by reading them out of each class's own namespace.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Element",
    "SymmetricMatrixSpace",
    "FunctionSpace",
    "in_unit_interval",
    "positive_decomposition",
    "ExtendedLinearMap",
    "extend_effect_morphism",
    "allclose",
]

PSD_TOL = 1e-9          # matrix cone: min eigenvalue >= -PSD_TOL * max(1, ||a||)
POINTWISE_TOL = 1e-12   # function cone: values >= -POINTWISE_TOL
ASYMMETRY_TOL = 1e-10   # rejected if symmetrization moves the input more than this
RANK_RTOL = 1e-8        # relative threshold for rank, clustering, invertibility
PROJ_TOL = 1e-9         # residual allowed in ||p^2 - p|| for the projection test


class Element:
    """Immutable element of a concrete order-unit space."""

    __slots__ = ("space", "payload")

    def __init__(self, space, payload: np.ndarray):
        object.__setattr__(self, "space", space)
        payload = np.asarray(payload, dtype=float)
        payload.flags.writeable = False
        object.__setattr__(self, "payload", payload)

    def __setattr__(self, name, value):
        raise AttributeError("elements are immutable")

    def _binary(self, other, op):
        if not isinstance(other, Element) or other.space is not self.space:
            return NotImplemented
        return Element(self.space, op(self.payload, other.payload))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __neg__(self):
        return Element(self.space, -self.payload)

    def __mul__(self, scalar):
        if isinstance(scalar, (int, float, np.floating, np.integer)):
            return Element(self.space, float(scalar) * self.payload)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / float(scalar))

    def norm(self) -> float:
        return self.space.norm_of(self.payload)

    def __repr__(self) -> str:
        return f"Element({self.space!r})"


def allclose(a: Element, b: Element, tol: float = 1e-9) -> bool:
    return a.space is b.space and bool(np.max(np.abs(a.payload - b.payload)) <= tol)


def symmetrised(m: np.ndarray) -> tuple[np.ndarray, float]:
    """(m/2 + m.T/2, max|m - (m/2 + m.T/2)|), neither of which can overflow.

    Halving first keeps the sum in range; the halves are exact for all
    but subnormal entries, so the sum rounds as (m + m.T) / 2 would. The
    asymmetry is NaN, with no warning, exactly when m has a non-finite
    entry: inf - inf or a NaN reaches the difference.
    """
    with np.errstate(invalid="ignore"):
        sym = m / 2.0 + m.T / 2.0
        drift = float(np.max(np.abs(m - sym))) if m.size else 0.0
    return sym, drift


class SymmetricMatrixSpace:
    """Sym(n) with the PSD cone and identity order unit."""

    kind = "sym_matrix"

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)
        self.dimension = self.n * (self.n + 1) // 2

    def element(self, data) -> Element:
        m = np.asarray(data, dtype=float)
        if m.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n} x {self.n} matrix")
        sym, drift = symmetrised(m)
        if drift != drift:
            raise ValueError("non-finite entry")
        if drift > ASYMMETRY_TOL:
            raise ValueError(f"matrix is not symmetric (asymmetry {drift:.3e})")
        return Element(self, sym)

    def unit(self) -> Element:
        return Element(self, np.eye(self.n))

    def zero_element(self) -> Element:
        return Element(self, np.zeros((self.n, self.n)))

    def norm_of(self, payload: np.ndarray) -> float:
        return float(np.max(np.abs(np.linalg.eigvalsh(payload)))) if payload.size else 0.0

    def contains_positive(self, a: Element) -> bool:
        w = np.linalg.eigvalsh(a.payload)
        scale = max(1.0, float(np.max(np.abs(w))))
        return bool(w.min() >= -PSD_TOL * scale)

    def product(self, a: Element, b: Element) -> np.ndarray:
        """Raw associative product; may leave the symmetric subspace."""
        return a.payload @ b.payload

    def commutes(self, a: Element, b: Element, tol: float = 1e-9) -> bool:
        ab = a.payload @ b.payload
        scale = max(1.0, a.norm() * b.norm())
        return bool(np.max(np.abs(ab - ab.T)) <= tol * scale)

    def basis(self) -> list[Element]:
        """Canonical basis of Sym(n): E_ii, then (E_ij + E_ji) for i < j."""
        out = []
        for i in range(self.n):
            m = np.zeros((self.n, self.n))
            m[i, i] = 1.0
            out.append(Element(self, m))
        for i in range(self.n):
            for j in range(i + 1, self.n):
                m = np.zeros((self.n, self.n))
                m[i, j] = m[j, i] = 1.0
                out.append(Element(self, m))
        return out

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> Element:
        m = rng.standard_normal((self.n, self.n)) * scale
        return Element(self, (m + m.T) / 2.0)

    def random_effect(self, rng: np.random.Generator) -> Element:
        q, _ = np.linalg.qr(rng.standard_normal((self.n, self.n)))
        vals = rng.uniform(0.0, 1.0, self.n)
        return Element(self, (q * vals) @ q.T)

    def random_projection(self, rng: np.random.Generator, rank: int | None = None) -> Element:
        if rank is None:
            rank = int(rng.integers(0, self.n + 1))
        q, _ = np.linalg.qr(rng.standard_normal((self.n, self.n)))
        vals = np.zeros(self.n)
        vals[:rank] = 1.0
        return Element(self, (q * vals) @ q.T)

    def eigh(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(x)

    def assemble(self, frame: np.ndarray, values) -> np.ndarray:
        return (frame * values) @ frame.T

    def projector(self, frame: np.ndarray, idx) -> np.ndarray:
        cols = frame[:, idx]
        return cols @ cols.T

    def rank_tol(self, values: np.ndarray) -> float:
        return RANK_RTOL * max(1.0, float(np.max(np.abs(values))))

    def pairing(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.trace(x @ y))

    def is_projection(self, a: Element) -> bool:
        residual = float(np.max(np.abs(self.product(a, a) - a.payload)))
        # the allowance is PROJ_TOL * max(1, ||a||) >= PROJ_TOL, so the
        # norm (an eigenvalue computation) is needed only past PROJ_TOL
        return residual <= PROJ_TOL or residual <= PROJ_TOL * max(1.0, a.norm())

    def commutant(self, generators: list[Element]) -> list[Element]:
        """Null space of x -> (xg - gx for each g) over the basis coordinates."""
        basis = self.basis()
        if not generators:
            return basis
        # one column per coordinate of Sym(n), one block row per generator
        cols = [
            np.concatenate([(s.payload @ g.payload - g.payload @ s.payload).ravel()
                            for g in generators])
            for s in basis
        ]
        _, sv, vt = np.linalg.svd(np.stack(cols, axis=1))
        null = vt[int(np.sum(sv > self.rank_tol(sv))):]
        return [
            Element(self, sum(w * s.payload for w, s in zip(coeffs, basis)))
            for coeffs in null
        ]

    def projection_meet(self, p: Element, q: Element) -> Element:
        """Null space of the stacked [1-p; 1-q]; no commutativity assumed."""
        eye = np.eye(self.n)
        _, sv, vt = np.linalg.svd(np.vstack([eye - p.payload, eye - q.payload]))
        null = vt[int(np.sum(sv > self.rank_tol(sv))):]  # orthonormal rows spanning the meet
        return Element(self, null.T @ null)

    def is_density(self, d: np.ndarray, tol: float) -> bool:
        """Symmetric, unit trace, PSD, and nonnegative on sampled squares."""
        if d.shape != (self.n, self.n) or np.max(np.abs(d - d.T)) > 1e-10:
            return False
        if abs(float(np.trace(d)) - 1.0) > tol:
            return False
        if np.linalg.eigvalsh((d + d.T) / 2.0).min() < -tol:
            return False
        # positivity through the functional, on sampled squares
        rng = np.random.default_rng(99)
        for _ in range(4):
            b = self.random_element(rng)
            if self.pairing(d, b.payload @ b.payload) < -tol:
                return False
        return True

    def __repr__(self) -> str:
        return f"SymmetricMatrixSpace({self.n})"


class FunctionSpace:
    """R^X for a finite label set X; pointwise order, constant one unit."""

    kind = "function_algebra"

    def __init__(self, points):
        self.points = tuple(str(p) for p in points)
        if not self.points:
            raise ValueError("point set must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be unique")
        self.dimension = len(self.points)

    def element(self, data) -> Element:
        v = np.asarray(data, dtype=float)
        if v.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} values")
        if not np.isfinite(v).all():
            raise ValueError("non-finite entry")
        return Element(self, v)

    def indicator(self, subset) -> Element:
        v = np.zeros(self.dimension)
        for p in subset:
            v[self.points.index(p) if isinstance(p, str) else int(p)] = 1.0
        return Element(self, v)

    def unit(self) -> Element:
        return Element(self, np.ones(self.dimension))

    def zero_element(self) -> Element:
        return Element(self, np.zeros(self.dimension))

    def norm_of(self, payload: np.ndarray) -> float:
        return float(np.max(np.abs(payload)))

    def contains_positive(self, a: Element) -> bool:
        return bool(a.payload.min() >= -POINTWISE_TOL)

    def product(self, a: Element, b: Element) -> np.ndarray:
        return a.payload * b.payload

    def commutes(self, a: Element, b: Element, tol: float = 1e-9) -> bool:
        return True

    def basis(self) -> list[Element]:
        return [self.indicator([i]) for i in range(self.dimension)]

    def random_element(self, rng: np.random.Generator, scale: float = 1.0) -> Element:
        return Element(self, rng.uniform(-scale, scale, self.dimension))

    def random_effect(self, rng: np.random.Generator) -> Element:
        return Element(self, rng.uniform(0.0, 1.0, self.dimension))

    def random_projection(self, rng: np.random.Generator, rank: int | None = None) -> Element:
        v = (rng.uniform(0.0, 1.0, self.dimension) < 0.5).astype(float)
        return Element(self, v)

    def eigh(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(x, kind="stable")
        return x[order], order

    def assemble(self, frame: np.ndarray, values) -> np.ndarray:
        out = np.empty(self.dimension)
        out[frame] = values
        return out

    def projector(self, frame: np.ndarray, idx) -> np.ndarray:
        out = np.zeros(self.dimension)
        out[frame[idx]] = 1.0
        return out

    def rank_tol(self, values: np.ndarray) -> float:
        return 0.0

    def pairing(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.dot(x, y))

    def is_projection(self, a: Element) -> bool:
        return bool(np.all((a.payload == 0.0) | (a.payload == 1.0)))

    def commutant(self, generators: list[Element]) -> list[Element]:
        return self.basis()

    def projection_meet(self, p: Element, q: Element) -> Element:
        return Element(self, np.minimum(p.payload, q.payload))

    def is_density(self, d: np.ndarray, tol: float) -> bool:
        """Nonnegative weights summing to one."""
        if d.shape != (self.dimension,):
            return False
        return bool(d.min() >= -POINTWISE_TOL and abs(float(d.sum()) - 1.0) <= tol)

    def __repr__(self) -> str:
        return f"FunctionSpace({list(self.points)!r})"


def in_unit_interval(a: Element) -> bool:
    """Effect test: 0 <= a <= v in the cone order of a's space."""
    space = a.space
    return space.contains_positive(a) and space.contains_positive(space.unit() - a)


def positive_decomposition(a: Element) -> tuple[Element, Element]:
    """a = b - c with b, c in the positive cone: b = ceil(||a||) v."""
    k = max(1, math.ceil(a.norm()))
    b = float(k) * a.space.unit()
    return b, b - a


class ExtendedLinearMap:
    """Linear extension of an effect morphism on the unit interval.

    Values on the positive cone come from rational rescaling into the
    unit interval (omega((1/m) p) scaled back by m), and general
    elements split as a difference of positive ones. For a genuine
    effect morphism the result is the unique positive linear map that
    restricts to omega.
    """

    def __init__(self, omega, space):
        self.omega = omega
        self.space = space

    def on_positive(self, p: Element):
        m = max(1, math.ceil(p.norm())) + 1
        return m * self.omega(p / m)

    def __call__(self, a: Element):
        k = max(1, math.ceil(a.norm())) + 1
        b = float(k) * self.space.unit()
        return self.on_positive(b) - self.on_positive(b - a)


def extend_effect_morphism(
    omega,
    space,
    target_unit=None,
    spot_checks: int = 8,
    tol: float = 1e-9,
    rng: np.random.Generator | None = None,
) -> ExtendedLinearMap:
    """Extend a black-box morphism on the unit interval to a linear map.

    Before extending, omega is spot-checked for additivity on random
    orthogonal effect pairs and for unit preservation when target_unit
    is given; a detected violation raises ValueError rather than
    producing a silently nonlinear "extension".
    """
    if rng is None:
        rng = np.random.default_rng(1234)
    v = space.unit()

    def _gap(x, y) -> float:
        diff = x - y
        if isinstance(diff, Element):
            return diff.norm()
        return abs(float(diff))

    for _ in range(spot_checks):
        e = rng.uniform(0.2, 0.8) * space.random_effect(rng)
        f = rng.uniform(0.2, 0.8) * (v - e)
        lhs = omega(e + f)
        rhs = omega(e) + omega(f)
        if _gap(lhs, rhs) > tol:
            raise ValueError("not an effect morphism: additivity fails on an orthogonal pair")
    if target_unit is not None and _gap(omega(v), target_unit) > tol:
        raise ValueError("not an effect morphism: unit is not preserved")
    return ExtendedLinearMap(omega, space)
