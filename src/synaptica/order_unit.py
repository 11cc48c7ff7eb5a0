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
and the matrix `is_density` and the CLI's `check` measure asymmetry
with it too. Either space's `element` rejects a NaN or infinite entry.
Every threshold is a module constant; no function takes one as an
argument except `is_density`, which is handed is_state's.

The space protocol. Both classes define the same methods, and synaptic,
states and stone are written once against them; nothing outside this
module asks which instance it holds. x, y, d are payload arrays; a, p,
q are Elements.

  element, unit, zero_element, basis    construction
  payloads(m)             element's checks and stored form for a stack
  norm_of, contains_positive            order-unit norm and cone
  in_cone(x, values)      contains_positive for a stack of payloads;
                          values, if given, are the stack's eigh values,
                          so the matrix instance decomposes nothing
  product, commutes                     ambient associative product
  multiply(x, y)          that product on payload stacks: matmul, or
                          pointwise
  commuting(x, y)         commutes for stacks of pairs, x and y
                          broadcast against each other
  eigh(x)                 ascending eigenvalues and a frame; on functions
                          the values themselves, sorted, and the points
                          they sit at, with no tolerance
  assemble(frame, vals)   sum of vals[i] e_i over the frame members
  projector(frame, idx)   projection onto the span of frame members idx
  rank_tol(vals)          RANK_RTOL * max(1, max|vals|), or 0.0 on
                          functions, so one |lam| > tol test is exact there
  pairing(x, y)           trace(xy), or the dot product
  idempotent(x)           p^2 = p for each payload of a stack, to
                          PROJ_TOL, or exactly
  commutant(gens)         null space of the commutators, or everything
  projection_meet(p, q)   range intersection by SVD, or the minimum
  is_density(d, tol)      d represents a state through the pairing, to
                          is_state's tolerance
  commutative             True for R^X, whose elements are functions on
                          points; False for Sym(n), even Sym(1)

payloads, multiply, eigh, assemble, rank_tol, norm_of, in_cone,
idempotent and commuting take a stack: leading batch axes in front of
the payload (or eigenvalue) axes, as numpy.linalg does, with one result
per slice; so does the function instance's is_density, with one verdict
per row of weights. Each slice's result is bit for bit the unbatched
call's, and the unbatched results keep their types (norm_of a Python
float, the function rank_tol a scalar 0.0 that broadcasts over any
stack). The Element methods element, contains_positive, product and
commutes are the one-element case of their stacked twins.

Each method is defined directly on each class, with no shared base:
perfbench/tracer.py wraps the construction, norm, cone and product
methods by reading them out of each class's own namespace.
"""

from __future__ import annotations

import math
from functools import lru_cache

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
COMMUTE_TOL = 1e-9      # ||ab - ba|| allowed, relative to max(1, ||a|| ||b||)
CLOSE_TOL = 1e-9        # largest entry gap between elements allclose accepts
MORPHISM_TOL = 1e-9     # gap allowed in the identities a morphism is checked on


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


def allclose(a: Element, b: Element) -> bool:
    return a.space is b.space and bool(np.max(np.abs(a.payload - b.payload)) <= CLOSE_TOL)


def symmetrised(m: np.ndarray):
    """(m/2 + m^T/2, max|m - (m/2 + m^T/2)|), neither of which can overflow.

    The transpose and the maximum are over the last two axes, so m may
    be a stack of matrices, with one asymmetry per matrix. Halving first
    keeps the sum in range; the halves are exact for all but subnormal
    entries, so the sum rounds as (m + m^T) / 2 would. m is halved once,
    since the transpose of the halves is the half of the transpose. The
    asymmetry is NaN, with no warning, exactly when the matrix has a
    non-finite entry: inf - inf or a NaN reaches the difference.
    """
    with np.errstate(invalid="ignore"):
        half = m / 2.0
        sym = half + half.swapaxes(-1, -2)
        drift = np.abs(m - sym).max(axis=(-2, -1), initial=0.0)
    return sym, drift


def _all(ok) -> bool:
    """ok.all(), without the cost .all() has on the scalar of one slice."""
    return bool(ok) if ok.ndim == 0 else bool(ok.all())


def _within(gap: np.ndarray, tol: float, norms) -> np.ndarray:
    """gap <= tol * max(1, norm), slice by slice.

    The allowance is at least tol, so norms(far), the norms (eigenvalue
    computations) of the slices the mask far selects, is called only for
    gaps past tol.
    """
    ok = gap <= tol
    if _all(ok):
        return ok
    gap = np.asarray(gap)
    ok = np.asarray(ok)  # an array, writable, even for one slice
    far = ~ok
    ok[far] = gap[far] <= tol * np.fmax(1.0, norms(far))
    return ok


class SymmetricMatrixSpace:
    """Sym(n) with the PSD cone and identity order unit."""

    commutative = False

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("n must be positive")
        self.n = int(n)
        self.dimension = self.n * (self.n + 1) // 2
        # shared by every unit() and projection_meet; read-only, like any payload
        self._eye = np.eye(self.n)
        self._eye.flags.writeable = False

    def element(self, data) -> Element:
        m = np.asarray(data, dtype=float)
        if m.shape != (self.n, self.n):
            raise ValueError(f"expected a {self.n} x {self.n} matrix")
        return Element(self, self.payloads(m))

    def payloads(self, m: np.ndarray) -> np.ndarray:
        """The symmetrised payloads of a stack of n x n arrays.

        Raises element's ValueError for the first matrix, in C order,
        with a non-finite entry or an asymmetry past ASYMMETRY_TOL.
        """
        sym, drift = symmetrised(m)
        ok = drift <= ASYMMETRY_TOL  # False on NaN: a non-finite entry
        if not _all(ok):
            worst = drift.flat[np.flatnonzero(~ok)[0]]
            if worst != worst:
                raise ValueError("non-finite entry")
            raise ValueError(f"matrix is not symmetric (asymmetry {worst:.3e})")
        return sym

    def unit(self) -> Element:
        return Element(self, self._eye)

    def zero_element(self) -> Element:
        return Element(self, np.zeros((self.n, self.n)))

    def norm_of(self, payload: np.ndarray):
        radii = np.abs(np.linalg.eigvalsh(payload)).max(axis=-1)
        return radii if payload.ndim > 2 else float(radii)

    def contains_positive(self, a: Element) -> bool:
        return bool(self.in_cone(a.payload))

    def in_cone(self, x: np.ndarray, values=None) -> np.ndarray:
        w = np.linalg.eigvalsh(x) if values is None else values
        # fmax, like the builtin max, keeps 1.0 against a NaN
        scale = np.fmax(1.0, np.abs(w).max(axis=-1))
        return w.min(axis=-1) >= -PSD_TOL * scale

    def product(self, a: Element, b: Element) -> np.ndarray:
        """Raw associative product; may leave the symmetric subspace."""
        return self.multiply(a.payload, b.payload)

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x @ y

    def commutes(self, a: Element, b: Element) -> bool:
        return bool(self.commuting(a.payload, b.payload))

    def commuting(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """||xy - yx|| <= COMMUTE_TOL * max(1, ||x|| ||y||) for each pair; yx is xy^T."""
        xy = self.multiply(x, y)
        gap = np.abs(xy - xy.swapaxes(-1, -2)).max(axis=(-2, -1))
        return _within(gap, COMMUTE_TOL, lambda far: (
            self.norm_of(np.broadcast_to(x, xy.shape)[far])
            * self.norm_of(np.broadcast_to(y, xy.shape)[far])
        ))

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

    def random_element(self, rng: np.random.Generator) -> Element:
        m = rng.standard_normal((self.n, self.n))
        return Element(self, (m + m.T) / 2.0)

    def random_effect(self, rng: np.random.Generator) -> Element:
        q, _ = np.linalg.qr(rng.standard_normal((self.n, self.n)))
        vals = rng.uniform(0.0, 1.0, self.n)
        return Element(self, (q * vals) @ q.T)

    def random_projection(self, rng: np.random.Generator) -> Element:
        rank = int(rng.integers(0, self.n + 1))
        q, _ = np.linalg.qr(rng.standard_normal((self.n, self.n)))
        vals = np.zeros(self.n)
        vals[:rank] = 1.0
        return Element(self, (q * vals) @ q.T)

    def eigh(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(x)

    def assemble(self, frame: np.ndarray, values) -> np.ndarray:
        return (frame * values[..., None, :]) @ np.swapaxes(frame, -1, -2)

    def projector(self, frame: np.ndarray, idx) -> np.ndarray:
        cols = frame[:, idx]
        return cols @ cols.T

    def rank_tol(self, values: np.ndarray):
        # fmax, like the builtin max, keeps 1.0 against a NaN
        return RANK_RTOL * np.fmax(1.0, np.abs(values).max(axis=-1))

    def pairing(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.trace(x @ y))

    def idempotent(self, x: np.ndarray) -> np.ndarray:
        """||x^2 - x|| <= PROJ_TOL * max(1, ||x||) for each payload."""
        residual = np.abs(self.multiply(x, x) - x).max(axis=(-2, -1))
        return _within(residual, PROJ_TOL, lambda far: self.norm_of(x[far]))

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
        stacked = np.empty((2, self.n, self.n))
        np.subtract(self._eye, p.payload, out=stacked[0])
        np.subtract(self._eye, q.payload, out=stacked[1])
        _, sv, vt = np.linalg.svd(stacked.reshape(2 * self.n, self.n))
        null = vt[int(np.sum(sv > self.rank_tol(sv))):]  # orthonormal rows spanning the meet
        return Element(self, null.T @ null)

    def is_density(self, d: np.ndarray, tol: float) -> bool:
        """Symmetric, unit trace, PSD, and nonnegative on sampled squares."""
        if d.shape != (self.n, self.n):
            return False
        sym, drift = symmetrised(d)  # the asymmetry element() accepts
        with np.errstate(over="ignore"):  # a trace past the float range is inf, not a warning
            trace = float(np.trace(d))
        if drift > ASYMMETRY_TOL or abs(trace - 1.0) > tol:
            return False
        if np.linalg.eigvalsh(sym).min() < -tol:
            return False
        # positivity through the functional, on sampled squares
        return not any(self.pairing(d, sq) < -tol for sq in _sampled_squares(self.n))

    def __repr__(self) -> str:
        return f"SymmetricMatrixSpace({self.n})"


@lru_cache(maxsize=None)
def _sampled_squares(n: int) -> tuple[np.ndarray, ...]:
    """The four squares b b that the matrix is_density pairs a density with.

    Each b is random_element's draw, the four in turn from one
    default_rng(99); drawn once per n on first use, read-only.
    """
    space = SymmetricMatrixSpace(n)
    rng = np.random.default_rng(99)
    squares = []
    for _ in range(4):
        b = space.random_element(rng).payload
        square = b @ b
        square.flags.writeable = False
        squares.append(square)
    return tuple(squares)


class FunctionSpace:
    """R^X for a finite label set X; pointwise order, constant one unit."""

    commutative = True

    def __init__(self, points):
        self.points = tuple(str(p) for p in points)
        if not self.points:
            raise ValueError("point set must be nonempty")
        if len(set(self.points)) != len(self.points):
            raise ValueError("point labels must be unique")
        self.dimension = len(self.points)
        self._ones = np.ones(self.dimension)
        self._ones.flags.writeable = False

    def element(self, data) -> Element:
        v = np.asarray(data, dtype=float)
        if v.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} values")
        return Element(self, self.payloads(v))

    def payloads(self, v: np.ndarray) -> np.ndarray:
        """v itself, unless an entry is non-finite (element's ValueError)."""
        if not np.isfinite(v).all():
            raise ValueError("non-finite entry")
        return v

    def indicator(self, subset) -> Element:
        v = np.zeros(self.dimension)
        for p in subset:
            v[self.points.index(p) if isinstance(p, str) else int(p)] = 1.0
        return Element(self, v)

    def unit(self) -> Element:
        return Element(self, self._ones)

    def zero_element(self) -> Element:
        return Element(self, np.zeros(self.dimension))

    def norm_of(self, payload: np.ndarray):
        radii = np.abs(payload).max(axis=-1)
        return radii if payload.ndim > 1 else float(radii)

    def contains_positive(self, a: Element) -> bool:
        return bool(self.in_cone(a.payload))

    def in_cone(self, x: np.ndarray, values=None) -> np.ndarray:
        return x.min(axis=-1) >= -POINTWISE_TOL

    def product(self, a: Element, b: Element) -> np.ndarray:
        return self.multiply(a.payload, b.payload)

    def multiply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return x * y

    def commutes(self, a: Element, b: Element) -> bool:
        return True

    def commuting(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Every pair commutes; no product is taken."""
        return np.ones(np.broadcast_shapes(x.shape, y.shape)[:-1], dtype=bool)

    def basis(self) -> list[Element]:
        return [self.indicator([i]) for i in range(self.dimension)]

    def random_element(self, rng: np.random.Generator) -> Element:
        return Element(self, rng.uniform(-1.0, 1.0, self.dimension))

    def random_effect(self, rng: np.random.Generator) -> Element:
        return Element(self, rng.uniform(0.0, 1.0, self.dimension))

    def random_projection(self, rng: np.random.Generator) -> Element:
        v = (rng.uniform(0.0, 1.0, self.dimension) < 0.5).astype(float)
        return Element(self, v)

    def eigh(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        order = np.argsort(x, axis=-1, kind="stable")
        return np.take_along_axis(x, order, axis=-1), order

    def assemble(self, frame: np.ndarray, values) -> np.ndarray:
        out = np.empty(frame.shape)
        np.put_along_axis(out, frame, values, axis=-1)
        return out

    def projector(self, frame: np.ndarray, idx) -> np.ndarray:
        out = np.zeros(self.dimension)
        out[frame[idx]] = 1.0
        return out

    def rank_tol(self, values: np.ndarray) -> float:
        return 0.0

    def pairing(self, x: np.ndarray, y: np.ndarray) -> float:
        return float(np.dot(x, y))

    def idempotent(self, x: np.ndarray) -> np.ndarray:
        """Each payload is exactly an indicator; no product is taken."""
        return np.all((x == 0.0) | (x == 1.0), axis=-1)

    def commutant(self, generators: list[Element]) -> list[Element]:
        return self.basis()

    def projection_meet(self, p: Element, q: Element) -> Element:
        return Element(self, np.minimum(p.payload, q.payload))

    def is_density(self, d: np.ndarray, tol: float):
        """Nonnegative weights summing to one, for each row of a stack."""
        if d.shape[-1:] != (self.dimension,):
            return False
        with np.errstate(over="ignore"):  # a sum past the float range is inf, not a warning
            total = d.sum(axis=-1)
        ok = (d.min(axis=-1) >= -POINTWISE_TOL) & (np.abs(total - 1.0) <= tol)
        return ok if d.ndim > 1 else bool(ok)

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


def extend_effect_morphism(omega, space, target_unit) -> ExtendedLinearMap:
    """Extend a black-box morphism on the unit interval to a linear map.

    Before extending, omega is spot-checked for additivity on 8 random
    orthogonal effect pairs (seeded, so the check is reproducible) and
    for sending the unit to target_unit; a detected violation raises
    ValueError rather than producing a silently nonlinear "extension".
    """
    rng = np.random.default_rng(1234)
    v = space.unit()

    def _gap(x, y) -> float:
        diff = x - y
        if isinstance(diff, Element):
            return diff.norm()
        return abs(float(diff))

    for _ in range(8):
        e = rng.uniform(0.2, 0.8) * space.random_effect(rng)
        f = rng.uniform(0.2, 0.8) * (v - e)
        lhs = omega(e + f)
        rhs = omega(e) + omega(f)
        if _gap(lhs, rhs) > MORPHISM_TOL:
            raise ValueError("not an effect morphism: additivity fails on an orthogonal pair")
    if _gap(omega(v), target_unit) > MORPHISM_TOL:
        raise ValueError("not an effect morphism: unit is not preserved")
    return ExtendedLinearMap(omega, space)
