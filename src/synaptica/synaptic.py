"""Synaptic-algebra operations, written once against the space protocol.

Each operation is one body over the primitives that both concrete
instances define (eigh, assemble, projector, rank_tol, idempotent,
commutant, projection_meet; see order_unit). The ambient associative
product is ordinary matrix multiplication for SymmetricMatrixSpace and
the pointwise product for FunctionSpace; its symmetric part is the
Jordan product. Everything spectral (square roots, carriers, step
projections, reconstruction) is phrased so the defining formulas stay
separate from the eigendecomposition oracle used to test them:

  carrier(a)      rank-thresholded projection onto the range of a
  step(a, lam)    1 - carrier((a - lam)^+), the spectral step family
  reconstruction  Riemann-Stieltjes sums against the step family

Three private kernels serve a payload or a stack of them: _absolute
(|x|, the absolute eigenvalues over the frame) and _carriers (the
rank-thresholded carriers) take its eigendecomposition, and
_running_sums (c_0 p_0 + c_1 p_1 + ... in order, every prefix at once)
its projections. decompose and carrier are the kernels' one-payload
case; a spectral resolution keeps the eigendecomposition it was built
from, so its decompose and carrier need no second one. The step
formula runs the kernels on a stack of lam values, so the resolution's
cross-check evaluates it at every eigenvalue and midpoint in one call.
spectrum is the one-row case of spectra.

Numerical policy: eigenvalue clustering and rank thresholds are
relative at 1e-8 (RANK_RTOL), the projection test allows a residual of
1e-9 (PROJ_TOL); both constants and the cone tests live in order_unit.
The checks made here have their own constants below; only
span_members, whose two callers allow different residuals, takes a
threshold as an argument. The FunctionSpace instance computes
exactly: its rank_tol is 0, so its carriers and spectra involve no
tolerance at all.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .order_unit import MORPHISM_TOL, PROJ_TOL, RANK_RTOL, Element, allclose, in_unit_interval

__all__ = [
    "RANK_RTOL",
    "jordan",
    "quadratic",
    "sqrt",
    "decompose",
    "carrier",
    "SpectralResolution",
    "spectral_resolution",
    "step_projection",
    "stieltjes_reconstruct",
    "spectrum",
    "spectra",
    "is_invertible",
    "inverse",
    "is_projection",
    "is_effect",
    "simple_form",
    "apply_polynomial",
    "commutant",
    "double_commutant",
    "center",
    "in_span",
    "span_members",
    "proj_meet",
    "proj_join",
    "SynapticMorphismReport",
    "check_synaptic_morphism",
    "proper_effect_decomposition",
    "supremum_of_ascending_chain",
]

RESOLUTION_TOL = 1e-9   # residual allowed, relative to max(1, ||a||), in a resolution
SPAN_TOL = 1e-8         # in_span: residual allowed, relative to max(1, ||a||)
SPLIT_GAP = 1e-6        # an effect splits at an eigenvalue this far inside (0, 1)


def _same_space(a: Element, b: Element) -> None:
    if a.space is not b.space:
        raise ValueError("elements live in different spaces")


def jordan(a: Element, b: Element) -> Element:
    """Symmetrized product (ab + ba) / 2; the plain product pointwise."""
    _same_space(a, b)
    ab = a.space.product(a, b)
    # ba is the transpose of ab; a function's payload is its own transpose
    return Element(a.space, (ab + ab.T) / 2.0)


def quadratic(a: Element, b: Element) -> Element:
    """The map b -> aba expressed through Jordan products alone."""
    _same_space(a, b)
    return 2.0 * jordan(a, jordan(a, b)) - jordan(jordan(a, a), b)


def sqrt(a: Element) -> Element:
    """Unique positive square root of a positive element."""
    if not a.space.contains_positive(a):
        raise ValueError("not in positive cone")
    w, frame = a.space.eigh(a.payload)
    w = np.clip(w, 0.0, None)  # cone tolerance may leave tiny negatives
    return Element(a.space, a.space.assemble(frame, np.sqrt(w)))


def _absolute(space, w: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """|x| for a payload or each payload of a stack, from its eigendecomposition:
    |eigenvalues| over the frame."""
    return space.assemble(frame, np.abs(w))


def _carriers(space, w: np.ndarray, frame: np.ndarray) -> np.ndarray:
    """The carrier of a payload or of each payload of a stack, from its
    eigendecomposition: the projection onto the frame members whose
    eigenvalues clear the rank threshold (exact on functions)."""
    tol = space.rank_tol(w)
    if w.ndim == 1:
        return space.projector(frame, np.abs(w) > tol)
    support = np.abs(w) > np.expand_dims(tol, -1)
    return np.stack([space.projector(f, s) for f, s in zip(frame, support)])


def _running_sums(members, coefficients=None) -> np.ndarray:
    """0, c_0 p_0, c_0 p_0 + c_1 p_1, ...: the running sums of c_i p_i in order.

    members is a nonempty sequence or stack of payloads; without
    coefficients each c_i is 1. Row j adds the first j terms to zero one
    at a time, with the roundings of the loop acc = acc + c_i * p_i.
    """
    sums = np.zeros((len(members) + 1,) + np.shape(members[0]))
    if coefficients is None:
        sums[1:] = members
    else:
        c = np.reshape(coefficients, (-1,) + (1,) * (sums.ndim - 1))
        np.multiply(c, members, out=sums[1:])
    return np.cumsum(sums, axis=0, out=sums)


def _decomposition(a: Element, w: np.ndarray, frame: np.ndarray) -> tuple[Element, Element, Element]:
    """decompose(a) from a's eigendecomposition (w, frame)."""
    absolute = _absolute(a.space, w, frame)
    plus = 0.5 * (absolute + a.payload)
    minus = 0.5 * (absolute - a.payload)
    return Element(a.space, absolute), Element(a.space, plus), Element(a.space, minus)


def decompose(a: Element) -> tuple[Element, Element, Element]:
    """(|a|, a_plus, a_minus) with a = a_plus - a_minus, a_plus a_minus = 0.

    |a| is the positive square root of a^2; the parts are the usual
    half-sum and half-difference with a.
    """
    return _decomposition(a, *a.space.eigh(a.payload))


def carrier(a: Element) -> Element:
    """Smallest projection c with ca = a: the support of a."""
    return Element(a.space, _carriers(a.space, *a.space.eigh(a.payload)))


@dataclass(frozen=True)
class SpectralResolution:
    """Finite spectral data: ascending eigenvalues and their projections.

    step(lam) is the resolution family p_lam, the projection onto the
    part of the spectrum at or below lam. lower and upper are the
    spectral bounds (the extreme eigenvalues).
    """

    element: Element
    eigenvalues: tuple[float, ...]
    projections: tuple[Element, ...]
    # the element's eigendecomposition (w, frame) when the resolution was
    # built from one; decompose and carrier then reuse it
    eigen: tuple[np.ndarray, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        """Reject a resolution that no later call could read; the order is not checked."""
        k, m = len(self.eigenvalues), len(self.projections)
        if k != m:
            raise ValueError(f"resolution has {k} eigenvalues but {m} projections")
        if not k:
            raise ValueError("resolution has no eigenvalues")
        for i, p in enumerate(self.projections):
            if p.space is not self.element.space:
                raise ValueError(f"resolution projection {i} is not in its element's space")

    @property
    def lower(self) -> float:
        return self.eigenvalues[0]

    @property
    def upper(self) -> float:
        return self.eigenvalues[-1]

    def step(self, lam: float) -> Element:
        """The sum of the projections before the first value above lam."""
        upto = next((j for j, val in enumerate(self.eigenvalues) if not val <= lam),
                    len(self.eigenvalues))
        return self._sum(None, upto)

    def reconstruct(self) -> Element:
        return self._sum(self.eigenvalues)

    def decompose(self) -> tuple[Element, Element, Element]:
        """decompose(element), from the stored eigendecomposition when there is one."""
        return _decomposition(self.element, *self._eigh())

    def carrier(self) -> Element:
        """carrier(element), from the stored eigendecomposition when there is one."""
        return Element(self.element.space, _carriers(self.element.space, *self._eigh()))

    def _eigh(self) -> tuple[np.ndarray, np.ndarray]:
        a = self.element
        return self.eigen if self.eigen is not None else a.space.eigh(a.payload)

    def _sum(self, coefficients, upto: int = -1) -> Element:
        """Row upto of the running sums of coefficient times projection."""
        members = [p.payload for p in self.projections]
        return Element(self.element.space, _running_sums(members, coefficients)[upto])


def _clusters(w: np.ndarray, tol) -> tuple[tuple[float, ...], list[list[int]]]:
    """(distinct values, index clusters) of one row of ascending eigenvalues.

    A value within tol of the previous member of a cluster joins it;
    each cluster's value is its mean. A stack of rows is clustered row
    by row, each with its own tol.
    """
    clusters: list[list[int]] = [[0]]
    for i in range(1, len(w)):
        if w[i] - w[clusters[-1][-1]] <= tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    # a cluster of equal values is that value; their float mean may round
    values = tuple(
        float(w[c[0]]) if w[c[0]] == w[c[-1]] else float(np.mean(w[c])) for c in clusters
    )
    return values, clusters


def spectral_resolution(a: Element, verify: bool = True) -> SpectralResolution:
    """Cluster the spectrum of a and build its projection family.

    verify re-checks the family (projections, pairwise orthogonality,
    sum one, reconstruction) and cross-checks the step family against
    the defining formula 1 - carrier((a - lam)^+) at every eigenvalue
    and midpoint. Disable it inside tight loops.
    """
    space = a.space
    w, frame = space.eigh(a.payload)
    values, clusters = _clusters(w, space.rank_tol(w))
    projections = tuple(Element(space, space.projector(frame, c)) for c in clusters)
    res = SpectralResolution(a, values, projections, (w, frame))
    if verify:
        _verify_resolution(res)
    return res


def _verify_resolution(res: SpectralResolution) -> None:
    """Re-check a resolution; raise AssertionError naming the first failure.

    Row i is one stacked product of p_i with p_i, ..., p_k: the square
    is compared with p_i and each product p_i p_j, j > i, with zero. So
    at most k products are held at once, and the first member that is
    no projection or pair that is not orthogonal is reported in the
    order i, then j > i, with the square of i before its pairs.
    """
    a = res.element
    space = a.space
    allowed = RESOLUTION_TOL * max(1.0, a.norm())
    members = np.stack([p.payload for p in res.projections])
    for i, p in enumerate(members):
        products = space.multiply(p, members[i:])
        products[0] -= p
        failed = np.abs(products, out=products).reshape(len(products), -1).max(axis=1) > allowed
        if failed.any():
            if failed[0]:
                raise AssertionError(f"resolution member {i} is not a projection")
            raise AssertionError("resolution projections are not orthogonal")
    running = _running_sums(members)
    if np.max(np.abs(running[-1] - space.unit().payload)) > allowed:
        raise AssertionError("resolution does not sum to the identity")
    recon = _running_sums(members, res.eigenvalues)[-1]
    if np.max(np.abs(recon - a.payload)) > allowed:
        raise AssertionError("resolution does not reconstruct the element")
    # cross-check the step family against the carrier formula, at every
    # eigenvalue and midpoint at once: res.step(lam) is the running sum
    # after the leading run of values <= lam
    points = list(res.eigenvalues)
    points += [(x + y) / 2.0 for x, y in zip(res.eigenvalues, res.eigenvalues[1:])]
    below = np.greater_equal.outer(points, res.eigenvalues)
    direct = running[np.logical_and.accumulate(below, axis=1).sum(axis=1)]
    formula = _step_stack(a, points)
    gaps = np.max(np.abs(direct - formula).reshape(len(points), -1), axis=1)
    bad = np.flatnonzero(gaps > allowed)
    if bad.size:
        raise AssertionError(f"step family disagrees with carrier formula at {points[bad[0]]}")


def _step_stack(a: Element, lams) -> np.ndarray:
    """1 - carrier((a - lam)^+) for each lam in lams, as one stack of payloads."""
    space = a.space
    one = space.unit().payload
    shifted = a.payload - np.reshape(lams, (-1,) + (1,) * one.ndim) * one
    positive = 0.5 * (_absolute(space, *space.eigh(shifted)) + shifted)
    return one - _carriers(space, *space.eigh(positive))


def step_projection(a: Element, lam: float) -> Element:
    """The defining formula for the resolution: 1 - carrier((a - lam)^+)."""
    return Element(a.space, _step_stack(a, [float(lam)])[0])


def stieltjes_reconstruct(a: Element, mesh: float, partition=None) -> Element:
    """Riemann-Stieltjes sum of lam d(step) with right-endpoint tags.

    With the default partition (steps of at most mesh from just below
    the least eigenvalue up to the greatest), each tag is within mesh of
    its cluster's value, and that value within (d - 1) * RANK_RTOL *
    max(1, ||a||) of each eigenvalue merged into it, d the dimension. So
    the result is within the sum of the two of a in the order-unit norm,
    up to rounding; on functions, within mesh. Passing partition points
    that hit the eigenvalues exactly reproduces a to working precision.
    """
    if not mesh > 0.0:
        raise ValueError("mesh must be positive")
    res = spectral_resolution(a, verify=False)
    lo, hi = res.lower, res.upper
    if partition is None:
        steps = max(1, math.ceil((hi - (lo - mesh)) / mesh))
        partition = list(np.linspace(lo - mesh, hi, steps + 1))
    else:
        partition = [float(t) for t in partition]
        if any(y <= x for x, y in zip(partition, partition[1:])):
            raise ValueError("partition must be strictly increasing")
        if partition[0] >= lo or partition[-1] < hi:
            raise ValueError("partition must cover the spectrum")
    # the right endpoint of the cell (t_{j-1}, t_j] containing each value
    last = len(partition) - 1
    return res._sum([float(partition[min(bisect.bisect_left(partition, val), last)])
                     for val in res.eigenvalues])


def spectrum(a: Element) -> tuple[float, ...]:
    """The distinct eigenvalues, clustered as spectral_resolution does."""
    return spectra(a.space, a.payload[None])[0]


def spectra(space, stack: np.ndarray, values=None) -> list[tuple[float, ...]]:
    """spectrum of each payload in a stack, from one stacked eigh or its given values."""
    w = space.eigh(stack)[0] if values is None else values
    tols = np.broadcast_to(space.rank_tol(w), len(w))
    return [_clusters(row, tol)[0] for row, tol in zip(w, tols)]


def is_invertible(a: Element) -> bool:
    w, _ = a.space.eigh(a.payload)
    return bool(np.all(np.abs(w) > a.space.rank_tol(w)))


def inverse(a: Element) -> Element:
    w, frame = a.space.eigh(a.payload)
    if not np.all(np.abs(w) > a.space.rank_tol(w)):
        raise ValueError("not invertible")
    return Element(a.space, a.space.assemble(frame, 1.0 / w))


def is_projection(a: Element) -> bool:
    return bool(a.space.idempotent(a.payload))


def is_effect(a: Element) -> bool:
    return in_unit_interval(a)


def simple_form(space, coefficients, projections) -> Element:
    """Assemble sum(lam_i p_i) from a strictly increasing coefficient list
    and a resolution of the identity into commuting projections."""
    coefficients = [float(c) for c in coefficients]
    if len(coefficients) != len(projections) or not projections:
        raise ValueError("need one coefficient per projection")
    if any(y <= x for x, y in zip(coefficients, coefficients[1:])):
        raise ValueError("coefficients must be strictly increasing")
    for p in projections:
        if p.space is not space:
            raise ValueError("projection from a different space")
        if not is_projection(p):
            raise ValueError("not a projection")
    for i, p in enumerate(projections):
        for q in projections[i + 1 :]:
            if not space.commutes(p, q):
                raise ValueError("projections do not commute")
    members = [p.payload for p in projections]
    if np.max(np.abs(_running_sums(members)[-1] - space.unit().payload)) > PROJ_TOL:
        raise ValueError("projections do not sum to the identity")
    return Element(space, _running_sums(members, coefficients)[-1])


def apply_polynomial(a: Element, f) -> Element:
    """Functional calculus on a simple element: f applied to the spectrum."""
    res = spectral_resolution(a, verify=False)
    return res._sum([float(f(val)) for val in res.eigenvalues])


# ---------------------------------------------------------------------------
# Commutants


def commutant(space, generators) -> list[Element]:
    """Basis of {x in A : xg = gx for every generator g}.

    Solved as a null-space problem over the coordinates of symmetric
    matrices; the function instance is commutative, so its commutant is
    always the whole algebra.
    """
    generators = list(generators)
    for g in generators:
        if g.space is not space:
            raise ValueError("generator from a different space")
    return space.commutant(generators)


def double_commutant(space, generators) -> list[Element]:
    return commutant(space, commutant(space, generators))


def center(space) -> list[Element]:
    """Elements commuting with the whole algebra."""
    return commutant(space, space.basis())


def in_span(basis: list[Element], a: Element) -> bool:
    """Least-squares membership of a in the linear span of basis, to SPAN_TOL."""
    if not basis:
        return bool(np.max(np.abs(a.payload)) <= SPAN_TOL)
    mat = np.stack([b.payload.ravel() for b in basis], axis=1)
    return bool(span_members(mat, a.space, a.payload[None], SPAN_TOL)[0])


def span_members(mat: np.ndarray, space, stack: np.ndarray, tol: float) -> np.ndarray:
    """For each payload in stack: is it in the column span of mat?

    One least-squares solve with a right-hand side per payload; a
    payload passes when its residual is at most tol * max(1, ||a||).
    That allowance is at least tol, so the norms (one stacked
    eigenvalue computation) are taken only for residuals past tol.
    """
    targets = stack.reshape(len(stack), -1).T
    coeffs, *_ = np.linalg.lstsq(mat, targets, rcond=None)
    residual = np.max(np.abs(mat @ coeffs - targets), axis=0)
    ok = residual <= tol
    far = ~ok
    if far.any():
        ok[far] = residual[far] <= tol * np.fmax(1.0, space.norm_of(stack[far]))
    return ok


# ---------------------------------------------------------------------------
# Projection lattice


def _require_projection(p: Element) -> None:
    if not is_projection(p):
        raise ValueError("not a projection")


def proj_meet(p: Element, q: Element) -> Element:
    """Projection onto range(p) intersect range(q).

    Computed from the null space of the stacked [1-p; 1-q], so no
    commutativity is assumed. Exact pointwise minimum on the function
    instance.
    """
    _same_space(p, q)
    _require_projection(p)
    _require_projection(q)
    return p.space.projection_meet(p, q)


def proj_join(p: Element, q: Element) -> Element:
    _same_space(p, q)
    space = p.space
    one = space.unit()
    return one - proj_meet(one - p, one - q)


# ---------------------------------------------------------------------------
# Morphisms


@dataclass(frozen=True)
class SynapticMorphismReport:
    passed: bool
    violation: str | None = None


def check_synaptic_morphism(phi, dom, cod, samples) -> SynapticMorphismReport:
    """Check the defining conditions of a synaptic morphism on samples.

    phi maps Elements of dom to Elements of cod. Conditions, in order:
    unit preservation, squares (phi(a^2) = phi(a)^2 which with linearity
    gives Jordan multiplicativity), commutation preservation on sample
    pairs that commute, and carrier preservation phi(carrier a) =
    carrier(phi a). Each holds to MORPHISM_TOL, the squares relative to
    max(1, ||a||^2).
    """
    one_img = phi(dom.unit())
    if np.max(np.abs(one_img.payload - cod.unit().payload)) > MORPHISM_TOL:
        return SynapticMorphismReport(False, "unit is not preserved")
    samples = list(samples)
    for i, a in enumerate(samples):
        img = phi(a)
        lhs = phi(jordan(a, a))
        rhs = jordan(img, img)
        if np.max(np.abs(lhs.payload - rhs.payload)) > MORPHISM_TOL * max(1.0, a.norm() ** 2):
            return SynapticMorphismReport(False, f"square of sample {i} is not preserved")
    for i, a in enumerate(samples):
        for j, b in enumerate(samples):
            if j <= i:
                continue
            if dom.commutes(a, b) and not cod.commutes(phi(a), phi(b)):
                return SynapticMorphismReport(
                    False, f"commuting samples {i}, {j} have non-commuting images"
                )
    for i, a in enumerate(samples):
        lhs = phi(carrier(a))
        rhs = carrier(phi(a))
        if np.max(np.abs(lhs.payload - rhs.payload)) > MORPHISM_TOL:
            return SynapticMorphismReport(False, f"carrier of sample {i} is not preserved")
    return SynapticMorphismReport(True, None)


# ---------------------------------------------------------------------------
# Extreme points and monotone limits


def proper_effect_decomposition(e: Element) -> tuple[Element, Element] | None:
    """Split an effect strictly between two others when possible.

    Returns (x, y) with e = (x + y) / 2, x != y, both effects, when e
    has a spectral value bounded away from {0, 1} by SPLIT_GAP; None
    otherwise. Projections admit no such split, which is exactly the
    statement that they are the extreme points of the unit interval.
    """
    if not in_unit_interval(e):
        raise ValueError("not an effect")
    w, frame = e.space.eigh(e.payload)
    for idx, t in enumerate(w):
        if SPLIT_GAP < t < 1.0 - SPLIT_GAP:
            d = Element(e.space, e.space.projector(frame, [idx]))
            mu = min(t, 1.0 - t)
            return e + mu * d, e - mu * d
    return None


def supremum_of_ascending_chain(chain: list[Element]) -> Element:
    """Supremum of an eventually constant ascending commuting chain.

    Finite-dimensional stand-in for monotone completeness: the chain
    must already have stabilized (its last two members allclose).
    """
    chain = list(chain)
    if not chain:
        raise ValueError("chain must be nonempty")
    for x, y in zip(chain, chain[1:]):
        if not x.space.contains_positive(y - x):
            raise ValueError("chain is not ascending")
        if not x.space.commutes(x, y):
            raise ValueError("chain members do not commute")
    if len(chain) >= 2 and not allclose(chain[-1], chain[-2]):
        raise ValueError("chain has not stabilized")
    return chain[-1]
