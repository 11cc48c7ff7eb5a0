"""States: effect-algebra valuations, density matrices, probability vectors.

A state on a finite effect algebra is a [0,1]-valuation additive on
defined orthosums with value 1 at the top; the collection of all of
them is a polytope cut out by the orthosum table, and its vertices are
enumerated exactly over the rationals. States on the two order-unit
instances are positive normalized linear functionals, represented
canonically by a density d through the space's pairing: a density
matrix (rho(a) = trace(D a)) or a probability vector (rho(a) = mu . a).
One DensityState class holds either, and the state checks, reports and
reconstructions are written once against the space protocol of
order_unit. The bijection with effect-interval morphisms goes through
the extension machinery of order_unit.

The extremal-state story of the commutative instance is implemented in
full: vertex membership, point evaluations, multiplicativity, zero-one
values on projections, and the min-rule on positive pairs are computed
independently so that their equivalence is a checked fact rather than a
definition. Each is one formula over a stack of weight rows: distance
to the exact simplex vertices, to the rows of the identity, the state
on all k^2 products of point indicators, on the 2^k x k matrix of
subset indicators, and on the minima of indicator pairs against the
minima of their values; the min-rule's witness is the first failing
pair of distinct points in row-major order. The report on one state is
the one-row case, and simplex_vertex_reports takes all the simplex
vertices of a function algebra in one stack; the constant arrays of
each k are built once. The simplex, and with it every report, takes at
most EXTREMAL_POINTS points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import isfinite, lcm
from numbers import Rational
from operator import itemgetter

import numpy as np

from .effect_algebras import FiniteEffectAlgebra
from .exact import InfeasibilityCertificate, enumerate_box_vertices, integer_rank
from .order_unit import (
    Element,
    FunctionSpace,
    extend_effect_morphism,
    in_unit_interval,
)

__all__ = [
    "EffectAlgebraState",
    "DensityState",
    "is_state",
    "StatePolytope",
    "state_polytope",
    "extremal_states",
    "simplex_vertices",
    "restrict_state_to_effects",
    "extend_effects_valuation",
    "rho_omega_bijection",
    "density_from_functional",
    "ElementDualityReport",
    "element_duality_report",
    "StateNormReport",
    "state_norm_report",
    "CommutativeExtremalReport",
    "extremal_commutative_characterization",
    "simplex_vertex_reports",
]

STATE_TOL = 1e-9  # is_state's default, and the tolerance of every report here
EXTREMAL_POINTS = 16  # the most points the simplex takes: its reports scan every subset


class EffectAlgebraState:
    """Valuation table on a finite effect algebra; values may be exact."""

    def __init__(self, ea: FiniteEffectAlgebra, values):
        self.ea = ea
        vals = list(values)
        if len(vals) != ea.n:
            raise ValueError("need one value per element")
        self.values = tuple(vals)

    def __call__(self, e: int):
        return self.values[e]

    def is_exact(self) -> bool:
        return all(isinstance(v, Rational) for v in self.values)

    def __repr__(self) -> str:
        return f"EffectAlgebraState({list(self.values)!r})"


class DensityState:
    """rho(a) = pairing(d, a) for the read-only density payload d.

    On either space: trace(D a) for a density matrix D, or the weighted
    sum of a over the points for a probability vector.
    """

    def __init__(self, space, density):
        self.space = space
        d = np.asarray(density, dtype=float)
        # a vector is its own transpose. Past half the float range the sum
        # overflows; halving first cannot, and there it is exact
        with np.errstate(over="ignore"):
            sym = (d + d.T) / 2.0
        if not np.isfinite(sym).all():
            half = d / 2.0 + d.T / 2.0
            sym = np.where(np.isinf(sym) & np.isfinite(half), half, sym)
        self.density = sym
        self.density.flags.writeable = False

    def __call__(self, a: Element) -> float:
        return self.space.pairing(self.density, a.payload)

    def __repr__(self) -> str:
        return f"DensityState({self.space!r}, {self.density.tolist()!r})"


def _ea_state_values(ea: FiniteEffectAlgebra, candidate):
    if isinstance(candidate, EffectAlgebraState):
        return list(candidate.values)
    if isinstance(candidate, dict):
        return [candidate[lab] for lab in ea.labels]
    return list(candidate)


def is_state(structure, candidate, tol: float = STATE_TOL) -> bool:
    """Dispatch on the structure kind; exact when the data is exact.

    Effect algebras: value 1 at the top, values in [0, 1], additive on
    every defined orthosum. Matrix instance: symmetric PSD unit-trace
    density. Function instance: nonnegative weights summing to one. A
    NaN or infinite value is never part of a state.
    """
    if isinstance(structure, FiniteEffectAlgebra):
        vals = _ea_state_values(structure, candidate)
        if all(isinstance(v, Rational) for v in vals):
            return _is_exact_ea_state(structure, vals)
        # float() overflows on a huge exact value, so those meet the bounds first
        if any(isinstance(v, Rational) and not -tol <= v <= 1.0 + tol for v in vals):
            return False
        fvals = [float(v) for v in vals]
        # every comparison with NaN is false, so no bound below would catch one
        if not all(map(isfinite, fvals)) or abs(fvals[structure.one] - 1.0) > tol:
            return False
        if any(v < -tol or v > 1.0 + tol for v in fvals):
            return False
        return not any(abs(fvals[e] + fvals[f] - fvals[g]) > tol
                       for e, f, g in structure.orthosums)

    if not hasattr(structure, "is_density"):
        raise TypeError(f"no state notion for {structure!r}")
    density = candidate.density if isinstance(candidate, DensityState) else candidate
    density = np.asarray(density, dtype=float)
    return bool(np.isfinite(density).all()) and structure.is_density(density, tol)


def _is_exact_ea_state(ea: FiniteEffectAlgebra, vals) -> bool:
    """The exact state conditions, in integers over one common denominator.

    With L the lcm of the denominators, w = num / L: w(one) = 1, each
    w in [0, 1] and every defined orthosum additive read num[one] = L,
    0 <= num <= L and num[e] + num[f] = num[g]. int() keeps numpy
    integers from overflowing. The orthosums are the table's defined
    entries with e <= f, which by commutativity carry every ordered pair.
    """
    dens = [int(v.denominator) for v in vals]
    L = lcm(*dens)
    nums = [int(v.numerator) * (L // q) for v, q in zip(vals, dens)]
    if nums[ea.one] != L or any(x < 0 or x > L for x in nums):
        return False
    return all(nums[e] + nums[f] == nums[g] for e, f, g in ea.orthosums)


# ---------------------------------------------------------------------------
# The state polytope of a finite effect algebra


@dataclass
class StatePolytope:
    """H-representation and exact vertex data of the state space.

    equalities holds (e, f, g) index triples meaning w(e) + w(f) = w(g),
    together with the implicit w(zero) = 0 and w(one) = 1; the box
    constraints 0 <= w <= 1 complete the description. dimension is the
    dimension of the affine hull cut out by the equalities (-1 when the
    equalities are already inconsistent).
    """

    ea: FiniteEffectAlgebra
    equalities: list[tuple[int, int, int]]
    dimension: int
    feasible: bool
    vertices: list[EffectAlgebraState] = field(default_factory=list)
    certificate: InfeasibilityCertificate | None = None


def state_polytope(ea: FiniteEffectAlgebra) -> StatePolytope:
    """Cut out the state space and enumerate its vertices exactly.

    Every vertex is re-verified to be an exact state and to be extreme:
    no other point of the polytope is 0 and 1 where the vertex is.
    """
    n = ea.n
    triples = list(ea.orthosums)

    rows: list[list[int]] = []
    rhs: list[int] = []
    row = [0] * n
    row[ea.zero] = 1
    rows.append(row)
    rhs.append(0)
    row = [0] * n
    row[ea.one] = 1
    rows.append(row)
    rhs.append(1)
    for e, f, g in triples:
        row = [0] * n
        row[e] += 1
        row[f] += 1
        row[g] -= 1
        if any(row):
            rows.append(row)
            rhs.append(0)

    enum = enumerate_box_vertices(rows, rhs, n)
    verts = [EffectAlgebraState(ea, v) for v in enum.vertices]
    for st in verts:
        if not is_state(ea, st):
            raise AssertionError("enumerated vertex is not a state")
    _assert_vertices_are_extreme(rows, verts)
    return StatePolytope(
        ea=ea,
        equalities=triples,
        dimension=enum.dimension,
        feasible=enum.feasible,
        vertices=verts,
        certificate=enum.certificate,
    )


def _assert_vertices_are_extreme(rows: list[list[int]], verts: list[EffectAlgebraState]) -> None:
    """Exact vertex test in x-space, in integers.

    x is a vertex of {x in [0,1]^n : A x = b} exactly when the rows of A
    and the unit rows of the coordinates where x is 0 or 1 have rank n.
    The unit rows pivot on their own columns, so the test is that A,
    restricted to the other coordinates, has full column rank. A is an
    integer matrix, so its distinct nonzero restricted rows go to the
    fraction-free integer_rank. Twin rows of A are dropped once, before
    the vertices, and each vertex restricts the rest with one itemgetter.
    """
    frees = [[i for i, v in enumerate(st.values) if v != 0 and v != 1] for st in verts]
    distinct = list(dict.fromkeys(map(tuple, rows))) if any(frees) else []
    for k, free in enumerate(frees):
        if not free:
            continue  # the unit rows alone have rank n
        restricted = dict.fromkeys(map(itemgetter(*free), distinct))
        if len(free) == 1:  # itemgetter of one index returns entries, not 1-tuples
            restricted = [(v,) for v in restricted]
        rank = integer_rank([row for row in restricted if any(row)])
        if rank < len(free):
            raise AssertionError(
                f"vertex {k} is not extreme: the equalities fix only {rank} "
                f"of its {len(free)} coordinates strictly inside (0, 1)"
            )


def extremal_states(arg) -> list[EffectAlgebraState]:
    """Vertex list of the state polytope (accepts an algebra or polytope)."""
    poly = arg if isinstance(arg, StatePolytope) else state_polytope(arg)
    return list(poly.vertices)


@lru_cache(maxsize=None)
def _simplex_vertex_data(k: int) -> tuple[tuple[Fraction, ...], ...]:
    """The exact vertices of the k-point simplex; past EXTREMAL_POINTS, ValueError."""
    if k > EXTREMAL_POINTS:
        raise ValueError(f"the simplex takes at most {EXTREMAL_POINTS} points, got {k}; "
                         "keep the point set small")
    enum = enumerate_box_vertices([[1] * k], [1], k)
    return tuple(tuple(v) for v in enum.vertices)


def simplex_vertices(space: FunctionSpace) -> list[list[Fraction]]:
    """Exact vertices of the probability simplex over the point set.

    The enumeration depends only on the dimension, so it is memoized;
    callers get fresh lists. Past EXTREMAL_POINTS points, ValueError.
    """
    return [list(v) for v in _simplex_vertex_data(space.dimension)]


# ---------------------------------------------------------------------------
# States <-> effect-interval morphisms


def restrict_state_to_effects(space, rho):
    """The state rho restricted to the unit interval; rejects non-effects."""

    def omega(e: Element):
        if not in_unit_interval(e):
            raise ValueError("argument is not an effect")
        return rho(e)

    return omega


def extend_effects_valuation(space, omega) -> DensityState:
    """The state extending the effect valuation omega, as its density."""
    return density_from_functional(space, extend_effect_morphism(omega, space, 1.0))


def rho_omega_bijection(space, x):
    """Round-trip direction chosen by the argument's type.

    State-like objects are restricted to the unit interval; a bare
    callable is taken as an effect valuation and extended to a state.
    """
    if isinstance(x, DensityState):
        return restrict_state_to_effects(space, x)
    if callable(x):
        return extend_effects_valuation(space, x)
    raise TypeError("expected a state or an effect valuation")


def density_from_functional(space, rho) -> DensityState:
    """The density representing rho: d = sum of rho(b) b / pairing(b, b).

    The sum runs over the space's basis, which is orthogonal for the
    pairing, so b / pairing(b, b) is the dual basis and pairing(d, b) =
    rho(b) for every b.
    """
    d = sum(rho(b) / space.pairing(b.payload, b.payload) * b.payload for b in space.basis())
    return DensityState(space, d)


# ---------------------------------------------------------------------------
# Order and norm through the extremal states


@dataclass(frozen=True)
class ElementDualityReport:
    """Positivity and norm of an element read off the extremal states."""

    min_extremal: float
    sup_abs_extremal: float
    norm: float
    is_positive: bool
    positivity_matches: bool
    norm_matches: bool
    witness_state: object | None


def element_duality_report(a: Element) -> ElementDualityReport:
    space = a.space
    w, frame = space.eigh(a.payload)
    min_val = float(w[0])
    sup_abs = float(np.max(np.abs(w)))
    # the pure state on the least eigenvalue's first frame member
    witness = DensityState(space, space.projector(frame, [0])) if min_val < 0 else None
    is_pos = space.contains_positive(a)
    return ElementDualityReport(
        min_extremal=min_val,
        sup_abs_extremal=sup_abs,
        norm=a.norm(),
        is_positive=is_pos,
        positivity_matches=is_pos == (min_val >= -STATE_TOL),
        norm_matches=abs(a.norm() - sup_abs) <= STATE_TOL,
        witness_state=witness,
    )


@dataclass(frozen=True)
class StateNormReport:
    """||rho|| over the unit ball, its maximizer, and rho at the unit."""

    norm: float
    value_at_unit: float
    maximizer: Element
    maximizer_in_ball: bool
    identity_holds: bool


def state_norm_report(space, state) -> StateNormReport:
    """The norm of a positive functional is its value at the order unit.

    The documented maximizer: the sign combination of eigenprojections
    of the density matrix, or the sign vector of the weights; for a
    genuine state both collapse to the order unit itself.
    """
    if not isinstance(state, DensityState):
        raise TypeError("need a canonical state representation")
    w, frame = space.eigh(state.density)
    signs = np.where(w >= 0, 1.0, -1.0)
    maximizer = Element(space, space.assemble(frame, signs))
    norm = float(np.sum(np.abs(w)))
    value_at_unit = state(space.unit())
    return StateNormReport(
        norm=norm,
        value_at_unit=value_at_unit,
        maximizer=maximizer,
        maximizer_in_ball=maximizer.norm() <= 1.0 + STATE_TOL,
        identity_holds=abs(norm - state(maximizer)) <= STATE_TOL
        and abs(norm - value_at_unit) <= STATE_TOL,
    )


# ---------------------------------------------------------------------------
# Extremal states of the commutative instance


@dataclass(frozen=True)
class CommutativeExtremalReport:
    """Four equivalent extremality conditions plus the min-rule.

    is_vertex: membership in the exactly enumerated simplex vertex set.
    point_evaluation: the point label when the state is evaluation at a
    point. is_multiplicative: rho(ab) = rho(a) rho(b) on a spanning
    family. zero_one_on_projections: rho of every indicator lies in
    {0, 1}. The min-rule holds at extremal states for all positive
    pairs and fails somewhere otherwise; the witness records a failing
    pair of indicators when one exists.
    """

    is_vertex: bool
    point_evaluation: str | None
    is_multiplicative: bool
    zero_one_on_projections: bool
    all_equivalent: bool
    min_rule_holds: bool
    min_rule_witness: tuple[str, str] | None


def extremal_commutative_characterization(space, state) -> CommutativeExtremalReport:
    """The report on one state: the one-row case of _extremal_reports."""
    mu = state.density if isinstance(state, DensityState) else np.asarray(state, dtype=float)
    return _extremal_reports(space, mu[None])[0]


def simplex_vertex_reports(space: FunctionSpace) -> list[CommutativeExtremalReport]:
    """The reports on simplex_vertices(space), in order, from one stack of memoized floats."""
    return _extremal_reports(space, _simplex_constants(space.dimension)[0])


@lru_cache(maxsize=None)
def _simplex_constants(k: int) -> tuple[np.ndarray, ...]:
    """Read-only arrays of the k-point formulas, built once per k.

    The exact simplex vertices as floats; the point indicators (also the
    point evaluations); the products and the minima of the k^2 indicator
    pairs (i, j), row i k + j; the 2^k subset indicators, one per row.
    """
    verts = np.array(_simplex_vertex_data(k), dtype=float)
    gammas = np.eye(k)
    products = (gammas[:, None, :] * gammas[None, :, :]).reshape(k * k, k)
    minima = np.minimum(gammas[:, None, :], gammas[None, :, :]).reshape(k * k, k)
    masks = (np.arange(1 << k)[:, None] >> np.arange(k) & 1).astype(float)
    for a in (verts, gammas, products, minima, masks):
        a.flags.writeable = False
    return verts, gammas, products, minima, masks


def _extremal_reports(space, weights: np.ndarray) -> list[CommutativeExtremalReport]:
    """One report per row of an (m, k) stack of weights, by whole-stack formulas.

    Every row must be a state, by the space's own density rule; the
    first condition failing on any row raises, in the order below, then
    the simplex's point bound. The first point evaluation and the first
    failing min-rule pair of each row are read off with argmax over its
    flattened conditions.
    """
    if not space.commutative:
        raise ValueError("commutative algebras only")
    if not (weights.ndim == 2 and np.isfinite(weights).all()
            and np.all(space.is_density(weights, STATE_TOL))):
        raise ValueError("not a state on the function algebra")
    k = space.dimension
    tol = STATE_TOL
    m = len(weights)
    verts, gammas, products, minima, masks = _simplex_constants(k)
    is_vertex = np.any(np.all(np.abs(verts - weights[:, None, :]) <= tol, axis=2), axis=1)

    at_point = np.max(np.abs(weights[:, None, :] - gammas), axis=2) <= tol
    first_point = np.argmax(at_point, axis=1)
    has_point = at_point[np.arange(m), first_point]

    # the state on each member of a family, as one (1, k) @ (k, N) product
    # per row: a row's values are bit for bit the one-row report's, where
    # a single (m, k) product may sum in another order
    rows = weights[:, None, :]

    def state_on(family: np.ndarray) -> np.ndarray:
        return (rows @ family.T)[:, 0]

    rho_ind = state_on(gammas)
    pairs = state_on(products).reshape(m, k, k)
    is_multiplicative = ~np.any(np.abs(pairs - rho_ind[:, :, None] * rho_ind[:, None, :]) > tol,
                                axis=(1, 2))

    v = state_on(masks)
    zero_one = ~np.any(np.minimum(np.abs(v), np.abs(v - 1.0)) > tol, axis=1)

    met = state_on(minima).reshape(m, k, k)
    fails = np.abs(met - np.minimum(rho_ind[:, :, None], rho_ind[:, None, :])) > tol
    fails[:, np.arange(k), np.arange(k)] = False
    fails = fails.reshape(m, k * k)
    first_fail = np.argmax(fails, axis=1)
    has_fail = fails[np.arange(m), first_fail]

    reports = []
    for r in range(m):
        point_evaluation = space.points[first_point[r]] if has_point[r] else None
        flags = (bool(is_vertex[r]), point_evaluation is not None,
                 bool(is_multiplicative[r]), bool(zero_one[r]))
        witness = None
        if has_fail[r]:
            i, j = divmod(int(first_fail[r]), k)
            witness = (space.points[i], space.points[j])
        reports.append(CommutativeExtremalReport(
            is_vertex=flags[0],
            point_evaluation=point_evaluation,
            is_multiplicative=flags[2],
            zero_one_on_projections=flags[3],
            all_equivalent=len(set(flags)) == 1,
            min_rule_holds=witness is None,
            min_rule_witness=witness,
        ))
    return reports
