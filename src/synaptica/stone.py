"""Stone representation and the commutative functional picture.

A finite Boolean lattice is isomorphic to the field of all subsets of
its Stone space, the set of lattice homomorphisms onto {0, 1}. In the
finite case the homomorphisms correspond exactly to the atoms, so
points are carried as atom indices; the hom-set reading survives in
``StoneSpace.hom`` and is verified exhaustively at construction.

On the operator side, a commutative subalgebra spanned by commuting
projections is isomorphic, as a normed ordered algebra, to the
function algebra over the Stone space of its projection lattice. The
isomorphism, its inverse, and the Boolean restriction to projections
are all built and verified here, together with state transport across
the isomorphism. The verification report draws six sample elements and
computes each sample's image and norm once; every check reads those,
and only the elements built from the samples (sums, Jordan products,
shifts) and the generators are mapped again.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .posets import BoundedOrtholattice, StructureError, classify
from .order_unit import Element, FunctionSpace
from . import synaptic
from .states import ProbabilityVectorState

__all__ = [
    "StoneSpace",
    "stone_space",
    "stone_map",
    "FunctionalRepresentation",
    "RepresentationReport",
    "functional_representation",
    "transport_state",
    "pull_back_state",
    "RickartReport",
    "rickart_completeness_report",
]


@dataclass(frozen=True)
class StoneSpace:
    """Atoms-as-points picture of a finite Boolean lattice.

    char[p][b] is the value of the p-th homomorphism at lattice element
    b, i.e. 1 exactly when atom p lies below b.
    """

    lattice: BoundedOrtholattice
    atoms: tuple[int, ...]
    char: tuple[tuple[int, ...], ...]

    @property
    def points(self) -> tuple[str, ...]:
        return tuple(self.lattice.labels[a] for a in self.atoms)

    def hom(self, point: int):
        """The point as a map on lattice elements."""
        row = self.char[point]
        return lambda b: row[b]


def _atoms_of(lat: BoundedOrtholattice) -> list[int]:
    bot = lat.zero
    out = []
    for a in range(lat.n):
        if a == bot:
            continue
        below = [x for x in range(lat.n) if lat.leq(x, a) and x != a]
        if below == [bot]:
            out.append(a)
    return out


def stone_space(lat: BoundedOrtholattice) -> StoneSpace:
    """Enumerate the two-valued homomorphisms of a Boolean lattice.

    Verifies, exhaustively, that every point preserves bounds, meets,
    joins, and complements, and that b |-> K_b is a Boolean
    isomorphism onto the field of all subsets of the point set.
    """
    flags = classify(lat)
    if not flags.is_boolean:
        raise StructureError("Stone representation needs a Boolean lattice")
    atoms = _atoms_of(lat)
    char = tuple(
        tuple(1 if lat.leq(a, b) else 0 for b in range(lat.n)) for a in atoms
    )
    st = StoneSpace(lattice=lat, atoms=tuple(atoms), char=char)

    bot, top = lat.zero, lat.one
    for p in range(len(atoms)):
        x = st.hom(p)
        if x(bot) != 0 or x(top) != 1:
            raise StructureError(f"point {p} does not preserve the bounds")
        for b in range(lat.n):
            if x(lat.perp[b]) != 1 - x(b):
                raise StructureError(f"point {p} does not preserve complements")
            for c in range(lat.n):
                if x(lat.meet(b, c)) != min(x(b), x(c)):
                    raise StructureError(f"point {p} does not preserve meets")
                if x(lat.join(b, c)) != max(x(b), x(c)):
                    raise StructureError(f"point {p} does not preserve joins")

    images = [stone_map(st, b) for b in range(lat.n)]
    if len(set(images)) != lat.n:
        raise StructureError("clopen-set map is not injective")
    if set(images) != {
        frozenset(s for s in range(len(atoms)) if mask >> s & 1)
        for mask in range(1 << len(atoms))
    }:
        raise StructureError("clopen-set map is not onto the subset field")
    for b in range(lat.n):
        if stone_map(st, lat.perp[b]) != frozenset(range(len(atoms))) - images[b]:
            raise StructureError("clopen-set map does not send complements to complements")
        for c in range(lat.n):
            if stone_map(st, lat.meet(b, c)) != images[b] & images[c]:
                raise StructureError("clopen-set map does not send meets to intersections")
            if stone_map(st, lat.join(b, c)) != images[b] | images[c]:
                raise StructureError("clopen-set map does not send joins to unions")
    return st


def stone_map(st: StoneSpace, b: int) -> frozenset[int]:
    """The clopen set of points taking the value 1 at b."""
    return frozenset(p for p in range(len(st.atoms)) if st.char[p][b] == 1)


# ---------------------------------------------------------------------------
# Functional representation of a commutative span of projections


@dataclass(frozen=True)
class RepresentationReport:
    linear: bool
    unital: bool
    multiplicative: bool
    isometric: bool
    order_isomorphism: bool
    projections_to_indicators: bool
    round_trip: bool
    spectrum_preserved: bool

    @property
    def passed(self) -> bool:
        return all(
            (
                self.linear,
                self.unital,
                self.multiplicative,
                self.isometric,
                self.order_isomorphism,
                self.projections_to_indicators,
                self.round_trip,
                self.spectrum_preserved,
            )
        )


class FunctionalRepresentation:
    """Isomorphism from a span of commuting projections onto functions.

    The atoms are the nonzero products over all sign patterns of the
    generating projections; each atom is one point of the target
    function space. to_function reads coefficients off the atomic
    resolution, from_function assembles them back.

    The sign patterns are walked as a prefix tree: at step i every live
    prefix product X splits into X(1 - p_i) and X p_i, each symmetrised
    by the space, exactly the float operations a scan over all 2^m
    patterns performs for the patterns sharing that prefix. A child
    whose Frobenius norm is at most 1/4 is dropped. The Frobenius norm
    bounds the order-unit norm, every factor is a projection or its
    complement of norm at most 1 + O(n PROJ_TOL), and symmetrising does
    not raise the norm, so every extension of a dropped prefix stays
    below the 0.5 at which a full product is rejected. The live prefixes
    are nearly orthogonal nonzero projections summing to the unit, so at
    most n survive a level (n the matrix size, or the number of points)
    and construction takes at most 2 n m products instead of m 2^m.
    Leaves keep the full product's test, norm > 0.5, and are ordered by
    pattern mask, which is the scan's order.
    """

    def __init__(self, space, projections, tol: float = 1e-9):
        self.space = space
        self.tol = tol
        projections = list(projections)
        for i, p in enumerate(projections):
            if not synaptic.is_projection(p):
                raise ValueError(f"generator {i} is not a projection")
        for i in range(len(projections)):
            for j in range(i + 1, len(projections)):
                if not space.commutes(projections[i], projections[j]):
                    raise ValueError(
                        f"generators ({i}, {j}) do not commute; no commutative span"
                    )
        self.projections = tuple(projections)
        m = len(projections)

        unit = space.unit()
        live: list[tuple[int, Element]] = [(0, unit)]  # (pattern mask, prefix product)
        for i, p in enumerate(projections):
            branches = ((0, unit - p), (1 << i, p))
            grown = []
            for mask, prod in live:
                for bit, factor in branches:
                    child = space.element(space.product(prod, factor))
                    if np.linalg.norm(child.payload) > 0.25:
                        grown.append((mask | bit, child))
            live = grown
        leaves = sorted(
            ((mask, prod) for mask, prod in live if prod.norm() > 0.5), key=lambda leaf: leaf[0]
        )
        self.atoms = tuple(prod for _, prod in leaves)
        self.patterns = tuple(tuple(mask >> i & 1 for i in range(m)) for mask, _ in leaves)
        self.function_space = FunctionSpace(tuple(f"x{i}" for i in range(len(self.atoms))))
        self._atom_weights = tuple(space.pairing(q.payload, q.payload) for q in self.atoms)
        self.report = self._verify()

    def to_function(self, a: Element) -> Element:
        if not synaptic.in_span(list(self.atoms), a, tol=self.tol):
            raise ValueError("element is not in the represented span")
        lam = [
            self.space.pairing(a.payload, q.payload) / w
            for q, w in zip(self.atoms, self._atom_weights)
        ]
        return Element(self.function_space, np.array(lam))

    def from_function(self, g: Element) -> Element:
        acc = self.space.zero_element()
        for coeff, q in zip(g.payload, self.atoms):
            acc = acc + q * float(coeff)
        return acc

    def psi(self, p: Element) -> Element:
        """Boolean restriction: a projection goes to a 0/1 indicator."""
        if not synaptic.is_projection(p):
            raise ValueError("psi applies to projections only")
        g = self.to_function(p)
        rounded = np.round(g.payload)
        if np.max(np.abs(g.payload - rounded)) > self.tol:
            raise ValueError("projection does not map to an indicator")
        return Element(self.function_space, rounded)

    def _verify(self) -> RepresentationReport:
        space, fs = self.space, self.function_space
        tol = self.tol
        rng = np.random.default_rng(2718)
        samples = []
        for _ in range(6):
            lam = rng.uniform(-2.0, 2.0, size=len(self.atoms))
            samples.append(self.from_function(Element(fs, lam)))
        # every check below reads these; only elements that are not
        # samples themselves go through to_function again
        images = [self.to_function(a) for a in samples]
        norms = [a.norm() for a in samples]
        pairs = ((0, 1), (2, 3), (4, 5))

        linear = True
        for i, j in pairs:
            lhs = self.to_function(samples[i] + samples[j] * 1.5)
            rhs = images[i] + images[j] * 1.5
            if (lhs - rhs).norm() > tol:
                linear = False

        unital = (self.to_function(space.unit()) - fs.unit()).norm() <= tol

        multiplicative = True
        for i, j in pairs:
            prod = synaptic.jordan(samples[i], samples[j])
            lhs = self.to_function(prod)
            rhs = Element(fs, images[i].payload * images[j].payload)
            if (lhs - rhs).norm() > tol:
                multiplicative = False

        isometric = all(abs(na - fa.norm()) <= tol for na, fa in zip(norms, images))

        order_iso = True
        for a, fa in zip(samples, images):
            if space.contains_positive(a) != bool(fa.payload.min() >= -tol):
                order_iso = False
        shifted = [a + space.unit() * (na + 1.0) for a, na in zip(samples[:2], norms)]
        if not all(
            space.contains_positive(a)
            and self.to_function(a).payload.min() >= -tol
            for a in shifted
        ):
            order_iso = False

        proj_ok = True
        for i, p in enumerate(self.projections):
            ind = self.psi(p)
            expected = np.array([float(pat[i]) for pat in self.patterns])
            if np.max(np.abs(ind.payload - expected)) > tol:
                proj_ok = False

        round_trip = all(
            (self.from_function(fa) - a).norm() <= 1e-12 * max(1.0, na)
            for a, fa, na in zip(samples, images, norms)
        )

        spectrum_ok = True
        for a, fa in zip(samples, images):
            spec_a = np.array(synaptic.spectrum(a))
            values = np.array(sorted(set(np.round(fa.payload, 9))))
            if len(spec_a) != len(values) or np.max(np.abs(spec_a - values)) > 1e-6:
                spectrum_ok = False

        return RepresentationReport(
            linear=linear,
            unital=unital,
            multiplicative=multiplicative,
            isometric=isometric,
            order_isomorphism=order_iso,
            projections_to_indicators=proj_ok,
            round_trip=round_trip,
            spectrum_preserved=spectrum_ok,
        )


def functional_representation(space, projections, tol: float = 1e-9) -> FunctionalRepresentation:
    return FunctionalRepresentation(space, projections, tol=tol)


def transport_state(rep: FunctionalRepresentation, rho) -> ProbabilityVectorState:
    """Push a state forward: the weight of a point is the state of its atom."""
    mu = [rho(q) / 1.0 for q in rep.atoms]
    return ProbabilityVectorState(rep.function_space, mu)


def pull_back_state(rep: FunctionalRepresentation, gamma):
    """Pull a function-space state back through the representation."""

    def rho(a: Element) -> float:
        return gamma(rep.to_function(a))

    return rho


# ---------------------------------------------------------------------------
# Closure properties of the finite commutative instance


@dataclass(frozen=True)
class RickartReport:
    """Finite checks of the annihilator and completeness properties.

    rickart_holds: for every sampled f the projection p with support
    disjoint from f satisfies fg = 0 iff g = pg, over a spanning
    family of g. indicators_complete: the indicator lattice is closed
    under arbitrary family joins and meets (bitmask scan). The density
    caveat of the infinite theory has no finite witness; the note says
    so instead of pretending to test it.
    """

    rickart_holds: bool
    rickart_samples: int
    indicators_complete: bool
    families_checked: int
    chain_suprema_ok: bool
    note: str


def rickart_completeness_report(
    space: FunctionSpace, seed: int = 0, samples: int = 12
) -> RickartReport:
    if not isinstance(space, FunctionSpace):
        raise ValueError("commutative algebras only")
    rng = np.random.default_rng(seed)
    k = space.dimension
    unit = space.unit()

    test_fs = [space.zero_element(), unit]
    for i in range(k):
        test_fs.append(space.indicator([i]))
    for _ in range(samples):
        mask = (rng.random(k) < 0.6).astype(float)
        test_fs.append(Element(space, rng.uniform(-2, 2, size=k) * mask))

    spanning_gs = [space.indicator([i]) for i in range(k)] + [
        Element(space, rng.uniform(-1, 1, size=k)) for _ in range(4)
    ]

    rickart = True
    for f in test_fs:
        p = unit - synaptic.carrier(f)
        for g in spanning_gs:
            fg_zero = bool(np.all(f.payload * g.payload == 0))
            fixed = bool(np.all(p.payload * g.payload == g.payload))
            if fg_zero != fixed:
                rickart = False

    # indicators as bitmasks: the join of any family is the bitwise or,
    # which is again an indicator and the least upper bound by bit logic
    complete = True
    families = 0
    n_inds = 1 << k
    if n_inds <= 16:
        for fam_mask in range(1, 1 << n_inds):
            fam = [i for i in range(n_inds) if fam_mask >> i & 1]
            join = 0
            meet = n_inds - 1
            for ind in fam:
                join |= ind
                meet &= ind
            if not (0 <= join < n_inds and 0 <= meet < n_inds):
                complete = False
            if any(ind | join != join or meet | ind != ind for ind in fam):
                complete = False
            families += 1
    else:
        for _ in range(2000):
            fam = rng.integers(0, n_inds, size=rng.integers(1, 8))
            join = 0
            for ind in fam:
                join |= int(ind)
            if any(int(ind) | join != join for ind in fam):
                complete = False
            families += 1

    chains_ok = True
    for _ in range(5):
        base = Element(space, rng.uniform(-1, 1, size=k))
        chain = [base]
        for _ in range(4):
            chain.append(chain[-1] + Element(space, rng.uniform(0, 0.5, size=k)))
        chain.append(chain[-1])
        sup = synaptic.supremum_of_ascending_chain(chain)
        if (sup - chain[-1]).norm() > 1e-12:
            chains_ok = False
        if np.max(np.stack([c.payload for c in chain]), axis=0).max() > sup.payload.max() + 1e-12:
            chains_ok = False

    return RickartReport(
        rickart_holds=rickart,
        rickart_samples=len(test_fs),
        indicators_complete=complete,
        families_checked=families,
        chain_suprema_ok=chains_ok,
        note=(
            "finite point set: the represented span is the whole function "
            "algebra, so the dense-subalgebra distinction of the general "
            "theory has no finite witness"
        ),
    )
