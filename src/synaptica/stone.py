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
the isomorphism.

The map to functions works on a stack of elements at once. The atoms
are flattened once, at construction, into the columns of one matrix;
one least-squares solve with a right-hand side per element tests span
membership for the whole stack (the norms behind the allowance are
taken only for residuals past tol), and the coefficients against the
atoms are one matrix product divided by the atom weights. to_function
is the one-element case. The verification report builds every element
its checks map (six samples, three linear combinations, the unit,
three Jordan products, two shifted samples and the generators), maps
them in one call, and takes the sample norms from one stacked
eigenvalue computation.
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
        norms = space.norm_of(np.stack([prod.payload for _, prod in live])) if live else ()
        leaves = sorted(
            ((mask, prod) for (mask, prod), norm in zip(live, norms) if norm > 0.5),
            key=lambda leaf: leaf[0],
        )
        self.atoms = tuple(prod for _, prod in leaves)
        self.patterns = tuple(tuple(mask >> i & 1 for i in range(m)) for mask, _ in leaves)
        self.function_space = FunctionSpace(tuple(f"x{i}" for i in range(len(self.atoms))))
        self._atom_matrix = np.stack([q.payload.ravel() for q in self.atoms], axis=1)
        self._atom_weights = np.array([space.pairing(q.payload, q.payload) for q in self.atoms])
        self.report = self._verify()

    def _functions_of(self, stack: np.ndarray) -> np.ndarray:
        """The function values of a stack of payloads, one row each.

        The pairing of symmetric payloads is the dot product of the
        flattened arrays on both spaces, so the coefficients against all
        atoms are one matrix product.
        """
        if not synaptic.span_members(self._atom_matrix, self.space, stack, self.tol).all():
            raise ValueError("element is not in the represented span")
        return (stack.reshape(len(stack), -1) @ self._atom_matrix) / self._atom_weights

    def _payloads_of(self, values: np.ndarray) -> np.ndarray:
        """The elements sum(g(x_i) q_i) of a stack of function values."""
        shape = (len(values),) + self.atoms[0].payload.shape
        return (values @ self._atom_matrix.T).reshape(shape)

    def to_function(self, a: Element) -> Element:
        return Element(self.function_space, self._functions_of(a.payload[None])[0])

    def from_function(self, g: Element) -> Element:
        return Element(self.space, self._payloads_of(g.payload[None])[0])

    def psi(self, p: Element) -> Element:
        """Boolean restriction: a projection goes to a 0/1 indicator."""
        if not synaptic.is_projection(p):
            raise ValueError("psi applies to projections only")
        return Element(self.function_space, self._indicators(self.to_function(p).payload))

    def _indicators(self, values: np.ndarray) -> np.ndarray:
        """Function values rounded to integers; raises unless each is within tol of its own."""
        rounded = np.round(values)
        if values.size and np.max(np.abs(values - rounded)) > self.tol:
            raise ValueError("projection does not map to an indicator")
        return rounded

    def _verify(self) -> RepresentationReport:
        space, fs = self.space, self.function_space
        tol = self.tol
        rng = np.random.default_rng(2718)
        sample_stack = self._payloads_of(rng.uniform(-2.0, 2.0, size=(6, len(self.atoms))))
        samples = [Element(space, x) for x in sample_stack]
        norms = space.norm_of(sample_stack)
        pairs = ((0, 1), (2, 3), (4, 5))
        unit = space.unit()
        shifted = [a + unit * (na + 1.0) for a, na in zip(samples[:2], norms)]
        # every element a check maps, mapped in one call: rows 0-5 the
        # samples, 6-8 the combinations, 9 the unit, 10-12 the Jordan
        # products, 13-14 the shifted samples, then the generators
        mapped = samples + [samples[i] + samples[j] * 1.5 for i, j in pairs] + [unit]
        mapped += [synaptic.jordan(samples[i], samples[j]) for i, j in pairs]
        mapped += shifted + list(self.projections)
        values = self._functions_of(np.stack([a.payload for a in mapped]))
        images, combos, unit_image = values[:6], values[6:9], values[9]
        products, shifted_images, indicators = values[10:13], values[13:15], values[15:]

        first, second = [i for i, _ in pairs], [j for _, j in pairs]
        linear = not np.any(
            np.max(np.abs(combos - (images[first] + images[second] * 1.5)), axis=1) > tol
        )

        unital = bool(np.max(np.abs(unit_image - fs.unit().payload)) <= tol)

        multiplicative = not np.any(
            np.max(np.abs(products - images[first] * images[second]), axis=1) > tol
        )

        isometric = bool(np.all(np.abs(norms - fs.norm_of(images)) <= tol))

        order_iso = True
        for a, fa in zip(samples, images):
            if space.contains_positive(a) != bool(fa.min() >= -tol):
                order_iso = False
        if not all(
            space.contains_positive(a) and fa.min() >= -tol
            for a, fa in zip(shifted, shifted_images)
        ):
            order_iso = False

        # psi on each generator (already tested as a projection), read off the batch
        rounded = self._indicators(indicators)
        expected = np.array(self.patterns, dtype=float).T
        proj_ok = not (indicators.size and np.max(np.abs(rounded - expected)) > tol)

        round_trip = bool(np.all(
            space.norm_of(self._payloads_of(images) - sample_stack) <= 1e-12 * np.fmax(1.0, norms)
        ))

        spectrum_ok = True
        for a, fa in zip(samples, images):
            spec_a = np.array(synaptic.spectrum(a))
            distinct = np.array(sorted(set(np.round(fa, 9))))
            if len(spec_a) != len(distinct) or np.max(np.abs(spec_a - distinct)) > 1e-6:
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
