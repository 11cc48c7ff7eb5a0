"""Desk-scale laboratory for the quantum-structures hierarchy.

Finite posets and orthomodular lattices, effect algebras and
MV-algebras, order-unit normed spaces, synaptic algebras over real
symmetric matrices and finite function algebras, their state spaces,
and the Stone/functional representation of the commutative case. Every
constructive definition is executable and every structural claim is
checked by exhaustive scan or an independent numerical oracle.

Importing the package loads none of its modules. Each public name is
imported from its module on first access (PEP 562), so a command line
loads only the modules it runs.
"""

import importlib

# each public name under the module that defines it, in __all__ order
_EXPORTS = {
    "posets": (
        "BoundedOrtholattice", "Classification", "FinitePoset", "StructureError",
        "classify", "is_oml", "join", "meet", "subset_inf_sup",
    ),
    "effect_algebras": (
        "AxiomViolation", "EffectAlgebraError", "FiniteEffectAlgebra", "FiniteMVAlgebra",
        "check_ea_axioms", "check_morphism", "check_mv_axioms", "ea_to_mv",
        "induced_order", "is_mv_effect_algebra", "is_sub_effect_algebra", "mv_to_ea",
        "oml_to_ea", "orthosum_family",
    ),
    "exact": (
        "AffineSet", "InfeasibilityCertificate", "VertexEnumeration",
        "affine_solution_set", "enumerate_box_vertices",
    ),
    "order_unit": (
        "Element", "FunctionSpace", "SymmetricMatrixSpace", "extend_effect_morphism",
        "in_unit_interval", "positive_decomposition",
    ),
    "synaptic": (
        "SpectralResolution", "carrier", "commutant", "decompose", "double_commutant",
        "inverse", "is_effect", "is_invertible", "is_projection", "jordan", "proj_join",
        "proj_meet", "quadratic", "simple_form", "spectral_resolution", "spectrum", "sqrt",
        "step_projection", "stieltjes_reconstruct",
    ),
    "states": (
        "DensityState", "EffectAlgebraState", "StatePolytope", "element_duality_report",
        "extremal_commutative_characterization", "extremal_states", "is_state",
        "rho_omega_bijection", "state_norm_report", "state_polytope",
    ),
    "stone": (
        "FunctionalRepresentation", "StoneSpace", "functional_representation",
        "rickart_completeness_report", "stone_map", "stone_space", "transport_state",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """The public name's object, read off its module, which is imported if it is not yet.

    Nothing is stored in the package namespace, so each access reads the
    module's current attribute, a patched one included. A submodule
    name is not in the table: the import system then loads the submodule
    itself, as for ``from synaptica import states``.
    """
    try:
        module = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
