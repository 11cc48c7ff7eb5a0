"""The library's decision thresholds are constants, not arguments.

Reports may loosen through SYNAPTICA_TOL, which reaches the library only
as is_state's tol; every other threshold is a module constant, so no
caller can change a verdict by passing one.
"""

import inspect

from synaptica import order_unit, states, stone, synaptic

THRESHOLD_NAMES = {"tol", "gap", "samples", "rank"}

# the parameters of these names that stay, and why
KEPT = {
    # the CLI sets it from SYNAPTICA_TOL
    "synaptica.states.is_state": {"tol"},
    # is_state hands its tol on to the space it judges against
    "synaptica.order_unit.SymmetricMatrixSpace.is_density": {"tol"},
    "synaptica.order_unit.FunctionSpace.is_density": {"tol"},
    # in_span and the functional representation pass it their own constants
    "synaptica.synaptic.span_members": {"tol"},
    # the list of elements the morphism is checked on, not a count
    "synaptica.synaptic.check_synaptic_morphism": {"samples"},
}


def _callables():
    """(qualified name, callable) over each module's __all__ and the methods of its classes."""
    for mod in (order_unit, synaptic, states, stone):
        for name in mod.__all__:
            obj = getattr(mod, name)
            yield f"{mod.__name__}.{name}", obj
            if isinstance(obj, type):
                for attr, value in vars(obj).items():
                    if callable(value):
                        yield f"{mod.__name__}.{name}.{attr}", value


def _threshold_parameters():
    found = {}
    for qualname, obj in _callables():
        try:
            params = inspect.signature(obj).parameters
        except (TypeError, ValueError):  # a builtin without a signature
            continue
        names = THRESHOLD_NAMES & set(params)
        if names:
            found[qualname] = names
    return found


def test_no_threshold_is_a_parameter():
    assert _threshold_parameters() == KEPT


PROTOCOL = {"element", "payloads", "unit", "zero_element", "norm_of", "contains_positive",
            "in_cone", "product", "multiply", "commutes", "commuting", "basis",
            "random_element", "random_effect", "random_projection", "eigh", "assemble",
            "projector", "rank_tol", "pairing", "is_projection", "idempotent", "commutant",
            "projection_meet", "is_density", "commutative"}


def test_each_space_defines_the_protocol_itself():
    # the scan above, like perfbench's tracer, reads each class's own namespace
    for cls in (order_unit.SymmetricMatrixSpace, order_unit.FunctionSpace):
        assert PROTOCOL <= set(vars(cls)), cls
