"""The package namespace: one export table, each module loaded on first use.

`import synaptica` loads none of the package's modules. A public name
imports its module when it is first read, and a command line loads the
modules it runs and no others; a fresh interpreter's sys.modules shows
which.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import synaptica

# the public surface, in order
PUBLIC = [
    "BoundedOrtholattice", "Classification", "FinitePoset", "StructureError", "classify",
    "is_oml", "join", "meet", "subset_inf_sup", "AxiomViolation", "EffectAlgebraError",
    "FiniteEffectAlgebra", "FiniteMVAlgebra", "check_ea_axioms", "check_morphism",
    "check_mv_axioms", "ea_to_mv", "induced_order", "is_mv_effect_algebra",
    "is_sub_effect_algebra", "mv_to_ea", "oml_to_ea", "orthosum_family", "AffineSet",
    "InfeasibilityCertificate", "VertexEnumeration", "affine_solution_set",
    "enumerate_box_vertices", "Element", "FunctionSpace", "SymmetricMatrixSpace",
    "extend_effect_morphism", "in_unit_interval", "positive_decomposition",
    "SpectralResolution", "carrier", "commutant", "decompose", "double_commutant", "inverse",
    "is_effect", "is_invertible", "is_projection", "jordan", "proj_join", "proj_meet",
    "quadratic", "simple_form", "spectral_resolution", "spectrum", "sqrt", "step_projection",
    "stieltjes_reconstruct", "DensityState", "EffectAlgebraState", "StatePolytope",
    "element_duality_report", "extremal_commutative_characterization", "extremal_states",
    "is_state", "rho_omega_bijection", "state_norm_report", "state_polytope",
    "FunctionalRepresentation", "StoneSpace", "functional_representation",
    "rickart_completeness_report", "stone_map", "stone_space", "transport_state",
]

SRC = str(Path(synaptica.__file__).resolve().parents[1])

HALVES = {"kind": "effect_algebra", "label": "halves", "elements": ["0", "h", "1"],
          "zero": "0", "one": "1",
          "osum": [["0", "0", "0"], ["0", "h", "h"], ["h", "0", "h"],
                   ["0", "1", "1"], ["1", "0", "1"], ["h", "h", "1"]]}
MATRIX = {"kind": "sym_matrix", "label": "m", "n": 2, "entries": [1.0, 0.0, 0.0, -2.0]}

# the package's modules that check and states load on an effect algebra
FOR_STATES = ["cli", "effect_algebras", "exact", "order_unit", "posets", "states"]
EVERY_MODULE = sorted(p.stem for p in Path(synaptica.__file__).parent.glob("*.py")
                      if p.stem not in ("__init__", "__main__"))


def loaded_after(source: str) -> list[str]:
    """The package's modules a fresh interpreter holds after running source."""
    probe = (source + "\nimport json, sys\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "                        if m.split('.')[0] == 'synaptica')))\n")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    env.pop("SYNAPTICA_TOL", None)
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    return [m.removeprefix("synaptica.") for m in json.loads(proc.stdout.splitlines()[-1])]


def test_importing_the_package_loads_no_module():
    assert loaded_after("import synaptica") == ["synaptica"]


@pytest.mark.parametrize("argv, doc, modules", [
    (["check"], HALVES, FOR_STATES),
    (["states", "--extremal"], HALVES, FOR_STATES),
    (["spectral"], MATRIX, sorted(FOR_STATES + ["synaptic"])),
    (["verify", "posets"], None, EVERY_MODULE),
], ids=["check", "states", "spectral", "verify"])
def test_a_command_loads_only_the_modules_it_runs(tmp_path, argv, doc, modules):
    if doc is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        argv = argv + [str(path)]
    source = ("import contextlib, io\n"
              "from synaptica.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              f"    assert main({argv!r}) == 0\n")
    assert loaded_after(source) == ["synaptica"] + modules


def test_all_is_the_public_surface_and_each_name_its_modules_object():
    assert synaptica.__all__ == PUBLIC
    for name in PUBLIC:
        obj = getattr(synaptica, name)
        assert obj.__module__.startswith("synaptica.")
        assert vars(sys.modules[obj.__module__])[name] is obj, name


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        synaptica.no_such_name
    assert not hasattr(synaptica, "rref")


def test_dir_and_star_import_cover_the_public_surface():
    assert set(PUBLIC) <= set(dir(synaptica))
    namespace = {}
    exec("from synaptica import *", namespace)
    assert all(namespace[name] is getattr(synaptica, name) for name in PUBLIC)
    # nothing is cached in the package, so a patched module attribute shows through
    assert not set(PUBLIC) & set(vars(synaptica))
