"""Each synaptica module reaches the others through their public names.

A module that reads another's `_`-prefixed attribute ties itself to that
module's internals: the private function can change its contract, or
lose a guard its public callers rely on, without the caller noticing.
The scan reads the source of every module in the package and flags both
`from .mod import _name` and `alias._name` where alias is a synaptica
module bound by `from . import mod as alias`.

The eigendecompositions and SVDs of numpy.linalg are reached the same
way: only order_unit, whose two space classes define eigh, norm_of,
in_cone, commutant and projection_meet, names them; every other module
goes through the space protocol, so the work it asks for is the space's
to count and the function instance can answer without LAPACK.
"""

import ast
from pathlib import Path

import synaptica

PACKAGE = Path(synaptica.__file__).resolve().parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(source: str) -> list[str]:
    """'module._name' for each private attribute of a sibling module the source reads."""
    tree = ast.parse(source)
    modules = {}  # local name -> sibling module it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                elif _private(alias.name):
                    found.append(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules and _private(node.attr)):
            found.append(f"{modules[node.value.id]}.{node.attr}")
    return found


def test_no_module_reads_a_private_name_of_another():
    reads = {path.name: private_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_scan_sees_both_forms():
    source = ("from . import states as stt\n"
              "from .synaptic import _clusters, jordan\n"
              "stt._simplex_constants(3)\n"
              "stt.simplex_vertices(space)\n")
    assert private_reads(source) == ["synaptic._clusters", "states._simplex_constants"]


LAPACK = {"numpy.linalg.eigh", "numpy.linalg.eigvalsh", "numpy.linalg.svd"}


def lapack_reads(source: str) -> list[str]:
    """Each name in the source that resolves to one of LAPACK, under any import alias."""
    tree = ast.parse(source)
    bound = {}  # local name -> the dotted path it is bound to
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.split(".")[0]
                bound[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in bound:
            path = ".".join([bound[node.id]] + attrs[::-1])
            if path in LAPACK:
                found.append(path)
    return found


def test_only_order_unit_calls_the_eigensolvers_and_svd():
    reads = {path.name: lapack_reads(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}
    assert reads.pop("order_unit.py")
    assert {name: found for name, found in reads.items() if found} == {}


def test_the_lapack_scan_sees_every_alias():
    source = ("import numpy as np\n"
              "import numpy.linalg as la\n"
              "from numpy import linalg\n"
              "from numpy.linalg import svd as decompose\n"
              "np.linalg.eigh(x)\n"
              "la.eigvalsh(x)\n"
              "linalg.svd(x)\n"
              "decompose(x)\n"
              "np.linalg.lstsq(x, y)\n"
              "space.eigh(x)\n")
    assert sorted(lapack_reads(source)) == ["numpy.linalg.eigh", "numpy.linalg.eigvalsh",
                                            "numpy.linalg.svd", "numpy.linalg.svd"]
