"""Each synaptica module reaches the others through their public names.

A module that reads another's `_`-prefixed attribute ties itself to that
module's internals: the private function can change its contract, or
lose a guard its public callers rely on, without the caller noticing.
The scan reads the source of every module in the package and flags both
`from .mod import _name` and `alias._name` where alias is a synaptica
module bound by `from . import mod as alias`.
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
