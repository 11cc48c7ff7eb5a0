"""The benchmark's traced mode still installs against the library.

perfbench/tracer.py wraps, by name, every function in each layer's
__all__ and the methods in its METHODS table, and reads `.ok` and the
table off each axiom-scan report; a renamed or deleted one makes
install() or the count fail. The tracer is loaded by path, as the
benchmark's worker loads tests/helpers.py.
"""

import importlib.util
import json
from pathlib import Path

# install() wraps all eight layer modules, so each is imported here: the
# package itself loads none of them, and the command run below only some
from synaptica import cli, effect_algebras, exact, order_unit, posets, states  # noqa: F401
from synaptica import stone, synaptic  # noqa: F401
from synaptica.cli import main

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

HALVES = {
    "kind": "effect_algebra",
    "label": "halves",
    "elements": ["0", "h", "1"],
    "zero": "0",
    "one": "1",
    "osum": [["0", "0", "0"], ["0", "h", "h"], ["0", "1", "1"],
             ["h", "0", "h"], ["h", "h", "1"], ["1", "0", "1"]],
}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("synaptica_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_check_installs_counts_and_uninstalls(tmp_path, capsys):
    path = tmp_path / "halves.json"
    path.write_text(json.dumps(HALVES))
    scan = effect_algebras.check_ea_axioms
    tracer = _load_tracer().Tracer()
    try:
        tracer.install()
        assert effect_algebras.check_ea_axioms is not scan
        rc = main(["check", str(path)])
    finally:
        tracer.uninstall()
    assert effect_algebras.check_ea_axioms is scan
    assert rc == 0 and json.loads(capsys.readouterr().out)["ok"] is True
    counts = tracer.snapshot()["counts"]
    assert tracer.calls("effect_algebras:check_ea_axioms") == 1
    assert tracer.calls("effect_algebras:FiniteEffectAlgebra.__init__") == 1
    assert counts["effect_algebras.scan_triples"] == 3 ** 3
