"""Per-layer tracing by wrapping synaptica's public functions from outside.

A layer is a synaptica module, plus the numpy.linalg boundary. Each
wrapped call is a span: its duration goes to the callee, and is also
added to the enclosing span's child time, so self time is duration
minus child spans. Spans are aggregated in memory per function and
handed back when the pass ends; nothing is written while it runs.

A function is wrapped wherever a caller looks it up: every synaptica
namespace that binds the same function object gets the wrapper (so
states' own `enumerate_box_vertices` name is patched, not only
exact's), methods are patched on their class, and numpy.linalg is
patched as a module attribute, which is how synaptica reaches it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from math import comb

LAYERS = ("cli", "posets", "effect_algebras", "exact", "order_unit", "synaptic", "states", "stone")
LINALG = ("eigh", "eigvalsh", "svd", "qr", "lstsq")

_SPACE = ("element", "unit", "zero_element", "norm_of", "contains_positive", "product",
          "commutes", "basis")
# Methods wrapped: the ones other layers call. Accessors a layer calls in
# its own inner loops (FinitePoset.leq runs 200k times in a check-docs
# pass) stay unwrapped; their time lands in the same layer's calling span
# either way, and wrapping them would mostly time the wrapper. So does
# Element's constructor, which runs for every arithmetic result.
METHODS = {
    "posets": {"FinitePoset": ("__init__", "from_pairs"), "BoundedOrtholattice": ("__init__",)},
    "effect_algebras": {"FiniteEffectAlgebra": ("__init__",), "FiniteMVAlgebra": ("__init__",)},
    "order_unit": {"SymmetricMatrixSpace": _SPACE, "FunctionSpace": _SPACE + ("indicator",),
                   "Element": ("norm",)},
    "stone": {"FunctionalRepresentation": ("__init__", "to_function", "from_function", "psi")},
}
# private names wrapped because a work count is read off them
PRIVATE = {"states": ("_simplex_vertex_data",)}


class Tracer:
    def __init__(self):
        self.stack: list[list] = []              # [key, child seconds] per open span
        self.stats: dict[str, list] = {}         # key -> [calls, total s, child s]
        self.counts: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        import numpy.linalg

        namespaces = [m for name, m in sys.modules.items()
                      if name == "synaptica" or name.startswith("synaptica.")]
        after = {
            "exact:enumerate_box_vertices": self._after_enumeration,
            "states:state_polytope": self._after_polytope,
            "effect_algebras:check_ea_axioms": self._after_axiom_scan,
            "effect_algebras:check_mv_axioms": self._after_axiom_scan,
        }
        for layer in LAYERS:
            mod = sys.modules[f"synaptica.{layer}"]
            for cls, methods in METHODS.get(layer, {}).items():
                for attr in methods:
                    self._wrap_method(f"{layer}:{cls}.{attr}", getattr(mod, cls), attr)
            for name in tuple(getattr(mod, "__all__", ())) + PRIVATE.get(layer, ()):
                obj = getattr(mod, name)
                if not isinstance(obj, type) and callable(obj) \
                        and getattr(obj, "__module__", None) == mod.__name__:
                    key = f"{layer}:{name}"
                    wrapper = self._wrap(key, obj, after.get(key))
                    for ns in namespaces:
                        for attr, value in list(vars(ns).items()):
                            if value is obj:
                                self._patch(ns, attr, wrapper)
        for name in LINALG:
            self._patch(numpy.linalg, name,
                        self._wrap(f"numpy.linalg:{name}", getattr(numpy.linalg, name)))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def _patch(self, owner, name, value) -> None:
        self._patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def _wrap_method(self, key: str, cls: type, attr: str) -> None:
        value = vars(cls)[attr]
        if isinstance(value, (classmethod, staticmethod)):
            self._patch(cls, attr, type(value)(self._wrap(key, value.__func__)))
        else:
            self._patch(cls, attr, self._wrap(key, value))

    def _wrap(self, key: str, fn, after=None):
        stack = self.stack
        record = self.stats.setdefault(key, [0, 0.0, 0.0])
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [key, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                record[0] += 1
                record[1] += elapsed
                record[2] += frame[1]
            if after is not None:
                after(result, args, kwargs)
            return result

        return traced

    # -- work counts read off returned values --------------------------------

    def _after_enumeration(self, result, args, kwargs) -> None:
        d = result.dimension
        if d > 0 and result.rows:
            self.counts["exact.candidate_bases"] += comb(len(result.rows), d)
        self.counts["exact.vertices"] += len(result.vertices)
        if self.stack and self.stack[-1][0] == "states:_simplex_vertex_data":
            self.counts["exact.simplex_enumerations"] += 1

    def _after_polytope(self, result, args, kwargs) -> None:
        v = len(result.vertices)
        self.counts["states.vertex_triples"] += v * comb(v - 1, 2) if v else 0

    def _after_axiom_scan(self, result, args, kwargs) -> None:
        if result.ok:
            table = args[0] if args else kwargs["table"]
            self.counts["effect_algebras.scan_triples"] += len(table) ** 3

    # -- reading out ----------------------------------------------------------

    def calls(self, key: str) -> int:
        return self.stats.get(key, [0])[0]

    def snapshot(self) -> dict:
        """Exact counts and per-function times, for one pass."""
        counts = dict(self.counts)
        for key in ("exact.candidate_bases", "exact.vertices", "exact.simplex_enumerations",
                    "states.vertex_triples", "effect_algebras.scan_triples"):
            counts.setdefault(key, 0)
        counts["states.simplex_memo_hits"] = (
            self.calls("states:_simplex_vertex_data") - counts["exact.simplex_enumerations"]
        )
        counts["posets.ortholattice_builds"] = self.calls("posets:BoundedOrtholattice.__init__")
        counts["posets.classify_calls"] = self.calls("posets:classify")
        counts["synaptic.is_projection.calls"] = self.calls("synaptic:is_projection")
        for name in ("eigh", "eigvalsh", "svd"):
            counts[f"numpy.linalg.{name}.calls"] = self.calls(f"numpy.linalg:{name}")
        for layer in LAYERS + ("numpy.linalg",):
            counts[f"{layer}.calls"] = sum(
                rec[0] for key, rec in self.stats.items() if key.split(":")[0] == layer
            )
        functions = {key: {"calls": rec[0], "total_s": rec[1], "self_s": rec[1] - rec[2]}
                     for key, rec in self.stats.items() if rec[0]}
        return {"counts": counts, "functions": functions}
