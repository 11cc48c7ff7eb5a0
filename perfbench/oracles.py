"""Per-item oracles. Each returns None when the answer is right, or why not.

They re-derive every expected answer from the generator's construction
and from numpy or exact rational arithmetic, never from the synaptica
routine that produced the answer. The effect-algebra witness replay is
the test suite's oracle in tests/helpers.py, passed in as `replay`.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np

from structures import is_exact_state

# bound before any tracing wraps numpy.linalg
_eigvalsh = np.linalg.eigvalsh

TOL = 1e-9


def check(item, outcome, replay) -> str | None:
    if outcome["raised"] is not None:
        return f"raised {outcome['raised']}"
    if item.op == "meet":
        return _meet(item, outcome["result"])
    if item.op == "funrep":
        return _funrep(item, outcome["result"])
    command = item.argv[0]
    if command == "states":
        return _states(item, outcome)
    if command == "spectral":
        return _spectral(item, outcome)
    return _check_docs(item, outcome, replay)


def check_probe(item, outcome) -> str | None:
    if outcome["raised"] is not None:
        return f"raised {outcome['raised']}"
    if outcome["code"] not in item.expect["codes"]:
        return f"exit {outcome['code']}, want one of {list(item.expect['codes'])}"
    return None


def _report(outcome, code: int = 0):
    if outcome["code"] != code:
        raise _Wrong(f"exit {outcome['code']}, want {code}")
    return json.loads(outcome["out"])


class _Wrong(Exception):
    pass


def _guard(fn):
    def checked(*args):
        try:
            return fn(*args)
        except _Wrong as exc:
            return str(exc)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return f"malformed report: {type(exc).__name__}: {exc}"
    return checked


# ---------------------------------------------------------------------------
# states-exact


@_guard
def _states(item, outcome):
    (rep,) = _report(outcome)["structures"]
    if "ea" in item.expect:
        ea = item.expect["ea"]
        if rep["kind"] != "effect_algebra" or not rep["feasible"]:
            return "effect algebra reported without states"
        verts = [tuple(Fraction(v) for v in vert) for vert in rep["vertices"]]
        for v in verts:
            if len(v) != ea.n or not is_exact_state(ea, v):
                return f"reported vertex {v} is not an exact state"
        if len(set(verts)) != len(verts) or set(verts) != ea.vertices:
            return f"{len(verts)} vertices reported, {len(ea.vertices)} expected, sets differ"
        if rep["n_vertices"] != len(ea.vertices):
            return "n_vertices disagrees with the vertex list"
        return None
    points = item.expect["points"]
    k = len(points)
    if rep["points"] != points or rep["dimension"] != k - 1 or rep["n_vertices"] != k:
        return "simplex shape is wrong"
    seen = set()
    for v in rep["vertices"]:
        weights = [Fraction(w) for w in v["weights"]]
        ones = [i for i, w in enumerate(weights) if w == 1]
        if len(ones) != 1 or sum(weights) != 1 or any(w < 0 for w in weights):
            return f"simplex vertex {v['weights']} is not a unit vector"
        seen.add(ones[0])
        flags = (v["is_vertex"], v["is_multiplicative"], v["zero_one_on_projections"],
                 v["min_rule_holds"])
        if not all(flags) or v["point_evaluation"] != points[ones[0]]:
            return f"extremal characterization fails at {points[ones[0]]}"
    if seen != set(range(k)):
        return "simplex vertices do not cover every point"
    return None


# ---------------------------------------------------------------------------
# spectral-lattice


def _as_matrix(payload, n: int) -> np.ndarray:
    arr = np.asarray(payload, dtype=float)
    return arr.reshape(n, n) if arr.size == n * n else np.diag(arr)


@_guard
def _spectral(item, outcome):
    (rep,) = _report(outcome)["elements"]
    m = item.expect["matrix"]
    n = m.shape[0]
    w = _eigvalsh(m)
    scale = max(1.0, float(np.max(np.abs(w))))
    spectrum = np.asarray(rep["spectrum"], dtype=float)
    distinct = np.asarray(item.expect["distinct"], dtype=float)
    if not rep["residual_ok"]:
        return f"residual {rep['residual']} not ok"
    if spectrum.shape != distinct.shape or np.max(np.abs(spectrum - distinct)) > TOL * scale:
        return f"spectrum {rep['spectrum']} differs from {item.expect['distinct']}"
    if np.max(np.min(np.abs(w[:, None] - spectrum[None, :]), axis=1)) > TOL * scale:
        return "an eigenvalue from numpy is missing from the spectrum"
    projections = [_as_matrix(p, n) for p in rep["eigenprojections"]]
    total = np.zeros((n, n))
    for value, p in zip(spectrum, projections):
        mult = int(np.sum(np.abs(w - value) <= TOL * scale))
        if abs(np.trace(p) - mult) > 1e-8 or np.max(np.abs(p @ p - p)) > 1e-8:
            return f"eigenprojection at {value} is not a rank-{mult} projection"
        total += value * p
    if np.max(np.abs(total - m)) > 1e-8 * scale:
        return "eigenprojections do not rebuild the matrix"
    return None


def _meet(item, result):
    p, q, rebuilt = result
    order = -float(np.min(_eigvalsh(q - p)))
    identity = float(np.max(np.abs(_eigvalsh(q - rebuilt))))
    if order > TOL or identity > TOL:
        return f"order residual {order:.1e}, identity residual {identity:.1e}"
    if np.max(np.abs(p - item.expect["meet"])) > TOL:
        return "meet differs from the shared span"
    if np.max(np.abs(q - item.expect["join"])) > TOL:
        return "join differs from the span of the meet and P3"
    return None


def _funrep(item, rep):
    if not rep.report.passed:
        return f"representation report failed: {rep.report}"
    if sorted(rep.patterns) != item.expect["atoms"]:
        return f"atoms {sorted(rep.patterns)} differ from {item.expect['atoms']}"
    n = item.data["n"]
    total = sum(np.asarray(a.payload) for a in rep.atoms)
    if np.max(np.abs(total - np.eye(n))) > TOL:
        return "atoms do not sum to the identity"
    return None


# ---------------------------------------------------------------------------
# check-docs


@_guard
def _check_docs(item, outcome, replay):
    code = item.expect["code"]
    if code == 2:
        if outcome["code"] != 2 or outcome["out"]:
            return f"exit {outcome['code']} with a report, want a clean exit 2"
        return None
    report = _report(outcome, code)
    docs = report["files"][0]["documents"]
    if report["ok"] != (code == 0):
        return "report ok flag disagrees with the exit code"
    if code == 0:
        if not all(d["valid"] for d in docs):
            return f"valid document reported invalid: {docs}"
        if "flags" in item.expect:
            c = docs[0]["classification"]
            got = (c["is_lattice"], c["is_distributive"], c["is_boolean"], c["is_oml"])
            if got != item.expect["flags"]:
                return f"classification {got}, want {item.expect['flags']}"
        return None
    bad = [d for d in docs if not d["valid"]]
    if "table" not in item.expect:
        if [d["kind"] for d in bad] != ["state"]:
            return f"want exactly the state flagged, got {bad}"
        return None
    (doc,) = bad
    (violation,) = doc["violations"]
    labels = list(item.expect["labels"])
    witness = tuple(labels.index(x) for x in violation["witness"])
    if not replay.replay_witness(item.expect["table"], item.expect["zero"], item.expect["one"],
                                 violation["axiom"], witness):
        return f"witness {violation} does not replay"
    return None
