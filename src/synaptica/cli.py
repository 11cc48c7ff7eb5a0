"""Command-line front end: check, spectral, states, verify.

Documents are JSON, one object or an array of objects per file, each
tagged with a "kind". Reports are JSON with insertion-ordered keys so
that identical inputs and seeds produce byte-identical output; --pretty
switches to human-readable lines. Exit codes: 0 clean, 1 a structure
violated its axioms or a check failed, 2 parse errors, unknown kinds,
unknown labels, or unknown suites.

SYNAPTICA_TOL overrides the tolerance used to flag residuals in
reports. Decision thresholds inside the library (rank cutoffs, cone
membership) are fixed constants and do not read the environment.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import effect_algebras as eff
from . import posets as po
from . import states as stt
from . import synaptic as sa
from . import verify as ver
from .order_unit import Element, FunctionSpace, SymmetricMatrixSpace

__all__ = ["main"]

KINDS = (
    "poset",
    "ortholattice",
    "effect_algebra",
    "mv_algebra",
    "sym_matrix",
    "function_algebra",
    "state",
)


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _report_tol() -> float:
    raw = os.environ.get("SYNAPTICA_TOL", "")
    if not raw:
        return 1e-9
    try:
        return float(raw)
    except ValueError:
        raise CliError(2, f"SYNAPTICA_TOL is not a number: {raw!r}")


def _load_documents(path: str) -> list[dict]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise CliError(2, f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise CliError(2, f"{path}: parse error: {exc}")
    docs = data if isinstance(data, list) else [data]
    labels = set()
    for doc in docs:
        if not isinstance(doc, dict):
            raise CliError(2, f"{path}: document is not an object")
        kind = doc.get("kind")
        if kind not in KINDS:
            raise CliError(2, f"{path}: unknown kind: {kind!r}")
        label = doc.get("label", "")
        if label and label in labels:
            raise CliError(2, f"{path}: duplicate label: {label!r}")
        if label:
            labels.add(label)
    return docs


def _index(elements: list[str], x, path: str) -> int:
    if isinstance(x, bool):
        raise CliError(2, f"{path}: bad element reference: {x!r}")
    if isinstance(x, int):
        if not 0 <= x < len(elements):
            raise CliError(2, f"{path}: element index out of range: {x}")
        return x
    try:
        return elements.index(x)
    except ValueError:
        raise CliError(2, f"{path}: unknown element label: {x!r}")


def _as_number(x, path: str):
    """Exact rationals from strings and ints; floats stay floats."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise CliError(2, f"{path}: bad rational: {x!r}")
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise CliError(2, f"{path}: bad numeric entry: {x!r}")
    return Fraction(x) if isinstance(x, int) else float(x)


def _as_float(x, path: str) -> float:
    try:
        return float(x)
    except (TypeError, ValueError):
        raise CliError(2, f"{path}: bad numeric entry: {x!r}")


def _violation(v: eff.AxiomViolation, elements: list[str]) -> dict:
    """A failed axiom as reported, with the witness named by element labels."""
    return {
        "axiom": v.axiom,
        "witness": [elements[i] for i in v.witness],
        "detail": v.detail,
    }


def _num_repr(v) -> str:
    return str(v) if isinstance(v, Fraction) else repr(float(v))


# ---------------------------------------------------------------------------
# per-kind builders, returning (report_dict, violated) and objects on demand


def _build_poset(doc: dict, path: str):
    elements = list(doc["elements"])
    return po.FinitePoset.from_pairs(elements, [tuple(p) for p in doc.get("leq", [])])


def _build_ortholattice(doc: dict, path: str):
    elements = list(doc["elements"])
    base = po.FinitePoset.from_pairs(elements, [tuple(p) for p in doc.get("leq", [])])
    perp = [None] * len(elements)
    for a, b in doc["perp"]:
        perp[_index(elements, a, path)] = _index(elements, b, path)
    if any(p is None for p in perp):
        raise po.StructureError("perp does not cover every element")
    zero = _index(elements, doc["zero"], path)
    one = _index(elements, doc["one"], path)
    return po.BoundedOrtholattice(base, zero, one, perp)


def _build_effect_algebra(doc: dict, path: str):
    elements = list(doc["elements"])
    n = len(elements)
    table = [[None] * n for _ in range(n)]
    for e, f, g in doc["osum"]:
        table[_index(elements, e, path)][_index(elements, f, path)] = _index(
            elements, g, path
        )
    zero = _index(elements, doc["zero"], path)
    one = _index(elements, doc["one"], path)
    return table, zero, one, elements


def _build_mv_algebra(doc: dict, path: str):
    elements = list(doc["elements"])
    plus = [[_index(elements, x, path) for x in row] for row in doc["plus"]]
    perp = [None] * len(elements)
    for a, b in doc["perp"]:
        perp[_index(elements, a, path)] = _index(elements, b, path)
    if any(p is None for p in perp):
        raise CliError(2, f"{path}: perp does not cover every element")
    zero = _index(elements, doc["zero"], path)
    return plus, perp, zero, elements


def _build_sym_matrix(doc: dict, path: str):
    n = int(doc["n"])
    entries = [float(x) for x in doc["entries"]]
    if len(entries) != n * n:
        raise CliError(2, f"{path}: expected {n * n} entries, got {len(entries)}")
    space = SymmetricMatrixSpace(n)
    return space, np.array(entries).reshape(n, n)


def _build_function_algebra(doc: dict, path: str):
    points = tuple(str(p) for p in doc["points"])
    space = FunctionSpace(points)
    values = {}
    for name, vec in doc.get("values", {}).items():
        if len(vec) != len(points):
            raise CliError(2, f"{path}: element {name!r} has wrong length")
        values[name] = space.element(np.array([_as_float(x, path) for x in vec]))
    return space, values


def _find_doc(docs: list[dict], label: str, path: str) -> dict:
    for doc in docs:
        if doc.get("label") == label:
            return doc
    raise CliError(2, f"{path}: no document labeled {label!r}")


def _state_body(doc: dict, field: str, path: str, size: int, parse) -> list:
    """The state's field parsed entry by entry; unusable unless it has size entries."""
    body = doc[field]
    if not isinstance(body, list):
        raise CliError(2, f"{path}: state {field} must be a list, one entry per element")
    values = [parse(x, path) for x in body]
    if len(values) != size:
        raise CliError(2, f"{path}: state {field} has wrong length")
    return values


# ---------------------------------------------------------------------------
# check


def _check_one(doc: dict, docs: list[dict], path: str, tol: float) -> dict:
    kind = doc["kind"]
    label = doc.get("label", "")
    violations = []

    try:
        if kind == "poset":
            _build_poset(doc, path)
        elif kind == "ortholattice":
            lat = _build_ortholattice(doc, path)
            flags = po.classify(lat)
            report = {
                "label": label,
                "kind": kind,
                "valid": True,
                "violations": [],
                "classification": {
                    "is_lattice": flags.is_lattice,
                    "is_distributive": flags.is_distributive,
                    "is_boolean": flags.is_boolean,
                    "is_oml": flags.is_oml,
                },
            }
            return report
        elif kind == "effect_algebra":
            table, zero, one, elements = _build_effect_algebra(doc, path)
            v = eff.check_ea_axioms(table, zero, one)
            if not v.ok:
                violations.append(_violation(v.violation, elements))
        elif kind == "mv_algebra":
            plus, perp, zero, elements = _build_mv_algebra(doc, path)
            v = eff.check_mv_axioms(plus, perp, zero, perp[zero])
            if not v.ok:
                violations.append(_violation(v.violation, elements))
        elif kind == "sym_matrix":
            space, m = _build_sym_matrix(doc, path)
            asym = float(np.max(np.abs(m - m.T)))
            if asym > 1e-10:
                violations.append(
                    {
                        "axiom": "symmetry",
                        "witness": [],
                        "detail": f"asymmetry {asym:.3e} exceeds 1e-10",
                    }
                )
        elif kind == "function_algebra":
            _build_function_algebra(doc, path)
        elif kind == "state":
            over = _find_doc(docs, doc["over"], path)
            if over["kind"] == "effect_algebra":
                table, zero, one, elements = _build_effect_algebra(over, path)
                ea = eff.FiniteEffectAlgebra(table, zero, one, labels=elements)
                vals = _state_body(doc, "table", path, ea.n, _as_number)
                if not stt.is_state(ea, vals, tol=tol):
                    violations.append(
                        {
                            "axiom": "state",
                            "witness": [],
                            "detail": "not additive, not normalized, or out of [0,1]",
                        }
                    )
            elif over["kind"] == "sym_matrix":
                space, _ = _build_sym_matrix(over, path)
                entries = _state_body(doc, "density", path, space.n * space.n, _as_float)
                m = np.array(entries).reshape(space.n, space.n)
                if not stt.is_state(space, m, tol=tol):
                    violations.append(
                        {
                            "axiom": "state",
                            "witness": [],
                            "detail": "density is not symmetric PSD with unit trace",
                        }
                    )
            elif over["kind"] == "function_algebra":
                space, _ = _build_function_algebra(over, path)
                vec = np.array(_state_body(doc, "vector", path, space.dimension, _as_float))
                if not stt.is_state(space, vec, tol=tol):
                    violations.append(
                        {
                            "axiom": "state",
                            "witness": [],
                            "detail": "weights are not a probability vector",
                        }
                    )
            else:
                raise CliError(2, f"{path}: states over {over['kind']} are not defined")
    except ValueError as exc:  # StructureError and EffectAlgebraError included
        violations.append({"axiom": "structure", "witness": [], "detail": str(exc)})
    except KeyError as exc:
        raise CliError(2, f"{path}: missing field {exc}")

    return {"label": label, "kind": kind, "valid": not violations, "violations": violations}


def cmd_check(args) -> int:
    tol = _report_tol()
    files_out = []
    any_violation = False
    for path in args.files:
        docs = _load_documents(path)
        selected = docs
        if args.kind:
            if args.kind not in KINDS:
                raise CliError(2, f"unknown kind: {args.kind!r}")
            # narrow what gets reported, not what labels resolve against:
            # a state kept by the filter may refer to a document dropped by it
            selected = [d for d in docs if d["kind"] == args.kind]
        doc_reports = [_check_one(doc, docs, path, tol) for doc in selected]
        any_violation = any_violation or any(not d["valid"] for d in doc_reports)
        files_out.append({"path": path, "documents": doc_reports})
    report = {
        "command": "check",
        "tolerance": tol,
        "files": files_out,
        "ok": not any_violation,
    }
    _emit(report, args.pretty, _pretty_check)
    return 1 if any_violation else 0


def _pretty_violations(violations: list[dict]) -> list[str]:
    return [f"  {v['axiom']} at {v['witness']}: {v['detail']}" for v in violations]


def _pretty_check(report) -> list[str]:
    lines = []
    for f in report["files"]:
        for d in f["documents"]:
            mark = "ok" if d["valid"] else "VIOLATION"
            lines.append(f"{f['path']} {d['kind']} {d['label'] or '-'}: {mark}")
            lines.extend(_pretty_violations(d["violations"]))
    lines.append("all valid" if report["ok"] else "violations found")
    return lines


# ---------------------------------------------------------------------------
# spectral


def _payload_list(e: Element) -> list:
    arr = np.asarray(e.payload, dtype=float)
    return [round(float(x), 12) for x in arr.ravel()]


def cmd_spectral(args) -> int:
    tol = _report_tol()
    reports = []
    for path in args.files:
        docs = _load_documents(path)
        candidates = []
        try:
            for doc in docs:
                if doc["kind"] == "sym_matrix":
                    space, m = _build_sym_matrix(doc, path)
                    candidates.append((doc.get("label", ""), space.element(m)))
                elif doc["kind"] == "function_algebra":
                    space, values = _build_function_algebra(doc, path)
                    for name, el in values.items():
                        candidates.append((name, el))
        except KeyError as exc:
            raise CliError(2, f"{path}: missing field {exc}")
        if args.element is not None:
            chosen = [(n, e) for n, e in candidates if n == args.element]
            if not chosen:
                raise CliError(2, f"{path}: unknown element label: {args.element!r}")
        else:
            chosen = candidates
        for name, a in chosen:
            res = sa.spectral_resolution(a)
            mod, plus, minus = sa.decompose(a)
            residual = (res.reconstruct() - a).norm()
            reports.append(
                {
                    "label": name,
                    "spectrum": [round(float(v), 12) for v in res.eigenvalues],
                    "lower": round(float(res.lower), 12),
                    "upper": round(float(res.upper), 12),
                    "eigenprojections": [_payload_list(p) for p in res.projections],
                    "carrier": _payload_list(sa.carrier(a)),
                    "abs": _payload_list(mod),
                    "plus": _payload_list(plus),
                    "minus": _payload_list(minus),
                    "residual": residual,
                    "residual_ok": residual <= tol,
                }
            )
    report = {"command": "spectral", "tolerance": tol, "elements": reports}
    _emit(report, args.pretty, _pretty_spectral)
    return 0 if all(r["residual_ok"] for r in reports) else 1


def _pretty_spectral(report) -> list[str]:
    lines = []
    for r in report["elements"]:
        lines.append(
            f"{r['label']}: spectrum {r['spectrum']} on [{r['lower']}, {r['upper']}], "
            f"residual {r['residual']:.3e} ({'ok' if r['residual_ok'] else 'FAIL'})"
        )
    return lines


# ---------------------------------------------------------------------------
# states


def _states_one(doc: dict, docs: list[dict], path: str, tol: float, extremal: bool):
    """Report for one document, or None for kinds without a state space.

    An effect algebra that fails its axioms has no state space; its
    report names the failed axiom and the witness instead.
    """
    kind = doc["kind"]
    if kind == "effect_algebra":
        table, zero, one, elements = _build_effect_algebra(doc, path)
        checked = eff.check_ea_axioms(table, zero, one, elements)
        if not checked.ok:
            return {
                "label": doc.get("label", ""),
                "kind": "effect_algebra",
                "n_elements": len(elements),
                "violations": [_violation(checked.violation, elements)],
            }
        ea = checked.structure
        poly = stt.state_polytope(ea)
        rep = {
            "label": doc.get("label", ""),
            "kind": "effect_algebra",
            "n_elements": ea.n,
            "equalities": [
                [elements[e], elements[f], elements[g]]
                for e, f, g in poly.equalities
            ],
            "dimension": poly.dimension,
            "feasible": poly.feasible,
            "n_vertices": len(poly.vertices),
        }
        if not poly.feasible:
            rep["note"] = "no states"
            rep["certificate"] = {
                "kind": poly.certificate.kind,
                "detail": poly.certificate.detail,
            }
        if extremal and poly.feasible:
            rep["vertices"] = [
                [str(v) for v in s.values] for s in poly.vertices
            ]
        return rep
    if kind == "function_algebra":
        space, _ = _build_function_algebra(doc, path)
        verts = stt.simplex_vertices(space)
        rep = {
            "label": doc.get("label", ""),
            "kind": "function_algebra",
            "points": list(space.points),
            "dimension": space.dimension - 1,
            "n_vertices": len(verts),
        }
        if extremal:
            rep["vertices"] = []
            for v in verts:
                mu = np.array([float(x) for x in v])
                ch = stt.extremal_commutative_characterization(space, mu)
                rep["vertices"].append(
                    {
                        "weights": [str(x) for x in v],
                        "is_vertex": ch.is_vertex,
                        "point_evaluation": ch.point_evaluation,
                        "is_multiplicative": ch.is_multiplicative,
                        "zero_one_on_projections": ch.zero_one_on_projections,
                        "min_rule_holds": ch.min_rule_holds,
                    }
                )
        return rep
    if kind == "state":
        over = _find_doc(docs, doc["over"], path)
        sub = _check_one(doc, docs, path, tol)
        rep = {
            "label": doc.get("label", ""),
            "kind": "state",
            "over": doc["over"],
            "is_state": sub["valid"],
        }
        if extremal and over["kind"] == "function_algebra" and sub["valid"]:
            space, _ = _build_function_algebra(over, path)
            mu = np.array(_state_body(doc, "vector", path, space.dimension, _as_float))
            ch = stt.extremal_commutative_characterization(space, mu)
            rep["is_vertex"] = ch.is_vertex
            rep["point_evaluation"] = ch.point_evaluation
            rep["is_multiplicative"] = ch.is_multiplicative
            rep["zero_one_on_projections"] = ch.zero_one_on_projections
            rep["min_rule_holds"] = ch.min_rule_holds
        return rep
    return None


def cmd_states(args) -> int:
    tol = _report_tol()
    reports = []
    for path in args.files:
        docs = _load_documents(path)
        for doc in docs:
            try:
                rep = _states_one(doc, docs, path, tol, args.extremal)
            except KeyError as exc:
                raise CliError(2, f"{path}: missing field {exc}")
            if rep is not None:
                reports.append(rep)
    report = {"command": "states", "tolerance": tol, "structures": reports}
    _emit(report, args.pretty, _pretty_states)
    return 1 if any("violations" in r for r in reports) else 0


def _pretty_states(report) -> list[str]:
    lines = []
    for r in report["structures"]:
        if r["kind"] == "state":
            lines.append(f"state {r['label'] or '-'} over {r['over']}: "
                         f"{'valid' if r['is_state'] else 'NOT A STATE'}")
            continue
        if "violations" in r:
            lines.append(f"{r['kind']} {r['label'] or '-'}: VIOLATION")
            lines.extend(_pretty_violations(r["violations"]))
            continue
        head = f"{r['kind']} {r['label'] or '-'}: dimension {r['dimension']}, {r['n_vertices']} vertices"
        if r.get("note"):
            head += f" ({r['note']}; certificate: {r['certificate']['kind']})"
        lines.append(head)
        for v in r.get("vertices", []):
            if isinstance(v, dict):
                lines.append(f"  {v['weights']} point={v['point_evaluation']}")
            else:
                lines.append(f"  {v}")
    return lines


# ---------------------------------------------------------------------------
# verify


def cmd_verify(args) -> int:
    names = args.suites or ["all"]
    expanded = []
    for name in names:
        if name == "all":
            expanded.extend(ver.SUITES.keys())
        elif name in ver.SUITES:
            expanded.append(name)
        else:
            raise CliError(2, f"unknown suite: {name!r}")
    suites_out = []
    all_ok = True
    for name in expanded:
        checks = ver.run_suite(name, seed=args.seed)
        passed = all(c.passed for c in checks)
        all_ok = all_ok and passed
        suites_out.append(
            {
                "suite": name,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in checks
                ],
                "passed": passed,
            }
        )
    report = {"command": "verify", "seed": args.seed, "suites": suites_out, "ok": all_ok}
    _emit(report, args.pretty, _pretty_verify)
    return 0 if all_ok else 1


def _pretty_verify(report) -> list[str]:
    lines = []
    for s in report["suites"]:
        for c in s["checks"]:
            mark = "PASS" if c["passed"] else "FAIL"
            lines.append(f"[{mark}] {c['name']} :: {c['detail']}")
        lines.append(f"suite {s['suite']}: {'ok' if s['passed'] else 'FAILED'}")
    lines.append(f"verify: {'ok' if report['ok'] else 'FAILED'} (seed {report['seed']})")
    return lines


# ---------------------------------------------------------------------------


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"not JSON-serializable: {obj!r}")


def _emit(report: dict, pretty: bool, renderer) -> None:
    if pretty:
        sys.stdout.write("\n".join(renderer(report)) + "\n")
    else:
        sys.stdout.write(
            json.dumps(report, separators=(",", ":"), default=_json_default) + "\n"
        )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="synaptica",
        description="finite quantum-structure checks: posets to states",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate documents against their axioms")
    p_check.add_argument("files", nargs="+")
    p_check.add_argument("--kind", help="restrict to one document kind")
    p_check.add_argument("--pretty", action="store_true")
    p_check.set_defaults(func=cmd_check)

    p_spec = sub.add_parser("spectral", help="spectral data of an element")
    p_spec.add_argument("files", nargs="+")
    p_spec.add_argument("--element", help="element label to analyze")
    p_spec.add_argument("--pretty", action="store_true")
    p_spec.set_defaults(func=cmd_spectral)

    p_states = sub.add_parser("states", help="state-space reports")
    p_states.add_argument("files", nargs="+")
    p_states.add_argument("--extremal", action="store_true", help="include vertex detail")
    p_states.add_argument("--pretty", action="store_true")
    p_states.set_defaults(func=cmd_states)

    p_verify = sub.add_parser("verify", help="run the self-check suites")
    p_verify.add_argument("suites", nargs="*", metavar="SUITE",
                          help="posets effect order-unit synaptic states stone all")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--pretty", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"synaptica: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
