"""Command-line front end: check, spectral, states, verify.

Documents are JSON, one object or an array of objects per file, each
tagged with a "kind". Reports are JSON with insertion-ordered keys so
that identical inputs and seeds produce byte-identical output; --pretty
switches to human-readable lines. Exit codes:

  0  clean.
  1  a structure violated its axioms or a check failed. states reports
     a structure that check rejects by check's violations, and a state
     document that is no state as "is_state": false, and exits 1 as
     check does. A spectral element whose spectral resolution fails
     its own check prints no report, and stderr names the file, the
     element and the check.
  2  unusable input: parse errors, unknown kinds, labels or suites,
     repeated element labels, element or point labels that are not
     strings, fields of the wrong type or shape, spectral elements whose
     analysis overflows the float range, states on a function algebra of
     more than 16 points, states --extremal on a state over one or on a
     state that only a loosened SYNAPTICA_TOL accepts, a SYNAPTICA_TOL
     that is not a finite nonnegative number, and a negative --seed.

Each document kind has one builder, which parses the document and
returns the library's verdict on it; check, states and spectral read
each document they use through its builder, at most once per file, so
a state reuses its base's build and verdict. A command line of check,
spectral or states with only switches and file names is read by a
plain loop; any other goes to the argparse parser.

A command imports the library modules it runs: check and states need
posets, effect_algebras, states and order_unit (states brings exact);
spectral imports synaptic and verify imports the self-check suites,
each once per call.

SYNAPTICA_TOL overrides the tolerance used to flag residuals in
reports; a spectral residual is judged against it times max(1, ||a||),
as the library judges a resolution. Decision thresholds inside the
library (rank cutoffs, cone membership) are fixed constants and do not
read the environment.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

import numpy as np

from . import effect_algebras as eff
from . import posets as po
from . import states as stt
from .order_unit import ASYMMETRY_TOL, Element, FunctionSpace, SymmetricMatrixSpace, symmetrised

__all__ = ["main"]

KINDS = ("poset", "ortholattice", "effect_algebra", "mv_algebra", "sym_matrix",
         "function_algebra", "state")


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _report_tol() -> float:
    raw = os.environ.get("SYNAPTICA_TOL", "")
    if not raw:
        return 1e-9
    try:
        tol = float(raw)
    except ValueError:
        raise CliError(2, f"SYNAPTICA_TOL is not a number: {raw!r}")
    if not (math.isfinite(tol) and tol >= 0.0):
        raise CliError(2, f"SYNAPTICA_TOL must be finite and nonnegative: {raw!r}")
    return tol


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
        if not isinstance(label, str):
            raise CliError(2, f"{path}: label must be a string, got {label!r}")
        if label and label in labels:
            raise CliError(2, f"{path}: duplicate label: {label!r}")
        if label:
            labels.add(label)
    return docs


def _as_number(x, path: str):
    """Exact rationals from strings and ints; floats stay floats."""
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise CliError(2, f"{path}: bad rational: {x!r}")
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise CliError(2, f"{path}: bad numeric entry: {x!r}")
    return Fraction(x) if isinstance(x, int) else _as_float(x, path)


def _as_float(x, path: str) -> float:
    """A finite float; NaN and infinities (also as strings) are unusable."""
    try:
        value = float(x)
    except (TypeError, ValueError):
        raise CliError(2, f"{path}: bad numeric entry: {x!r}")
    if not math.isfinite(value):
        raise CliError(2, f"{path}: non-finite numeric entry: {x!r}")
    return value


def _violation(v: eff.AxiomViolation, elements: list[str]) -> dict:
    """A failed axiom as reported, with the witness named by element labels."""
    return {
        "axiom": v.axiom,
        "witness": [elements[i] for i in v.witness],
        "detail": v.detail,
    }


class _File:
    """One input file: its path, its documents, and what was built from them.

    A document is built at most once while its file is read, so a state
    reuses its base's structure and verdict; the memo goes with the
    file. A build that raises keeps nothing, and raises again if asked.
    """

    def __init__(self, path: str, docs: list[dict]):
        self.path = path
        self.docs = docs
        self._built: dict[int, object] = {}

    def build(self, doc: dict):
        """What the builder of doc's kind returns on doc, one of this file's documents."""
        key = id(doc)  # the documents live as long as the file
        if key not in self._built:
            self._built[key] = _BUILDERS[doc["kind"]](doc, self.path)
        return self._built[key]

    def find(self, label: str) -> dict:
        for doc in self.docs:
            if doc.get("label") == label:
                return doc
        raise CliError(2, f"{self.path}: no document labeled {label!r}")


def _per_file(files: list[str], one):
    """(path, results) file by file: one(doc, file) per document, Nones dropped.

    A file is loaded only once the one before it has run, so the first
    unusable input in command-line order is the one reported. A
    document without a field its kind needs is unusable input.
    """
    for path in files:
        file = _File(path, _load_documents(path))
        try:
            results = [one(doc, file) for doc in file.docs]
        except KeyError as exc:
            raise CliError(2, f"{path}: missing field {exc}")
        yield path, [r for r in results if r is not None]


# ---------------------------------------------------------------------------
# one builder per document kind, returning the library's verdict on it


def _elements(doc: dict, path: str) -> list[str]:
    elements = doc["elements"]
    if not isinstance(elements, list) or not all(isinstance(x, str) for x in elements):
        raise CliError(2, f"{path}: elements must be a list of string labels")
    if len(set(elements)) < len(elements):
        repeated = next(x for i, x in enumerate(elements) if x in elements[:i])
        raise CliError(2, f"{path}: repeated element label: {repeated!r}")
    return elements


class _Resolver:
    """The index of an element reference: a label, or an index in range.

    Called on one reference, it checks that reference alone; rows
    resolves whole rows of them.
    """

    def __init__(self, elements: list[str], path: str):
        self.by_label = {x: i for i, x in enumerate(elements)}
        self.n = len(elements)
        self.path = path

    def __call__(self, x) -> int:
        if isinstance(x, bool):
            raise CliError(2, f"{self.path}: bad element reference: {x!r}")
        if isinstance(x, int):
            if not 0 <= x < self.n:
                raise CliError(2, f"{self.path}: element index out of range: {x}")
            return x
        try:
            return self.by_label[x]
        except (KeyError, TypeError):  # an unknown label, or an unhashable one
            raise CliError(2, f"{self.path}: unknown element label: {x!r}") from None

    def rows(self, rows, field: str, width: int) -> list[list[int]]:
        """rows, a list of lists of width element references, as lists of indices.

        Rows of labels resolve by dict lookups alone. The labels are
        strings, so an index, a bool or an unhashable entry misses the
        dict, and then every row goes entry by entry through the
        one-reference check, which accepts the indices and names the
        first bad reference.
        """
        if not isinstance(rows, list) or not all(
            isinstance(r, list) and len(r) == width for r in rows
        ):
            raise CliError(2, f"{self.path}: {field} must be a list of {width}-element lists")
        lookup = self.by_label.__getitem__
        try:
            return [list(map(lookup, r)) for r in rows]
        except (KeyError, TypeError):
            return [[self(x) for x in r] for r in rows]


def _perp(doc: dict, index: _Resolver) -> list:
    perp = [None] * index.n
    for a, b in index.rows(doc["perp"], "perp", 2):
        perp[a] = b
    if any(p is None for p in perp):
        raise CliError(2, f"{index.path}: perp does not cover every element")
    return perp


def _build_poset(doc: dict, path: str) -> po.FinitePoset:
    elements = _elements(doc, path)
    pairs = _Resolver(elements, path).rows(doc.get("leq", []), "leq", 2)
    return po.FinitePoset.from_pairs(elements, pairs)


def _build_ortholattice(doc: dict, path: str) -> po.BoundedOrtholattice:
    base = _build_poset(doc, path)
    index = _Resolver(doc["elements"], path)
    perp = _perp(doc, index)
    return po.BoundedOrtholattice(base, index(doc["zero"]), index(doc["one"]), perp)


def _build_effect_algebra(doc: dict, path: str) -> tuple[eff.Validation, list[str]]:
    elements = _elements(doc, path)
    index = _Resolver(elements, path)
    n = len(elements)
    table = [[None] * n for _ in range(n)]
    for e, f, g in index.rows(doc["osum"], "osum", 3):
        table[e][f] = g
    zero, one = index(doc["zero"]), index(doc["one"])
    return eff.check_ea_axioms(table, zero, one, elements), elements


def _build_mv_algebra(doc: dict, path: str) -> tuple[eff.Validation, list[str]]:
    elements = _elements(doc, path)
    index = _Resolver(elements, path)
    n = len(elements)
    plus = index.rows(doc["plus"], "plus", n)
    if len(plus) != n:
        raise CliError(2, f"{path}: plus must have one row per element, got {len(plus)}")
    perp = _perp(doc, index)
    zero = index(doc["zero"])
    return eff.check_mv_axioms(plus, perp, zero, perp[zero], elements), elements


def _build_sym_matrix(doc: dict, path: str):
    n = doc["n"]
    if isinstance(n, bool) or not isinstance(n, int) or n < 1:
        raise CliError(2, f"{path}: n must be a positive integer, got {n!r}")
    if not isinstance(doc["entries"], list):
        raise CliError(2, f"{path}: entries must be a list of n * n numbers")
    entries = [_as_float(x, path) for x in doc["entries"]]
    if len(entries) != n * n:
        raise CliError(2, f"{path}: expected {n * n} entries, got {len(entries)}")
    space = SymmetricMatrixSpace(n)
    return space, np.array(entries).reshape(n, n)


def _build_function_algebra(doc: dict, path: str):
    points = doc["points"]
    if not isinstance(points, list) or not all(isinstance(x, str) for x in points):
        raise CliError(2, f"{path}: points must be a list of string labels")
    try:
        space = FunctionSpace(points)
    except ValueError as exc:  # no points, or a repeated point label
        raise CliError(2, f"{path}: {exc}")
    named = doc.get("values", {})
    if not isinstance(named, dict):
        raise CliError(2, f"{path}: values must map element names to lists")
    values = {}
    for name, vec in named.items():
        if not isinstance(vec, list) or len(vec) != len(points):
            raise CliError(2, f"{path}: element {name!r} must be a list of {len(points)} values")
        values[name] = space.element(np.array([_as_float(x, path) for x in vec]))
    return space, values


def _state_body(doc: dict, field: str, path: str, size: int, parse) -> list:
    """The state's field parsed entry by entry; unusable unless it has size entries."""
    body = doc[field]
    if not isinstance(body, list):
        raise CliError(2, f"{path}: state {field} must be a list, one entry per element")
    values = [parse(x, path) for x in body]
    if len(values) != size:
        raise CliError(2, f"{path}: state {field} has wrong length")
    return values


def _build_state(doc: dict, file: _File):
    """(structure, candidate, the detail reported if it is no state).

    The kind of the base document decides the rest: over an effect
    algebra a "table" of exact or float values, one per element; over
    Sym(n) a "density" of n * n floats; over R^X a "vector" of floats,
    one per point. The base is the file's build of it. A base effect
    algebra that fails its axioms raises EffectAlgebraError.
    """
    path = file.path
    over = file.find(doc["over"])
    if over["kind"] == "effect_algebra":
        checked, _ = file.build(over)
        if not checked.ok:
            raise eff.EffectAlgebraError(str(checked.violation))
        ea = checked.structure
        table = _state_body(doc, "table", path, ea.n, _as_number)
        return ea, table, "not additive, not normalized, or out of [0,1]"
    if over["kind"] == "sym_matrix":
        space, _ = file.build(over)
        n = space.n
        density = np.array(_state_body(doc, "density", path, n * n, _as_float)).reshape(n, n)
        return space, density, "density is not symmetric PSD with unit trace"
    if over["kind"] == "function_algebra":
        space, _ = file.build(over)
        vector = np.array(_state_body(doc, "vector", path, space.dimension, _as_float))
        return space, vector, "weights are not a probability vector"
    raise CliError(2, f"{path}: states over {over['kind']} are not defined")


# the builder of each kind but state, whose base decides how it is built
_BUILDERS = {
    "poset": _build_poset,
    "ortholattice": _build_ortholattice,
    "effect_algebra": _build_effect_algebra,
    "mv_algebra": _build_mv_algebra,
    "sym_matrix": _build_sym_matrix,
    "function_algebra": _build_function_algebra,
}


# ---------------------------------------------------------------------------
# check


def _check_one(doc: dict, file: _File, tol: float):
    """The check report on one document, and for a state the
    (structure, candidate, detail) it was judged by; None otherwise.

    A structure the library rejects (a ValueError, StructureError
    included) is a "structure" violation.
    """
    kind = doc["kind"]
    report = {"label": doc.get("label", ""), "kind": kind, "valid": True, "violations": []}
    violations = report["violations"]
    state = None
    try:
        if kind in ("poset", "ortholattice", "function_algebra"):
            file.build(doc)
        elif kind in ("effect_algebra", "mv_algebra"):
            checked, elements = file.build(doc)
            if not checked.ok:
                violations.append(_violation(checked.violation, elements))
        elif kind == "sym_matrix":
            _, m = file.build(doc)
            _, asym = symmetrised(m)  # the entries are finite, so is asym
            if asym > ASYMMETRY_TOL:
                detail = f"asymmetry {asym:.3e} exceeds {ASYMMETRY_TOL:g}"
                violations.append({"axiom": "symmetry", "witness": [], "detail": detail})
        else:
            state = structure, candidate, detail = _build_state(doc, file)
            if not stt.is_state(structure, candidate, tol=tol):
                violations.append({"axiom": "state", "witness": [], "detail": detail})
    except ValueError as exc:  # StructureError and EffectAlgebraError included
        violations.append({"axiom": "structure", "witness": [], "detail": str(exc)})
    report["valid"] = not violations
    return report, state


def cmd_check(args) -> int:
    tol = _report_tol()
    if args.kind and args.kind not in KINDS:
        raise CliError(2, f"unknown kind: {args.kind!r}")

    def one(doc, file):
        # narrow what gets reported, not what labels resolve against:
        # a state kept by the filter may refer to a document dropped by it
        if not args.kind or doc["kind"] == args.kind:
            report = _check_one(doc, file, tol)[0]
            if doc["kind"] == "ortholattice" and report["valid"]:
                flags = po.classify(file.build(doc))
                names = ("is_lattice", "is_distributive", "is_boolean", "is_oml")
                report["classification"] = {name: getattr(flags, name) for name in names}
            return report

    files_out = [
        {"path": path, "documents": reports} for path, reports in _per_file(args.files, one)
    ]
    ok = all(d["valid"] for f in files_out for d in f["documents"])
    report = {"command": "check", "tolerance": tol, "files": files_out, "ok": ok}
    _emit(report, args.pretty, _pretty_check)
    return 0 if ok else 1


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


def _rounded(values: np.ndarray) -> list[float]:
    """round(float(x), 12) for every entry, from one vectorised call.

    rint(x 1e12) / 1e12 is exactly what round returns wherever x 1e12
    is finite and at least 1e-3 + |x 1e12| 1e-15 away from a
    half-integer: the product is off by far less than that margin, so
    rint finds the integer of round's correctly rounded decimal, and one
    division by the exact 1e12 rounds it to the same float. The margin
    passes 1/2 near |x 1e12| = 5e14, so large entries, like near ties and
    overflowing products, fall back to round. An overflow here is
    expected, not an error of the analysis.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = values * 1e12
        whole = np.rint(scaled)
        exact = 0.5 - np.abs(scaled - whole) >= 1e-3 + np.abs(scaled) * 1e-15
        out = (whole / 1e12).tolist()
    for i in np.flatnonzero(~exact).tolist():
        out[i] = round(float(values[i]), 12)
    return out


def _spectral_report(sa, name: str, a: Element, tol: float) -> dict:
    """The spectral report on a, from sa, the synaptic module.

    |a|, its parts and its carrier come from the resolution's own
    eigendecomposition of a.
    """
    res = sa.spectral_resolution(a)
    # numpy.linalg clears the floating-point flags LAPACK sets, so an
    # eigenvalue that overflowed raises nothing under errstate by itself
    if not (np.isfinite(a.payload).all() and np.isfinite(res.eigenvalues).all()):
        raise FloatingPointError("non-finite spectrum")
    mod, plus, minus = res.decompose()
    residual = (res.reconstruct() - a).norm()
    k, size = len(res.eigenvalues), a.payload.size
    payloads = [p.payload for p in res.projections] + [
        res.carrier().payload, mod.payload, plus.payload, minus.payload
    ]
    values = _rounded(np.concatenate(
        [res.eigenvalues, (res.lower, res.upper)] + [x.ravel() for x in payloads]
    ))
    lists = [values[i:i + size] for i in range(k + 2, len(values), size)]
    return {
        "label": name,
        "spectrum": values[:k],
        "lower": values[k],
        "upper": values[k + 1],
        "eigenprojections": lists[:k],
        "carrier": lists[k],
        "abs": lists[k + 1],
        "plus": lists[k + 2],
        "minus": lists[k + 3],
        "residual": residual,
        # relative to max(1, ||a||), as the resolution check allows it; the
        # order-unit norm is the larger spectral bound in absolute value
        "residual_ok": residual <= tol * max(1.0, abs(res.lower), abs(res.upper)),
    }


def _spectral_elements(doc: dict, file: _File) -> list[tuple[str, Element]]:
    """The labeled elements a document offers to spectral: none, one matrix, or its values."""
    if doc["kind"] == "sym_matrix":
        space, m = file.build(doc)
        try:
            return [(doc.get("label", ""), space.element(m))]
        except ValueError as exc:  # asymmetric entries
            raise CliError(2, f"{file.path}: {exc}")
    if doc["kind"] == "function_algebra":
        return list(file.build(doc)[1].items())
    return []


def cmd_spectral(args) -> int:
    from . import synaptic as sa  # the one command that analyses elements

    tol = _report_tol()
    reports = []
    for path, found in _per_file(args.files, _spectral_elements):
        chosen = [(n, e) for elements in found for n, e in elements
                  if args.element in (None, n)]
        if args.element is not None and not chosen:
            raise CliError(2, f"{path}: unknown element label: {args.element!r}")
        for name, a in chosen:
            # an element near the end of the float range overflows somewhere
            # in its analysis; that is unusable input, not a warning
            with np.errstate(over="raise", invalid="raise"):
                try:
                    reports.append(_spectral_report(sa, name, a, tol))
                except (FloatingPointError, np.linalg.LinAlgError) as exc:
                    raise CliError(2, f"{path}: element {name!r} is out of float range: {exc}")
                except AssertionError as exc:  # the resolution failed its own check
                    raise CliError(1, f"{path}: element {name!r}: {exc}")
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

# the extremality conditions reported for a state on R^X, in report order
_EXTREMALITY = (
    "is_vertex",
    "point_evaluation",
    "is_multiplicative",
    "zero_one_on_projections",
    "min_rule_holds",
)


def _extremality(ch: stt.CommutativeExtremalReport) -> dict:
    return {name: getattr(ch, name) for name in _EXTREMALITY}


def _states_one(doc: dict, file: _File, tol: float, extremal: bool):
    """Report for one document, or None for a valid one of a kind without a state space.

    An effect algebra that fails its axioms has no state space; its
    report names the failed axiom and the witness instead. The other
    kinds get check's verdict: an invalid one is reported by its
    violations, in the same shape, and unusable input exits 2 as under
    check.
    """
    kind = doc["kind"]
    rep = {"label": doc.get("label", ""), "kind": kind}
    if kind == "effect_algebra":
        checked, elements = file.build(doc)
        rep["n_elements"] = len(elements)
        if not checked.ok:
            rep["violations"] = [_violation(checked.violation, elements)]
            return rep
        poly = stt.state_polytope(checked.structure)
        rep["equalities"] = [[elements[e], elements[f], elements[g]]
                             for e, f, g in poly.equalities]
        rep["dimension"] = poly.dimension
        rep["feasible"] = poly.feasible
        rep["n_vertices"] = len(poly.vertices)
        if not poly.feasible:
            rep["note"] = "no states"
            rep["certificate"] = {"kind": poly.certificate.kind, "detail": poly.certificate.detail}
        elif extremal:
            rep["vertices"] = [[str(v) for v in s.values] for s in poly.vertices]
        return rep
    if kind == "function_algebra":
        space, _ = file.build(doc)
        try:
            verts = stt.simplex_vertices(space)
            found = stt.simplex_vertex_reports(space) if extremal else None
        except ValueError as exc:  # more points than the simplex takes
            raise CliError(2, f"{file.path}: {exc}")
        rep["points"] = list(space.points)
        rep["dimension"] = space.dimension - 1
        rep["n_vertices"] = len(verts)
        if extremal:
            rep["vertices"] = [{"weights": [str(x) for x in v], **_extremality(ch)}
                               for v, ch in zip(verts, found)]
        return rep
    if kind == "state":
        verdict, state = _check_one(doc, file, tol)
        rep["over"] = doc["over"]
        rep["is_state"] = verdict["valid"]
        # only states on R^X have an extremality characterization to report
        over = file.find(doc["over"])
        if extremal and verdict["valid"] and over["kind"] == "function_algebra":
            space, mu, _ = state
            try:
                ch = stt.extremal_commutative_characterization(space, mu)
            except ValueError as exc:  # too many points, or no state at the library's tolerance
                raise CliError(2, f"{file.path}: {exc}")
            rep.update(_extremality(ch))
        return rep
    verdict, _ = _check_one(doc, file, tol)
    if verdict["valid"]:
        return None
    rep["violations"] = verdict["violations"]
    return rep


def cmd_states(args) -> int:
    tol = _report_tol()
    one = functools.partial(_states_one, tol=tol, extremal=args.extremal)
    reports = [r for _, found in _per_file(args.files, one) for r in found]
    report = {"command": "states", "tolerance": tol, "structures": reports}
    _emit(report, args.pretty, _pretty_states)
    return 1 if any("violations" in r or r.get("is_state") is False for r in reports) else 0


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
    from . import verify as ver  # the suites load every library module

    if args.seed < 0:
        raise CliError(2, f"--seed must be nonnegative, got {args.seed}")
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


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and reused by later calls.

    Reuse is safe: parse_args returns a fresh namespace each time and
    leaves the parser unchanged.
    """
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


# per command that _plain_args reads: its option taking a value (None
# when absent), its switches, and the function it runs
_PLAIN = {
    "check": ("kind", ("pretty",), cmd_check),
    "spectral": ("element", ("pretty",), cmd_spectral),
    "states": (None, ("extremal", "pretty"), cmd_states),
}


def _plain_args(argv: list[str]) -> argparse.Namespace | None:
    """argv's namespace, as the parser gives it, if argv has the plain form; else None.

    The plain form is check, spectral or states, then that command's
    switches, each spelled out in full, and one or more file names,
    with the switches before or after the files. Everything else (verify,
    an option that takes a value, -h, -, --, an abbreviation, a usage
    error) is left to the parser.
    """
    if not argv or argv[0] not in _PLAIN:
        return None
    valued, switches, func = _PLAIN[argv[0]]
    on = dict.fromkeys(switches, False)
    files, trailing = [], False
    for arg in argv[1:]:
        if arg[:2] == "--" and arg[2:] in on:
            on[arg[2:]] = True
            trailing = bool(files)
        elif arg[:1] == "-" or trailing:
            return None
        else:
            files.append(arg)
    if not files:
        return None
    args = argparse.Namespace(command=argv[0], files=files)
    if valued:
        setattr(args, valued, None)
    for name in switches:
        setattr(args, name, on[name])
    args.func = func
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv's namespace: the plain form read by _plain_args, the rest by the parser."""
    args = _plain_args(argv)
    return args if args is not None else _build_parser().parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return args.func(args)
    except CliError as exc:
        sys.stderr.write(f"synaptica: {exc}\n")
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
