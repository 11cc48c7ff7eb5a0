"""Exit codes and report payloads of the command-line front end.

Everything but the module entry point runs through main(argv)
in-process; stdout is JSON unless --pretty, so reports are parsed back
and compared structurally. The exit-code contract: 0 clean, 1
violations, 2 unusable input.
"""

import copy
import dataclasses
import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import rounded_by_entries
from per_call_paths import is_density_by_fresh_draws, refs_by_entries
from synaptica.catalog import mo2_effect_algebra
from synaptica import cli
from synaptica import effect_algebras as eff
from synaptica import order_unit
from synaptica.cli import main
from synaptica.exact import InfeasibilityCertificate
from synaptica import states as stt
from synaptica import synaptic as sa


def write_json(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr().out
    return rc, out


CHAIN_EA = {
    "kind": "effect_algebra",
    "label": "halves",
    "elements": ["0", "h", "1"],
    "zero": "0",
    "one": "1",
    "osum": [
        ["0", "0", "0"], ["0", "h", "h"], ["h", "0", "h"],
        ["0", "1", "1"], ["1", "0", "1"], ["h", "h", "1"],
    ],
}


def ea_document(label, ea):
    return {
        "kind": "effect_algebra",
        "label": label,
        "elements": list(ea.labels),
        "zero": ea.labels[ea.zero],
        "one": ea.labels[ea.one],
        "osum": [
            [ea.labels[e], ea.labels[f], ea.labels[g]]
            for e in range(ea.n)
            for f in range(ea.n)
            if (g := ea.table[e][f]) is not None
        ],
    }


# ---------------------------------------------------------------------------
# check


def test_check_valid_effect_algebra(tmp_path, capsys):
    path = write_json(tmp_path, "ea.json", CHAIN_EA)
    rc, out = run(capsys, "check", path)
    assert rc == 0
    report = json.loads(out)
    assert report["ok"] is True
    doc = report["files"][0]["documents"][0]
    assert doc["valid"] and doc["violations"] == []


def test_check_corrupted_table_exits_one(tmp_path, capsys):
    bad = dict(CHAIN_EA)
    bad["osum"] = [row for row in CHAIN_EA["osum"] if row != ["h", "h", "1"]]
    bad["osum"].append(["h", "h", "h"])
    path = write_json(tmp_path, "bad.json", bad)
    rc, out = run(capsys, "check", path)
    assert rc == 1
    doc = json.loads(out)["files"][0]["documents"][0]
    assert not doc["valid"]
    v = doc["violations"][0]
    assert v["axiom"] in (
        "commutativity", "associativity", "orthosupplement",
        "zero-one law", "cancelation",
    )
    assert v["witness"]


def test_check_ortholattice_reports_classification(tmp_path, capsys):
    doc = {
        "kind": "ortholattice",
        "label": "square",
        "elements": ["0", "a", "b", "1"],
        "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"], ["0", "1"]],
        "perp": [["0", "1"], ["a", "b"], ["b", "a"], ["1", "0"]],
        "zero": "0",
        "one": "1",
    }
    path = write_json(tmp_path, "lat.json", doc)
    rc, out = run(capsys, "check", path)
    assert rc == 0
    flags = json.loads(out)["files"][0]["documents"][0]["classification"]
    assert flags == {
        "is_lattice": True,
        "is_distributive": True,
        "is_boolean": True,
        "is_oml": True,
    }


SQUARE = {
    "kind": "ortholattice",
    "elements": ["0", "a", "b", "1"],
    "leq": [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]],
    "perp": [["0", "1"], ["a", "b"], ["b", "a"], ["1", "0"]],
    "zero": "0",
    "one": "1",
}
POSET2 = {"kind": "poset", "elements": ["a", "b"]}
FA2 = {"kind": "function_algebra", "points": ["p", "q"]}
MV2 = {"kind": "mv_algebra", "elements": ["0", "1"], "zero": "0",
       "plus": [["0", "1"], ["1", "1"]], "perp": [["0", "1"], ["1", "0"]]}


def test_states_validates_an_ortholattice_without_classifying_it(tmp_path, capsys, monkeypatch):
    path = write_json(tmp_path, "lat.json", [SQUARE, {**SQUARE, "label": "bad", "perp": [
        ["0", "1"], ["a", "a"], ["b", "b"], ["1", "0"]]}])
    rc, checked = run(capsys, "check", path)
    reports = json.loads(checked)["files"][0]["documents"]
    assert [list(r) for r in reports] == [
        ["label", "kind", "valid", "violations", "classification"],
        ["label", "kind", "valid", "violations"],
    ]

    def refuse(structure):
        raise AssertionError("classified")

    monkeypatch.setattr(cli.po, "classify", refuse)
    rc_valid, valid = run(capsys, "states", write_json(tmp_path, "ok.json", SQUARE))
    assert rc_valid == 0 and json.loads(valid)["structures"] == []
    rc_states, states = run(capsys, "states", path)
    assert rc_states == 1 and [r["label"] for r in json.loads(states)["structures"]] == ["bad"]
    monkeypatch.undo()
    assert run(capsys, "check", path) == (rc, checked)


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("check", dict(POSET2, elements=5), "elements must be a list of string labels"),
        ("check", dict(SQUARE, elements=5), "elements must be a list of string labels"),
        ("check", dict(POSET2, leq=[["a", "7"]]), "unknown element label: '7'"),
        ("check", dict(POSET2, leq=[["a", 7]]), "element index out of range: 7"),
        ("check", dict(POSET2, leq=[["a"]]), "leq must be a list of 2-element lists"),
        ("check", dict(SQUARE, perp=[["0", "1", "a"]]), "perp must be a list of 2-element lists"),
        ("check", dict(CHAIN_EA, osum=[["0", "0"]]), "osum must be a list of 3-element lists"),
        ("check", dict(MV2, plus=[["0"]]), "plus must be a list of 2-element lists"),
        ("check", dict(MV2, plus=[["0", "1"]]), "plus must have one row per element"),
        ("spectral", dict(FA2, points=5), "points must be a list"),
        ("spectral", dict(FA2, values={"g": 3}), "element 'g' must be a list of 2 values"),
        ("spectral", dict(FA2, values=[1, 2]), "values must map element names to lists"),
        ("states", dict(FA2, points=[]), "point set must be nonempty"),
        ("check", dict(FA2, points=[]), "point set must be nonempty"),
        ("spectral", dict(FA2, points=["p", "p"]), "point labels must be unique"),
        ("check", dict(MV2, perp=[["0", "1"]]), "perp does not cover every element"),
        ("check", dict(SQUARE, perp=[["0", "1"], ["a", "b"], ["1", "0"]]),
         "perp does not cover every element"),
        # point labels are strings, as element labels are: none is stringified
        ("check", dict(FA2, points=[1, [2], True]), "points must be a list of string labels"),
        ("spectral", dict(FA2, points=[1, "1"]), "points must be a list of string labels"),
        ("states", dict(FA2, points=["p", None]), "points must be a list of string labels"),
    ],
)
def test_malformed_structure_documents_exit_two(tmp_path, capsys, command, doc, message):
    path = write_json(tmp_path, "doc.json", doc)
    rc = main([command, path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


# references are resolved one at a time, in document order, so the message
# names the first unusable reference
UNUSABLE_REFERENCES = [
    (7, "element index out of range: 7"),
    (-1, "element index out of range: -1"),
    (True, "bad element reference: True"),
    (["0"], "unknown element label: ['0']"),
    ("zz", "unknown element label: 'zz'"),
]
REFERENCE_FIELDS = {
    "osum": CHAIN_EA,
    "leq": dict(POSET2, leq=[["a", "b"]]),
    "plus": MV2,
}


@pytest.mark.parametrize("field", sorted(REFERENCE_FIELDS))
@pytest.mark.parametrize("ref, message", UNUSABLE_REFERENCES)
def test_unusable_references_exit_two(tmp_path, capsys, field, ref, message):
    doc = copy.deepcopy(REFERENCE_FIELDS[field])
    doc[field][0][0] = ref
    doc[field][-1][-1] = "also unknown"
    rc = main(["check", write_json(tmp_path, "doc.json", doc)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.endswith(f"{message}\n")


@pytest.mark.parametrize("doc, field", [
    (SQUARE, "zero"), (SQUARE, "one"), (CHAIN_EA, "zero"), (CHAIN_EA, "one"), (MV2, "zero"),
])
@pytest.mark.parametrize("ref, message", UNUSABLE_REFERENCES)
def test_unusable_zero_and_one_references_exit_two(tmp_path, capsys, doc, field, ref, message):
    rc = main(["check", write_json(tmp_path, "doc.json", dict(doc, **{field: ref}))])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.endswith(f"{message}\n")


@pytest.mark.parametrize("field", sorted(REFERENCE_FIELDS))
def test_index_references_read_as_their_labels(tmp_path, capsys, field):
    doc = REFERENCE_FIELDS[field]
    by_index = copy.deepcopy(doc)
    by_index[field][0][0] = doc["elements"].index(doc[field][0][0])
    labelled = run(capsys, "check", write_json(tmp_path, "a.json", doc))
    indexed = run(capsys, "check", write_json(tmp_path, "b.json", by_index))
    assert indexed[0] == labelled[0] == 0
    assert json.loads(indexed[1])["files"][0]["documents"] == (
        json.loads(labelled[1])["files"][0]["documents"]
    )


def test_well_formed_boundary_documents_still_pass(tmp_path, capsys):
    for doc in (SQUARE, dict(POSET2, leq=[["a", 1]]), MV2):
        assert run(capsys, "check", write_json(tmp_path, "doc.json", doc))[0] == 0


def test_check_state_documents(tmp_path, capsys):
    good = {"kind": "state", "label": "w", "over": "halves", "table": ["0", "1/2", "1"]}
    path = write_json(tmp_path, "st.json", [CHAIN_EA, good])
    rc, _ = run(capsys, "check", path)
    assert rc == 0

    bad = dict(good, table=["0", "2/3", "1"])
    path2 = write_json(tmp_path, "st2.json", [CHAIN_EA, bad])
    rc, out = run(capsys, "check", path2)
    assert rc == 1
    doc = json.loads(out)["files"][0]["documents"][1]
    assert doc["violations"][0]["axiom"] == "state"


def test_check_density_state(tmp_path, capsys):
    mat = {"kind": "sym_matrix", "label": "m2", "n": 2, "entries": [1.0, 0.0, 0.0, -2.0]}
    good = {"kind": "state", "over": "m2", "density": [0.5, 0.0, 0.0, 0.5]}
    path = write_json(tmp_path, "d.json", [mat, good])
    assert run(capsys, "check", path)[0] == 0
    bad = {"kind": "state", "over": "m2", "density": [1.5, 0.0, 0.0, -0.5]}
    path2 = write_json(tmp_path, "d2.json", [mat, bad])
    assert run(capsys, "check", path2)[0] == 1


def test_check_kind_filter_and_unknown_kind(tmp_path, capsys):
    path = write_json(tmp_path, "ea.json", CHAIN_EA)
    rc, out = run(capsys, "check", path, "--kind", "effect_algebra")
    assert rc == 0 and len(json.loads(out)["files"][0]["documents"]) == 1
    rc, _ = run(capsys, "check", path, "--kind", "frobnicator")
    assert rc == 2


def test_check_kind_filter_keeps_over_references(tmp_path, capsys):
    # the filter narrows the report, not the label table: a state kept by
    # --kind state must still find the algebra it lives over
    state = {"kind": "state", "label": "w", "over": "halves", "table": ["0", "1/2", "1"]}
    path = write_json(tmp_path, "pair.json", [CHAIN_EA, state])
    rc, out = run(capsys, "check", path, "--kind", "state")
    assert rc == 0
    docs = json.loads(out)["files"][0]["documents"]
    assert [d["kind"] for d in docs] == ["state"]
    assert docs[0]["valid"]


def test_state_body_must_be_a_list(tmp_path, capsys):
    doc = {"kind": "state", "over": "halves", "table": {"0": "0", "h": "1/2", "1": "1"}}
    path = write_json(tmp_path, "st.json", [CHAIN_EA, doc])
    rc = main(["check", path])
    err = capsys.readouterr().err
    assert rc == 2 and "must be a list" in err


@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "mystery"},                                   # unknown kind
        [CHAIN_EA, CHAIN_EA],                                  # duplicate label
        dict(POSET2, label=["p"]),                             # label not a string
        {"kind": "effect_algebra", "elements": ["0", "1"], "zero": "0", "one": "1"},
    ],
)
def test_unusable_documents_exit_two(tmp_path, capsys, payload):
    path = write_json(tmp_path, "doc.json", payload)
    assert run(capsys, "check", path)[0] == 2


def test_unparsable_file_exits_two(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert run(capsys, "check", str(p))[0] == 2
    assert run(capsys, "check", str(tmp_path / "absent.json"))[0] == 2


# ---------------------------------------------------------------------------
# spectral


def test_spectral_frozen_diagonal(tmp_path, capsys):
    doc = {"kind": "sym_matrix", "label": "a", "n": 2, "entries": [1.0, 0.0, 0.0, -2.0]}
    path = write_json(tmp_path, "m.json", doc)
    rc, out = run(capsys, "spectral", path, "--element", "a")
    assert rc == 0
    r = json.loads(out)["elements"][0]
    assert r["spectrum"] == [-2.0, 1.0]
    assert r["lower"] == -2.0 and r["upper"] == 1.0
    assert r["abs"] == [1.0, 0.0, 0.0, 2.0]
    assert r["plus"] == [1.0, 0.0, 0.0, 0.0]
    assert r["minus"] == [0.0, 0.0, 0.0, 2.0]
    assert r["carrier"] == [1.0, 0.0, 0.0, 1.0]
    assert r["residual_ok"] is True


def test_spectral_function_elements(tmp_path, capsys):
    doc = {
        "kind": "function_algebra",
        "points": ["x", "y", "z"],
        "values": {"f": [2.0, 2.0, -1.0]},
    }
    path = write_json(tmp_path, "f.json", doc)
    rc, out = run(capsys, "spectral", path)
    assert rc == 0
    r = json.loads(out)["elements"][0]
    assert r["label"] == "f" and r["spectrum"] == [-1.0, 2.0]


def near_ties():
    """(k + 1/2) / 1e12, moved by up to 1e-3 / 1e12: the products rint may misround."""
    k = st.integers(min_value=-10**14, max_value=10**14)
    step = st.floats(min_value=-1.0, max_value=1.0)
    return st.builds(lambda k, t: (k + 0.5 + t * 1e-3) / 1e12, k, step)


SPECIAL = st.sampled_from((0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-13,
                           5e-13, 1e15, -1e15, 1e300, -1e300, 1.7976931348623157e308))
ENTRIES = (st.floats(min_value=-1.0, max_value=1.0) | st.floats(min_value=-1e4, max_value=1e4)
           | st.floats(allow_nan=False, allow_infinity=False) | near_ties() | SPECIAL)


@given(st.lists(ENTRIES, max_size=40), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=300, deadline=None)
def test_vectorised_rounding_is_round_entry_by_entry(entries, seed):
    rng = np.random.default_rng(seed)
    values = np.concatenate([entries, rng.uniform(-3.0, 3.0, 8), rng.standard_normal(8) * 1e3])
    with np.errstate(over="raise", invalid="raise"):  # as spectral runs it
        found = cli._rounded(values)
    assert [repr(x) for x in found] == [repr(x) for x in rounded_by_entries(values)]


@pytest.mark.filterwarnings("error")
def test_spectral_report_of_a_1e300_matrix_keeps_exit_zero(tmp_path, capsys):
    # its entries times 1e12 overflow: the rounding falls back to round
    path = write_json(tmp_path, "m.json", sym2(entries=[1.5e300, 0.0, 0.0, 1.5e300]))
    rc, out = run(capsys, "spectral", path)
    assert rc == 0
    r = json.loads(out)["elements"][0]
    assert r["spectrum"] == [1.5e300] and r["abs"] == [1.5e300, 0.0, 0.0, 1.5e300]
    assert r["eigenprojections"] == [[1.0, 0.0, 0.0, 1.0]] and r["residual_ok"] is True


@pytest.mark.parametrize("entries", [[1e300, 0.0, 0.0, 1e300], [2e300, 0.0, 0.0, 2e300],
                                     [0.0, 1e300, 1e300, 0.0]],
                         ids=["1e300", "2e300", "off-diagonal"])
def test_spectral_residual_is_judged_relative_to_the_norm(tmp_path, capsys, entries):
    # the reconstruction is off by about one ulp of the entries, which the
    # resolution check allows as 1e-9 max(1, ||a||); so does the report
    path = write_json(tmp_path, "m.json", sym2(entries=entries))
    rc, out = run(capsys, "spectral", path)
    r = json.loads(out)["elements"][0]
    assert 1e-9 < r["residual"] <= 1e-9 * 2e300
    assert rc == 0 and r["residual_ok"] is True


def test_spectral_bad_reconstruction_of_a_huge_matrix_exits_one(tmp_path, capsys, monkeypatch):
    real = sa.spectral_resolution

    def planted(a):  # eigenvalues 1e-8 too large: 1.5e292 off, past 1e-9 ||a||
        res = real(a)
        return dataclasses.replace(res, eigenvalues=tuple(v * (1.0 + 1e-8)
                                                          for v in res.eigenvalues))

    monkeypatch.setattr(sa, "spectral_resolution", planted)
    path = write_json(tmp_path, "m.json", sym2(entries=[1.5e300, 0.0, 0.0, 1.5e300]))
    rc, out = run(capsys, "spectral", path)
    assert rc == 1 and json.loads(out)["elements"][0]["residual_ok"] is False


def test_spectral_report_lists_are_rounded_entry_by_entry(tmp_path, capsys):
    rng = np.random.default_rng(14)
    u = np.linalg.qr(rng.standard_normal((5, 5)))[0]
    m = (u * [-2.5, 1e-13, 1e-13, 3.0, 7.25]) @ u.T
    m = (m + m.T) / 2.0
    path = write_json(tmp_path, "m.json", {"kind": "sym_matrix", "label": "m", "n": 5,
                                           "entries": m.ravel().tolist()})
    rc, out = run(capsys, "spectral", path)
    r = json.loads(out)["elements"][0]
    res = sa.spectral_resolution(order_unit.SymmetricMatrixSpace(5).element(m))
    assert r["spectrum"] == rounded_by_entries(res.eigenvalues)
    assert r["eigenprojections"] == [rounded_by_entries(p.payload) for p in res.projections]
    assert [r["lower"], r["upper"]] == rounded_by_entries([res.lower, res.upper])


def test_spectral_unknown_element(tmp_path, capsys):
    doc = {"kind": "sym_matrix", "label": "a", "n": 2, "entries": [1.0, 0.0, 0.0, 1.0]}
    path = write_json(tmp_path, "m.json", doc)
    assert run(capsys, "spectral", path, "--element", "zz")[0] == 2


def test_spectral_missing_field_exits_two(tmp_path, capsys):
    doc = {"kind": "sym_matrix", "label": "m", "n": 2}
    path = write_json(tmp_path, "m.json", doc)
    rc = main(["spectral", path])
    err = capsys.readouterr().err
    assert rc == 2 and "missing field" in err


def sym2(n=2, entries=(1.0, 0.0, 0.0, 1.0)):
    return {"kind": "sym_matrix", "label": "m", "n": n, "entries": entries}


@pytest.mark.parametrize(
    "command, doc, message",
    [
        ("spectral", sym2(entries=[1.0, 2.0, 0.0, 1.0]), "not symmetric"),
        ("spectral", sym2(entries=[1.0, "x", "x", 1.0]), "bad numeric entry"),
        ("spectral", sym2(n=0, entries=[]), "positive integer"),
        ("spectral", sym2(entries=[1.0, float("nan"), float("nan"), 1.0]), "non-finite"),
        ("check", sym2(entries=[float("nan"), 0.0, 0.0, 1.0]), "non-finite"),
        ("check", sym2(entries=[float("inf"), 0.0, 0.0, 1.0]), "non-finite"),
        ("spectral", sym2(entries=["-inf", 0.0, 0.0, 1.0]), "non-finite"),
        ("check", sym2(entries=[1.0, "nan", "nan", 1.0]), "non-finite"),
        ("spectral", sym2(n=2.5), "positive integer"),
        ("check", sym2(n="2"), "positive integer"),
        ("spectral", sym2(n=True), "positive integer"),
        ("check", sym2(entries=1.0), "must be a list"),
    ],
)
def test_unusable_matrix_documents_exit_two(tmp_path, capsys, command, doc, message):
    path = write_json(tmp_path, "m.json", doc)
    rc = main([command, path])
    err = capsys.readouterr().err
    assert rc == 2 and message in err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "entries", [[1e308] * 4, [1e308, 0.0, 0.0, -1.7e308], [1e307, 1e307, 1e307, -1.7e308]]
)
def test_spectral_out_of_float_range_exits_two(tmp_path, capsys, entries):
    path = write_json(tmp_path, "m.json", sym2(entries=entries))
    rc = main(["spectral", path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "is out of float range" in captured.err and "not symmetric" not in captured.err
    assert run(capsys, "check", path)[0] == 0  # symmetric, so a valid document


@pytest.mark.filterwarnings("error")
def test_spectral_checks_the_spectrum_itself_for_overflow(tmp_path, capsys, monkeypatch):
    # the resolution is computed with every floating-point error silenced, so
    # only the direct finiteness check on the eigenvalues can reject it
    def quiet_resolution(a):
        with np.errstate(all="ignore"):
            return resolve(a)

    resolve = sa.spectral_resolution
    monkeypatch.setattr(sa, "spectral_resolution", quiet_resolution)
    path = write_json(tmp_path, "m.json", sym2(entries=[1e308] * 4))
    rc = main(["spectral", path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "is out of float range: non-finite spectrum" in captured.err


# near-degenerate spectra: the entries of a 2 x 2 matrix, and its eigenvalues
NEAR_DEGENERATE = [([0.0, 0.0, 0.0, 5e-9], [0.0, 5e-9]),
                   ([0.0, 3e-9, 3e-9, 0.0], [-3e-9, 3e-9]),
                   ([1e6, 0.0, 0.0, 1000000.005], [1e6, 1000000.005])]
NEAR_DEGENERATE_IDS = ["diag-5e-9", "off-diagonal-3e-9", "1e6"]


@pytest.mark.parametrize("entries, eigenvalues", NEAR_DEGENERATE, ids=NEAR_DEGENERATE_IDS)
def test_spectral_resolution_failing_its_check_exits_one(tmp_path, capsys, entries,
                                                         eigenvalues):
    # clustering merges the two eigenvalues, within RANK_RTOL = 1e-8 (relative),
    # and the merged projection then misses the reconstruction allowance of
    # 1e-9 max(1, ||a||): no report, and stderr names the file, element and check
    path = write_json(tmp_path, "m.json", sym2(entries=entries))
    rc = main(["spectral", path])
    captured = capsys.readouterr()
    assert rc == 1 and captured.out == ""
    assert captured.err == (f"synaptica: {path}: element 'm': "
                            "resolution does not reconstruct the element\n")
    assert main(["spectral", "--pretty", path]) == 1 and capsys.readouterr().out == ""
    assert run(capsys, "check", path)[0] == 0


@pytest.mark.parametrize("entries, eigenvalues", NEAR_DEGENERATE, ids=NEAR_DEGENERATE_IDS)
def test_near_degenerate_function_values_keep_exit_zero(tmp_path, capsys, entries,
                                                        eigenvalues):
    # the function instance's rank tolerance is 0: no two distinct values merge
    doc = {"kind": "function_algebra", "label": "F", "points": ["p", "q", "r", "s"],
           "values": {"entries": entries, "spectrum": eigenvalues + eigenvalues}}
    path = write_json(tmp_path, "f.json", doc)
    rc, out = run(capsys, "spectral", path)
    reports = json.loads(out)["elements"]
    assert rc == 0 and all(r["residual_ok"] for r in reports)
    assert reports[1]["spectrum"] == eigenvalues
    assert run(capsys, "check", path)[0] == 0


def count_lapack(monkeypatch) -> dict:
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_spectral_lapack_work_is_counted(tmp_path, capsys, monkeypatch):
    # a Sym(4) element: the resolution, whose eigh also gives |a|, its
    # parts and the carrier, and the two stacked eighs of its step
    # cross-check; the norms of the resolution check and of the residual.
    # A function algebra's spectra need no LAPACK call.
    rng = np.random.default_rng(4)
    u = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    docs = [sym2(n=4, entries=((u * lam) @ u.T).ravel().tolist())
            for lam in ([-1.0, 0.5, 2.0, 3.5], [0.0, 0.0, 1.0, 1.0], [2.0] * 4)]
    paths = [write_json(tmp_path, f"m{i}.json", doc) for i, doc in enumerate(docs)]
    fa = write_json(tmp_path, "f.json", {"kind": "function_algebra", "points": ["x", "y", "z"],
                                         "values": {"f": [2.0, -1.0, 2.0], "g": [0.0, 0.0, 0.0]}})
    calls = count_lapack(monkeypatch)
    for path in paths:
        calls.update(eigh=0, eigvalsh=0)
        assert run(capsys, "spectral", path)[0] == 0
        assert calls["eigh"] <= 3 and calls["eigvalsh"] <= 2
    calls.update(eigh=0, eigvalsh=0)
    assert run(capsys, "spectral", fa)[0] == 0
    assert calls == {"eigh": 0, "eigvalsh": 0}


@pytest.mark.filterwarnings("error")
def test_check_reports_a_huge_asymmetry_without_overflow(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", sym2(entries=[1.0, 1.7e308, -1.7e308, 1.0]))
    rc, out = run(capsys, "check", path)
    assert rc == 1
    (doc,) = json.loads(out)["files"][0]["documents"]
    assert doc["violations"][0]["detail"] == "asymmetry 1.700e+308 exceeds 1e-10"
    rc = main(["spectral", path])
    assert rc == 2 and "asymmetry 1.700e+308" in capsys.readouterr().err


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("over, state", [
    (sym2(), {"density": [1e308, 1.5e308, 1.5e308, 1e308]}),
    (dict(FA2, label="F"), {"vector": [1e308, 1e308]}),
], ids=["sym_matrix", "function_algebra"])
def test_a_density_past_the_float_range_is_no_state_and_no_warning(tmp_path, capsys, over, state):
    # its trace (or sum) overflows to inf, which is far from one
    doc = dict(state, kind="state", over=over["label"])
    path = write_json(tmp_path, "d.json", [over, doc])
    rc = main(["check", path])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    (_, verdict) = json.loads(captured.out)["files"][0]["documents"]
    assert verdict["violations"][0]["axiom"] == "state"
    rc = main(["states", path])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    assert json.loads(captured.out)["structures"][-1]["is_state"] is False


@pytest.mark.parametrize(
    "off, symmetric", [(1.5e-10, True), (1.9e-10, True), (2.1e-10, False), (3e-10, False)]
)
def test_check_and_spectral_measure_asymmetry_alike(tmp_path, capsys, off, symmetric):
    # both measure max|m - (m/2 + m.T/2)|, half the entry gap, against 1e-10
    path = write_json(tmp_path, "m.json", sym2(entries=[1.0, off, 0.0, 1.0]))
    assert run(capsys, "check", path)[0] == (0 if symmetric else 1)
    assert main(["spectral", path]) == (0 if symmetric else 2)
    capsys.readouterr()


def test_a_density_as_asymmetric_as_its_base_matrix_is_a_state(tmp_path, capsys):
    # [0.5, 1.5e-10, 0, 0.5] moves 7.5e-11 under symmetrisation, within 1e-10
    entries = [0.5, 1.5e-10, 0.0, 0.5]
    path = write_json(tmp_path, "s.json",
                      [sym2(entries=entries), {"kind": "state", "over": "m", "density": entries}])
    assert run(capsys, "check", path)[0] == 0
    rc, out = run(capsys, "states", path)
    assert rc == 0
    assert json.loads(out)["structures"] == [{"label": "", "kind": "state", "over": "m",
                                              "is_state": True}]


def test_check_keeps_the_symmetry_violation(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", sym2(entries=[1.0, 2.0, 0.0, 1.0]))
    rc, out = run(capsys, "check", path)
    assert rc == 1
    (doc,) = json.loads(out)["files"][0]["documents"]
    assert [v["axiom"] for v in doc["violations"]] == ["symmetry"]


# ---------------------------------------------------------------------------
# states


def test_states_reports_mo2_vertices(tmp_path, capsys):
    path = write_json(tmp_path, "mo2.json", ea_document("mo2", mo2_effect_algebra()))
    rc, out = run(capsys, "states", path, "--extremal")
    assert rc == 0
    r = json.loads(out)["structures"][0]
    assert r["feasible"] is True
    assert r["dimension"] == 2
    assert r["n_vertices"] == 4
    assert sorted(r["vertices"]) == [
        ["0", "0", "1", "0", "1", "1"],
        ["0", "0", "1", "1", "0", "1"],
        ["0", "1", "0", "0", "1", "1"],
        ["0", "1", "0", "1", "0", "1"],
    ]


def test_states_function_algebra_simplex(tmp_path, capsys):
    doc = {"kind": "function_algebra", "label": "xyz", "points": ["x", "y", "z"]}
    path = write_json(tmp_path, "f.json", doc)
    rc, out = run(capsys, "states", path, "--extremal")
    assert rc == 0
    r = json.loads(out)["structures"][0]
    assert r["dimension"] == 2 and r["n_vertices"] == 3
    assert all(v["is_vertex"] and v["min_rule_holds"] for v in r["vertices"])
    assert sorted(v["point_evaluation"] for v in r["vertices"]) == ["x", "y", "z"]


def test_states_extremal_characterizes_each_function_algebra_once(tmp_path, capsys,
                                                                   monkeypatch):
    # one stacked evaluation of the formulas for all k vertices, not k of them
    calls = []
    real = stt._extremal_reports

    def counting(space, weights):
        calls.append(weights.shape)
        return real(space, weights)

    monkeypatch.setattr(stt, "_extremal_reports", counting)
    docs = [{"kind": "function_algebra", "label": f"F{k}", "points": [f"p{i}" for i in range(k)]}
            for k in (5, 3)]
    path = write_json(tmp_path, "f.json", docs)
    rc, out = run(capsys, "states", path, "--extremal")
    assert rc == 0 and calls == [(5, 5), (3, 3)]
    found = json.loads(out)["structures"]
    assert [len(r["vertices"]) for r in found] == [5, 3]
    assert all(v["is_vertex"] and v["min_rule_holds"] for r in found for v in r["vertices"])


@pytest.mark.parametrize("extremal", [False, True], ids=["states", "states --extremal"])
def test_states_on_sixteen_points_cold(tmp_path, capsys, extremal):
    # at the bound the simplex is enumerated in 16 rays, so a cold run
    # takes well under a second
    stt._simplex_vertex_data.cache_clear()
    doc = {"kind": "function_algebra", "label": "F", "points": [f"p{i}" for i in range(16)]}
    path = write_json(tmp_path, "f.json", doc)
    start = time.perf_counter()
    rc, out = run(capsys, "states", path, *["--extremal"] * extremal)
    elapsed = time.perf_counter() - start
    assert rc == 0 and elapsed < 10, f"{elapsed:.2f} s"
    r = json.loads(out)["structures"][0]
    assert r["dimension"] == 15 and r["n_vertices"] == 16
    if extremal:
        assert all(v["is_vertex"] and v["min_rule_holds"] for v in r["vertices"])
        assert sorted(v["point_evaluation"] for v in r["vertices"]) == sorted(doc["points"])


POINTS_17 = {"kind": "function_algebra", "label": "F", "points": [f"p{i}" for i in range(17)]}
TOO_MANY_POINTS = "the simplex takes at most 16 points, got 17; keep the point set small"


def _no_enumeration(rows, rhs, n):
    raise AssertionError(f"enumerated a box of {n} coordinates")


@pytest.mark.parametrize("docs", [
    [POINTS_17],
    # the state comes first, so it meets the limit before its base does
    [{"kind": "state", "over": "F", "vector": [1 / 17] * 17}, POINTS_17],
])
def test_states_extremal_past_sixteen_points_exits_two_at_once(tmp_path, capsys, monkeypatch,
                                                               docs):
    # the library's bound is read before the simplex, which would take
    # minutes at 17 points
    monkeypatch.setattr(stt, "enumerate_box_vertices", _no_enumeration)
    path = write_json(tmp_path, "f.json", docs)
    rc = main(["states", "--extremal", path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"synaptica: {path}: {TOO_MANY_POINTS}\n"
    assert main(["check", path]) == 0  # a fine document, only too large to scan


def test_states_past_sixteen_points_exits_two_at_once(tmp_path, capsys, monkeypatch):
    # plain states lists the simplex's vertices, so the same bound holds
    monkeypatch.setattr(stt, "enumerate_box_vertices", _no_enumeration)
    path = write_json(tmp_path, "f.json", POINTS_17)
    rc = main(["states", path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"synaptica: {path}: {TOO_MANY_POINTS}\n"


def test_states_extremal_on_a_state_only_a_loosened_tolerance_accepts_exits_two(
        tmp_path, capsys, monkeypatch):
    # the weights sum to 1.005: a state at SYNAPTICA_TOL=1e-2, none at the
    # tolerance the extremality report judges by
    docs = [{"kind": "function_algebra", "label": "F", "points": ["p", "q"]},
            {"kind": "state", "label": "s", "over": "F", "vector": [0.5, 0.505]}]
    path = write_json(tmp_path, "f.json", docs)
    monkeypatch.setenv("SYNAPTICA_TOL", "1e-2")
    rc = main(["states", "--extremal", path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err == f"synaptica: {path}: not a state on the function algebra\n"
    rc, out = run(capsys, "check", path)
    assert rc == 0 and json.loads(out)["files"][0]["documents"][1]["valid"] is True


def test_states_missing_field_exits_two(tmp_path, capsys):
    doc = {"kind": "effect_algebra", "label": "e", "elements": ["0", "1"],
           "zero": "0", "one": "1"}
    path = write_json(tmp_path, "e.json", doc)
    rc = main(["states", path])
    err = capsys.readouterr().err
    assert rc == 2 and "missing field" in err


def test_states_infeasible_note(tmp_path, capsys, monkeypatch):
    # no desk-size algebra in the corpus is stateless, so the infeasible
    # branch is driven by substituting the polytope
    def fake_polytope(ea):
        return stt.StatePolytope(
            ea=ea,
            equalities=[],
            dimension=-1,
            feasible=False,
            vertices=[],
            certificate=InfeasibilityCertificate(
                kind="equalities", multipliers=(), detail="0 = 1"
            ),
        )

    monkeypatch.setattr(stt, "state_polytope", fake_polytope)
    path = write_json(tmp_path, "ea.json", CHAIN_EA)
    rc, out = run(capsys, "states", path)
    assert rc == 0
    r = json.loads(out)["structures"][0]
    assert r["feasible"] is False
    assert r["note"] == "no states"
    assert r["certificate"]["kind"] == "equalities"


def test_states_on_state_documents(tmp_path, capsys):
    fn = {"kind": "function_algebra", "label": "xy", "points": ["x", "y"]}
    st = {"kind": "state", "label": "even", "over": "xy", "vector": [0.5, 0.5]}
    path = write_json(tmp_path, "s.json", [fn, st])
    rc, out = run(capsys, "states", path, "--extremal")
    assert rc == 0
    r = json.loads(out)["structures"][1]
    assert r["is_state"] is True
    assert r["is_vertex"] is False and r["min_rule_holds"] is False


def test_states_extremal_on_a_non_numeric_state_vector(tmp_path, capsys):
    # unusable input: a clean exit 2 before any report, --extremal or not
    fn = {"kind": "function_algebra", "label": "xy", "points": ["x", "y"]}
    st = {"kind": "state", "label": "bad", "over": "xy", "vector": [0.5, "x"]}
    path = write_json(tmp_path, "s.json", [fn, st])
    rc = main(["states", path, "--extremal"])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "bad numeric entry: 'x'" in captured.err


SYM2 = {"kind": "sym_matrix", "label": "M", "n": 2, "entries": [1.0, 0.0, 0.0, -2.0]}
FN2 = {"kind": "function_algebra", "label": "F", "points": ["p", "q"]}


@pytest.mark.parametrize("command", ["check", "states"])
@pytest.mark.parametrize(
    "over, state, message",
    [
        (FN2, {"vector": [0.5, "x"]}, "bad numeric entry: 'x'"),
        (SYM2, {"density": [0.5, 0, 0, "x"]}, "bad numeric entry: 'x'"),
        (SYM2, {"density": [0.5, 0, 0]}, "state density has wrong length"),
        (FN2, {"vector": [0.25, 0.25, 0.5]}, "state vector has wrong length"),
        (FN2, {"vector": [float("nan"), 1.0]}, "non-finite numeric entry"),
        (SYM2, {"density": [float("inf"), 0, 0, 0]}, "non-finite numeric entry"),
        (CHAIN_EA, {"table": ["0", float("nan"), "1"]}, "non-finite numeric entry"),
    ],
    ids=["vector-non-numeric", "density-non-numeric", "density-length", "vector-length",
         "vector-nan", "density-inf", "table-nan"],
)
def test_unusable_state_bodies_exit_two(tmp_path, capsys, command, over, state, message):
    doc = dict(state, kind="state", over=over["label"])
    path = write_json(tmp_path, "s.json", [over, doc])
    rc = main([command, path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err
    assert "reshape" not in captured.err


@pytest.mark.parametrize("command", ["check", "states"])
def test_huge_exact_value_beside_a_float_is_no_state(tmp_path, capsys, command):
    # the float sends the table down the float path, and 1e400 has no float
    doc = {"kind": "state", "over": "halves", "table": ["0", 0.5, "1e400"]}
    path = write_json(tmp_path, "s.json", [CHAIN_EA, doc])
    rc = main([command, path])
    captured = capsys.readouterr()
    assert rc == 1 and captured.err == ""
    report = json.loads(captured.out)
    if command == "check":
        [violation] = report["files"][0]["documents"][1]["violations"]
        assert violation["axiom"] == "state"
    else:
        assert report["structures"][1]["is_state"] is False


def test_states_axiom_failure_exits_one(tmp_path, capsys):
    # probe:states:axiom-failure -- the three-element chain without h + h,
    # so h has no orthosupplement and there is no state space to report
    doc = dict(CHAIN_EA, osum=[t for t in CHAIN_EA["osum"] if t[:2] != ["h", "h"]])
    path = write_json(tmp_path, "bad.json", doc)
    rc, out = run(capsys, "states", path, "--extremal")
    assert rc == 1
    r = json.loads(out)["structures"][0]
    assert r["violations"] == [
        {"axiom": "orthosupplement", "witness": ["h"], "detail": "no orthosupplement"}
    ]
    assert "dimension" not in r and "vertices" not in r
    rc, out = run(capsys, "states", path, "--pretty")
    assert rc == 1
    assert out.splitlines() == [
        "effect_algebra halves: VIOLATION",
        "  orthosupplement at ['h']: no orthosupplement",
    ]


def test_states_non_numeric_function_value_exits_two(tmp_path, capsys):
    # probe:states:non-numeric
    doc = {"kind": "function_algebra", "label": "F", "points": ["p", "q"],
           "values": {"g": [1.0, "x"]}}
    path = write_json(tmp_path, "f.json", doc)
    rc = main(["states", path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert "bad numeric entry: 'x'" in captured.err


# each with its repeated element label
REPEATED = {
    "poset": (dict(POSET2, elements=["a", "a"]), "a"),
    "ortholattice": (dict(SQUARE, elements=["0", "a", "a", "1"]), "a"),
    "effect_algebra": (dict(CHAIN_EA, elements=["0", "h", "h"]), "h"),
    "mv_algebra": (dict(MV2, elements=["1", "1"]), "1"),
    "state": ([dict(CHAIN_EA, elements=["0", "h", "h"]),
               {"kind": "state", "over": "halves", "table": ["0", "1/2", "1"]}], "h"),
}


# states gives the kinds without a state space check's verdict, so a poset,
# ortholattice or MV algebra with a repeated label exits 2 there too
@pytest.mark.parametrize(
    "command, kind", [(command, kind) for command in ("check", "states") for kind in REPEATED]
)
def test_repeated_element_labels_exit_two(tmp_path, capsys, command, kind):
    payload, label = REPEATED[kind]
    rc = main([command, write_json(tmp_path, "doc.json", payload)])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.endswith(f"repeated element label: {label!r}\n")


def test_states_exits_two_on_a_non_finite_matrix(tmp_path, capsys):
    path = write_json(tmp_path, "m.json", sym2(entries=[1.0, float("nan"), 0.0, 1.0]))
    rc = main(["states", path])
    captured = capsys.readouterr()
    assert rc == 2 and captured.out == ""
    assert captured.err.endswith("non-finite numeric entry: nan\n")


@pytest.mark.parametrize("doc", [POSET2, SQUARE, MV2, SYM2])
def test_states_gives_usable_kinds_without_states_no_report(tmp_path, capsys, doc):
    rc, out = run(capsys, "states", write_json(tmp_path, "doc.json", doc))
    assert rc == 0
    assert json.loads(out)["structures"] == []


# one document of each kind without a state space that check rejects, and
# the axiom it fails
REJECTED_WITHOUT_STATES = {
    "cyclic-poset": (dict(POSET2, leq=[["a", "b"], ["b", "a"]]), "structure"),
    "perp-1-no-complement": (
        {"kind": "ortholattice", "label": "C", "elements": ["0", "a", "1"],
         "leq": [["0", "a"], ["a", "1"]], "perp": [["0", "1"], ["a", "a"], ["1", "0"]],
         "zero": "0", "one": "1"},
        "structure"),
    "mv-lukasiewicz": (
        dict(MV2, elements=["0", "a", "b", "1"],
             plus=[["0", "a", "b", "1"], ["a", "1", "1", "1"], ["b", "1", "1", "1"],
                   ["1", "1", "1", "1"]],
             perp=[["0", "1"], ["a", "a"], ["b", "b"], ["1", "0"]]),
        "mv-lukasiewicz"),
    "asymmetric-matrix": (sym2(entries=[1.0, 2.0, 0.0, 1.0]), "symmetry"),
}


@pytest.mark.parametrize("doc, axiom", REJECTED_WITHOUT_STATES.values(),
                         ids=REJECTED_WITHOUT_STATES.keys())
def test_states_exits_one_where_check_rejects_a_kind_without_states(tmp_path, capsys,
                                                                    doc, axiom):
    # states takes check's verdict and reports its violations as it
    # reports an effect algebra's
    path = write_json(tmp_path, "doc.json", doc)
    rc, out = run(capsys, "check", path)
    verdict = json.loads(out)["files"][0]["documents"][0]
    assert rc == 1 and [v["axiom"] for v in verdict["violations"]] == [axiom]
    rc, out = run(capsys, "states", path)
    assert rc == 1
    assert json.loads(out)["structures"] == [
        {"label": doc.get("label", ""), "kind": doc["kind"], "violations": verdict["violations"]}
    ]
    rc, out = run(capsys, "states", path, "--pretty")
    assert rc == 1 and out.splitlines()[0] == f"{doc['kind']} {doc.get('label') or '-'}: VIOLATION"


# ---------------------------------------------------------------------------
# the boundary under mutation: every document gets a report or a clean exit


BOUNDARY_DOCUMENTS = [
    CHAIN_EA, SQUARE, POSET2, FA2, MV2, SYM2, sym2(),
    dict(POSET2, leq=[["a", 1]]),
    dict(FN2, values={"g": [1.0, -2.0]}),
    [CHAIN_EA, {"kind": "state", "label": "w", "over": "halves", "table": ["0", "1/2", "1"]}],
    [SYM2, {"kind": "state", "over": "M", "density": [0.5, 0.0, 0.0, 0.5]}],
    [FN2, {"kind": "state", "over": "F", "vector": [0.5, 0.5]}],
]
SWAPS = [None, True, 0, -1, 7, 2.5, "x", "1/0", "nan", float("nan"), float("inf"),
         -float("inf"), [], {}, ["x"], [[]]]


def _nodes(node, at=()):
    """Every path into a JSON tree, the root's () first."""
    yield at
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _nodes(child, at + (key,))


def _mutate(data, payload):
    """payload with one to three draws of a type swap, NaN or inf, a truncated
    list, an unknown label, a repeated entry (element labels among them), a
    row made wider or narrower, or a dropped field."""
    payload = copy.deepcopy(payload)
    for _ in range(data.draw(st.integers(1, 3))):
        inner = list(_nodes(payload))[1:]
        if not inner:
            break
        at = data.draw(st.sampled_from(inner))
        parent = payload
        for key in at[:-1]:
            parent = parent[key]
        key, node = at[-1], parent[at[-1]]
        op = data.draw(st.sampled_from(
            ["swap", "truncate", "unknown", "repeat", "widen", "narrow", "drop"]))
        if op == "swap":
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(SWAPS)))
        elif op == "unknown":
            parent[key] = "no-such-label"
        elif op == "drop" and isinstance(parent, dict):
            del parent[key]
        elif isinstance(node, list) and node:
            if op == "truncate":
                del node[data.draw(st.integers(0, len(node) - 1)):]
            elif op == "repeat":
                node[data.draw(st.integers(0, len(node) - 1))] = node[0]
            elif op == "widen":
                node.append(node[-1])
            elif op == "narrow":
                node.pop()
    return payload


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_mutated_documents_get_a_report_or_a_clean_exit(tmp_path, capsys, data):
    payload = _mutate(data, data.draw(st.sampled_from(BOUNDARY_DOCUMENTS)))
    path = str(tmp_path / "doc.json")
    with open(path, "w") as fh:
        json.dump(payload, fh)  # NaN and Infinity are written as such
    for argv in (["check", path], ["states", "--extremal", path], ["spectral", path]):
        assert main(argv) in (0, 1, 2)
        capsys.readouterr()


# ---------------------------------------------------------------------------
# verify


def test_verify_all_is_deterministic(capsys):
    rc1, out1 = run(capsys, "verify", "all", "--seed", "0")
    rc2, out2 = run(capsys, "verify", "all", "--seed", "0")
    assert rc1 == rc2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["ok"] is True
    assert [s["suite"] for s in report["suites"]] == [
        "posets", "effect", "order-unit", "synaptic", "states", "stone",
    ]
    assert all(c["passed"] for s in report["suites"] for c in s["checks"])


def test_verify_single_suite_and_unknown(capsys):
    rc, out = run(capsys, "verify", "posets")
    assert rc == 0 and len(json.loads(out)["suites"]) == 1
    assert run(capsys, "verify", "nonesuch")[0] == 2


def test_verify_rejects_a_negative_seed(capsys):
    assert main(["verify", "order-unit", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--seed must be nonnegative" in captured.err


def test_verify_pretty_lines(capsys):
    rc, out = run(capsys, "verify", "posets", "--pretty")
    assert rc == 0
    assert out.splitlines()[-1].startswith("verify: ok")


# ---------------------------------------------------------------------------
# environment tolerance


def test_tolerance_env_is_reflected(tmp_path, capsys, monkeypatch):
    doc = {"kind": "sym_matrix", "label": "a", "n": 2, "entries": [1.0, 0.0, 0.0, 1.0]}
    path = write_json(tmp_path, "m.json", doc)
    monkeypatch.setenv("SYNAPTICA_TOL", "1e-2")
    rc, out = run(capsys, "spectral", path)
    assert rc == 0 and json.loads(out)["tolerance"] == 1e-2
    monkeypatch.setenv("SYNAPTICA_TOL", "not-a-number")
    assert run(capsys, "spectral", path)[0] == 2
    # NaN or inf would pass every residual, a negative one would fail all
    for raw in ("nan", "inf", "-inf", "-1"):
        monkeypatch.setenv("SYNAPTICA_TOL", raw)
        assert main(["spectral", path]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "finite and nonnegative" in captured.err


# ---------------------------------------------------------------------------
# the parser is built once and reused


def test_reused_parser_gives_the_fresh_parsers_output(tmp_path, capsys):
    from synaptica.cli import _build_parser

    path = write_json(tmp_path, "ea.json", CHAIN_EA)
    calls = [("states", "--extremal", path), ("verify", "posets", "--seed", "3")]
    fresh = []
    for argv in calls:
        _build_parser.cache_clear()
        fresh.append(run(capsys, *argv))
    assert _build_parser() is _build_parser()
    assert [run(capsys, *argv) for argv in calls] == fresh
    assert [rc for rc, _ in fresh] == [0, 0]


def test_usage_error_then_a_valid_call(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectral"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err
    path = write_json(tmp_path, "m.json", sym2(entries=[1.0, 0.0, 0.0, -2.0]))
    rc, out = run(capsys, "spectral", path, "--element", "m")
    assert rc == 0 and json.loads(out)["elements"][0]["spectrum"] == [-2.0, 1.0]


# ---------------------------------------------------------------------------
# each per-call cost paid once: the plain argv loop, one build per document,
# references in bulk, density samples drawn once


def _argv_cases():
    """Each command with every subset and order of its switches, spread over
    1-3 files in every interleaving, then options with values, -h, --, -, an
    abbreviation, unknown flags and missing file lists."""
    switches = {"check": ["--pretty"], "spectral": ["--pretty"],
                "states": ["--extremal", "--pretty"], "verify": ["--pretty"]}
    cases = [[], ["bogus"], ["-h"], ["--pretty"], ["check.json"]]
    for command, flags in switches.items():
        cases += [[command], [command, *flags]]
        for k in range(len(flags) + 1):
            for chosen in itertools.permutations(flags, k):
                for n in (1, 2, 3):
                    for slots in itertools.combinations(range(k + n), k):
                        files, picked = iter(f"f{i}.json" for i in range(n)), iter(chosen)
                        cases.append([command] + [next(picked) if i in slots else next(files)
                                                  for i in range(k + n)])
        base = [command, "--pretty", "a.json", "b.json"]
        for extra in (["-h"], ["--kind", "X"], ["--element", "X"], ["--ext"], ["--pre"],
                      ["--"], ["-"], ["--bogus"], ["--pretty=1"], ["--kind=X"], ["-x"],
                      ["--seed", "3"], ["-1"], [""]):
            for at in (1, 2, 3, 4):
                cases.append(base[:at] + extra + base[at:])
    return cases


def _parsed(parse, argv, capsys):
    try:
        got = ("namespace", vars(parse(argv)))
    except SystemExit as exc:
        got = ("exit", exc.code)
    captured = capsys.readouterr()
    return got, captured.out, captured.err


PLAIN_SWITCHES = {"check": {"--pretty"}, "spectral": {"--pretty"},
                  "states": {"--extremal", "--pretty"}}


def test_plain_argv_loop_parses_as_the_parser_does(capsys):
    plain = 0
    for argv in _argv_cases():
        expected = _parsed(cli._build_parser().parse_args, list(argv), capsys)
        assert _parsed(cli._parse_args, list(argv), capsys) == expected, argv
        if expected[0][0] == "exit" and expected[0][1] == 2:
            assert "usage" in expected[2], argv
        # the loop reads every command line of switches and file names that
        # the parser accepts, and leaves the rest to it
        read = cli._plain_args(list(argv)) is not None
        switches = PLAIN_SWITCHES.get(argv[0] if argv else None)
        if switches is not None and all(a in switches or a.startswith("f") for a in argv[1:]):
            assert read == (expected[0][0] == "namespace"), argv
            plain += read
    assert plain > 50


def test_module_entry_point_reads_sys_argv(tmp_path, capsys):
    docs = [CHAIN_EA, {"kind": "state", "over": "halves", "table": ["0", "1/2", "1"]},
            {"kind": "state", "over": "halves", "table": ["0", "1/3", "1"]},
            {"kind": "function_algebra", "label": "F", "points": ["x", "y"]}]
    path = write_json(tmp_path, "docs.json", docs)
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    env.pop("SYNAPTICA_TOL", None)
    for argv in (["check", path], ["states", "--extremal", path]):
        proc = subprocess.run([sys.executable, "-m", "synaptica", *argv],
                              capture_output=True, text=True, env=env)
        rc, out = run(capsys, *argv)
        assert (proc.returncode, proc.stdout) == (rc, out) and out, argv
    assert rc == 1 and run(capsys, "check", path)[0] == 1  # the 1/3 state is no state


def _count_ea_builds(monkeypatch) -> list:
    built = []
    real = eff.FiniteEffectAlgebra.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        real(self, *args, **kwargs)

    monkeypatch.setattr(eff.FiniteEffectAlgebra, "__init__", counting)
    return built


def test_states_reuse_their_bases_build_within_a_file(tmp_path, capsys, monkeypatch):
    built = _count_ea_builds(monkeypatch)
    tables = (["0", "1/2", "1"], ["0", "1/4", "1"], ["0", "0.5", "1"])
    # a state before its base, too: either order builds the base once
    docs = [{"kind": "state", "over": "halves", "table": tables[0]}, CHAIN_EA] + [
        {"kind": "state", "over": "halves", "table": t} for t in tables[1:]]
    path = write_json(tmp_path, "e.json", docs)
    for command, code in (("check", 1), ("states", 1)):  # 1/4 + 1/4 != 1
        built.clear()
        rc, out = run(capsys, command, path)
        assert rc == code and len(built) == 1, command
    # the memo goes with the file: the same base in a second file is built again
    other = write_json(tmp_path, "f.json", docs)
    built.clear()
    assert run(capsys, "check", path, other)[0] == 1 and len(built) == 2


def test_states_over_a_failing_base_reuse_its_verdict(tmp_path, capsys, monkeypatch):
    built = _count_ea_builds(monkeypatch)
    broken = copy.deepcopy(CHAIN_EA)
    broken["osum"][-1] = ["h", "h", "h"]  # h + h = h: no orthosupplement for h
    docs = [broken] + [{"kind": "state", "over": "halves", "table": ["0", "1/2", "1"]}] * 2
    path = write_json(tmp_path, "e.json", docs)
    rc, out = run(capsys, "check", path)
    reports = json.loads(out)["files"][0]["documents"]
    assert rc == 1 and len(built) == 1
    violations = [r["violations"] for r in reports]
    assert violations[0][0]["axiom"] == "orthosupplement"
    assert violations[1] == violations[2] == [{
        "axiom": "structure", "witness": [],
        "detail": "orthosupplement fails at (1,): no orthosupplement"}]


def test_density_samples_are_drawn_once_per_dimension(tmp_path, capsys, monkeypatch):
    real = np.random.default_rng
    rng = real(5)
    densities = []
    for i in range(50):
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        w = rng.dirichlet(np.ones(3))
        if i % 3 == 0:  # an eigenvalue just inside -tol: the samples are paired
            w = np.array([-0.9e-9, w[1], 1.0 + 0.9e-9 - w[1]])
        if i % 5 == 0:  # a trace off by more than tol: no state
            w = w * (1.0 + 1e-6)
        d = (q * w) @ q.T
        densities.append((d + d.T) / 2)
    docs = [{"kind": "sym_matrix", "label": "S", "n": 3, "entries": np.eye(3).ravel().tolist()}]
    docs += [{"kind": "state", "over": "S", "density": d.ravel().tolist()} for d in densities]
    path = write_json(tmp_path, "s.json", docs)

    order_unit._sampled_squares.cache_clear()
    draws = []
    monkeypatch.setattr(np.random, "default_rng", lambda seed=None: draws.append(seed) or real(seed))
    rc, out = run(capsys, "check", path)
    assert draws == [99]
    monkeypatch.undo()
    verdicts = [r["valid"] for r in json.loads(out)["files"][0]["documents"][1:]]
    read_back = [np.array(doc["density"]).reshape(3, 3) for doc in docs[1:]]
    assert verdicts == [is_density_by_fresh_draws(d, 1e-9) for d in read_back]
    assert rc == 1 and verdicts.count(False) == 10


ELEMENTS = ["0", "a", "b", "1"]
REFERENCES = ELEMENTS + ["c", "", 0, 3, 4, -1, True, False, np.int64(1), 1.0, 2.5, None,
                         [1], {"a": 1}]


@st.composite
def reference_rows(draw):
    """Rows of labels, the bulk path's input, now and then with one other
    entry, a row of the wrong width, or no list at all."""
    width = draw(st.sampled_from([2, 3]))
    rows = [[draw(st.sampled_from(ELEMENTS)) for _ in range(width)]
            for _ in range(draw(st.integers(0, 6)))]
    change = draw(st.integers(0, 9))
    if rows and change < 5:
        row = draw(st.integers(0, len(rows) - 1))
        rows[row][draw(st.integers(0, width - 1))] = draw(st.sampled_from(REFERENCES))
    elif rows and change == 5:
        rows[-1].append("0")
    elif change == 6:
        rows = draw(st.sampled_from([None, "0a", {"a": 1}, (("0", "a"),), [("0", "a")]]))
    return rows, width


@given(reference_rows())
@settings(max_examples=400, deadline=None)
def test_bulk_references_match_the_per_entry_reading(case):
    rows, width = case
    expected = refs_by_entries(rows, "osum", ELEMENTS, width)
    try:
        got = cli._Resolver(ELEMENTS, "f.json").rows(rows, "osum", width)
    except cli.CliError as exc:
        assert exc.code == 2
        got = ("error", str(exc).removeprefix("f.json: "))
    assert got == expected
    if isinstance(got, list):
        assert all(type(i) is int for row in got for i in row)
