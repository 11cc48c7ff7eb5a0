"""The self-check suites must exercise the live library.

Planting a bug in a library function has to turn exactly the check
naming the broken identity red; that is the whole point of resolving
functions through module namespaces at call time.
"""

import pytest

from synaptica import states as stt
from synaptica import synaptic as sa
from synaptica import verify as ver
from synaptica.cli import main


def test_all_suites_green():
    results = ver.run_suites(ver.SUITES.keys(), seed=0)
    assert all(c.passed for checks in results.values() for c in checks)


def test_unknown_suite_raises():
    with pytest.raises(KeyError):
        ver.run_suite("nonesuch", seed=0)


def test_deterministic_details():
    a = ver.run_suite("synaptic", seed=0)
    b = ver.run_suite("synaptic", seed=0)
    assert [(c.name, c.passed, c.detail) for c in a] == [
        (c.name, c.passed, c.detail) for c in b
    ]


def test_planted_decompose_bug_is_caught(monkeypatch):
    real = sa.decompose

    def broken(a):
        absolute, plus, minus = real(a)
        return absolute, minus, plus  # swapped parts: a = minus - plus now

    monkeypatch.setattr(sa, "decompose", broken)
    checks = ver.run_suite("synaptic", seed=0)
    failed = [c.name for c in checks if not c.passed]
    assert any("a = a_plus - a_minus" in name for name in failed)


def test_planted_carrier_bug_is_caught(monkeypatch):
    # the unit satisfies carrier(a) a = a but is not the smallest such
    # projection; the annihilator biconditional must notice
    monkeypatch.setattr(sa, "carrier", lambda a: a.space.unit())
    checks = ver.run_suite("synaptic", seed=0)
    failed = [c.name for c in checks if not c.passed]
    assert any("carrier" in name for name in failed)


def test_planted_vertex_loss_is_caught(monkeypatch):
    # an enumeration that loses a vertex still returns exact extreme
    # states, so the state and rank re-checks in state_polytope pass;
    # the product check's predicted vertex sets do not
    real = stt.enumerate_box_vertices

    def lossy(rows, rhs, n):
        enum = real(rows, rhs, n)
        del enum.vertices[-1:]
        return enum

    monkeypatch.setattr(stt, "enumerate_box_vertices", lossy)
    checks = ver.run_suite("states", seed=0)
    failed = [c.name for c in checks if not c.passed]
    assert any("padded factor vertices" in name for name in failed)


def test_planted_join_bug_is_caught(monkeypatch, capsys):
    # a join that returns the meet leaves every other stone check green
    monkeypatch.setattr(sa, "proj_join", sa.proj_meet)
    failed = [c.name for c in ver.run_suite("stone", seed=0) if not c.passed]
    assert failed == ["stone: annihilators are principal and indicators form a complete lattice"]
    assert main(["verify", "stone"]) == 1
