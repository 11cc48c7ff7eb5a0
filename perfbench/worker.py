"""One pass of one workload, in a fresh process.

    python3 perfbench/worker.py --workload W --seed N --dir DIR --out FILE
                                [--trace] [--setup-only]

Set-up (imports, corpus generation, writing the documents into DIR) is
followed by the timed items, one after another: each starts when the
previous one has returned. Oracles and the robustness probes run after
the last timed item. The result, a JSON object, goes to FILE; run.py
turns the results of many passes into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import synaptica  # noqa: E402,F401  (binds every layer module for the tracer)
import synaptica.cli  # noqa: E402
import synaptica.order_unit  # noqa: E402
import synaptica.stone  # noqa: E402
import synaptica.synaptic  # noqa: E402

import corpus  # noqa: E402
import oracles  # noqa: E402
from tracer import Tracer  # noqa: E402


def _load_replay():
    """The test suite's independent effect-algebra oracle."""
    spec = importlib.util.spec_from_file_location("synaptica_test_helpers",
                                                  ROOT / "tests" / "helpers.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_cli(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    code, raised = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = synaptica.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback escaping main is a result to record
            raised = f"{type(exc).__name__}: {exc}"
    return {"code": code, "out": out.getvalue(), "raised": raised, "result": None}


def _run_meet(data: dict) -> dict:
    space = synaptica.order_unit.SymmetricMatrixSpace(data["n"])
    meet, join = synaptica.synaptic.proj_meet, synaptica.synaptic.proj_join
    one = space.unit()
    p = meet(space.element(data["p1"]), space.element(data["p2"]))
    q = join(p, space.element(data["p3"]))
    rebuilt = join(p, meet(q, one - p))
    return (p.payload, q.payload, rebuilt.payload)


def _run_funrep(data: dict):
    space = synaptica.order_unit.SymmetricMatrixSpace(data["n"])
    return synaptica.stone.functional_representation(
        space, [space.element(p) for p in data["projections"]]
    )


def run_item(item, argv) -> dict:
    if item.op == "cli":
        return _run_cli(argv)
    try:
        result = _run_meet(item.data) if item.op == "meet" else _run_funrep(item.data)
    except Exception as exc:  # recorded and failed by the oracle
        return {"code": None, "out": "", "raised": f"{type(exc).__name__}: {exc}", "result": None}
    return {"code": 0, "out": "", "raised": None, "result": result}


def _write_documents(items, directory: Path, tag: str) -> list[list[str]]:
    argvs = []
    for i, item in enumerate(items):
        path = directory / f"{tag}{i:03d}.json"
        if item.op == "cli":
            path.write_text(json.dumps(item.doc), encoding="utf-8")
        argvs.append([str(path) if a == "FILE" else a for a in item.argv])
    return argvs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    replay = _load_replay()
    items = corpus.build(args.workload, args.seed, replay)
    probes = corpus.probes() if args.workload == "check-docs" else []
    directory = Path(args.dir)
    directory.mkdir(parents=True, exist_ok=True)
    argvs = _write_documents(items, directory, "item")
    probe_argvs = _write_documents(probes, directory, "probe")
    result = {"setup_end": time.monotonic()}
    if args.setup_only:
        Path(args.out).write_text(json.dumps(result), encoding="utf-8")
        return 0

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    outcomes, latencies = [], []
    clock = time.perf_counter
    pass_start = clock()
    for item, argv in zip(items, argvs):
        start = clock()
        outcomes.append(run_item(item, argv))
        latencies.append(clock() - start)
    wall = clock() - pass_start
    if tracer:
        tracer.uninstall()

    failures = {}
    for i, (item, outcome) in enumerate(zip(items, outcomes)):
        why = oracles.check(item, outcome, replay)
        if why is not None:
            failures[f"{i}:{item.name}"] = why
    probe_failures = {}
    for probe, argv in zip(probes, probe_argvs):
        why = oracles.check_probe(probe, run_item(probe, argv))
        if why is not None:
            probe_failures[probe.name] = why

    result.update(
        wall_s=wall,
        latencies_s=latencies,
        items=len(items),
        failures=failures,
        probes=len(probes),
        probe_failures=probe_failures,
        bytes_out=sum(len(o["out"].encode("utf-8")) for o in outcomes),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        trace=tracer.snapshot() if tracer else None,
    )
    Path(args.out).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
