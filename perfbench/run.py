"""synaptica benchmark: closed-loop workloads over the public surface.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. Workloads (see corpus.py and
README.md): states-exact, spectral-lattice, check-docs. One client
sends one item at a time. Every pass over a workload's items runs in a
fresh process (worker.py), so the library's memo tables start cold as
they do for a user invoking the CLI. Passes repeat until S seconds
have gone by. Every item's answer is checked by an oracle.

--trace 0 prints the end-to-end metrics; --trace 1 alternates plain
and traced passes and prints the per-layer metrics, including the
tracing overhead. The last line of stdout is the JSON result; a
human-readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from corpus import WORKLOADS
from tracer import LAYERS as MODULE_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_SAMPLES = 5        # set-up-only processes per run, besides each pass's own set-up
MIN_PASSES = 3           # plain passes per run, however short --seconds is
MIN_TRACED_PASSES = 2    # with --trace 1: at least this many of each kind
WORKER_TIMEOUT_S = 150

# tiny matrices: one BLAS thread avoids thread start-up noise
WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
              "PYTHONHASHSEED": "0"}

LAYERS = MODULE_LAYERS + ("numpy.linalg",)
COUNTS = ("exact.candidate_bases", "exact.vertices", "exact.simplex_enumerations",
          "states.simplex_memo_hits", "states.vertex_triples", "effect_algebras.scan_triples",
          "posets.ortholattice_builds", "posets.classify_calls", "synaptic.is_projection.calls",
          "numpy.linalg.eigh.calls", "numpy.linalg.eigvalsh.calls", "numpy.linalg.svd.calls")


class BenchError(Exception):
    pass


def run_worker(workload: str, seed: int, workdir: Path, tag: str, *flags: str) -> dict:
    """One fresh worker process; returns its result with set-up time added."""
    out = workdir / f"{tag}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--dir", str(workdir / tag), "--out", str(out), *flags]
    env = {**os.environ, **WORKER_ENV}
    start = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {tag} ran past {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker {tag} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(out.read_text(encoding="utf-8"))
    result["setup_s"] = result["setup_end"] - start
    shutil.rmtree(workdir / tag, ignore_errors=True)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path):
    deadline = time.monotonic() + seconds
    run_worker(workload, seed, workdir, "warmup", "--setup-only")  # byte-compiles, warms caches
    setups = [run_worker(workload, seed, workdir, f"setup{i}", "--setup-only")["setup_s"]
              for i in range(SETUP_SAMPLES)]
    plain, traced = [], []
    while True:
        want_traced = trace and len(traced) < len(plain)
        if want_traced:
            traced.append(run_worker(workload, seed, workdir, f"t{len(traced)}", "--trace"))
        else:
            plain.append(run_worker(workload, seed, workdir, f"p{len(plain)}"))
        enough = len(plain) >= (MIN_TRACED_PASSES if trace else MIN_PASSES)
        if trace:
            enough = enough and len(traced) >= MIN_TRACED_PASSES and len(traced) == len(plain)
        if enough and time.monotonic() >= deadline:
            return setups + [p["setup_s"] for p in plain], plain, traced


def best_latencies(passes) -> list[float]:
    """Each item's fastest time over the passes.

    Every pass runs the same items in the same order. The host this was
    tuned on slows by up to 30% for tens of seconds at a time, and such
    interference only ever adds time, so the fastest of several passes
    is the steadiest reading of an item's own cost.
    """
    return [min(times) for times in zip(*(p["latencies_s"] for p in passes))]


def end_to_end(setups, plain) -> dict:
    best = best_latencies(plain)
    wall = sum(best)
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (wall, "s"),
        "items_per_s": (len(best) / wall, "1/s"),
        "item_p50_ms": (statistics.median(best) * 1e3, "ms"),
        "item_p90_ms": (statistics.quantiles(best, n=10, method="inclusive")[-1] * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in plain), "MB"),
    }


def per_layer(plain, traced) -> dict:
    counts = traced[0]["trace"]["counts"]
    for t in traced[1:]:
        if t["trace"]["counts"] != counts:
            raise BenchError("traced passes of one corpus disagree on their counts")
    # like the end-to-end times: the fastest reading over the traced passes
    wall = sum(best_latencies(traced))
    self_s = {layer: min(_layer_self(t)[layer] for t in traced) for layer in LAYERS}
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = (counts[f"{layer}.calls"], "count")
        out[f"{layer}.self_s"] = (self_s[layer], "s")
        out[f"{layer}.share"] = (self_s[layer] / wall, "ratio")
    for name in COUNTS:
        out[name] = (counts[name], "count")
    bases = counts["exact.candidate_bases"]
    out["exact.vertex_yield"] = (counts["exact.vertices"] / bases if bases else 0.0, "ratio")
    out["synaptic.is_projection.self_s"] = (min(
        t["trace"]["functions"].get("synaptic:is_projection", {}).get("self_s", 0.0)
        for t in traced), "s")
    out["cli.bytes_out"] = (traced[0]["bytes_out"], "B")
    out["trace.overhead"] = (wall / sum(best_latencies(plain)) - 1.0, "ratio")
    out["probe.failed"] = (len(traced[0]["probe_failures"]), "count")
    return out


def _layer_self(traced_pass) -> dict:
    out = dict.fromkeys(LAYERS, 0.0)
    for key, rec in traced_pass["trace"]["functions"].items():
        out[key.split(":")[0]] += rec["self_s"]
    return out


def summarize(workload, seed, setups, plain, traced) -> None:
    """Human-readable detail on stderr: passes, failures, probes, hot functions."""
    err = sys.stderr
    print(f"{workload} seed {seed}: {len(plain)} plain and {len(traced)} traced passes of "
          f"{plain[0]['items']} items", file=err)
    print("  pass wall s: " + " ".join(f"{p['wall_s']:.3f}" for p in plain), file=err)
    print("  set-up s:    " + " ".join(f"{s:.3f}" for s in setups), file=err)
    for p in plain + traced:
        for name, why in p["failures"].items():
            print(f"  FAILED {name}: {why}", file=err)
    probes = plain[0]["probe_failures"]
    if plain[0]["probes"]:
        print(f"  robustness probes failing: {len(probes)} of {plain[0]['probes']}", file=err)
        for name, why in probes.items():
            print(f"    {name}: {why}", file=err)
    if traced:
        functions = traced[0]["trace"]["functions"]
        top = sorted(functions.items(), key=lambda kv: -kv[1]["self_s"])[:15]
        print("  traced pass, top functions by self time:", file=err)
        for key, rec in top:
            print(f"    {key:55s} {rec['calls']:9d} calls {rec['self_s']:9.4f} s self", file=err)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in (ROOT / "src" / "synaptica" / "cli.py", ROOT / "tests" / "helpers.py"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a checkout",
                  file=sys.stderr)
            return 2
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setups, plain, traced = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir)
        metrics = per_layer(plain, traced) if args.trace else end_to_end(setups, plain)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run is using it

    summarize(args.workload, args.seed, setups, plain, traced)
    passes = plain + traced
    attempted = sum(p["items"] for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
