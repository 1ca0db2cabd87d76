"""Self-tests of the benchmark harness: `python3 perfbench/selftest.py`.

1. Smoke: `run.py --smoke` gives a correct result with every metric, untraced
   and traced, for each workload.
2. Wrapper coverage: on a traced pass each layer records calls where its
   workload uses it, and none where the workload bypasses it.
3. Timed passes run unwrapped code; traced passes are wrapped.
4. Traced and untraced passes give identical artifact digests.
5. Call counts repeat exactly across two traced passes.
6. Every menu job has the same digest under another PYTHONHASHSEED.
7. In a directory holding only BENCHMARK.json and perfbench/, run.py exits
   non-zero without printing a result.
Takes about five minutes on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run
import tracer

# layer metric -> must be positive (True) or zero (False), per workload
COVERAGE = {
    "residuals": {
        "scalars.mul.calls": True, "scalars.cancel.calls": True,
        "scalars.shift_lambda.calls": True, "linalg.matmul.calls": True,
        "catalog.build.self_s": True, "verify.residual.calls": True,
        "verify.qdybe.self_s": True, "fusion.shifted.self_s": True,
        "linalg.elim.calls": False, "reps.constant_R.calls": False,
        "verma.intertwiner.calls": False, "fusion.abrr.calls": False,
    },
    "fusion": {
        "linalg.elim.calls": True, "linalg.elim.cells": True,
        "reps.constant_R.calls": True, "reps.module.self_s": True,
        "verma.slice.self_s": True, "verma.intertwiner.calls": True,
        "fusion.construction.self_s": True, "fusion.abrr.calls": True,
        "fusion.exchange.self_s": True, "verify.residual.calls": True,
        "python.gc.collections": True,
    },
    "cli-jobs": {
        "cli.main.self_s": True, "serialize.dumps.calls": True,
        "serialize.bytes": True, "scalars.to_text.calls": True,
        "macdonald.trace.self_s": True, "macdonald.diffop.self_s": True,
        "reps.constant_R.calls": True, "fusion.universal_cache.hit_ratio": True,
    },
}

# layer metrics that count work, so two traced passes must agree exactly
EXACT_SUFFIXES = (".calls", ".cells", ".bytes", "useful_ratio")

FAILURES = []


def check(cond, message):
    print(("ok    " if cond else "FAIL  ") + message, flush=True)
    if not cond:
        FAILURES.append(message)


def benchmark():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def smoke(workload, trace, names):
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                           "--seed", "1", "--trace", str(trace), "--smoke",
                           "--out", str(run.RESULTS / "selftest.jsonl")],
                          capture_output=True, text=True, timeout=300)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(proc.returncode == 0 and result["correct"] and result["failed"] == 0
          and set(result["metrics"]) == names,
          f"smoke {workload} trace={trace}: {result['attempted']} attempted")


def digests(data):
    return {j["id"]: j.get("digest") for j in data["jobs"]}


def layer_values(data):
    return tracer.layer_metrics(data["trace_data"]["spans"], data["trace_data"]["cache"])


def traced_checks(workload, golden):
    plain = run.run_pass(workload, 1, tag="selftest")
    traced = [run.run_pass(workload, 1, trace=True, tag="selftest") for _ in range(2)]
    check(plain is not None and all(traced), f"{workload}: passes completed")
    if plain is None or not all(traced):
        return
    check(not plain["wrappers_present"], f"{workload}: no wrapper in the timed pass")
    check(all(t["wrappers_present"] for t in traced), f"{workload}: traced pass is wrapped")
    _, bad = run.check_pass(plain, golden, False)
    check(not bad, f"{workload}: untraced pass matches golden {bad[:2]}")
    check(digests(plain) == digests(traced[0]) == digests(traced[1]),
          f"{workload}: traced and untraced digests identical")
    first, second = layer_values(traced[0]), layer_values(traced[1])
    for name, positive in COVERAGE[workload].items():
        check((first[name] > 0) == positive,
              f"{workload}: {name} = {first[name]:.6g} ({'> 0' if positive else '== 0'})")
    moved = [n for n in first if n.endswith(EXACT_SUFFIXES) and first[n] != second[n]]
    check(not moved, f"{workload}: counts repeat across two traced passes {moved}")


def empty_checkout():
    where = run.RESULTS / "bare"
    shutil.rmtree(where, ignore_errors=True)
    shutil.copytree(run.HERE, where / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", where / "BENCHMARK.json")
    cmd = benchmark()["command"] + ["--workload", "residuals", "--seed", "1",
                                    "--seconds", "5", "--trace", "0"]
    cmd[0] = sys.executable
    proc = subprocess.run(cmd, cwd=where, capture_output=True, text=True, timeout=180)
    shutil.rmtree(where, ignore_errors=True)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          f"bare checkout: exit {proc.returncode}, no result printed")


def main():
    spec = benchmark()
    e2e = {m["name"] for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    golden = run.load_golden()
    for workload in run.workloads.WORKLOADS:
        smoke(workload, 0, e2e)
        smoke(workload, 1, layers)
    for workload in run.workloads.WORKLOADS:
        traced_checks(workload, golden[workload])
    proc = subprocess.run([sys.executable, str(run.HERE / "make_golden.py"), "--check", "1"],
                          capture_output=True, text=True, timeout=600)
    check(proc.returncode == 0, "menu digests identical under PYTHONHASHSEED=1 "
          + proc.stdout.strip()[:300])
    empty_checkout()
    print(f"{len(FAILURES)} failed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
