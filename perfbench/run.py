"""dybax benchmark: one run of one workload.

    python3 perfbench/run.py --workload residuals|fusion|cli-jobs --seed N \
        --seconds S --trace 0|1 [--smoke] [--out FILE]

With `--trace 0` the run repeats untraced passes of the seeded job list,
each in a fresh interpreter, while another pass still fits in S seconds,
and reports the end-to-end metrics as medians over passes.  With
`--trace 1` it makes one untraced and one traced pass and reports the
per-layer metrics of the traced pass plus the tracing overhead.  Every job
of every pass is checked against perfbench/golden.json.

The last line of stdout is the result object; the line before it is the
full record (metric samples and tails, per-job diagnostics, environment),
which is also appended to FILE (default perfbench/results/runs.jsonl).
Traced runs write their span aggregates to perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import datetime
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
GOLDEN = HERE / "golden.json"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

RUN_BUDGET_S = 170          # a run must end within 180 s
HASH_SEED = "0"

# ROADMAP baseline rows, reproduced as ungated per-job times.
BASELINE_ROWS = {
    "quantum ABRR, gl4 L2xL2": ("fusion", "J-abrr/gl4q/L2xL2"),
    "QDYBE residual, R^eps_X, n=3": ("residuals", "qdybe/R-eps-X/n3/X=1,2,3"),
    "QDYBE residual, R^eps_X, n=4": ("residuals", "qdybe/R-eps-X/n4/X=1,2,3,4"),
    "QDYBE residual, R^eps_X, n=5": ("residuals", "qdybe/R-eps-X/n5/X=1,2,3,4,5"),
    "dynamical Hecke rep, n=2, p=3": ("residuals", "hecke-rep/R-X/n2/X=1,2/p3"),
    "dynamical Hecke rep, n=2, p=4": ("residuals", "hecke-rep/R-X/n2/X=1,2/p4"),
    "dynamical Hecke rep, n=2, p=5": ("residuals", "hecke-rep/R-X/n2/X=1,2/p5"),
    "trace residuals depth 3 (2 x mr_residual + symmetry, whole process)":
        ("cli-jobs", "acceptance --criterion 13"),
    "trace residuals depth 4 (2 x mr_residual + symmetry, whole process)":
        ("cli-jobs", "macdonald trace-residual --depth 4 --order 4 --biorder 2"),
}


def child_env(hash_seed=HASH_SEED):
    env = dict(os.environ)
    env.pop("DYBAX_WORKERS", None)       # one job at a time, no worker pool
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = hash_seed
    return env


def run_pass(workload, seed, trace=False, jobs="seeded", deadline=None,
             hash_seed=HASH_SEED, tag="pass"):
    """Run one pass in a fresh interpreter; returns its JSON output or None."""
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f".{tag}-{os.getpid()}.json"
    deadline = deadline if deadline is not None else time.monotonic() + 3600
    launch = time.monotonic()
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", jobs, "--launch", repr(launch),
           "--deadline", repr(deadline), "--tmp", str(RESULTS), "--out", str(out)]
    if trace:
        cmd.append("--trace")
    # Its own process group, so that a timeout also ends the CLI jobs it runs.
    proc = subprocess.Popen(cmd, env=child_env(hash_seed), cwd=ROOT, start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(5, deadline - time.monotonic() + 5))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"pass of {workload} timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not out.exists():
        print(err.decode("utf-8", "replace")[-3000:], file=sys.stderr)
        return None
    with open(out, encoding="utf-8") as fh:
        data = json.load(fh)
    out.unlink()
    data["duration_s"] = time.monotonic() - launch
    return data


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def job_failure(job, expected):
    """Why a job misses its known answer, or None."""
    if expected is None:
        return "no golden answer"
    if "error" in job:
        return job["error"]
    if "exit" in expected:
        if job.get("exit") != expected["exit"]:
            return f"exit {job.get('exit')}, expected {expected['exit']}"
    elif (job["verdict"], job["witness"]) != (expected["verdict"], expected["witness"]):
        return (f"verdict {job['verdict']} witness {job['witness']}, expected "
                f"{expected['verdict']} witness {expected['witness']}")
    if job["digest"] != expected["digest"]:
        return "artifact digest differs from golden"
    return None


def check_pass(data, golden, traced):
    """(attempted, failures) of one pass."""
    failures = []
    for job in data["jobs"]:
        why = job_failure(job, golden.get(job["id"]))
        if why:
            failures.append({"job": job["id"], "why": why})
    if data["wrappers_present"] != traced:
        failures.append({"job": "<pass>", "why": f"wrappers present: {data['wrappers_present']}"})
    return len(data["jobs"]), failures


def tail_summary(samples):
    """Median plus the highest percentile with at least ten samples beyond it."""
    if not samples:
        return None
    ordered = sorted(samples)
    n = len(ordered)
    tail = None
    for p in (99.9, 99, 95, 90, 75):
        if n * (1 - p / 100) >= 10:
            tail = {"p": p, "value": ordered[math.ceil(p / 100 * n) - 1]}
            break
    return {"median": statistics.median(ordered), "n": n, "tail": tail}


def environment():
    import importlib.metadata
    from sympy.polys.domains import GROUND_TYPES
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        head = None
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": sys.version.split()[0],
        "sympy": importlib.metadata.version("sympy"),
        "ground_types": GROUND_TYPES,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_head": head,
        "pythonhashseed": HASH_SEED,
        "dybax_workers": "unset",
        "src_lines": src_lines,
    }


def diagnostics(workload, passes):
    rows = {}
    for row, (wl, job_id) in BASELINE_ROWS.items():
        if wl != workload:
            continue
        times = [j["seconds"] for p in passes for j in p["jobs"]
                 if j["id"] == job_id and "error" not in j]
        if times:
            rows[row] = {"job": job_id, "median_s": statistics.median(times), "n": len(times)}
    return rows


def untraced_metrics(passes):
    setup = []
    for p in passes:
        setup.extend(p.get("setup_samples_s", [p["setup_s"]]))
    samples = {"wall_s": [p["wall_s"] for p in passes],
               "max_job_s": [p["max_job_s"] for p in passes],
               "setup_s": setup,
               "peak_rss_mb": [p["peak_rss_mb"] for p in passes]}
    per_job = {}
    for p in passes:
        for j in p["jobs"]:
            per_job.setdefault(j["id"], []).append(j["seconds"])
    summary = {k: tail_summary(v) for k, v in samples.items()}
    summary["job_s"] = tail_summary([t for times in per_job.values() for t in times])
    values = {k: statistics.median(v) for k, v in samples.items()}
    # A slow spell of the machine hits some jobs of one pass: the pass time
    # is taken as the sum, and the longest job as the max, of per-job medians.
    job_medians = [statistics.median(times) for times in per_job.values()]
    values["wall_s"] = sum(job_medians)
    values["max_job_s"] = max(job_medians)
    return values, summary, per_job


def traced_metrics(untraced, traced):
    import tracer
    data = traced["trace_data"]
    values = tracer.layer_metrics(data["spans"], data["cache"])
    values["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    return values, data


def metric_units(kind):
    """{name: unit} of the `end_to_end` or `per_layer` metrics of BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one pass of one short job")
    parser.add_argument("--out", default=str(RESULTS / "runs.jsonl"))
    args = parser.parse_args()

    if not (ROOT / "src" / "dybax" / "cli.py").is_file() or not GOLDEN.is_file():
        print("error: run from a dybax checkout (src/dybax and perfbench/golden.json)",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    golden = load_golden()[args.workload]
    jobs = "smoke" if args.smoke else "seeded"

    passes, attempted, failures, traced = [], 0, [], None

    def one_pass(trace):
        nonlocal attempted
        data = run_pass(args.workload, args.seed, trace, jobs, deadline)
        if data is None:
            attempted += 1
            failures.append({"job": "<pass>", "why": "pass crashed or timed out"})
            return None
        n, bad = check_pass(data, golden, trace)
        attempted += n
        failures.extend(bad)
        return data

    first = one_pass(False)
    if first is not None:
        passes.append(first)
    if args.trace:
        if first is not None:
            traced = one_pass(True)
    else:
        t0 = time.monotonic()
        while passes and not args.smoke:
            elapsed = time.monotonic() - t0 + first["duration_s"]
            mean = elapsed / len(passes)
            if elapsed + mean > args.seconds or time.monotonic() + 1.5 * mean > deadline:
                break
            data = one_pass(False)
            if data is None:
                break
            passes.append(data)

    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "smoke": args.smoke, "passes": len(passes),
              "started_utc": datetime.datetime.now(datetime.timezone.utc).isoformat()}
    metrics = {}
    if passes and not args.trace:
        values, record["summary"], record["job_times_s"] = untraced_metrics(passes)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in metric_units("end_to_end").items()}
        record["diagnostics"] = diagnostics(args.workload, passes)
    elif passes and traced is not None:
        values, data = traced_metrics(passes[0], traced)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in metric_units("per_layer").items()}
        side = RESULTS / f"trace-{args.workload}-seed{args.seed}.json"
        with open(side, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "untraced_wall_s": passes[0]["wall_s"],
                       "traced_wall_s": traced["wall_s"],
                       "overhead_s": values["trace.overhead_s"], **data}, fh, indent=1)
        record["trace_file"] = str(side.relative_to(ROOT))
    correct = not failures and bool(metrics)
    result = {"correct": correct, "attempted": max(attempted, 1),
              "failed": len(failures), "metrics": metrics}
    record.update(failures=failures[:20], environment=environment(), result=result)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
