"""One pass of a workload's job list, in the fresh interpreter it runs in.

    python3 perfbench/passrun.py --workload W --seed N --out FILE
        [--jobs seeded|smoke|menu] [--trace] [--launch T] [--deadline T]

`--launch` is the CLOCK_MONOTONIC time at which the parent started this
process; set-up time runs from then until the first job starts.  The pass
writes one JSON object to FILE: per-job outcomes (seconds, verdict, witness,
artifact digest, or exit code for CLI jobs), the pass metrics, and with
`--trace` the span aggregates.  It judges nothing: run.py and make_golden.py
compare the outcomes with the golden file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

JOB_TIMEOUT_S = 150
CLI_PROBES = 3


class JobTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise JobTimeout("job timed out")


def _jobs(args):
    if args.jobs == "menu":
        return workloads.menu(args.workload)
    if args.jobs == "smoke":
        return workloads.smoke(args.workload)
    return workloads.seeded(args.workload, args.seed)


def _time_left(deadline):
    return max(1, min(JOB_TIMEOUT_S, int(deadline - time.monotonic())))


def run_in_process(args, tracer):
    from dybax import serialize
    jobs = _jobs(args)
    signal.signal(signal.SIGALRM, _on_alarm)
    state, results = {}, []
    setup_s = time.monotonic() - args.launch
    for job in jobs:
        rec = {"id": job.id}
        signal.alarm(_time_left(args.deadline))
        t0 = time.perf_counter()
        try:
            out = job.run(state)
            rec["seconds"] = time.perf_counter() - t0
        except Exception as exc:  # a failed job is recorded, and the pass goes on
            rec["seconds"] = time.perf_counter() - t0
            rec["error"] = f"{type(exc).__name__}: {exc}"
            results.append(rec)
            continue
        finally:
            signal.alarm(0)
        if tracer is not None:
            tracer.tables.append({})   # artifact hashing is the benchmark's work
        try:
            text = serialize.dumps(out.artifact())
        except Exception as exc:
            rec["error"] = f"artifact: {type(exc).__name__}: {exc}"
            results.append(rec)
            continue
        finally:
            if tracer is not None:
                tracer.tables.pop()
        rec.update(verdict="PASS" if out.ok else "FAIL", witness=out.witness,
                   digest=hashlib.sha256(text.encode("utf-8")).hexdigest())
        results.append(rec)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return setup_s, results, rss_kb / 1024.0


def _cli_command(argv, trace, side):
    if trace:
        return [sys.executable, str(HERE / "clirunner.py"), side, "--"] + argv
    return [sys.executable, "-m", "dybax.cli"] + argv


def run_cli(args):
    """Each job is its own `python -m dybax.cli` process, one at a time.

    Set-up is the start-up of a dybax process (interpreter, imports, parser)
    measured by `dybax --help`; job times include that start-up, as users
    pay it on every command.
    """
    probes = []
    for _ in range(CLI_PROBES):
        t0 = time.perf_counter()
        # Captured output: the wait ends at pipe close.  Without a pipe, waiting
        # with a timeout polls in steps of up to 50 ms, which rounds the time.
        subprocess.run([sys.executable, "-m", "dybax.cli", "--help"], check=True,
                       capture_output=True, timeout=60)
        probes.append(time.perf_counter() - t0)
    results, traces = [], []
    with tempfile.TemporaryDirectory(dir=args.tmp) as tmp:
        for k, line in enumerate(_jobs(args)):
            side = os.path.join(tmp, f"job{k}.json")
            rec = {"id": line}
            t0 = time.perf_counter()
            try:
                proc = subprocess.run(_cli_command(workloads.cli_argv(line), args.trace, side),
                                      capture_output=True, timeout=_time_left(args.deadline))
            except subprocess.TimeoutExpired:
                rec.update(seconds=time.perf_counter() - t0, error="job timed out")
                results.append(rec)
                continue
            rec.update(seconds=time.perf_counter() - t0, exit=proc.returncode,
                       digest=hashlib.sha256(proc.stdout).hexdigest())
            if proc.returncode not in (0, 1):
                rec["stderr"] = proc.stderr.decode("utf-8", "replace")[-2000:]
            results.append(rec)
            if args.trace and os.path.exists(side):
                with open(side, encoding="utf-8") as fh:
                    traces.append(json.load(fh))
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return statistics.median(probes), probes, results, rss_kb / 1024.0, traces


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--jobs", choices=("seeded", "smoke", "menu"), default="seeded")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--launch", type=float, default=None)
    parser.add_argument("--deadline", type=float, default=None)
    parser.add_argument("--tmp", default=None)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    if args.launch is None:
        args.launch = time.monotonic()
    if args.deadline is None:
        args.deadline = time.monotonic() + 3600

    import tracer as tracing
    out = {"workload": args.workload, "seed": args.seed, "jobs_mode": args.jobs,
           "trace": args.trace}
    if args.workload == "cli-jobs":
        setup_s, probes, results, rss_mb, traces = run_cli(args)
        out["setup_samples_s"] = probes
        if args.trace:
            spans = tracing.merge_spans([t["spans"] for t in traces])
            out["trace_data"] = {
                "spans": spans, "processes": len(traces),
                "cache": {k: sum(t["cache"][k] for t in traces) for k in ("hits", "misses")}}
        # untraced jobs run `python -m dybax.cli`; traced ones report their wrappers
        out["wrappers_present"] = bool(args.trace and len(traces) == len(results)
                                       and all(t["wrapped"] for t in traces))
    else:
        import dybax.catalog, dybax.fusion, dybax.macdonald, dybax.verify  # noqa: F401
        tracer = None
        if args.trace:
            tracer = tracing.install(tracing.Tracer())
            tracer.start()
        setup_s, results, rss_mb = run_in_process(args, tracer)
        out["wrappers_present"] = tracing.wrappers_present()
        if tracer is not None:
            tracer.stop()
            out["trace_data"] = {"spans": tracer.spans(), "processes": 1,
                                 "cache": tracer.cache_info()}
    times = [r["seconds"] for r in results]
    out.update(setup_s=setup_s, wall_s=sum(times), max_job_s=max(times, default=0.0),
               peak_rss_mb=rss_mb, jobs=results)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main()
