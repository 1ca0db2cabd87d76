"""Write perfbench/golden.json: the known answer of every job in every menu.

    python3 perfbench/make_golden.py             # regenerate from this checkout
    python3 perfbench/make_golden.py --check 7   # rerun every menu with
                                                 # PYTHONHASHSEED=7 and diff

Known answers: every `negative/...` job FAILs with a witness and every other
in-process job PASSes; CLI jobs exit 0, except the negative control
`verify qdybe --catalog gl-closed-form --part J`, which exits 1.  The
generator refuses to record an outcome that contradicts them.  Digests are
sha256 of `serialize.dumps` of the job's artifact (stdout for CLI jobs).
"""

from __future__ import annotations

import argparse
import json
import sys

import run
import workloads


def expected_answer(workload, job_id):
    if workload == "cli-jobs":
        return {"exit": 1 if job_id.startswith("verify qdybe --catalog gl-closed-form") else 0}
    negative = job_id.startswith("negative/")
    return {"verdict": "FAIL" if negative else "PASS", "witness": negative}


def menu_outcomes(hash_seed):
    out = {}
    for workload in workloads.WORKLOADS:
        data = run.run_pass(workload, 0, jobs="menu", hash_seed=hash_seed, tag="golden")
        if data is None:
            raise SystemExit(f"menu pass of {workload} failed")
        table = {}
        for job in data["jobs"]:
            if "error" in job:
                raise SystemExit(f"{workload} {job['id']}: {job['error']}")
            known = expected_answer(workload, job["id"])
            got = {k: job[k] for k in known}
            if got != known:
                raise SystemExit(f"{workload} {job['id']}: got {got}, known answer {known}")
            table[job["id"]] = {**known, "digest": job["digest"]}
        out[workload] = table
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", metavar="HASHSEED", default=None)
    args = parser.parse_args()
    if args.check is None:
        outcomes = menu_outcomes(run.HASH_SEED)
        with open(run.GOLDEN, "w", encoding="utf-8") as fh:
            json.dump(outcomes, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {sum(len(t) for t in outcomes.values())} answers to {run.GOLDEN}")
        return 0
    golden = run.load_golden()
    outcomes = menu_outcomes(args.check)
    diff = [(w, j) for w in golden for j in set(golden[w]) | set(outcomes[w])
            if outcomes[w].get(j) != golden[w].get(j)]
    for w, j in diff:
        print(f"differs under PYTHONHASHSEED={args.check}: {w} {j}")
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
