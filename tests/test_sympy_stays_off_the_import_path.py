"""sympy stays off the import path of the package.

The package computes with its own polynomials over Z; sympy is imported only
when a denominator leftover defeats every in-house factoring test, inside
`scalars._factor_list`.  A cold `dybax` process therefore never pays for
importing sympy, and no benchmark job may reach that branch: an import in an
in-process job would move the whole import time into that job.

One fresh interpreter imports `dybax.cli`, runs every `acceptance.json`
invocation and the README lines of the `cli-jobs` menu through `cli.main`,
then the `fusion` gl4q L2 x L2 intertwiner job, the gl3q V x S2 exchange job
and the `residuals` classical shift gauges, and reports the sympy modules
loaded after each step and the fallback counts of every Context.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = r"""
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1] + "/perfbench")

def loaded():
    return sorted(m for m in sys.modules if m == "sympy" or m.startswith("sympy."))

steps = {}
from dybax import cli, scalars
steps["import dybax.cli"] = loaded()

import workloads
manifest = json.load(open(sys.argv[1] + "/acceptance.json"))
lines = [argv[1:] for argv in manifest["criteria"].values()]
lines += [workloads.cli_argv(line) for line in workloads.menu("cli-jobs")
          if not line.startswith("acceptance")]
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [cli.main(argv) for argv in lines]
steps["cli.main lines"] = loaded()

wanted = ("J-intertwiners/gl4q/L2xL2", "exchange-exchange/gl3q/VxS2")
jobs = [job for job in workloads.menu("fusion") if job.id in wanted]
jobs += [job for job in workloads.menu("residuals") if job.id.startswith("gauge/classical/shift/")]
state = {}
outcomes = [job.run(state).ok for job in jobs]
steps["in-process jobs"] = loaded()

print(json.dumps({"steps": steps, "lines": len(lines), "codes": codes,
                  "jobs": len(jobs), "ok": outcomes,
                  "fallbacks": {row["context"]: row["fallbacks"]
                                for row in scalars.context_stats()}}))
"""


def test_no_job_imports_sympy():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(ROOT)], env=env,
                          capture_output=True, text=True, timeout=600, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["steps"] == {"import dybax.cli": [], "cli.main lines": [],
                               "in-process jobs": []}
    assert report["lines"] >= 14 + 5 and report["jobs"] == 2 + 4
    assert all(report["ok"]) and set(report["codes"]) == {0, 1}
    assert report["fallbacks"] and set(report["fallbacks"].values()) == {0}
