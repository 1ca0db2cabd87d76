"""The `residuals` menu of `perfbench/golden.json`, in-process.

Every job of `menu("residuals")` runs in menu order with one shared `state`,
as a benchmark pass runs it: its verdict, its witness and the sha256 of
`serialize.dumps` of its artifact must equal the golden entry.  So the
QDYBE, Hecke, CDYBE, unitarity and gauge artifacts and the negative controls
are guarded on every test run, not only by benchmark runs.  All 217 jobs
run, QDYBE at n = 4 and 5 included: those exercise the factored Scalar
arithmetic hardest.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

from dybax import serialize

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


def test_residuals_menu_matches_golden():
    golden = json.loads((PERFBENCH / "golden.json").read_text())["residuals"]
    jobs = _workloads().menu("residuals")
    assert sorted(job.id for job in jobs) == sorted(golden)
    assert any(job.id.startswith("negative/") for job in jobs)
    state, differ = {}, []
    for job in jobs:
        out = job.run(state)
        text = serialize.dumps(out.artifact())
        got = {"verdict": "PASS" if out.ok else "FAIL", "witness": out.witness,
               "digest": hashlib.sha256(text.encode("utf-8")).hexdigest()}
        if got != golden[job.id]:
            differ.append(f"{job.id}: {got}")
    assert not differ, "residuals jobs that differ from golden.json:\n" + "\n".join(differ)
