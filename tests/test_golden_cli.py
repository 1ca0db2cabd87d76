"""The `limit`, `macdonald` and `shapovalov` CLI lines of `perfbench/golden.json`.

Each line runs in-process through `dybax.cli.main`; its exit code and the
sha256 of its stdout must equal the golden entry, so the gamma-series and
trace layer artifacts are guarded on every test run, not only by benchmark
runs.  As in `perfbench/workloads.py`, a `-` token stands for an empty
argument.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dybax.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
LINES = {line: entry for line, entry in json.loads(GOLDEN.read_text())["cli-jobs"].items()
         if line.split(" ")[0] in ("limit", "macdonald", "shapovalov")}


def test_golden_has_the_trace_layer_lines():
    assert len(LINES) == 19


@pytest.mark.parametrize("line", sorted(LINES))
def test_cli_line_matches_golden(capsys, line):
    code = main([("" if tok == "-" else tok) for tok in line.split(" ")])
    out = capsys.readouterr().out
    assert code == LINES[line]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LINES[line]["digest"]
