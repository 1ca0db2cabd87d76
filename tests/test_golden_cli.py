"""Every CLI line of `perfbench/golden.json` except the `acceptance` ones.

Each line runs in-process through `dybax.cli.main`; its exit code and the
sha256 of its stdout must equal the golden entry, so the serialized
R-matrices and r-matrices of the catalog, the module actions, the fusion
result, the gamma series and the trace layer artifacts are guarded on every
test run, not only by benchmark runs.  The `acceptance` lines print nothing
to stdout, and the acceptance tests run their criteria.  As in
`perfbench/workloads.py`, a `-` token stands for an empty argument.
"""

import hashlib
import json
from pathlib import Path

import pytest

from dybax.cli import main

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
LINES = {line: entry for line, entry in json.loads(GOLDEN.read_text())["cli-jobs"].items()
         if line.split(" ")[0] != "acceptance"}


def test_golden_has_the_trace_layer_lines():
    assert len(LINES) == 54


@pytest.mark.parametrize("line", sorted(LINES))
def test_cli_line_matches_golden(capsys, line):
    code = main([("" if tok == "-" else tok) for tok in line.split(" ")])
    out = capsys.readouterr().out
    assert code == LINES[line]["exit"]
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == LINES[line]["digest"]
