"""Only `scalars.py` reads how a Scalar is stored.

Every other module of the package computes with Scalars through their
arithmetic and the faces `scalars.py` offers (`convert`, `shift_lambda`,
`invert_q`, `lambda_graded`, ...), so the representation behind them can
change inside one module.  This reads no attribute that exposes the
numerator and denominator, the field's generator names or its mode.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dybax"
REPRESENTATION = {"numer", "denom", "var_names", "mode", "gen", "fraction_terms",
                  "monomial_subs"}


def test_no_module_but_scalars_reads_the_representation():
    reads = [f"{path.name}:{node.lineno} .{node.attr}"
             for path in sorted(PACKAGE.glob("*.py")) if path.name != "scalars.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Attribute) and node.attr in REPRESENTATION]
    assert not reads, "representation read outside scalars.py:\n" + "\n".join(reads)
