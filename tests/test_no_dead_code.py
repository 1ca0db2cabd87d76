"""Every function, class and method of the package is used somewhere.

A definition counts as used when its name is referenced outside its own
body: as a name, an attribute, an imported name, or a string that is a
dotted name (how `perfbench/tracer.py` and `getattr` reach their targets)
anywhere in `src/`, `tests/` or `perfbench/`.  Dunder methods are called by
the interpreter and are exempt.

Blind spot: references are matched by bare name, with no receiver type, so
a dead method that shares its name with a live one (`inverse`, `copy`,
`is_weight_zero` are each defined on several classes) passes.  Such methods
are only found by checking the receiver of every call by hand.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dybax"
SEARCHED = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")


def _references(tree):
    """(name, line) for every name the module refers to."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            for part in node.value.split("."):
                yield part, node.lineno


def test_every_definition_is_referenced():
    refs = {}
    trees = {}
    for base in SEARCHED:
        for path in sorted(base.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            trees[path] = tree
            for name, line in _references(tree):
                refs.setdefault(name, []).append((path, line))
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(trees[path]):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = [(p, line) for p, line in refs.get(name, [])
                       if p != path or not node.lineno <= line <= node.end_lineno]
            if not outside:
                unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {name}")
    assert not unused, "defined but never referenced:\n" + "\n".join(unused)
