"""Every function, class and method of the package is reached by the program,
and every top-level import is read.

A definition counts as used when something outside its own body refers to
it from `src/` or `perfbench/`: as a name, an imported name, an attribute,
or a string that is a dotted name (how `perfbench/tracer.py` and `getattr`
reach their targets).  A reference from `tests/` counts only for the
definitions in `ORACLES`, the reference implementations that tests compare
the package against; anything else that only tests reach is dead.  Dunder
methods are called by the interpreter and are exempt.

Members of a class need a receiver: a method counts only through an
attribute reference (`x.name`, or `Cls.name` in a dotted string), and a
classmethod only through its own class or a subclass (`Cls.name`).

Blind spots: instance methods are still matched by bare attribute name, with
no receiver type, so a dead method that shares its name with a live one
(`inverse`, `copy`, `is_weight_zero` are each defined on several classes)
passes.  Such methods are only found by checking the receiver of every call
by hand.  Operator dunders (`__add__`, `__eq__`, `__bool__`, ...) are exempt
with the other dunders, so one that no expression of the program reaches
passes too; only a line trace of the runs finds it.

Every name a top-level import of `src/` or `tests/` binds must be read by
its module.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dybax"
DOTTED = re.compile(r"[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z_][A-Za-z0-9_]*)*")

# Reference implementations that only tests call, as the oracle they compare
# the package's fast paths against; `module.qualname` in the package.
ORACLES = {
    "scalars.Scalar.subs",
    "fusion.singular_inverse_element",
    "fusion.evaluate_universal_sl2",
    "reps.check_module_relations",
}


def _references(tree):
    """(name, receiver, line) for every name the module refers to; receiver
    is the name an attribute is read from, "" for a bare name and None for
    an attribute of anything else."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, "", node.lineno
        elif isinstance(node, ast.Attribute):
            base = node.value.id if isinstance(node.value, ast.Name) else None
            yield node.attr, base, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, "", node.lineno
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and DOTTED.fullmatch(node.value):
            parts = node.value.split(".")
            for i, part in enumerate(parts):
                yield part, parts[i - 1] if i else "", node.lineno


def _definitions(tree, module):
    """(node, qualname, owner class or None, is classmethod) for every
    function, class and method of the module."""
    def visit(body, prefix, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                is_classmethod = any(isinstance(d, ast.Name) and d.id == "classmethod"
                                     for d in getattr(node, "decorator_list", []))
                yield node, f"{prefix}.{node.name}", owner, is_classmethod
                inner = node.name if isinstance(node, ast.ClassDef) else None
                yield from visit(node.body, f"{prefix}.{node.name}", inner)
            elif hasattr(node, "body"):
                yield from visit(ast.iter_child_nodes(node), prefix, owner)
    yield from visit(tree.body, module, None)


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def test_every_definition_is_reached_by_the_program():
    refs = {}
    for base, from_tests in [(ROOT / "src", False), (ROOT / "perfbench", False),
                             (ROOT / "tests", True)]:
        for path in sorted(base.rglob("*.py")):
            for name, receiver, line in _references(_parse(path)):
                refs.setdefault(name, []).append((path, line, receiver, from_tests))
    defs, bases = [], {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node, qualname, owner, is_classmethod in _definitions(_parse(path), path.stem):
            defs.append((path, node, qualname, owner, is_classmethod))
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]

    def family(cls):
        """cls and every class that derives from it."""
        out = {cls}
        while True:
            more = {c for c, bs in bases.items() if out & set(bs)} - out
            if not more:
                return out
            out |= more

    defined = {qualname for _, _, qualname, _, _ in defs}
    assert ORACLES <= defined, f"ORACLES names no definition: {ORACLES - defined}"
    unused = []
    for path, node, qualname, owner, is_classmethod in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        receivers = family(owner) if is_classmethod else None
        used = any(
            (p != path or not node.lineno <= line <= node.end_lineno)
            and (not from_tests or qualname in ORACLES)
            and (owner is None or receiver != "")
            and (receivers is None or receiver in receivers)
            for p, line, receiver, from_tests in refs.get(name, []))
        if not used:
            unused.append(f"{path.relative_to(ROOT)}:{node.lineno} {qualname}")
    assert not unused, "defined but reached only by tests, or not at all:\n" + \
        "\n".join(unused)


def test_every_top_level_import_is_read():
    unread = []
    for base in (ROOT / "src", ROOT / "tests"):
        for path in sorted(base.rglob("*.py")):
            tree = _parse(path)
            read = {node.id for node in ast.walk(tree)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            for node in tree.body:
                if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                    continue
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    for alias in node.names:
                        bound = alias.asname or alias.name.split(".")[0]
                        if bound not in read:
                            unread.append(f"{path.relative_to(ROOT)}:{node.lineno} {bound}")
    assert not unread, "imported but never read:\n" + "\n".join(unread)
