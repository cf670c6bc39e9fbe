"""Every name a hacalc module or a test file imports is used, re-exported
or marked.

A stdlib ``ast`` scan: an imported name counts as used when it appears
as a ``Name`` anywhere in the module (annotations included, also inside
string annotations), when ``__all__`` lists it, or when its import line
carries ``# noqa: F401``.  ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

import hacalc

SRC = Path(hacalc.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent
MODULES = sorted(SRC.glob("*.py")) + sorted(TESTS.glob("*.py"))


def _imported(tree, lines):
    """(name, line) of every import binding not marked ``noqa: F401``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            line = getattr(alias, "lineno", node.lineno)
            if "noqa: F401" in lines[line - 1] or alias.name == "*":
                continue
            name = alias.asname or alias.name.partition(".")[0]
            yield name, line


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree) -> set:
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann) if ann else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                # a string annotation such as -> "Form"
                names.update(n.id for n in ast.walk(
                    ast.parse(node.value, mode="eval"))
                    if isinstance(n, ast.Name))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(ast.literal_eval(node.value))
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    source = path.read_text()
    tree = ast.parse(source)
    used = _used(tree)
    unused = [f"{path.name}:{line}: {name}"
              for name, line in _imported(tree, source.splitlines())
              if name not in used]
    assert not unused, "unused imports: " + ", ".join(unused)
