"""Every function, class and method defined in hacalc has a caller
outside the tests.

A stdlib ``ast`` scan over ``src/`` and ``perfbench/``: a definition
counts as referenced when its name appears as a ``Name``, as an
``Attribute``, as an import alias, or as a string constant that is an
identifier (an ``__all__`` entry, an attribute name that the benchmark
looks up).  The names that ``hacalc/__init__.py`` imports are the public
API, and count through its import aliases.  ``tests/`` is not scanned: a
helper that only the tests call belongs in ``tests/``.  Dunder names are
exempt: Python calls them by protocol.
"""

import ast
from pathlib import Path

import hacalc

SRC = Path(hacalc.__file__).resolve().parent
ROOT = SRC.parents[1]
SCANNED = ("src", "perfbench")


def _definitions(tree):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.lineno


def _references(tree) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
            if node.asname:
                names.add(node.asname)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and node.value.isidentifier():
            names.add(node.value)
    return names


def test_no_unreferenced_definitions():
    referenced = set()
    for part in SCANNED:
        for path in sorted((ROOT / part).rglob("*.py")):
            referenced |= _references(ast.parse(path.read_text()))
    dead = [f"{path.name}:{line} {name}"
            for path in sorted(SRC.glob("*.py"))
            for name, line in _definitions(ast.parse(path.read_text()))
            if not (name.startswith("__") and name.endswith("__"))
            and name not in referenced]
    assert not dead, "unreferenced definitions: " + ", ".join(dead)
