"""Every name a package module imports is used in that module, and every
module-level private name is read somewhere in the package.

A stale import keeps a dead name reachable (for instance as a patch target
that no code calls any more), so it is refused here; ``__init__`` re-exports
by design and is not checked for imports.  A private helper, class or
constant that no package code reads is dead code a refactor left behind.
"""

import ast
from pathlib import Path

import pytest

import faberfields

PACKAGE = sorted(Path(faberfields.__file__).parent.glob("*.py"))
MODULES = [p for p in PACKAGE if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os.path\nfrom fractions import Fraction\n"
              "from typing import Mapping\n"
              "def f(x: Fraction) -> str:\n    return os.path.sep\n")
    assert unused_imports(source) == ["line 4: Mapping"]


def _defined_names(node) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _read_names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)}


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants of the sources
    (file name -> text) that no other top-level statement of any of them
    reads, as a name or as an attribute; a helper that only calls itself
    counts as unreferenced."""
    statements = [(filename, node) for filename, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [_read_names(node) for _, node in statements]
    return [f"{filename} line {node.lineno}: {name}"
            for i, (filename, node) in enumerate(statements)
            for name in _defined_names(node)
            if name.startswith("_") and not name.startswith("__")
            and not any(name in r for j, r in enumerate(reads) if j != i)]


def test_no_unreferenced_private_name():
    assert unreferenced_privates({p.name: p.read_text() for p in PACKAGE}) == []


def test_detects_an_unreferenced_private_name():
    sources = {
        "a.py": ("_LIMIT = 3\n_DEAD: int = 4\n"
                 "def _helper(x):\n    return x + _LIMIT\n"
                 "def _dead():\n    return _dead\n"
                 "class _Unused:\n    pass\n"
                 "def public():\n    return _helper(1)\n"),
        "b.py": "from . import a\n_ALIAS = a._helper\nprint(_ALIAS)\n",
    }
    assert unreferenced_privates(sources) == [
        "a.py line 2: _DEAD", "a.py line 5: _dead", "a.py line 7: _Unused"]
