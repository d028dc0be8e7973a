"""Every name a package module imports is used in that module.

A stale import keeps a dead name reachable (for instance as a patch target
that no code calls any more), so it is refused here; ``__init__`` re-exports
by design and is not checked.
"""

import ast
from pathlib import Path

import pytest

import faberfields

MODULES = sorted(p for p in Path(faberfields.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
