"""Every name a package module imports is used in that module, and every
module-level name is read somewhere in the package, or, if public, exported
by ``__init__`` or named by the benchmark under ``perfbench/``.

A stale import keeps a dead name reachable (for instance as a patch target
that no code calls any more), so it is refused here; ``__init__`` re-exports
by design and is not checked for imports.  A helper, class or constant that
nothing reads is dead code a refactor left behind; one that only tests read
belongs with the tests.
"""

import ast
from pathlib import Path

import pytest

import faberfields

PACKAGE = sorted(Path(faberfields.__file__).parent.glob("*.py"))
PERFBENCH = sorted((Path(__file__).parent.parent / "perfbench").glob("*.py"))
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


def _unreferenced(sources: dict[str, str], wanted, allowed=frozenset()) -> list[str]:
    """Module-level functions, classes and constants of the sources (file
    name -> text) whose name passes ``wanted``, is not in ``allowed``, and is
    read by no other top-level statement of any of them, as a name or as an
    attribute; a helper that only calls itself counts as unreferenced."""
    statements = [(filename, node) for filename, source in sources.items()
                  for node in ast.parse(source).body]
    reads = [_read_names(node) for _, node in statements]
    return [f"{filename} line {node.lineno}: {name}"
            for i, (filename, node) in enumerate(statements)
            for name in _defined_names(node)
            if wanted(name) and name not in allowed
            and not any(name in r for j, r in enumerate(reads) if j != i)]


def unreferenced_privates(sources: dict[str, str]) -> list[str]:
    """The unreferenced module-level private names of the sources."""
    return _unreferenced(sources, lambda name: name.startswith("_")
                         and not name.startswith("__"))


def unreferenced_publics(sources: dict[str, str], named=frozenset()) -> list[str]:
    """The unreferenced module-level public names of the sources, leaving out
    those that ``__init__.py`` imports and those in ``named``."""
    exported = {alias.asname or alias.name
                for node in ast.parse(sources.get("__init__.py", "")).body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    return _unreferenced(sources, lambda name: not name.startswith("_"),
                         exported | set(named))


def named_in(source: str) -> set[str]:
    """The names a source reads, as names or attributes, or spells as a
    whole string, as in ``getattr(module, "name")``."""
    tree = ast.parse(source)
    return _read_names(tree) | {node.value for node in ast.walk(tree)
                                if isinstance(node, ast.Constant)
                                and isinstance(node.value, str)
                                and node.value.isidentifier()}


def test_no_unreferenced_private_name():
    assert unreferenced_privates({p.name: p.read_text() for p in PACKAGE}) == []


def test_no_unreferenced_public_name():
    named = set().union(*(named_in(p.read_text()) for p in PERFBENCH))
    assert unreferenced_publics({p.name: p.read_text() for p in PACKAGE}, named) == []


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


def test_detects_an_unreferenced_public_name():
    sources = {
        "__init__.py": "from .a import exported\n",
        "a.py": ("LIMIT = 3\nDEAD: int = 4\n"
                 "def exported():\n    return helper(LIMIT)\n"
                 "def helper(x):\n    return x\n"
                 "def recursive():\n    return recursive()\n"
                 "def benched():\n    pass\n"
                 "class Unused:\n    pass\n"),
    }
    named = named_in('import a\nprint(getattr(a, "benched"), "not a name")\n')
    assert "benched" in named
    assert unreferenced_publics(sources, named) == [
        "a.py line 2: DEAD", "a.py line 7: recursive", "a.py line 11: Unused"]
