"""Every name a package module imports is used in that module, and every
module-level name is read somewhere in the package, exported by ``__init__``
if public, or named by the benchmark under ``perfbench/``.

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


def unreferenced_privates(sources: dict[str, str], named=frozenset()) -> list[str]:
    """The unreferenced module-level private names of the sources, leaving
    out those in ``named``."""
    return _unreferenced(sources, lambda name: name.startswith("_")
                         and not name.startswith("__"), set(named))


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


def perfbench_names() -> set[str]:
    return set().union(*(named_in(p.read_text()) for p in PERFBENCH))


def test_no_unreferenced_private_name():
    # polyring._MONO_INTERN and _MONO_MUL_CACHE are kept, empty, for the
    # benchmark alone.
    assert unreferenced_privates({p.name: p.read_text() for p in PACKAGE},
                                 perfbench_names()) == []


def test_no_unreferenced_public_name():
    assert unreferenced_publics({p.name: p.read_text() for p in PACKAGE},
                                perfbench_names()) == []


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
    assert unreferenced_privates(sources, {"_DEAD"}) == [
        "a.py line 5: _dead", "a.py line 7: _Unused"]


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


#: What the packed monomial layout is made of: bit shifts and masks, the
#: byte view of an int, and polyring's width, cap and guard constants.  A
#: shift or mask by the literal 1 is binary powering's halving and parity
#: test (``series.laurent_pow``), not a field of the layout.
LAYOUT_OPS = (ast.LShift, ast.RShift, ast.BitAnd, ast.BitXor)
LAYOUT_NAMES = {"_BITS", "_CAP", "_GUARD", "_exponents", "to_bytes", "from_bytes",
                "bit_length"}


def _by_one(node) -> bool:
    right = node.right if isinstance(node, ast.BinOp) else node.value
    return isinstance(right, ast.Constant) and right.value == 1


def layout_uses(source: str) -> list[str]:
    """The lines of a source that shift or mask an int by more than 1, view
    it as bytes, or name one of polyring's layout constants."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, LAYOUT_OPS)
                and not _by_one(node)):
            found.append(f"line {node.lineno}: {type(node.op).__name__}")
        names = {getattr(node, "id", None), getattr(node, "attr", None),
                 getattr(node, "name", None) if isinstance(node, ast.alias) else None}
        for name in sorted(names & LAYOUT_NAMES):
            found.append(f"line {getattr(node, 'lineno', '?')}: {name}")
    return sorted(found)


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name != "polyring.py"],
                         ids=lambda p: p.name)
def test_monomial_layout_stays_in_polyring(path):
    assert layout_uses(path.read_text()) == []


def test_detects_a_layout_use():
    source = ("from .polyring import _CAP, mono_pairs\n"
              "m = 1 << 8 * (j - 1)\n"
              "e = m >> 8 & 255\n"
              "k >>= 1\n"
              "odd = k & 1\n"
              "b = m.to_bytes(2, 'little')\n"
              "pairs = mono_pairs(m) + {1} | {2}\n")
    assert layout_uses(source) == [
        "line 1: _CAP", "line 2: LShift", "line 3: BitAnd", "line 3: RShift",
        "line 6: to_bytes"]


#: The modules that may read a coefficient's numerator or denominator:
#: polyring owns the coefficient format, and ``series.unit_pow`` tests its
#: tail for integrality.
RATIONAL_READERS = {"polyring.py", "series.py"}


def rational_reads(source: str) -> list[str]:
    """The lines of a source that read ``.numerator`` or ``.denominator``."""
    return sorted(f"line {node.lineno}: {node.attr}" for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute)
                  and node.attr in ("numerator", "denominator"))


@pytest.mark.parametrize("path", [p for p in PACKAGE if p.name not in RATIONAL_READERS],
                         ids=lambda p: p.name)
def test_coefficient_format_stays_in_polyring(path):
    assert rational_reads(path.read_text()) == []


def test_detects_a_rational_read():
    source = ('"""A docstring may say numerator and denominator."""\n'
              "n, d = q.numerator, q.denominator\n"
              "numerator = 1\n"
              "whole = p.terms[m].denominator == 1\n")
    assert rational_reads(source) == [
        "line 2: denominator", "line 2: numerator", "line 4: denominator"]
