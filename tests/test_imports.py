"""Every imported name is used, and every private helper of the package is
read by the package: an unused-import check on the package, the tests and the
scripts, and an unread-private-definition check on the package, with the
standard library's ``ast`` only, since no linter is a dependency of this
project."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for part in ("src/glcensus", "tests", "scripts")
           for path in sorted((ROOT / part).glob("*.py"))]
PACKAGE = sorted((ROOT / "src/glcensus").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import and never read; ``__future__`` imports and
    the names a module lists in ``__all__`` (its re-exports) are exempt."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_check_finds_and_exempts():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from fractions import Fraction as F\n"
        "from itertools import chain\n"
        "__all__ = ['chain']\n"
        "x = os.path.join('a')\n"
    )
    assert unused_imports(source) == ["F (line 4)", "math (line 2)"]


def unread_private_definitions(sources: dict[str, str]) -> list[str]:
    """Private (single-underscore) functions and classes defined at module
    level, and private methods of module-level classes, whose name no source
    reads as a name, an attribute or an imported name.  A helper only tests
    read is reported: the package should not carry code for its tests."""
    defined, read = [], set()
    for label, source in sources.items():
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for defn in [node] + members:
                if (isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and defn.name.startswith("_") and not defn.name.startswith("__")):
                    defined.append((defn.name, f"{label}:{defn.lineno}"))
    return sorted(f"{name} ({where})" for name, where in defined if name not in read)


def test_no_unread_private_definitions():
    assert unread_private_definitions({path.name: path.read_text() for path in PACKAGE}) == []


def test_unread_private_check_finds_and_exempts():
    sources = {
        "a.py": (
            "def _used(): pass\n"
            "def _orphan(): pass\n"
            "class _Box:\n"
            "    def __init__(self): self._read()\n"
            "    def _read(self): pass\n"
            "    def _digits(self): pass\n"
            "def public(): return _used()\n"
        ),
        "b.py": "from a import _Box\n",
    }
    assert unread_private_definitions(sources) == ["_digits (a.py:6)", "_orphan (a.py:2)"]
