"""Every imported name is used: an unused-import check on the package, the
tests and the scripts, with the standard library's ``ast`` only, since no linter is a
dependency of this project."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = [path for part in ("src/glcensus", "tests", "scripts")
           for path in sorted((ROOT / part).glob("*.py"))]


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
