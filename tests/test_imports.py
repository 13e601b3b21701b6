"""Every imported name is used, and every definition of the package is read
by the code it serves: an unused-import check on the package, the tests and
the scripts; an unread-private-definition check on the package; and an
unread-public-definition check, for which only the package, the scripts and
perfbench count as readers, not the tests.  It uses the standard library's
``ast`` only, since no linter is a dependency of this project."""

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


# the one reader that names definitions by string, in its SITES table
TRACER = "perfbench/tracer.py"


def read_names(source: str, strings: bool = False) -> set[str]:
    """Every name a source reads: as a name, an attribute or an imported
    name, and, when ``strings`` is set, as a string constant that is an
    identifier.  Only :data:`TRACER` reads by string; elsewhere such a
    constant is a dict key or a message, not a read."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
        elif (strings and isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            read.add(node.value)
    return read


def unread_definitions(sources: dict[str, str], readers: dict[str, str], private: bool) -> list[str]:
    """Functions and classes defined at module level of ``sources``, and
    members of their module-level classes, that are private (one leading
    underscore) or public as ``private`` says, and whose name no source in
    ``readers`` reads.  Dunders are exempt.  A definition only tests read is
    reported: the package should not carry code for its tests."""
    read = set().union(*(read_names(source, label == TRACER) for label, source in readers.items()))
    defined = []
    for label, source in sources.items():
        for node in ast.parse(source).body:
            members = node.body if isinstance(node, ast.ClassDef) else []
            for defn in [node] + members:
                if (isinstance(defn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                        and not defn.name.startswith("__")
                        and defn.name.startswith("_") == private):
                    defined.append((defn.name, f"{label}:{defn.lineno}"))
    return sorted(f"{name} ({where})" for name, where in defined if name not in read)


def test_no_unread_private_definitions():
    package = {path.name: path.read_text() for path in PACKAGE}
    assert unread_definitions(package, package, private=True) == []


def test_no_unread_public_definitions():
    package = {path.name: path.read_text() for path in PACKAGE}
    readers = dict(package)
    for part in ("scripts", "perfbench"):
        readers.update({f"{part}/{path.name}": path.read_text()
                        for path in sorted((ROOT / part).glob("*.py"))})
    assert unread_definitions(package, readers, private=False) == []


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
    assert unread_definitions(sources, sources, private=True) == ["_digits (a.py:6)", "_orphan (a.py:2)"]


def test_unread_public_check_finds_and_exempts():
    sources = {
        "a.py": (
            "def used(): pass\n"
            "def orphan(): pass\n"
            "def _private(): pass\n"
            "class Box:\n"
            "    def __init__(self): pass\n"
            "    def __eq__(self, other): return True\n"
            "    @property\n"
            "    def width(self): return 0\n"
            "    def traced(self): pass\n"
            "    def read(self): pass\n"
            "def main(): return used(), Box().read()\n"
            "def keyed(): pass\n"
        ),
    }
    # a package reader that names keyed only as a dict key does not read it
    readers = {**sources, TRACER: "SITES = [(Box, 'traced')]\nfrom a import main\n",
               "cli.py": "payload = {'keyed': 1}\n"}
    assert unread_definitions(sources, readers, private=False) == [
        "keyed (a.py:12)", "orphan (a.py:2)", "width (a.py:8)"]
