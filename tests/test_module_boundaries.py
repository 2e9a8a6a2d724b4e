"""A private name is read only in the module that defines it.

Each module of the package is parsed with ``ast``.  A module M reads a
private name when it reads an attribute ``obj._x`` or imports
``from .x import _y``, where the name starts with one underscore and is not
a dunder.  M may do so only if M itself defines that name: as a function,
class or method, or by binding it (an assignment to ``_x`` or to
``obj._x``).  So the packed form of ``diffpoly`` and the float view of
``potential`` are read only through their public names elsewhere.
"""

import ast
from pathlib import Path

import pytest

import dunham

SOURCES = sorted(Path(dunham.__file__).parent.glob("*.py"))


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _defined(tree: ast.AST) -> set[str]:
    """The names a module binds itself, at any depth."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
            names.add(node.attr)
    return names


def foreign_private_reads(source: str) -> list[str]:
    """``line: name`` for each private name the source reads but does not define."""
    tree = ast.parse(source)
    own = _defined(tree)
    reads = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom):
            names = [alias.name for alias in node.names]
        else:
            continue
        reads += [f"{node.lineno}: {name}" for name in names
                  if _private(name) and name not in own]
    return reads


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_no_module_reads_another_modules_private_name(path):
    assert foreign_private_reads(path.read_text()) == []


@pytest.mark.parametrize("source, reads", [
    ("from . import diffpoly as dp\ns = dp._Sum()", ["2: _Sum"]),
    ("from .potential import _poly_roots", ["1: _poly_roots"]),
    ("def f(t):\n    return t._packed", ["2: _packed"]),
    ("class A:\n    def _g(self):\n        return self._h\n    def f(self):\n"
     "        self._h = 1\n        return self._g()", []),
    ("x = y.__dict__", []),
])
def test_the_scan_sees_attribute_reads_and_imports(source, reads):
    assert foreign_private_reads(source) == reads
