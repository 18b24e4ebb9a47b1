"""Every name a library module imports is used in that module, and every
public module-level function and class of the library is used somewhere.

Read with the standard ``ast`` module, so no linter is needed.  The package
``__init__.py`` imports names only to re-export them, and ``from __future__``
imports are directives, so both are exempt.  A definition is used when a
name, an attribute or a dotted string (a layer table naming functions)
outside its own body refers to it, in ``src``, ``tests``, ``scripts`` or
``perfbench``; an import alone does not count.
"""

import ast
from pathlib import Path

import pytest

import grassmann

PACKAGE = Path(grassmann.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
SEARCHED = [PACKAGE.parents[1] / d for d in ("src", "tests", "scripts", "perfbench")]


def unused_imports(source: str) -> list:
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
    return sorted((line, name) for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detector_flags_an_unused_name():
    source = ("from __future__ import annotations\n"
              "from typing import NamedTuple, Union\n"
              "import os.path\n"
              "x: Union[int, str] = os.sep\n")
    assert unused_imports(source) == [(2, "NamedTuple")]


def public_definitions(source: str) -> list:
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def referenced_names(source: str) -> set:
    """Names referred to in source, each top-level definition's own name
    left out of its body."""
    names = set()
    for stmt in ast.parse(source).body:
        own = set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name):
                own.add(node.id)
            elif isinstance(node, ast.Attribute):
                own.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                parts = node.value.split(".")
                if all(part.isidentifier() for part in parts):
                    own.update(parts)
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            own.discard(stmt.name)
        names |= own
    return names


def test_no_unused_definitions():
    used = set()
    for root in SEARCHED:
        for path in root.rglob("*.py"):
            used |= referenced_names(path.read_text())
    unused = [(path.name, line, name) for path in MODULES
              for line, name in public_definitions(path.read_text())
              if name not in used]
    assert unused == []


def test_detector_flags_an_unused_definition():
    source = ("def helper(n):\n"
              "    return helper(n - 1) if n else 0\n"
              "def used():\n"
              "    return 1\n"
              "class Table:\n"
              "    pass\n"
              "def _private():\n"
              "    return used()\n"
              "LAYERS = ('Table.method',)\n")
    assert public_definitions(source) == [(1, "helper"), (3, "used"), (5, "Table")]
    assert {"used", "Table"} <= referenced_names(source)
    assert "helper" not in referenced_names(source)
