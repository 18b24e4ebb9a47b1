"""Every name a library module imports is used in that module.

Read with the standard ``ast`` module, so no linter is needed.  The package
``__init__.py`` imports names only to re-export them, and ``from __future__``
imports are directives, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

import grassmann

MODULES = sorted(p for p in Path(grassmann.__file__).parent.glob("*.py")
                 if p.name != "__init__.py")


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
