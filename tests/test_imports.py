"""Every module of the package and of its tests uses each name it imports.

A stdlib-`ast` stand-in for a linter's unused-import check: a name bound by
`import` or `from ... import` must be read somewhere else in the module, or
be listed in the module's `__all__`.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(ROOT.glob("src/rfdm/*.py")) + sorted(ROOT.glob("tests/*.py"))


def unused_imports(source: str) -> list:
    """(line, name) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_modules_found():
    assert len(MODULES) > 5


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("source, expected", [
    ("import os\n", [(1, "os")]),
    ("import os.path\nos.sep\n", []),
    ("import numpy as np\n", [(1, "np")]),
    ("from a import b, c as d\nb()\n", [(1, "d")]),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from __future__ import annotations\n", []),
    ("def f():\n    import json\n    return json\n", []),
])
def test_checker_flags_only_unread_names(source, expected):
    assert unused_imports(source) == expected
