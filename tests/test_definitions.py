"""Every top-level function and class of the package is used somewhere.

A stdlib-`ast` stand-in for a linter's dead-code check: each name that a
module of `src/rfdm` defines at top level must be referenced in `src/rfdm`,
`tests` or `perfbench` outside its own definition. A reference is a name, an
attribute, an imported name, or a string equal to the name (the benchmark's
tracer names the functions it wraps by string).
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/rfdm/*.py"))
USERS = PACKAGE + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("perfbench/*.py"))


def references(node) -> Counter:
    """How often each identifier is referenced within `node`."""
    names = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names[n.id] += 1
        elif isinstance(n, ast.Attribute):
            names[n.attr] += 1
        elif isinstance(n, ast.alias):
            names[n.name.split(".")[-1]] += 1
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            names[n.value] += 1
    return names


def unused_definitions(package: dict, users: list) -> list:
    """(module, name) of each top-level def or class in `package` (module name
    -> source) that no source in `users` references outside the definition."""
    used = sum((references(ast.parse(src)) for src in users), Counter())
    dead = []
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if used[node.name] <= references(node)[node.name]:
                    dead.append((module, node.name))
    return sorted(dead)


def test_modules_found():
    assert len(PACKAGE) > 5 and len(USERS) > len(PACKAGE)


def test_no_unused_definitions():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unused_definitions(package, [p.read_text() for p in USERS]) == []


@pytest.mark.parametrize("package, users, expected", [
    ({"m": "def f():\n    pass\n"}, [], [("m", "f")]),
    ({"m": "def f():\n    return f()\n"}, [], [("m", "f")]),
    ({"m": "class C:\n    pass\n"}, ["from m import C\n"], []),
    ({"m": "def f():\n    pass\n"}, ["import m\nm.f()\n"], []),
    ({"m": "def f():\n    pass\n"}, ["NAMES = ('m', 'f')\n"], []),
    ({"m": "def f():\n    pass\ndef g():\n    return f\n"}, [], [("m", "g")]),
])
def test_checker_flags_only_unreferenced_definitions(package, users, expected):
    assert unused_definitions(package, list(package.values()) + users) == expected
