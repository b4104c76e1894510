"""Every top-level function and class of the package, every method of
those classes, and every field of its dataclasses is used by the program.

A stdlib-`ast` stand-in for a linter's dead-code check: each name that a
module of `src/rfdm` defines at top level, and each non-dunder method name of
a top-level class, must be referenced in `src/rfdm` or `perfbench` outside
its own definition; a use in `tests` alone does not count, since code that
only tests call is not part of the program (a test-only helper belongs in
`tests/helpers.py`). A reference is a name, an attribute, an imported name,
or a string equal to the name (the benchmark's tracer names the functions it
wraps by string). Methods are matched by bare name, so a method counts as
used when any object's attribute of that name is referenced.

Each field of a top-level `@dataclass` must be read: loaded as an attribute
(`obj.field`) or named by a string, anywhere in those sources. Passing it to
the constructor does not count, since nothing then reads the value back.
Likewise each name that a module assigns at top level (a constant, a table,
a logger) must be read in those sources: loaded as a name or an attribute
(`module.NAME`), or named by a string. Assigning or importing it does not
count; names are matched bare, as methods are.

Each default of a top-level function's or a top-level class's method's
parameter must be needed: some call in `src/rfdm`, `perfbench` or `tests`
sets the parameter and some call leaves it to the default. A call is
matched by its bare name (`__init__` by its class's name) and sets a
parameter by keyword, by position, or through any `*` or `**` argument. A
default that no call sets is a constant; one that every call sets is unused.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

from helpers import unused_imports

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(ROOT.glob("src/rfdm/*.py"))
USERS = PACKAGE + sorted(ROOT.glob("perfbench/*.py"))
CALLERS = USERS + sorted(ROOT.glob("tests/*.py"))

# Independent reference implementations that tests check the program
# against; the program must not call them, so only tests reference them.
TEST_ORACLES = [("dsp", "dft_oracle"), ("radar", "if_signal_sample")]


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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions(tree):
    """(qualified name, node) of each top-level def or class of a module and
    of each non-dunder method of its top-level classes."""
    for node in tree.body:
        if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def unused_definitions(package: dict, users: list) -> list:
    """(module, qualified name) of each definition in `package` (module name
    -> source) that no source in `users` references outside the definition."""
    used = sum((references(ast.parse(src)) for src in users), Counter())
    dead = []
    for module, source in package.items():
        for qualname, node in definitions(ast.parse(source)):
            if used[node.name] <= references(node)[node.name]:
                dead.append((module, qualname))
    return sorted(dead)


def dataclass_fields(tree):
    """(qualified name, field name) of each annotated field of the module's
    top-level classes decorated with `dataclass` or `dataclass(...)`."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def reads(node) -> set:
    """Attribute names loaded, and identifier-like strings, within `node`."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load):
            names.add(n.attr)
        elif isinstance(n, ast.Constant) and isinstance(n.value, str) and n.value.isidentifier():
            names.add(n.value)
    return names


def unread_fields(package: dict, users: list) -> list:
    """(module, Class.field) of each dataclass field in `package` that no
    source in `users` reads as an attribute or names by string."""
    read = set().union(*(reads(ast.parse(src)) for src in users))
    return sorted((module, qualname)
                  for module, source in package.items()
                  for qualname, field in dataclass_fields(ast.parse(source))
                  if field not in read)


def assigned_names(tree):
    """Each name that the module's top-level assignments bind (plain,
    annotated or augmented; every name of a tuple target)."""
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        for target in targets:
            for n in ast.walk(target):
                if isinstance(n, ast.Name):
                    yield n.id


def unread_assignments(package: dict, users: list) -> list:
    """(module, name) of each top-level assigned name in `package` that no
    source in `users` loads as a name or an attribute, or names by string."""
    read = set().union(*(reads(ast.parse(src)) for src in users))
    read |= {n.id for src in users for n in ast.walk(ast.parse(src))
             if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted({(module, name)
                   for module, source in package.items()
                   for name in assigned_names(ast.parse(source))
                   if name not in read})


def defaulted_parameters(tree):
    """(qualified name, call name, [(parameter, position)]) of each top-level
    function and each method of a top-level class that has defaulted
    parameters. A method is called by its bare name, `__init__` by its
    class's name. The position counts a call's positional arguments, the
    bound `self` or `cls` excluded; it is None for a keyword-only one."""
    for node in tree.body:
        functions = [(node.name, node.name, node, 0)] if isinstance(node, FUNCTIONS) else []
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, FUNCTIONS):
                    static = any(getattr(d, "id", None) == "staticmethod"
                                 for d in item.decorator_list)
                    call = node.name if item.name == "__init__" else item.name
                    functions.append((f"{node.name}.{item.name}", call, item, 0 if static else 1))
        for qualname, call, fn, bound in functions:
            args = fn.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            params = [(a.arg, i - bound) for i, a in enumerate(positional) if i >= first]
            params += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                       if d is not None]
            if params:
                yield qualname, call, params


def calls(tree):
    """(bare name, positional argument count, keyword names, whether it has a
    `*` or `**` argument) of each call of a name or an attribute."""
    for n in ast.walk(tree):
        if isinstance(n, ast.Call) and isinstance(n.func, (ast.Name, ast.Attribute)):
            spread = (any(isinstance(a, ast.Starred) for a in n.args)
                      or any(k.arg is None for k in n.keywords))
            yield (getattr(n.func, "id", None) or n.func.attr, len(n.args),
                   {k.arg for k in n.keywords}, spread)


def needless_defaults(package: dict, callers: list) -> list:
    """(module, qualified name, parameter, "never set" or "always set") of
    each defaulted parameter in `package` (module name -> source) that no
    call in `callers` sets, or that every call sets."""
    found = [c for src in callers for c in calls(ast.parse(src))]
    out = []
    for module, source in package.items():
        for qualname, call, params in defaulted_parameters(ast.parse(source)):
            mine = [c for c in found if c[0] == call]
            for param, position in params:
                n_set = sum(spread or param in keywords
                            or (position is not None and n_args > position)
                            for _, n_args, keywords, spread in mine)
                if n_set in (0, len(mine)):
                    out.append((module, qualname, param,
                                "never set" if n_set == 0 else "always set"))
    return sorted(out)


def test_modules_found():
    assert len(PACKAGE) > 5 and len(USERS) > len(PACKAGE)


def test_no_unused_definitions():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unused_definitions(package, [p.read_text() for p in USERS]) == TEST_ORACLES


def test_every_dataclass_field_is_read():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unread_fields(package, [p.read_text() for p in USERS]) == []


def test_every_module_level_name_is_read():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert unread_assignments(package, [p.read_text() for p in USERS]) == []


def test_every_default_is_needed():
    package = {p.stem: p.read_text() for p in PACKAGE}
    assert needless_defaults(package, [p.read_text() for p in CALLERS]) == []


# cases of the unused-import check that test_imports.py runs over every module
@pytest.mark.parametrize("source, expected", [
    ("from typing import Callable, Tuple\nf: Callable\n", [(1, "Tuple")]),
    ("import numpy as np\nimport os.path\nos.path.join()\n", [(1, "np")]),
    ("def f():\n    import json\n", [(2, "json")]),
    ("from __future__ import annotations\nimport json\njson.dumps({})\n", []),
    ("import json  # noqa: E402\nX = 'json'\n", [(1, "json")]),
])
def test_checker_flags_only_unused_imports(source, expected):
    assert unused_imports(source) == expected


@pytest.mark.parametrize("package, users, expected", [
    ({"m": "def f():\n    pass\n"}, [], [("m", "f")]),
    ({"m": "def f():\n    return f()\n"}, [], [("m", "f")]),
    ({"m": "class C:\n    pass\n"}, ["from m import C\n"], []),
    ({"m": "def f():\n    pass\n"}, ["import m\nm.f()\n"], []),
    ({"m": "def f():\n    pass\n"}, ["NAMES = ('m', 'f')\n"], []),
    ({"m": "def f():\n    pass\ndef g():\n    return f\n"}, [], [("m", "g")]),
    ({"m": "class C:\n    def __init__(self):\n        pass\n    def f(self):\n        pass\n"
           "    def g(self):\n        return self.f()\n"}, ["from m import C\n"], [("m", "C.g")]),
])
def test_checker_flags_only_unreferenced_definitions(package, users, expected):
    assert unused_definitions(package, list(package.values()) + users) == expected


DATACLASS = "from dataclasses import dataclass\n@dataclass\nclass D:\n    a: int\n    b: int = 0\n"


@pytest.mark.parametrize("package, users, expected", [
    ({"m": DATACLASS}, [], [("m", "D.a"), ("m", "D.b")]),
    ({"m": DATACLASS}, ["d.a\nprint(d.b)\n"], []),
    ({"m": DATACLASS.replace("@dataclass", "@dataclass(frozen=True)")}, ["d.a\n"],
     [("m", "D.b")]),
    ({"m": DATACLASS}, ["D(a=1, b=2)\n"], [("m", "D.a"), ("m", "D.b")]),
    ({"m": DATACLASS}, ["d.a = 1\nrow['b']\n"], [("m", "D.a")]),
    ({"m": DATACLASS}, ["a = 1\nb = a\n"], [("m", "D.a"), ("m", "D.b")]),
    ({"m": DATACLASS.replace("@dataclass\n", "")}, [], []),
])
def test_checker_flags_only_unread_fields(package, users, expected):
    assert unread_fields(package, list(package.values()) + users) == expected


@pytest.mark.parametrize("package, users, expected", [
    ({"m": "X = 1\n"}, [], [("m", "X")]),
    ({"m": "X = 1\ndef f():\n    return X\n"}, [], []),
    ({"m": "X = 1\n"}, ["import m\nm.X\n"], []),
    ({"m": "X = 1\n"}, ["from m import X\nX = 2\n"], [("m", "X")]),
    ({"m": "X: int = 1\nY, (Z, W) = 1, (2, 3)\nV += 1\n"}, ["print(Y, W)\n"],
     [("m", "V"), ("m", "X"), ("m", "Z")]),
    ({"m": "X = 1\nY = X + 1\n"}, [], [("m", "Y")]),
    ({"m": "def f():\n    x = 1\n"}, [], []),
])
def test_checker_flags_only_unread_assignments(package, users, expected):
    assert unread_assignments(package, list(package.values()) + users) == expected


FUNCTION = "def f(a, b=1, *, c=2):\n    pass\n"
METHOD = ("class C:\n    def __init__(self, a, b=1):\n        pass\n"
          "    def m(self, a, b=1):\n        pass\n")


@pytest.mark.parametrize("package, callers, expected", [
    ({"m": FUNCTION}, [], [("m", "f", "b", "never set"), ("m", "f", "c", "never set")]),
    ({"m": FUNCTION}, ["f(0)\nf(0, 1)\nf(0, c=3)\n"], []),
    ({"m": FUNCTION}, ["f(0, b=1, c=2)\nf(0, 1, c=2)\n"],
     [("m", "f", "b", "always set"), ("m", "f", "c", "always set")]),
    ({"m": FUNCTION}, ["f(0)\nm.f(*args)\n"], []),
    ({"m": FUNCTION}, ["f(0)\nf(0, **kw)\n"], []),
    ({"m": FUNCTION}, ["f(0)\ng(0, 1, c=3)\n"],
     [("m", "f", "b", "never set"), ("m", "f", "c", "never set")]),
    ({"m": METHOD}, ["C(0)\nC(0, 1)\nx.m(0)\nx.m(0, b=1)\n"], []),
    ({"m": METHOD}, ["C(0)\nx.m(0)\nx.m(0, 1)\n"], [("m", "C.__init__", "b", "never set")]),
    ({"m": METHOD}, ["C(0, 1)\nC.__init__(0)\nx.m(0)\nx.m(0, 1)\n"],
     [("m", "C.__init__", "b", "always set")]),
])
def test_checker_flags_only_needless_defaults(package, callers, expected):
    assert needless_defaults(package, callers) == expected
