"""Every module of the package, of the benchmark and of the tests uses each
name it imports (`helpers.unused_imports`, the one unused-import check).
"""

from pathlib import Path

import pytest

from helpers import unused_imports

ROOT = Path(__file__).resolve().parent.parent
MODULES = (sorted(ROOT.glob("src/rfdm/*.py")) + sorted(ROOT.glob("perfbench/*.py"))
           + sorted(ROOT.glob("tests/*.py")))


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
