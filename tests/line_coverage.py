"""List the executable lines of src/rfdm that the test suite never runs.

Run by hand, from the repository root (it is not a test, and pytest does
not collect it):

    PYTHONPATH=src python tests/line_coverage.py

It runs the suite in this process under `sys.settrace` and
`threading.settrace`, then compares each code object's `co_lines()` with
the lines that ran. It prints `file:line: source` for each line that never
ran, then the count. Lines run only in child processes are not seen. The
stdlib only; a traced run takes about 1.5x the plain suite's time.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rfdm"
HIT = set()


def _tracer(frame, event, arg):
    if not frame.f_code.co_filename.startswith(str(PACKAGE)):
        return None

    def local(frame, event, arg):
        if event == "line":
            HIT.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    return local


def _code_lines(code):
    """Every line of `code` and of the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line}  # None or 0: no source line
    lines.discard(code.co_firstlineno)  # the def line runs in the enclosing code
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def main() -> int:
    sys.settrace(_tracer)
    threading.settrace(_tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        for line in sorted(_code_lines(compile(source, str(path), "exec"))):
            if (str(path), line) not in HIT:
                missed.append(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
    for line in missed:
        print(line)
    print(f"{len(missed)} lines of src/rfdm never ran")
    return int(status) or (1 if missed else 0)


if __name__ == "__main__":
    raise SystemExit(main())
