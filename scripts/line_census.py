#!/usr/bin/env python3
"""List the lines of tierslicer's functions that no tier-1 test runs.

Runs the tier-1 suite in this process under a ``sys.settrace`` line tracer
that follows only the frames of ``src/tierslicer/``, then prints each line of
a function body (a def, a lambda or a comprehension; not module or class
level code) that no test ran, as ``path:line: text``.  A line named in
``EXCEPTIONS`` is printed as deliberate; any other makes the exit status 1::

    python3 scripts/line_census.py                          # the whole suite
    python3 scripts/line_census.py tests/test_frontend.py   # pytest arguments

The whole suite takes about two and a half times as long traced as untraced
(80 s against 32 s on 2 cores).  Lines run only in a child process
(``tests/test_startup.py``'s fresh interpreters, the workers of a ``--jobs``
pool) are not counted.  Any failing test makes the exit status 2, as the
census of a failing suite is not one of the suite.

The tracer makes no object per frame: every traced frame shares one local
trace function.  So ``tests/test_refcount.py``, which counts the cyclic
garbage that each stage leaves, passes under it as it does untraced; a
tracer that made a closure per frame would fail it.
"""

from __future__ import annotations

import inspect
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "tierslicer"

# Lines that no test runs on purpose, by file name and stripped text, each
# with the reason it stays.
EXCEPTIONS: dict[tuple[str, str], str] = {}


def body_lines(path: Path) -> set:
    """The lines that hold instructions of a function compiled from ``path``."""
    lines, stack = set(), [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function body, not a module or class
            lines.update(line for _, _, line in code.co_lines() if line is not None)
    return lines


class Failures:
    """A pytest plugin that keeps the node ids of the failing tests."""

    def __init__(self):
        self.ids = []

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.ids.append(report.nodeid)


def census(args: list) -> tuple[set, list]:
    """Run pytest with ``args`` under the tracer; the ``(file, line)`` pairs
    run in ``src/tierslicer/`` and the failing tests' node ids."""
    files = {str(p) for p in SRC.glob("*.py")}
    hits = set()
    add = hits.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def on_call(frame, event, arg):
        if frame.f_code.co_filename in files:
            add((frame.f_code.co_filename, frame.f_lineno))  # the def line
            return local
        return None

    failures = Failures()
    sys.settrace(on_call)
    try:
        pytest.main(args, plugins=[failures])
    finally:
        sys.settrace(None)
    loaded = sys.modules.get("tierslicer")
    if loaded is None or Path(loaded.__file__).parent != SRC:
        sys.exit(f"the tests did not import tierslicer from {SRC}")
    return hits, failures.ids


def main(argv: list) -> int:
    hits, failed = census(argv or ["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                                   str(ROOT / "tests")])
    missed = deliberate = 0
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(body_lines(path)):
            if (str(path), line) in hits:
                continue
            src = text[line - 1].strip()
            reason = EXCEPTIONS.get((path.name, src))
            where = f"{path.relative_to(ROOT)}:{line}: {src}"
            if reason is None:
                missed += 1
                print(where)
            else:
                deliberate += 1
                print(f"{where}  [deliberate: {reason}]")
    print(f"{missed} lines no test runs, {deliberate} deliberate")
    for nodeid in failed:
        print(f"FAILED {nodeid}")
    return 2 if failed else 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
