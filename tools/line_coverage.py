"""Statement coverage of ``src/mucheck`` under the test suite.

The ``coverage`` package is not a dependency, so this traces lines with
``sys.settrace``: it runs pytest in this process with a line tracer on
the package's files, then prints, per file, the statements that never
ran.  A statement is an ``ast`` statement node; it ran if a line of its
own (for a compound statement, a line of its header, decorators
included) raised a line event.  Module, class and function docstrings
and ``global``/``nonlocal`` declarations, which run no code, are left
out.

What runs only in a fork-pool worker (the sweeps' ``multiprocessing``
pools) or in a subprocess that a test starts is not traced, so it shows
as never run.
``tests/test_compare.py::test_a_sweep_job_leaves_no_reference_cycles``
is deselected: it asserts that a collection finds no unreachable
objects, and under the tracer it finds some.

Run from the repository root; a run of the whole suite takes minutes,
so the suite does not run this:

    python tools/line_coverage.py                      # every test
    python tools/line_coverage.py tests/test_game.py   # pytest arguments

It prints one ``path: ran/statements`` line per file, then each
statement that never ran as ``  line: source``, and returns pytest's
exit code.
"""

import ast
import os
import sys
import threading
from pathlib import Path

from code_lines import docstring_lines  # tools/code_lines.py

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mucheck"
DESELECT = "tests/test_compare.py::test_a_sweep_job_leaves_no_reference_cycles"
_NO_CODE = (ast.Global, ast.Nonlocal)


def statements(source):
    """``{first line: lines}`` of every statement in ``source`` that runs
    code: the lines that a line event marks it run by."""
    docstrings = docstring_lines(source)
    out = {}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, _NO_CODE) \
                or isinstance(node, ast.Expr) and node.lineno in docstrings:
            continue
        body = getattr(node, "body", None)
        end = body[0].lineno - 1 if body else node.end_lineno
        first = min([node.lineno] + [d.lineno for d in
                                     getattr(node, "decorator_list", ())])
        out[node.lineno] = range(first, max(end, node.lineno) + 1)
    return out


def trace_lines(files, run):
    """``run()``'s result and ``{path: lines that raised a line event}``
    over the given file paths, in this process and its threads."""
    seen = {str(f): set() for f in files}

    def call(frame, event, arg):
        lines = seen.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    threading.settrace(call)
    sys.settrace(call)
    try:
        result = run()
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return result, seen


def main(argv=None):
    import pytest

    args = sys.argv[1:] if argv is None else argv
    # This process and the tests' subprocesses import the package from
    # the source tree, as the tier-1 command line does.
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    files = sorted(PACKAGE.glob("*.py"))
    code, seen = trace_lines(files, lambda: pytest.main(
        ["-q", "-p", "no:cacheprovider", "--deselect", DESELECT]
        + (args or [str(ROOT / "tests")])))
    for path in files:
        source = path.read_text(encoding="utf-8")
        text = source.splitlines()
        lines = seen[str(path)]
        stmts = statements(source)
        missed = sorted(n for n, span in stmts.items()
                        if lines.isdisjoint(span))
        print(f"{path.relative_to(ROOT)}: "
              f"{len(stmts) - len(missed)}/{len(stmts)}")
        for n in missed:
            print(f"  {n}: {text[n - 1].strip()}")
    return code


if __name__ == "__main__":
    sys.exit(main())
