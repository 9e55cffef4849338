"""Count the code lines of Python source files.

A code line holds at least one token that is not a comment, and does not
lie inside a module, class or function docstring.  Blank lines, comment
lines and docstring lines are left out; a line that a multi-line string
or bracket spans counts once.

Run from the repository root:

    python tools/code_lines.py              # src/mucheck/*.py
    python tools/code_lines.py FILE ...

It prints one ``count  path`` line per file and then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIP = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER)
_SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(source):
    """The line numbers that module, class and function docstrings span."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, _SCOPES) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in ``source``."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(source))


def main(argv=None):
    args = sys.argv[1:] if argv is None else argv
    root = Path(__file__).resolve().parent.parent
    paths = ([Path(a) for a in args] if args
             else sorted((root / "src" / "mucheck").glob("*.py")))
    total = 0
    for path in paths:
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
