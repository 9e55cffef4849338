"""``tools/code_lines.py`` counts the lines that hold code.

Blank lines, comment lines and module, class and function docstrings are
left out; a statement or string that spans lines counts every line.
"""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
on two lines."""

import os  # a comment after code


# a comment line
class Thing:
    """Class docstring."""

    size = 1

    def method(self):
        """Method
        docstring."""
        text = """a string
        that is not a docstring"""
        return f(text,
                 os.sep)


async def run():
    """Coroutine docstring."""
    "a bare string after the docstring"
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_only(tmp_path, capsys):
    tool = _tool()
    # import, class, size, def, text (2 lines), return (2 lines), async
    # def, the bare string.
    assert tool.docstring_lines(SOURCE) == {1, 2, 9, 14, 15, 23}
    assert tool.code_lines(SOURCE) == 10
    path = tmp_path / "fixture.py"
    path.write_text(SOURCE, encoding="utf-8")
    assert tool.main([str(path), str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == [f"    10  {path}"] * 2 + ["    20  total"]
