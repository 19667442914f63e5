"""The code-line count of ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# Seven code lines: the import, the def, the two lines of the string that
# is no docstring, the return, the class and its assignment.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    return x


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_lines_outside_comments_docstrings_and_blanks(tmp_path, capsys):
    assert code_lines.code_lines(FIXTURE) == 7
    (tmp_path / "one.py").write_text(FIXTURE)
    (tmp_path / "two.py").write_text("x = 1\n\n\ny = 2\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "one 7\ntwo 2\ntotal 9\n"
