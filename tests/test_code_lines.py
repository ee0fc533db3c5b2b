"""tools/code_lines.py counts total lines and code lines of a module."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
def f(x):
    """One-line docstring."""
    text = """a string that is
    not a docstring"""
    return (x +
            1)
'''


def test_blank_comment_and_docstring_lines_are_not_code():
    # code: import, def, two lines of text = ..., two lines of return
    assert code_lines.count(SOURCE) == (13, 6)


def test_main_prints_each_module_and_the_sums(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("\n# only a comment\nx = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["13", "6", str(tmp_path / "a.py")],
        ["3", "1", str(tmp_path / "b.py")],
        ["16", "7", "total"],
    ]
