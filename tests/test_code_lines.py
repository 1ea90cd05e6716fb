"""The counting rules of tests/code_lines.py, pinned on inline samples."""

from __future__ import annotations

import code_lines

SAMPLE = '''"""A module docstring
on two lines."""

# a comment line

import sys  # a trailing comment


def f(x):
    """A function docstring."""
    text = """a string that is
not a docstring"""
    return x


class C:
    """A class docstring
    on two lines."""

    y = 1
'''

# import, def, text (two lines), return, class, y
SAMPLE_LINES = 7


def test_docstrings_comments_and_blank_lines_are_skipped():
    assert code_lines.code_lines(SAMPLE) == SAMPLE_LINES


def test_a_string_that_is_not_a_docstring_counts_on_each_line():
    assert code_lines.code_lines('x = """a\nb\nc"""\n') == 3
    assert code_lines.code_lines('"""a\nb\nc"""\n') == 0


def test_files_and_directories_are_summed(tmp_path, capsys):
    (tmp_path / "pkg" / "sub").mkdir(parents=True)
    (tmp_path / "pkg" / "a.py").write_text(SAMPLE)
    (tmp_path / "pkg" / "sub" / "b.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "pkg" / "notes.txt").write_text("not python\n")
    (tmp_path / "c.py").write_text("z = 3\n")
    assert code_lines.main([str(tmp_path / "pkg")]) == 0
    assert capsys.readouterr().out == f"{SAMPLE_LINES + 2}\n"
    assert code_lines.main([str(tmp_path / "pkg" / "sub" / "b.py"), str(tmp_path / "c.py")]) == 0
    assert capsys.readouterr().out == "3\n"


def test_a_missing_path_exits_2(tmp_path, capsys):
    assert code_lines.main([str(tmp_path / "missing.py")]) == 2
    assert code_lines.main([]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "missing.py" in out.err
