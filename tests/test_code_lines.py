"""tools/code_lines.py: the code-line count every simplicity change reports."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "code_lines", os.path.join(ROOT, "tools", "code_lines.py"))
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 3


def area(box,
         scale=1):
    """Function docstring,
    also over two lines."""
    # comment inside a function
    label = """a string that is
not a docstring"""
    return (box.size
            * scale)
'''
# Code lines: import, class, size, def (2 lines), label (2 lines), return (2).
FIXTURE_CODE_LINES = 9


def test_fixture_count_is_pinned():
    assert code_lines.count_code_lines(FIXTURE) == FIXTURE_CODE_LINES


def test_blank_comment_and_docstring_only_sources_count_zero():
    assert code_lines.count_code_lines("") == 0
    assert code_lines.count_code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{FIXTURE_CODE_LINES} {tmp_path / 'a.py'}",
        f"1 {tmp_path / 'sub' / 'b.py'}",
        f"{FIXTURE_CODE_LINES + 1} total",
    ]
