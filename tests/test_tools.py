"""`tools/code_lines.py`, the counter behind the code-line figures of
CHANGES.md and ROADMAP.md."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.code_lines


SOURCE = '''"""Module docstring
on two lines."""

import os  # a trailing comment keeps its line

# a comment line
def f():
    """One-line docstring."""
    text = """a string on two lines
is code, not a docstring"""
    return text


class C:
    """Class
    docstring."""
    x = 1
'''


def test_code_lines_leave_out_blank_lines_comments_and_docstrings():
    # import, def, the two lines of text, return, class, x
    assert _code_lines()(SOURCE) == 7
