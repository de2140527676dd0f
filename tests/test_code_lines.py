"""tools/code_lines.py: the code-line count that simplicity changes cite."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

# Code lines, counted by hand: import, class, x = 1, the two lines of the
# def, the two of ``text`` and the two of the string expression after the
# docstring, and return. Docstrings, comments and blank lines do not count.
SNIPPET = '''"""Module docstring
over two lines."""
# a comment-only line

import os  # a trailing comment


class A:
    """Class docstring."""

    x = 1


def f(a,
      b):
    """Function
    docstring."""
    # a comment
    text = """one
two"""
    """A string expression,
    not a docstring."""
    return a
'''


def test_counts_code_lines_by_hand():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert module.code_lines(SNIPPET) == 10
