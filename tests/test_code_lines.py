"""tools/code_lines.py: the code-line count that simplicity changes cite."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("where", ["a module", "a missing path", "a directory of no .py file"])
def test_a_path_that_holds_no_package_exits_two(tmp_path, where):
    # A "0 total" for such a path would read as a count of code lines.
    path = {"a module": TOOL, "a missing path": tmp_path / "missing",
            "a directory of no .py file": tmp_path}[where]
    proc = subprocess.run([sys.executable, str(TOOL), str(path)], capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: {path} is not a directory holding .py files\n"
