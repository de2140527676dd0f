"""No module imports a name it never uses.

Every ``.py`` file under ``src/``, ``tests/``, ``tools/``, ``demos/`` and
``bench/`` is parsed, and each name an import binds must be read somewhere
in the same file, as a name in an expression. An import marked
``# noqa: F401`` is kept for its side effect and exempt. Scopes are not
told apart, so a name imported in one function and read in another counts
as used.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FOLDERS = ("src", "tests", "tools", "demos", "bench")


def unused_imports(source: str) -> list[str]:
    """The names that the module ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    unused = []
    for node in sorted(imports, key=lambda node: node.lineno):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa: F401" in line for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name != "*" and name not in read:
                unused.append(name)
    return unused


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.relative_to(ROOT)}: {name}"
             for folder in FOLDERS for path in sorted((ROOT / folder).rglob("*.py"))
             for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_check_names_each_import_that_is_never_read():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "import numpy  # noqa: F401\n"
        "from a import b, c as d\n"
        "def f():\n"
        "    import re\n"
        "    sys = 1\n"
        "    return os.path.join(d)\n"
        "import sys\n"
    )
    assert unused_imports(source) == ["json", "b", "re", "sys"]
