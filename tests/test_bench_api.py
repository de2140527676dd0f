"""What the bench scripts take from ``ddoscast`` exists and behaves as they use it.

``bench/`` is run outside the test suite, and parts of it only under
``--trace 1``, so without these tests a name deleted from ``src/`` that
the bench still uses would pass every other test.
"""

import ast
import datetime as dt
import importlib
from pathlib import Path

import pytest

from ddoscast.ingest import SyntheticSpec, generate_synthetic
from ddoscast.preprocess import enrich_all

BENCH_SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def ddoscast_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of each ddoscast name a script uses.

    These are the names of ``from ddoscast.x import y`` and the attributes
    read from a ddoscast module the script imported, under its own name or
    under a name assigned from it in the same function (``a = analytics``).
    """
    names, modules = set(), {}  # modules: local name -> module name
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ddoscast":
            for alias in node.names:
                names.add((node.module, alias.name))
                if _is_module(f"{node.module}.{alias.name}"):
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    scopes = [tree, *(node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    for scope in scopes:
        local = dict(modules)
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Assign):
                value = node.value.id if isinstance(node.value, ast.Name) else None
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if value in modules:
                            local[target.id] = modules[value]
                        else:
                            local.pop(target.id, None)
        for node in _scope_nodes(scope):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in local):
                names.add((local[node.value.id], node.attr))
    return names


def _scope_nodes(scope):
    """The nodes of ``scope``, without those of the functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _is_module(name: str) -> bool:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError:
        return False
    return True


@pytest.mark.parametrize("script", BENCH_SCRIPTS, ids=lambda path: path.name)
def test_every_ddoscast_name_the_bench_uses_exists(script):
    used = ddoscast_names(ast.parse(script.read_text(), str(script)))
    missing = sorted(f"{module}.{name}" for module, name in used
                     if not hasattr(importlib.import_module(module), name))
    assert missing == []


def test_the_name_check_sees_module_attributes_and_aliases():
    tree = ast.parse("from ddoscast import ingest, preprocess\n"
                     "from ddoscast.lstm import train\n"
                     "def f():\n"
                     "    p = preprocess\n"
                     "    return ingest.parse_records(b''), p.no_such_name\n"
                     "def g(p):\n"
                     "    ingest = p\n"
                     "    return p.read_bytes(), ingest.read_text()\n")
    assert ddoscast_names(tree) == {
        ("ddoscast", "ingest"), ("ddoscast", "preprocess"), ("ddoscast.lstm", "train"),
        ("ddoscast.ingest", "parse_records"), ("ddoscast.preprocess", "no_such_name"),
    }


def test_record_table_rows_give_the_start_years():
    # bench/tracing.py reads the growth years from the rows: r.start_time.year
    spec = SyntheticSpec(record_count=500, start_date=dt.date(2016, 12, 20),
                         end_date=dt.date(2018, 1, 10), seed=2)
    table = enrich_all(generate_synthetic(spec))
    years = [row.start_time.year for row in table]
    assert years == table.start_years().tolist()
    assert set(years) == {2016, 2017, 2018}
