"""What the bench scripts take from ``ddoscast`` exists and behaves as they use it.

``bench/`` is run outside the test suite, and parts of it only under
``--trace 1``, so without these tests a name deleted from ``src/`` that
the bench still uses would pass every other test.
"""

import ast
import datetime as dt
import importlib
import inspect
from pathlib import Path

import pytest

from conftest import scope_nodes
from ddoscast.ingest import SyntheticSpec, generate_synthetic
from ddoscast.preprocess import enrich_all

BENCH_SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "bench").glob("*.py"))


def ddoscast_references(tree: ast.Module) -> list[tuple[ast.AST, str, str]]:
    """(node, module, name) of each use of a ddoscast name in a script.

    The uses are the names of ``from ddoscast.x import y`` (the import, and
    each bare ``y`` read later) and the attributes read from a ddoscast
    module the script imported, under its own name or under a name assigned
    from it in the same function (``a = analytics``).
    """
    refs, imported = [], {}  # imported: local name -> (module, name)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ddoscast":
            for alias in node.names:
                refs.append((alias, node.module, alias.name))
                imported[alias.asname or alias.name] = (node.module, alias.name)
    modules = {path for path in imported.values() if _is_module(".".join(path))}
    scopes = [tree, *(node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)))]
    for scope in scopes:
        local = dict(imported)
        for node in scope_nodes(scope):
            if isinstance(node, ast.Assign):
                value = imported.get(node.value.id) if isinstance(node.value, ast.Name) else None
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        if value is not None:
                            local[target.id] = value
                        else:
                            local.pop(target.id, None)
        for node in scope_nodes(scope):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and local.get(node.value.id) in modules):
                refs.append((node, ".".join(local[node.value.id]), node.attr))
            elif (isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                    and node.id in local and local[node.id] not in modules):
                refs.append((node, *local[node.id]))
    return refs


def ddoscast_names(tree: ast.Module) -> set[tuple[str, str]]:
    """(module, name) of each ddoscast name a script uses."""
    return {(module, name) for _node, module, name in ddoscast_references(tree)}


def unbound_calls(tree: ast.Module) -> list[str]:
    """Each call of a ddoscast callable in a script whose arguments its signature refuses.

    Calls with ``*`` or ``**`` arguments are skipped, and so are names that
    do not exist (``test_every_ddoscast_name_the_bench_uses_exists`` reports
    those). A callable with no signature to inspect is listed by name.
    """
    callees = {node: (module, name) for node, module, name in ddoscast_references(tree)}
    problems = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call) or call.func not in callees:
            continue
        if (any(isinstance(arg, ast.Starred) for arg in call.args)
                or any(keyword.arg is None for keyword in call.keywords)):
            continue
        module, name = callees[call.func]
        function = getattr(importlib.import_module(module), name, None)
        if function is None:
            continue
        try:
            signature = inspect.signature(function)
        except (TypeError, ValueError):
            problems.append(f"{module}.{name}: no signature to inspect")
            continue
        try:
            signature.bind(*call.args, **{keyword.arg: keyword for keyword in call.keywords})
        except TypeError as exc:
            problems.append(f"{module}.{name} at line {call.lineno}: {exc}")
    return problems


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


@pytest.mark.parametrize("script", BENCH_SCRIPTS, ids=lambda path: path.name)
def test_every_ddoscast_call_the_bench_makes_binds(script):
    assert unbound_calls(ast.parse(script.read_text(), str(script))) == []


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


def test_the_call_check_binds_each_call_to_its_signature():
    tree = ast.parse("from ddoscast import ingest\n"
                     "from ddoscast.lstm import save_checkpoint\n"
                     "ingest.parse_records(b'', strict=True)\n"
                     "save_checkpoint(1, 2, 3, 4, 5, 6)\n"
                     "save_checkpoint(*args)\n")
    assert unbound_calls(tree) == [
        "ddoscast.lstm.save_checkpoint at line 4: too many positional arguments"
    ]


def test_record_table_rows_give_the_start_years():
    # bench/tracing.py reads the growth years from the rows: r.start_time.year
    spec = SyntheticSpec(record_count=500, start_date=dt.date(2016, 12, 20),
                         end_date=dt.date(2018, 1, 10), seed=2)
    table = enrich_all(generate_synthetic(spec))
    years = [row.start_time.year for row in table]
    present, index = table.year_groups()
    assert years == [present[i] for i in index.tolist()]
    assert set(years) == {2016, 2017, 2018}
