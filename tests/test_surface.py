"""Every public name of ``ddoscast`` is reached from outside the tests.

A public top-level function or class of ``src/ddoscast``, or a public
method of such a class, must occur somewhere other than its own
definition: elsewhere in ``src/``, or in ``bench/``, ``demos/``,
``tools/`` or ``README.md``. A name that only tests use is surface the
system does not need, and these tests catch it when the last caller goes.

An occurrence is the name as a whole word, so what this cannot see:
dunder methods and dataclass fields are not checked; a method is reached
by any attribute, call or word of its name, whichever class it belongs
to; and a name mentioned only in a comment or docstring counts as reached.
"""

import ast
import collections
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def public_definitions(path: Path):
    """``name`` of each public top-level function and class, ``Class.name`` of each public method."""
    for node in ast.parse(path.read_text()).body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (f"{node.name}.{item.name}" for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_"))


def unreached(root: Path) -> list[str]:
    """The public definitions of ``root/src/ddoscast`` that nothing outside the tests names.

    A name defined k times must occur more than k times in all: each
    definition is one occurrence of its own name.
    """
    sources = sorted((root / "src" / "ddoscast").glob("*.py"))
    defined = [name for path in sources for name in public_definitions(path)]
    users = [*sources, *(path for folder in ("bench", "demos", "tools")
                         for path in sorted((root / folder).rglob("*.py"))), root / "README.md"]
    words = collections.Counter(word for path in users if path.exists()
                                for word in re.findall(r"\w+", path.read_text()))
    definitions = collections.Counter(name.rsplit(".", 1)[-1] for name in defined)
    return sorted(name for name in defined
                  if words[name.rsplit(".", 1)[-1]] <= definitions[name.rsplit(".", 1)[-1]])


def test_no_public_name_is_reached_only_by_tests():
    assert unreached(ROOT) == []


def test_the_check_names_what_only_its_definition_mentions(tmp_path):
    package = tmp_path / "src" / "ddoscast"
    package.mkdir(parents=True)
    (package / "a.py").write_text(
        "def used(): pass\n"
        "def unused(): pass\n"
        "def _private(): pass\n"
        "class Table:\n"
        "    def rows(self): pass\n"
        "    def twice(self): pass\n"
        "    def __len__(self): return 0\n"
        "    def _cached(self): pass\n"
    )
    (package / "b.py").write_text("class Other:\n    def twice(self): pass\n")
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "run.py").write_text("from ddoscast.a import used\n")
    (tmp_path / "README.md").write_text("`Table.rows` gives the rows; `Other` is another.\n")
    assert unreached(tmp_path) == ["Other.twice", "Table.twice", "unused"]
