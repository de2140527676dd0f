import ast
import contextlib
import ctypes
import io
import json
import os
import re
from pathlib import Path

import pytest
from hypothesis import strategies as st

from ddoscast.cli import main
from ddoscast.ingest import SyntheticSpec, generate_synthetic


def record_obj(
    subclass="Total Traffic",
    start=1577836800,  # 2020-01-01T00:00:00Z
    stop=1577837400,
    max_bps=10**9,
    attack_class="Misuse",
    **extra,
):
    obj = {
        "attack_class": attack_class,
        "subclass": subclass,
        "max_bps": max_bps,
        "start": start,
        "stop": stop,
    }
    obj.update(extra)
    return obj


# 5,000 digits: over Python's default int-to-str limit of 4,300
HUGE_INT = "9" * 5000

# The columns records.cols holds, in RecordTable's argument order.
SOURCE_COLUMNS = ("subclass", "start", "stop", "max_bps")


def source_columns(records) -> list:
    """The SOURCE_COLUMNS of ``records``, as ``records.records_files`` takes them."""
    return [getattr(records, name) for name in SOURCE_COLUMNS]


def huge_int_line(field="max_bps") -> str:
    """One record object as JSON text whose ``field`` is HUGE_INT."""
    return json.dumps(record_obj(**{field: "@huge@"})).replace('"@huge@"', HUGE_INT)


def scope_nodes(scope):
    """The nodes of the ``ast`` ``scope``, without those of the functions defined in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def readme_exit_codes() -> set[int]:
    """The codes in the first column of README.md's exit-code table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Exit codes\n", 1)[1].split("\n#", 1)[0]
    return {int(code) for code in re.findall(r"^\| (\d+) \|", section, flags=re.M)}


def quiet_main(args) -> tuple[int, str]:
    """``cli.main``'s exit code and what it wrote to stderr; stdout is dropped."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in args])
    return code, err.getvalue()


def mutate_bytes(draw, data: bytes, tokens: list[bytes]) -> bytes:
    """``data`` after 1-3 drawn edits: a byte flipped, up to 24 bytes cut, or
    one of ``tokens`` or 1-8 arbitrary bytes inserted. ``draw`` is the
    Hypothesis draw function of the caller's composite strategy or ``st.data()``.
    """
    data = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "cut", "insert"]))
        at = draw(st.integers(0, len(data)))
        if kind == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "cut":
            del data[at:at + draw(st.integers(1, 24))]
        elif kind == "insert":
            data[at:at] = draw(st.sampled_from(tokens) | st.binary(min_size=1, max_size=8))
    return bytes(data)


def as_array(*objs) -> bytes:
    return json.dumps(list(objs)).encode()


def as_ndjson(*objs) -> bytes:
    return ("\n".join(json.dumps(o) for o in objs) + "\n").encode()


@pytest.fixture(scope="session")
def synthetic_1000():
    # a list, as tests slice it
    return list(generate_synthetic(SyntheticSpec(record_count=1000, seed=7)))


def openblas_thread_counts() -> list[int]:
    """Thread count of every OpenBLAS library loaded in this process, read from /proc/self/maps."""
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    counts = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                getter = getattr(lib, name)
                getter.argtypes, getter.restype = [], ctypes.c_int
                counts.append(getter())
                break
    return counts


def child_pids(pid: int) -> list[int]:
    """Processes whose parent is ``pid``, zombies included (read from /proc)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:  # the process ended while we looked
            continue
        # "pid (comm) state ppid ...": comm may hold spaces and parentheses
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        if ppid == pid:
            children.append(int(entry))
    return children


def is_running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Every test reaps what it starts: grid workers, CLI subprocesses, demos."""
    yield
    assert child_pids(os.getpid()) == []
