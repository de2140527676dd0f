import json
import os
import re
from pathlib import Path

import pytest

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


def huge_int_line(field="max_bps") -> str:
    """One record object as JSON text whose ``field`` is HUGE_INT."""
    return json.dumps(record_obj(**{field: "@huge@"})).replace('"@huge@"', HUGE_INT)


def readme_exit_codes() -> set[int]:
    """The codes in the first column of README.md's exit-code table."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Exit codes\n", 1)[1].split("\n#", 1)[0]
    return {int(code) for code in re.findall(r"^\| (\d+) \|", section, flags=re.M)}


def as_array(*objs) -> bytes:
    return json.dumps(list(objs)).encode()


def as_ndjson(*objs) -> bytes:
    return ("\n".join(json.dumps(o) for o in objs) + "\n").encode()


@pytest.fixture(scope="session")
def synthetic_1000():
    return generate_synthetic(SyntheticSpec(record_count=1000, seed=7))


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
