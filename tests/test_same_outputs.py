"""tools/same_outputs.py: the byte-identity check of two source trees."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "same_outputs.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("same_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_is_the_same():
    done = subprocess.run([sys.executable, str(TOOL), str(ROOT / "src"), str(ROOT / "src"),
                           "--records", "300"], capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    *verdicts, last = done.stdout.splitlines()
    assert [line.split()[0] for line in verdicts] == ["same"] * 38
    assert last == "all outputs are the same"


def test_one_byte_differs_and_wall_ms_does_not_count(tmp_path):
    grid_csv = "window,hidden,wall_ms,test_mse\n8,16,{},0.5\n"
    for side, wall_ms, byte in (("parent", 12.5, b"a"), ("change", 99.0, b"b")):
        (tmp_path / side / "grid-0").mkdir(parents=True)
        (tmp_path / side / "grid-0" / "grid.csv").write_text(grid_csv.format(wall_ms))
        (tmp_path / side / "grid-0" / "grid_table.txt").write_bytes(b"table " + byte)
        (tmp_path / side / "grid-0" / "manifest.json").write_text(side)
    assert load_tool().compare(tmp_path / "parent", tmp_path / "change") == [
        ("grid-0/grid.csv", "same"),
        ("grid-0/grid_table.txt", "different"),
    ]
