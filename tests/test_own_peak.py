"""tools/own_peak.py: a command's exit code, wall time, own peak RSS and CPU time."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "own_peak.py"
LINE = re.compile(r"exit (-?\d+)  wall ([\d.]+) s  peak ([\d.]+) MB  cpu ([\d.]+) s\n")


def own_peak(code: str) -> tuple[int, int, float, float, float]:
    """(launcher's exit code, child's exit code, wall s, peak MB, CPU s) of a Python child running
    ``code``."""
    done = subprocess.run([sys.executable, str(TOOL), "--", sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=60)
    match = LINE.fullmatch(done.stderr)
    assert match, done.stderr
    return done.returncode, int(match[1]), float(match[2]), float(match[3]), float(match[4])


def test_a_child_that_holds_50_mb_peaks_between_50_and_100_mb():
    returncode, code, _wall, peak, cpu = own_peak("data = b'x' * (50 * 2**20)")
    assert returncode == code == 0
    assert 50 <= peak <= 100
    assert cpu > 0


def test_the_child_exit_code_is_passed_through():
    returncode, code, _wall, _peak, _cpu = own_peak("raise SystemExit(3)")
    assert returncode == code == 3


def test_a_child_that_sleeps_shows_its_sleep_in_wall_time_not_cpu_time():
    returncode, code, wall, _peak, cpu = own_peak("import time; time.sleep(0.5)")
    assert returncode == code == 0
    assert wall >= 0.5 > cpu


def test_a_command_that_cannot_start_exits_127():
    done = subprocess.run([sys.executable, str(TOOL), "--", "/nonexistent/command"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 127 and "cannot start" in done.stderr
