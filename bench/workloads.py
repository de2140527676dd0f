"""The three benchmark workloads: seeded inputs, the CLI commands of one
operation, and the checks that an operation's outputs are right.

Every workload is closed-loop: one client runs one operation at a time, and
the commands of an operation run one after another, each in a fresh
``python -m ddoscast.cli`` process, as an analyst runs them. The program
sees only the files generated here from the workload seed.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# 2013-06-01 .. 2020-12-31 inclusive: 2,771 days, the real export's span.
START = dt.date(2013, 6, 1)
END = dt.date(2020, 12, 31)
EXPORT_RECORDS = 192_525  # size of the real Digital Attack Map export
SMALL_RECORDS = 20_000
TRAIN_EPOCHS = 10
GRID_EPOCHS = 2
CHECKPOINT_EPOCHS = 3
GRID_WINDOWS = (8, 16, 24, 32)
GRID_HIDDENS = (32, 64, 128)
# Reference training configuration (window, hidden, batch, learning rate).
REF_WINDOW, REF_HIDDEN, REF_BATCH, REF_LR = 24, 64, 32, 0.0002
SECONDS_PER_DAY = 86_400

# Entries the lenient parser must reject, so its reject path runs.
MALFORMED = (
    {"attack_class": "Misuse", "subclass": "TCP SYN", "max_bps": 1, "start": 1},
    {"attack_class": "Misuse", "subclass": "Smurf", "max_bps": 1, "start": 1, "stop": 2},
    {"attack_class": "Misuse", "subclass": "ICMP", "max_bps": 1, "start": 9, "stop": 2},
    {"attack_class": "Misuse", "subclass": "ICMP", "max_bps": -5, "start": 1, "stop": 2},
    {"attack_class": "Misuse", "subclass": "ICMP", "max_bps": 1, "start": 1, "stop": 2,
     "dst_cc": ["USA"]},
    "not an object",
)

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
# Relative tolerance against the reference values: loose enough for
# last-bit drift from a changed summation order, tight enough that a wrong
# gradient, shuffle or split shows.
REFERENCE_RTOL = 1e-6


def cli_env() -> dict:
    """The caller's environment with the checkout's sources first on the path.

    Nothing else is set: BLAS threading stays whatever the caller has.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


@dataclass
class Command:
    name: str
    wall_s: float
    rss_mb: float
    code: int


def run_cli(args: list[str], log: Path) -> Command:
    """Run one ddoscast command in a fresh process; wall time and peak RSS."""
    with open(log, "ab") as fh:
        started = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "ddoscast.cli", *args],
            stdout=fh, stderr=fh, env=cli_env(),
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: leave no process behind
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Command(args[0], wall, usage.ru_maxrss / 1024.0, proc.returncode)


def synthetic(seed: int, count: int):
    from ddoscast.ingest import SyntheticSpec, generate_synthetic

    return generate_synthetic(
        SyntheticSpec(record_count=count, start_date=START, end_date=END, seed=seed)
    )


def write_export(path: Path, records, malformed=()) -> None:
    """Write records as a JSON array in the export format, malformed entries first."""
    from ddoscast.ingest import records_to_json

    text = records_to_json(records)
    if malformed:
        text = "[" + ", ".join(json.dumps(m) for m in malformed) + ", " + text[1:]
    path.write_text(text)


@dataclass
class Facts:
    """Exact values the outputs must show, computed from the generated records."""

    record_count: int
    total_duration_s: int
    longest_attack_s: int
    max_bps: int
    subclass_counts: Counter
    first_day: int
    daily_total_traffic: list[int]

    @classmethod
    def of(cls, records) -> "Facts":
        durations = [r.stop - r.start for r in records]
        days = [r.start // SECONDS_PER_DAY for r in records]
        first, last = min(days), max(days)
        daily = [0] * (last - first + 1)
        for r, day in zip(records, days):
            if r.subclass.value == "TotalTraffic":
                daily[day - first] += 1
        return cls(
            record_count=len(records),
            total_duration_s=sum(durations),
            longest_attack_s=max(durations),
            max_bps=max(r.max_bps for r in records),
            subclass_counts=Counter(r.subclass.value for r in records),
            first_day=first,
            daily_total_traffic=daily,
        )

    def test_split(self, window: int) -> tuple[int, int]:
        """(first index, row count) of the test-split predictions."""
        n = len(self.daily_total_traffic)
        offset = n // 2 + n // 5 + window
        return offset, n - offset

    def sigma(self) -> float:
        """Sample standard deviation (N-1) of the daily TotalTraffic counts."""
        values = self.daily_total_traffic
        mu = sum(values) / len(values)
        return math.sqrt(sum((v - mu) ** 2 for v in values) / (len(values) - 1))

    def baseline_mse(self, split: str, window: int) -> float:
        """MSE of predicting the mean of a split's targets, in normalized units."""
        n = len(self.daily_total_traffic)
        lo, hi = {"validation": (n // 2, n // 2 + n // 5), "test": (n // 2 + n // 5, n)}[split]
        return variance(self.daily_total_traffic[lo + window : hi]) / self.sigma() ** 2


def variance(values) -> float:
    """Population variance: the MSE of always predicting the mean."""
    mu = sum(values) / len(values)
    return sum((v - mu) ** 2 for v in values) / len(values)


@dataclass
class Check:
    """Outcome of checking one operation's outputs."""

    errors: list[str] = field(default_factory=list)
    # Model MSE over the MSE of predicting the targets' mean: near 1 for this
    # noise-like series, far above 1 for a broken model. Unlike the raw MSE it
    # barely moves with the seed.
    quality: float = math.nan
    report: dict[str, float] = field(default_factory=dict)  # printed, not in the JSON

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.errors.append(message)
        return ok


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def finite_floats(check: Check, rows, columns, where: str) -> list[list[float]]:
    out = []
    for row in rows:
        try:
            values = [float(row[c]) for c in columns]
        except (KeyError, TypeError, ValueError) as exc:
            check.errors.append(f"{where}: unreadable row {row!r}: {exc}")
            return []
        if not all(math.isfinite(v) for v in values):
            check.errors.append(f"{where}: non-finite value in {row!r}")
            return []
        out.append(values)
    return out


def load_reference(workload: str, seed: int):
    doc = json.loads(REFERENCE_PATH.read_text())
    return doc["workloads"].get(workload) if doc["seed"] == seed else None


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REFERENCE_RTOL * max(abs(a), abs(b))


class Workload:
    """One set of inputs and the operation run on them."""

    name: str
    why: str

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.inputs = work / "inputs"
        self.out = work / "out"
        self.log = work / "cli.log"
        self.facts: Facts | None = None

    def setup(self) -> list:
        """Generate the inputs (timed by the caller as set-up); returns the records."""
        raise NotImplementedError

    def commands(self) -> list[list[str]]:
        raise NotImplementedError

    def check(self) -> Check:
        """Check the last operation's outputs; unreadable outputs are errors too."""
        check = Check()
        try:
            self._check(check)
        except (OSError, KeyError, ValueError, TypeError, AttributeError) as exc:
            check.errors.append(f"unreadable output: {exc!r}")
        return check

    def _check(self, check: Check) -> None:
        raise NotImplementedError

    def _common(self) -> list[str]:
        return ["--out", str(self.out), "--seed", str(self.seed)]

    def _run_setup_cli(self, args: list[str]) -> None:
        result = run_cli(args, self.log)
        if result.code != 0:
            raise RuntimeError(f"set-up command {args[0]} exited {result.code}; see {self.log}")

    def run_op(self) -> list[Command]:
        """Run the operation's commands in order; stop at the first failure."""
        shutil.rmtree(self.out, ignore_errors=True)  # no stale outputs can pass a check
        done = []
        for args in self.commands():
            done.append(run_cli(args, self.log))
            if done[-1].code != 0:
                break
        return done


class ExportEtl(Workload):
    name = "export-etl"
    why = ("192,525-record JSON export: ingest, preprocess and analytics do nearly all "
           "the work and lstm makes only 808 predictions")
    records = EXPORT_RECORDS

    def setup(self) -> list:
        from ddoscast.ingest import Subclass

        self.inputs.mkdir(parents=True, exist_ok=True)
        records = synthetic(self.seed, self.records)
        write_export(self.inputs / "export.json", records, MALFORMED)
        # The forecast checkpoint is trained on this export's own TotalTraffic
        # records, so it forecasts the series it was fitted to.
        total = [r for r in records if r.subclass is Subclass.TOTAL_TRAFFIC]
        write_export(self.inputs / "total_traffic.json", total)
        self._run_setup_cli(
            ["train", str(self.inputs / "total_traffic.json"), "--epochs", str(CHECKPOINT_EPOCHS),
             "--window", str(REF_WINDOW), "--hidden", str(REF_HIDDEN),
             "--out", str(self.inputs), "--seed", str(self.seed)]
        )
        return records

    @property
    def checkpoint(self) -> Path:
        return self.inputs / f"train-{self.seed}" / "checkpoint.json"

    @property
    def ndjson(self) -> Path:
        return self.out / f"ingest-{self.seed}" / "records.ndjson"

    def commands(self) -> list[list[str]]:
        return [
            ["ingest", str(self.inputs / "export.json"), *self._common()],
            ["analyze", str(self.ndjson), *self._common()],
            ["forecast", str(self.checkpoint), str(self.ndjson), *self._common()],
        ]

    def _check(self, check: Check) -> None:
        self._check_ingest(check)
        self._check_analyze(check)
        self._check_forecast(check)

    def _check_ingest(self, check: Check) -> None:
        report = json.loads((self.out / f"ingest-{self.seed}" / "parse_report.json").read_text())
        check.expect(report.get("accepted") == self.facts.record_count,
                     f"parse_report accepted {report.get('accepted')} != {self.facts.record_count}")
        check.expect(report.get("rejected") == len(MALFORMED),
                     f"parse_report rejected {report.get('rejected')} != {len(MALFORMED)}")

    def _check_analyze(self, check: Check) -> None:
        facts = self.facts
        out = self.out / f"analyze-{self.seed}"
        rows = read_rows(out / "stats.csv")
        if check.expect(len(rows) == 1, f"stats.csv has {len(rows)} data rows, expected 1"):
            row = rows[0]
            expected = {
                "record_count": str(facts.record_count),
                "total_duration_s": str(facts.total_duration_s),
                "longest_attack_s": str(facts.longest_attack_s),
                "max_throughput_gbps": repr(facts.max_bps / 1e9),
            }
            for column, value in expected.items():
                check.expect(row.get(column) == value,
                             f"stats.csv {column}={row.get(column)!r}, expected {value}")
        ranking = {row.get("subclass"): row.get("value") for row in read_rows(out / "ranking.csv")}
        for sub in ("TCPSYN", "TCPRST", "TCPACK", "Protocol", "UDPMisuse", "ICMP",
                    "Bandwidth", "TotalTraffic", "IPFragment", "DNSMisuse"):
            value = str(facts.subclass_counts.get(sub, 0))
            check.expect(ranking.get(sub) == value,
                         f"ranking.csv {sub}={ranking.get(sub)!r}, expected {value}")

    def _check_forecast(self, check: Check) -> None:
        facts = self.facts
        offset, expected_rows = facts.test_split(REF_WINDOW)
        rows = read_rows(self.out / f"forecast-{self.seed}" / "forecast.csv")
        if not check.expect(len(rows) == expected_rows,
                            f"forecast.csv has {len(rows)} rows, expected {expected_rows}"):
            return
        values = finite_floats(check, rows, ("actual", "predicted"), "forecast.csv")
        if not values:
            return
        unix_epoch = dt.date(1970, 1, 1).toordinal()
        for k, (row, (actual, _)) in enumerate(zip(rows, values)):
            period = dt.date.fromordinal(unix_epoch + facts.first_day + offset + k).isoformat()
            count = facts.daily_total_traffic[offset + k]
            if not check.expect(
                row["period"] == period and abs(actual - count) <= 1e-9 * max(1, count),
                f"forecast.csv row {k}: {row['period']} actual {actual}, expected {period} {count}",
            ):
                return
        squared = sum((actual - predicted) ** 2 for actual, predicted in values)
        check.quality = squared / len(values) / variance([actual for actual, _ in values])


class SmallExport(Workload):
    """Shared set-up: a 20,000-record export over the same days, ingested."""

    records = SMALL_RECORDS

    def setup(self) -> list:
        self.inputs.mkdir(parents=True, exist_ok=True)
        records = synthetic(self.seed, self.records)
        write_export(self.inputs / "export.json", records)
        self._run_setup_cli(
            ["ingest", str(self.inputs / "export.json"), "--out", str(self.inputs),
             "--seed", str(self.seed)]
        )
        return records

    @property
    def ndjson(self) -> Path:
        return self.inputs / f"ingest-{self.seed}" / "records.ndjson"


class TrainRef(SmallExport):
    name = "train-ref"
    why = ("train at the reference config on a 20,000-record export: same 43 batches per epoch "
           "as the full export, lstm dominates and record loading is ~10%")
    epochs = TRAIN_EPOCHS

    def commands(self) -> list[list[str]]:
        return [[
            "train", str(self.ndjson), "--epochs", str(self.epochs),
            "--window", str(REF_WINDOW), "--hidden", str(REF_HIDDEN),
            "--batch-size", str(REF_BATCH), "--learning-rate", str(REF_LR),
            "--subclass", "TotalTraffic", "--metric", "count", *self._common(),
        ]]

    def _check(self, check: Check) -> None:
        out = self.out / f"train-{self.seed}"
        rows = read_rows(out / "history.csv")
        check.expect((out / "checkpoint.json").stat().st_size > 0, "empty checkpoint.json")
        if not check.expect(len(rows) == self.epochs,
                            f"history.csv has {len(rows)} rows, expected {self.epochs}"):
            return
        values = finite_floats(check, rows, ("train_mse", "val_mse"), "history.csv")
        if not values:
            return
        reference = load_reference(self.name, self.seed)
        if reference is not None:
            for epoch, (got, want) in enumerate(zip(values, reference["history"]), start=1):
                check.expect(close(got[0], want[0]) and close(got[1], want[1]),
                             f"history.csv epoch {epoch}: {got} differs from reference {want}")
        check.report["train_val_mse"] = values[-1][1]
        check.quality = values[-1][1] / self.facts.baseline_mse("validation", REF_WINDOW)


class GridDefault(SmallExport):
    name = "grid-default"
    why = ("the default 4x3 window/hidden grid at 2 epochs: 12 independent cells whose cost "
           "ranges ~8x, the only workload where cell scheduling can pay off")
    epochs = GRID_EPOCHS

    def commands(self) -> list[list[str]]:
        return [[
            "grid", str(self.ndjson), "--epochs", str(self.epochs),
            "--windows", ",".join(map(str, GRID_WINDOWS)),
            "--hiddens", ",".join(map(str, GRID_HIDDENS)), *self._common(),
        ]]

    def _check(self, check: Check) -> None:
        out = self.out / f"grid-{self.seed}"
        rows = read_rows(out / "grid.csv")
        table = (out / "grid_table.txt").read_text()
        cells = [(int(r["window"]), int(r["hidden"])) for r in rows]
        expected = [(w, h) for w in GRID_WINDOWS for h in GRID_HIDDENS]
        if not check.expect(cells == expected, f"grid.csv cells {cells}, expected {expected}"):
            return
        values = finite_floats(check, rows, ("train_mse", "test_mse"), "grid.csv")
        if not values:
            return
        reference = load_reference(self.name, self.seed)
        if reference is not None:
            for cell, got, want in zip(cells, values, reference["cells"]):
                check.expect(close(got[0], want[0]) and close(got[1], want[1]),
                             f"grid.csv cell {cell}: {got} differs from reference {want}")
        best = min(range(len(cells)), key=lambda k: (values[k][1], cells[k][1], cells[k][0]))
        window, hidden = cells[best]
        check.expect(f"recommended: window={window} hidden={hidden}" in table,
                     f"grid_table.txt does not recommend window={window} hidden={hidden}")
        check.quality = values[best][1] / self.facts.baseline_mse("test", window)


WORKLOADS = {w.name: w for w in (ExportEtl, TrainRef, GridDefault)}
