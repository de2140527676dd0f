import ast
import base64
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ddoscast
from conftest import (
    SOURCE_COLUMNS,
    as_ndjson,
    child_pids,
    huge_int_line,
    is_running,
    readme_exit_codes,
    record_obj,
    scope_nodes,
    source_columns,
)
from ddoscast import cli, grid
from ddoscast.analytics import global_stats, rank_subclasses, ranking_to_csv, stats_to_csv
from ddoscast.cli import _build_parser, _resolve_params, main, replay_manifest
from ddoscast.ingest import (
    _PART_MIN_CHARS,
    MAX_UNIX_SECONDS,
    SUBCLASSES,
    Subclass,
    SyntheticSpec,
    generate_synthetic,
    parse_records,
    records_to_json,
    records_to_ndjson,
)
from ddoscast.lstm import (
    LstmParams,
    RmsPropState,
    TrainConfig,
    init_model,
    save_checkpoint,
)
from ddoscast.preprocess import Metric, RecordTable, enrich_all
from ddoscast.records import _load_sidecar, _sidecar_bytes
from ddoscast.windowing import NormSource, build_windowed


@pytest.fixture()
def records_file(tmp_path):
    spec = SyntheticSpec(record_count=600, seed=7)
    path = tmp_path / "records.ndjson"
    path.write_text(records_to_ndjson(generate_synthetic(spec)))
    return path


def run(args) -> int:
    return main([str(a) for a in args])


class TestIngest:
    def test_valid_file_exit_zero(self, tmp_path, records_file):
        code = run(["ingest", records_file, "--out", tmp_path / "o", "--seed", 1])
        assert code == 0
        report = json.loads((tmp_path / "o" / "ingest-1" / "parse_report.json").read_text())
        assert report["rejected"] == 0
        assert (tmp_path / "o" / "ingest-1" / "records.ndjson").exists()
        assert (tmp_path / "o" / "ingest-1" / "manifest.json").exists()

    def test_strict_bad_row_exit_two_names_row(self, tmp_path, capsys):
        bad = tmp_path / "bad.ndjson"
        bad.write_bytes(as_ndjson(record_obj(), record_obj(start=9, stop=1), record_obj()))
        code = run(["ingest", bad, "--strict", "--out", tmp_path / "o", "--seed", 0])
        assert code == 2
        err = capsys.readouterr().err
        assert "2" in err and "stop before start" in err

    def test_lenient_default_keeps_going(self, tmp_path):
        mixed = tmp_path / "mixed.ndjson"
        mixed.write_bytes(as_ndjson(record_obj(), record_obj(subclass="??"), record_obj()))
        code = run(["ingest", mixed, "--out", tmp_path / "o", "--seed", 0])
        assert code == 0
        report = json.loads((tmp_path / "o" / "ingest-0" / "parse_report.json").read_text())
        assert report["accepted"] == 2 and report["rejected"] == 1

    def test_synthetic_deterministic_across_runs(self, tmp_path):
        for sub in ("a", "b"):
            code = run(
                ["ingest", "--synthetic", "--count", 300, "--seed", 7, "--out", tmp_path / sub]
            )
            assert code == 0
        a = (tmp_path / "a" / "ingest-7" / "records.ndjson").read_bytes()
        b = (tmp_path / "b" / "ingest-7" / "records.ndjson").read_bytes()
        assert a == b

    def test_not_json_exit_two(self, tmp_path):
        garbage = tmp_path / "g.txt"
        garbage.write_text("certainly not json")
        assert run(["ingest", garbage, "--out", tmp_path / "o"]) == 2

    def test_missing_input_flag_usage_error(self, tmp_path, capsys):
        assert run(["ingest", "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == "error: ingest needs an input file or --synthetic\n"
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("config", [None, "input = {}\n", "synthetic = yes\n"])
    def test_input_file_and_synthetic_exit_two(self, tmp_path, records_file, capsys, config):
        args = ["ingest", records_file, "--synthetic"]
        if config is not None:  # one of the two comes from a config file
            path = tmp_path / "run.cfg"
            path.write_text(config.format(records_file))
            args = ["ingest", "--config", path,
                    *(["--synthetic"] if "input" in config else [records_file])]
        assert run([*args, "--out", tmp_path / "o"]) == 2
        assert capsys.readouterr().err == (
            "error: ingest takes an input file or --synthetic, not both\n"
        )
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("strict", [False, True])
    def test_oversized_integer_exit_two(self, tmp_path, capsys, strict):
        path = tmp_path / "huge.json"
        line = huge_int_line()
        path.write_text(f"{json.dumps(record_obj())}\n{line}\n" if strict else f"[{line}]")
        flags = ["--strict"] if strict else []
        assert run(["ingest", path, *flags, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("command", ["analyze", "train", "grid", "forecast"])
    def test_strict_is_an_ingest_only_flag(self, tmp_path, records_file, command):
        args = [command, records_file] + ([records_file] if command == "forecast" else [])
        with pytest.raises(SystemExit) as err:  # argparse usage error
            run(args + ["--strict", "--out", tmp_path / "o"])
        assert err.value.code == 2


class TestAnalyze:
    def test_outputs_match_library_calls(self, tmp_path, records_file):
        out = tmp_path / "o"
        assert run(["analyze", records_file, "--out", out, "--seed", 3]) == 0
        outdir = out / "analyze-3"

        records = enrich_all(generate_synthetic(SyntheticSpec(record_count=600, seed=7)))
        assert (outdir / "stats.csv").read_text() == stats_to_csv(global_stats(records))
        assert (outdir / "ranking.csv").read_text() == ranking_to_csv(
            rank_subclasses(records, Metric.COUNT)
        )
        growth = (outdir / "growth.csv").read_text()
        assert growth.startswith("dimension,cell,value_a,value_b,growth_pct")
        hist = (outdir / "histogram.csv").read_text()
        assert hist.startswith("metric,bin_lo,bin_hi,year,count")
        assert ",max_gbps," not in hist.split("\n")[0]

    def test_empty_file_exit_three(self, tmp_path, capsys):
        empty = tmp_path / "empty.ndjson"
        for raw in (b"", b"\xef\xbb\xbf", b"\xef\xbb\xbf \n"):  # a byte-order mark is no content
            empty.write_bytes(raw)
            assert run(["analyze", empty, "--out", tmp_path / "o"]) == 3
            assert capsys.readouterr().err == f"error: records file {empty} is empty\n"

    def test_out_of_range_records_are_dropped(self, tmp_path):
        path = tmp_path / "records.ndjson"
        huge = [record_obj(start=10**13, stop=10**13), record_obj(max_bps=10**400)]
        path.write_bytes(as_ndjson(record_obj(), *huge))
        assert run(["analyze", path, "--out", tmp_path / "o"]) == 0
        stats = (tmp_path / "o" / "analyze-0" / "stats.csv").read_text()
        assert stats.split("\n")[1].startswith("1,")  # record_count
        # with no valid record left, analyze reports an empty dataset (exit 3)
        path.write_bytes(as_ndjson(*huge))
        assert run(["analyze", path, "--out", tmp_path / "o"]) == 3

    def test_out_of_range_records_fail_strict_ingest_exit_two(self, tmp_path, capsys):
        path = tmp_path / "records.ndjson"
        path.write_bytes(as_ndjson(record_obj(), record_obj(start=10**13, stop=10**13)))
        assert run(["ingest", path, "--strict", "--out", tmp_path / "o"]) == 2
        assert "out of range" in capsys.readouterr().err


class TestTrainCmd:
    def test_defaults_resolved_when_flags_omitted(self):
        args = _build_parser().parse_args(["train", "records.ndjson"])
        params = _resolve_params(args)
        assert params["window"] == 24
        assert params["hidden"] == 64
        assert params["learning_rate"] == 0.0002
        assert params["epochs"] == 100
        assert params["subclass"] == "TotalTraffic"
        assert params["metric"] == "count"
        assert params["seed"] == 0

    def test_grid_defaults(self):
        args = _build_parser().parse_args(["grid", "records.ndjson"])
        params = _resolve_params(args)
        assert params["windows"] == [8, 16, 24, 32]
        assert params["hiddens"] == [32, 64, 128]

    def test_history_rows_equal_epochs_and_rerun_identical(self, tmp_path, records_file):
        base = ["train", records_file, "--window", 6, "--hidden", 3,
                "--epochs", 4, "--seed", 5, "--out"]
        assert run(base + [tmp_path / "r1"]) == 0
        assert run(base + [tmp_path / "r2"]) == 0
        h1 = (tmp_path / "r1" / "train-5" / "history.csv").read_bytes()
        h2 = (tmp_path / "r2" / "train-5" / "history.csv").read_bytes()
        assert h1 == h2
        assert len(h1.decode().strip().split("\n")) == 1 + 4
        c1 = (tmp_path / "r1" / "train-5" / "checkpoint.json").read_bytes()
        c2 = (tmp_path / "r2" / "train-5" / "checkpoint.json").read_bytes()
        assert c1 == c2

    def test_window_too_large_exit_four(self, tmp_path, records_file):
        code = run(["train", records_file, "--window", 4000, "--hidden", 2,
                    "--epochs", 1, "--out", tmp_path / "o"])
        assert code == 4


class TestGridCmd:
    def test_reduced_grid_and_recommendation_consistency(self, tmp_path, records_file, capsys):
        out = tmp_path / "o"
        code = run(["grid", records_file, "--windows", "3,4", "--hiddens", "2,3",
                    "--epochs", 1, "--seed", 2, "--out", out])
        assert code == 0
        rows = (out / "grid-2" / "grid.csv").read_text().strip().split("\n")[1:]
        assert len(rows) == 4
        # recommended pair equals an argmin re-check over the emitted CSV
        parsed = [row.split(",") for row in rows]
        best = min(parsed, key=lambda r: (float(r[3]), int(r[1]), int(r[0])))
        stdout = capsys.readouterr().out
        match = re.search(r"window=(\d+) hidden=(\d+)", stdout)
        assert (match.group(1), match.group(2)) == (best[0], best[1])
        table = (out / "grid-2" / "grid_table.txt").read_text()
        assert f"recommended: window={best[0]} hidden={best[1]}" in table


class TestForecastCmd:
    def train_small(self, tmp_path, records_file, seed=4):
        out = tmp_path / "o"
        assert run(["train", records_file, "--window", 6, "--hidden", 3,
                    "--epochs", 2, "--seed", seed, "--out", out]) == 0
        return out / f"train-{seed}" / "checkpoint.json"

    def test_forecast_outputs(self, tmp_path):
        # Seed 0's sigma takes 22 of its 213 test counts off by a rounding
        # step when they are divided by sigma and multiplied back.
        records = generate_synthetic(SyntheticSpec(record_count=600, seed=0))
        records_file = tmp_path / "records.ndjson"
        records_file.write_text(records_to_ndjson(records))
        ckpt = self.train_small(tmp_path, records_file)
        out = tmp_path / "o"
        assert run(["forecast", ckpt, records_file, "--seed", 4, "--out", out]) == 0
        svg = (out / "forecast-4" / "forecast.svg").read_bytes()
        assert svg.decode().count("<polyline") == 2

        csv_lines = (out / "forecast-4" / "forecast.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "period,actual,predicted"
        # the actual column is the series' own values over the test targets, exactly
        from ddoscast.cli import _load_series
        from ddoscast.windowing import build_windowed

        series, _ = _load_series(str(records_file), "TotalTraffic", "count")
        ds = build_windowed(series.values, 6)
        offset = ds.splits.train.size + ds.splits.validation.size + 6
        assert not np.array_equal(ds.test.y * ds.normalization.sigma, series.values[offset:])
        actuals = np.array([float(line.split(",")[1]) for line in csv_lines[1:]])
        assert np.array_equal(actuals, series.values[offset:])
        # periods line up with the test split
        assert csv_lines[1].split(",")[0] == series.periods[offset]

    def test_version_mismatch_exit_six(self, tmp_path, records_file):
        ckpt = self.train_small(tmp_path, records_file)
        doc = json.loads(ckpt.read_text())
        doc["format_version"] = 12
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["forecast", bad, records_file, "--out", tmp_path / "x"]) == 6

    def test_window_wider_than_a_split_exit_four(self, tmp_path, records_file):
        # checkpoint whose window cannot fit in the validation or test split
        config = TrainConfig(window_size=250, hidden_size=2)
        blob = save_checkpoint(
            init_model(2, seed=0), RmsPropState.zeros_like(init_model(2, seed=0)),
            config, {"subclass": "TotalTraffic", "metric": "count"},
        )
        ckpt = tmp_path / "wide.json"
        ckpt.write_bytes(blob)
        code = run(["forecast", ckpt, records_file, "--out", tmp_path / "x"])
        assert code == 4
        assert not (tmp_path / "x" / "forecast-0").exists()


class TestConfigFile:
    def test_config_supplies_defaults_flags_win(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\ncount=40\n")
        assert run(["ingest", "--synthetic", "--config", cfg, "--out", tmp_path / "a"]) == 0
        assert (tmp_path / "a" / "ingest-5").is_dir()
        lines = (tmp_path / "a" / "ingest-5" / "records.ndjson").read_text().strip().split("\n")
        assert len(lines) == 40

        assert run(["ingest", "--synthetic", "--config", cfg, "--seed", 9,
                    "--out", tmp_path / "b"]) == 0
        assert (tmp_path / "b" / "ingest-9").is_dir()

    @pytest.mark.parametrize(
        "command, line",
        [("train", "epochs = abc"), ("train", "learning_rate = fast"), ("grid", "windows = 8,x")],
    )
    def test_uncastable_value_exit_two_names_key(
        self, tmp_path, records_file, capsys, command, line
    ):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(line + "\n")
        assert run([command, records_file, "--config", cfg, "--out", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and repr(line.split(" =")[0]) in err


class TestManifestReplay:
    def test_every_command_writes_manifest(self, tmp_path, records_file):
        out = tmp_path / "o"
        run(["ingest", records_file, "--out", out, "--seed", 1])
        run(["analyze", records_file, "--out", out, "--seed", 1])
        for sub in ("ingest-1", "analyze-1"):
            doc = json.loads((out / sub / "manifest.json").read_text())
            assert doc["tool"] == "ddoscast"
            assert doc["seed"] == 1
            assert doc["params"]

    @pytest.mark.parametrize("command", ["ingest", "analyze", "train"])
    def test_replay_reproduces_outputs_byte_for_byte(self, tmp_path, records_file, command):
        out = tmp_path / "first"
        args = {
            "ingest": ["ingest", records_file],
            "analyze": ["analyze", records_file],
            "train": ["train", records_file, "--window", 5, "--hidden", 2, "--epochs", 2],
        }[command]
        assert run(args + ["--out", out, "--seed", 6]) == 0
        first_dir = out / f"{command}-6"

        replay_root = tmp_path / "second"
        assert replay_manifest(first_dir / "manifest.json", str(replay_root)) == 0
        second_dir = replay_root / f"{command}-6"

        originals = {p.name: p.read_bytes() for p in first_dir.iterdir()
                     if p.name != "manifest.json"}
        assert originals
        for name, blob in originals.items():
            assert (second_dir / name).read_bytes() == blob, name

    def test_replay_of_manifest_with_strict_param(self, tmp_path, records_file):
        # manifests written when every command took --strict carry it in params
        out = tmp_path / "first"
        assert run(["analyze", records_file, "--out", out, "--seed", 6]) == 0
        manifest = out / "analyze-6" / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["params"]["strict"] = False
        manifest.write_text(json.dumps(doc))
        assert replay_manifest(manifest, str(tmp_path / "second")) == 0
        for name in ("stats.csv", "histogram.csv", "growth.csv", "ranking.csv"):
            assert (tmp_path / "second" / "analyze-6" / name).read_bytes() == (
                out / "analyze-6" / name
            ).read_bytes()

    def test_replay_grid_and_forecast(self, tmp_path, records_file):
        out = tmp_path / "first"
        assert run(["train", records_file, "--window", 5, "--hidden", 2,
                    "--epochs", 2, "--out", out, "--seed", 6]) == 0
        assert run(["grid", records_file, "--windows", "3,4", "--hiddens", "2",
                    "--epochs", 1, "--out", out, "--seed", 6]) == 0
        assert run(["forecast", out / "train-6" / "checkpoint.json", records_file,
                    "--out", out, "--seed", 6]) == 0

        replay_root = tmp_path / "second"
        for command in ("grid", "forecast"):
            manifest = out / f"{command}-6" / "manifest.json"
            assert replay_manifest(manifest, str(replay_root)) == 0

        # forecast outputs (chart included) are fully byte-identical
        for name in ("forecast.csv", "forecast.svg"):
            assert (replay_root / "forecast-6" / name).read_bytes() == (
                out / "forecast-6" / name
            ).read_bytes()

        # grid.csv carries measured wall_ms; everything but that column
        # must reproduce (wall-clock time is the one non-replayable value)
        def stripped(path):
            rows = [line.split(",") for line in path.read_text().strip().split("\n")]
            return [row[:4] + row[5:] for row in rows]

        assert stripped(replay_root / "grid-6" / "grid.csv") == stripped(
            out / "grid-6" / "grid.csv"
        )
        assert (replay_root / "grid-6" / "grid_table.txt").read_bytes() == (
            out / "grid-6" / "grid_table.txt"
        ).read_bytes()


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("train", "--epochs", 0),
        ("train", "--hidden", 0),
        ("train", "--window", 0),
        ("train", "--batch-size", 0),
        ("train", "--learning-rate", -1),
        ("grid", "--hiddens", 0),
        ("grid", "--windows", "8,8"),
    ],
)
def test_bad_hyperparameter_exit_two(tmp_path, records_file, capsys, command, flag, value):
    code = run([command, records_file, flag, value, "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()  # rejected before any work or output


# each differs from its default, so a value dropped on the way to the model shows
NON_DEFAULT_FITTING = {"learning_rate": 0.001, "epochs": 2, "batch_size": 16,
                       "norm_source": "train_only"}


@pytest.mark.parametrize("command, sizes", [
    ("train", ["--window", 2, "--hidden", 2]),
    ("grid", ["--windows", 2, "--hiddens", 2]),
])
def test_every_fitting_value_reaches_the_model(tmp_path, records_file, monkeypatch, command,
                                               sizes):
    flags = [arg for name, value in NON_DEFAULT_FITTING.items()
             for arg in ("--" + name.replace("_", "-"), value)]
    specs, real_run_grid = [], grid.run_grid

    def run_grid(series, spec):
        specs.append(spec)
        return real_run_grid(series, spec)

    monkeypatch.setattr(grid, "run_grid", run_grid)
    assert run([command, records_file, *sizes, *flags, "--out", tmp_path]) == 0
    if command == "train":
        checkpoint = json.loads((tmp_path / "train-0" / "checkpoint.json").read_bytes())
        config, norm_source = checkpoint["config"], checkpoint["meta"]["norm_source"]
    else:
        [spec] = specs
        config, norm_source = dataclasses.asdict(spec.base_config), spec.norm_source.value
    assert {name: config[name] for name in ("learning_rate", "epochs", "batch_size")} | {
        "norm_source": norm_source} == NON_DEFAULT_FITTING


def test_empty_grid_list_exit_two(tmp_path, records_file):
    with pytest.raises(SystemExit) as err:  # argparse rejects the flag value
        run(["grid", records_file, "--hiddens", ",", "--out", tmp_path / "o"])
    assert err.value.code == 2
    config = tmp_path / "grid.conf"
    config.write_text("windows = ,\n")
    assert run(["grid", records_file, "--config", config, "--out", tmp_path / "o"]) == 2


def cli_env() -> dict:
    """Environment in which a child imports ddoscast from wherever this process did."""
    src = str(Path(ddoscast.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_console_script_version():
    proc = subprocess.run(
        [sys.executable, "-m", "ddoscast.cli", "--version"], capture_output=True, text=True,
        env=cli_env(),
    )
    assert proc.returncode == 0
    assert "ddoscast" in proc.stdout


def test_numpy_is_the_only_numeric_dependency_imported():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ddoscast, ddoscast.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "False\n")


def test_package_root_loads_no_other_module():
    # a re-export in ddoscast/__init__.py would run before cli.py's first line
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ddoscast; print(sorted(name for name in sys.modules "
         "if name.split('.')[0] in ('numpy', 'ddoscast')))"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "['ddoscast']\n")


def test_ingest_loads_no_pool():
    # the bench harness imports ingest; records and pool would grow its memory
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, ddoscast.ingest; print(sorted(name for name in "
         "sys.modules if name.split('.')[0] == 'ddoscast'))"],
        capture_output=True, text=True, env=cli_env(),
    )
    loaded = "['ddoscast', 'ddoscast.errors', 'ddoscast.ingest']\n"
    assert (proc.returncode, proc.stdout) == (0, loaded)


# Runs ``python -m ddoscast.cli`` with ``ingest._PART_MIN_CHARS`` set to the
# first argument after the script and the command line the rest, and, as it
# exits, prints as its last line which of numpy, multiprocessing and
# concurrent.futures it loaded.
LOADED_AT_EXIT = """
import atexit, json, runpy, sys
from ddoscast import ingest

def report():
    print(json.dumps([name for name in ("numpy", "multiprocessing", "concurrent.futures")
                      if name in sys.modules]))

ingest._PART_MIN_CHARS = int(sys.argv.pop(1))
atexit.register(report)
runpy.run_module("ddoscast.cli", run_name="__main__", alter_sys=True)
"""


def loaded_at_exit(*args, part_min_chars: int = _PART_MIN_CHARS) -> list[str]:
    """Which of numpy, multiprocessing and concurrent.futures a command loaded."""
    argv = [sys.executable, "-c", LOADED_AT_EXIT, str(part_min_chars), *map(str, args)]
    proc = subprocess.run(argv, capture_output=True, text=True, env=cli_env())
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("form", ["array", "ndjson"])
def test_ingest_of_an_export_too_small_to_cut_loads_neither_numpy_nor_a_pool(tmp_path,
                                                                             records_file, form):
    export = records_file
    if form == "array":
        export = tmp_path / "export.json"
        export.write_text(records_to_json(parse_records(records_file.read_bytes())[0]))
    assert loaded_at_exit("ingest", export, "--out", tmp_path / "o") == []


def test_ingest_of_an_export_large_enough_to_cut_loads_the_pool_but_not_numpy(tmp_path,
                                                                             records_file):
    export = tmp_path / "export.json"
    export.write_text(records_to_json(parse_records(records_file.read_bytes())[0]))
    loaded = loaded_at_exit("ingest", export, "--out", tmp_path / "o", part_min_chars=1)
    assert loaded == ["multiprocessing", "concurrent.futures"]


def test_analyze_loads_no_process_pool(tmp_path, records_file):
    assert loaded_at_exit("analyze", records_file, "--out", tmp_path / "o") == ["numpy"]


def test_a_read_large_enough_to_cut_loads_the_pool(tmp_path, records_file):
    export = tmp_path / "export.json"
    export.write_text(records_to_json(parse_records(records_file.read_bytes())[0]))
    loaded = loaded_at_exit("analyze", export, "--out", tmp_path / "o", part_min_chars=1)
    assert loaded == ["numpy", "multiprocessing", "concurrent.futures"]


def test_forecast_loads_no_process_pool(tmp_path, records_file):
    assert run(["ingest", records_file, "--out", tmp_path / "i"]) == 0
    ndjson = tmp_path / "i" / "ingest-0" / "records.ndjson"
    assert run(["train", ndjson, "--window", 5, "--hidden", 2, "--epochs", 1,
                "--out", tmp_path / "t"]) == 0
    checkpoint = tmp_path / "t" / "train-0" / "checkpoint.json"
    loaded = loaded_at_exit("forecast", checkpoint, ndjson, "--out", tmp_path / "o")
    assert "multiprocessing" not in loaded


def test_readme_layout_lists_exactly_the_modules():
    root = Path(__file__).resolve().parents[1]
    section = (root / "README.md").read_text().split("## Layout\n", 1)[1].split("\n#", 1)[0]
    listed = set(re.findall(r"^\| `(ddoscast\.\w+)`", section, flags=re.M))
    modules = {f"ddoscast.{path.stem}" for path in (root / "src" / "ddoscast").glob("*.py")}
    assert listed == modules - {"ddoscast.__init__"}


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_names_of_others(source: str) -> list[str]:
    """Each private ddoscast name that the module ``source`` imports or reads from another.

    Those are the ``_``-prefixed names of ``from ddoscast.x import _name``
    (or ``from .x import _name``), and the ``_``-prefixed attributes read
    from a module bound by ``from . import m`` or ``from ddoscast import m``.
    Such a module is seen in the function that imports it and, when it is
    imported at the top of the file, in every function; a name assigned or
    taken as a parameter in a function is that function's own.
    """
    tree, found, top = ast.parse(source), [], set()
    scopes = [tree, *(node for node in ast.walk(tree)
                      if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)))]
    for scope in scopes:  # the file's own scope first
        nodes, modules = list(scope_nodes(scope)), set(top)
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "ddoscast"):
                found += [f"{alias.name} from {node.module}"
                          for alias in node.names if _private(alias.name)]
                if node.module in (None, "ddoscast"):
                    modules |= {alias.asname or alias.name for alias in node.names}
        modules -= {node.id for node in nodes
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}
        modules -= {node.arg for node in nodes if isinstance(node, ast.arg)}
        if scope is tree:
            top = modules
        found += [f"{node.value.id}.{node.attr}" for node in nodes
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in modules and _private(node.attr)]
    return found


def test_no_module_imports_a_private_name_of_another():
    # A leading underscore keeps a name, and the decision behind it, in its module.
    found = [f"{path.name}: {name}"
             for path in sorted(Path(ddoscast.__file__).parent.glob("*.py"))
             for name in private_names_of_others(path.read_text(encoding="utf-8"))]
    assert found == []


def test_the_import_rule_sees_module_attributes_in_any_scope():
    source = ("from . import ingest\n"
              "from .records import _load_sidecar, SIDECAR_NAME\n"
              "def cut(text):\n"
              "    return ingest._export_parts(text, 2), ingest.__name__\n"
              "def count():\n"
              "    from ddoscast import pool\n"
              "    return pool.worker_count(), pool._shared\n"
              "def run(ingest):\n"
              "    pool = Executor()\n"
              "    return pool._processes, ingest._text\n")
    assert private_names_of_others(source) == [
        "_load_sidecar from records", "ingest._export_parts", "pool._shared",
    ]
    pool_source = Path(ddoscast.__file__).with_name("pool.py").read_text(encoding="utf-8")
    assert "pool._processes" in pool_source and private_names_of_others(pool_source) == []


@pytest.mark.parametrize(
    "signame, handler", [("SIGINT", "default_int_handler"), ("SIGTERM", "SIG_DFL")]
)
def test_importing_cli_leaves_sigint_alone(signame, handler):
    proc = subprocess.run(
        [sys.executable, "-c", "import signal, ddoscast.cli; "
         f"print(signal.getsignal(signal.{signame}) is signal.{handler})"],
        capture_output=True, text=True, env=cli_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, "True\n")


# Runs ``python -m ddoscast.cli`` and sends itself a stop signal (filled in
# by ``format``) when cli.py, past its first lines, asks for numpy.
INTERRUPTED_START = """
import os, runpy, signal, sys

class InterruptAtNumpy:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy":
            sys.meta_path.remove(self)
            os.kill(os.getpid(), signal.{signame})
        return None

sys.meta_path.insert(0, InterruptAtNumpy())
runpy.run_module("ddoscast.cli", run_name="__main__", alter_sys=True)
"""


STOP_SIGNALS = pytest.mark.parametrize(
    "signum, code, message",
    [(signal.SIGINT, 130, "error: interrupted\n"), (signal.SIGTERM, 143, "")],
)


@STOP_SIGNALS
def test_interrupt_during_startup_exits_130(tmp_path, signum, code, message):
    proc = subprocess.run(
        [sys.executable, "-c", INTERRUPTED_START.format(signame=signum.name), "ingest",
         "--synthetic", "--count", "10", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=cli_env(), cwd=tmp_path, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (code, message)
    assert not (tmp_path / "o").exists()


# The same interrupt, in the console script's entry point.
INTERRUPTED_SCRIPT_START = INTERRUPTED_START.replace(
    'runpy.run_module("ddoscast.cli", run_name="__main__", alter_sys=True)',
    "from ddoscast.__main__ import main\nsys.exit(main())",
)


@STOP_SIGNALS
def test_interrupt_during_console_script_startup_exits_130(tmp_path, signum, code, message):
    proc = subprocess.run(
        [sys.executable, "-c", INTERRUPTED_SCRIPT_START.format(signame=signum.name), "ingest",
         "--synthetic", "--count", "10", "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=cli_env(), cwd=tmp_path, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (code, message)
    assert not (tmp_path / "o").exists()


def test_console_script_runs_the_entry_module():
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert 'ddoscast = "ddoscast.__main__:main"' in pyproject
    proc = subprocess.run(
        [sys.executable, "-m", "ddoscast", "--version"], capture_output=True, text=True,
        env=cli_env(),
    )
    assert (proc.returncode, proc.stdout) == (0, f"ddoscast {ddoscast.__version__}\n")


# Runs a module as ``__main__`` with --version, then prints the thread
# counts of the OpenBLAS libraries loaded. Nothing imports numpy before the
# module runs.
THREADS_AT_EXIT = """
import atexit, runpy, sys

def report():
    from ddoscast.blas import openblas_threads
    print(sorted({get() for get, _set in openblas_threads()}))

atexit.register(report)
runpy.run_module(sys.argv.pop(1), run_name="__main__", alter_sys=True)
"""


@pytest.mark.parametrize("module", ["ddoscast.cli", "ddoscast"])
@pytest.mark.parametrize("setting, threads", [(None, 1), ("2", 2)])
def test_cli_process_starts_openblas_on_one_thread_unless_told(module, setting, threads):
    if threads > len(os.sched_getaffinity(0)):
        pytest.skip("OpenBLAS caps its thread count at the CPU count")
    env = cli_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    if setting is not None:
        env["OPENBLAS_NUM_THREADS"] = setting
    proc = subprocess.run(
        [sys.executable, "-c", THREADS_AT_EXIT, module, "--version"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"[{threads}]"


def test_interrupt_while_parsing_arguments_exits_130(monkeypatch, capsys):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_build_parser", interrupted)
    try:
        code = main(["ingest", "--synthetic"])
    except KeyboardInterrupt:  # escaped main: a failure, not the end of the test session
        code = None
    assert code == 130
    assert capsys.readouterr().err == "error: interrupted\n"


def cpu_seconds(pid: int) -> float:
    """User plus system CPU time of process ``pid`` so far (read from /proc)."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


@contextlib.contextmanager
def running_train(tmp_path, records_file):
    """A ``train`` of 100,000 epochs, caught mid-epoch."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "ddoscast.cli", "train", str(records_file), "--window", "8",
         "--hidden", "16", "--epochs", "100000", "--out", str(tmp_path / "o")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
        start_new_session=True,
    )
    try:
        # start-up takes well under 2 s of CPU, so past that it is training
        deadline = time.monotonic() + 60
        while cpu_seconds(proc.pid) < 2.0:
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "train never got going"
            time.sleep(0.05)
        yield proc
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def test_interrupt_during_training_exits_130(tmp_path, records_file):
    with running_train(tmp_path, records_file) as proc:
        os.killpg(proc.pid, signal.SIGINT)  # as a terminal's Ctrl-C does
        interrupted = time.monotonic()
        _out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (130, "error: interrupted\n")
        assert time.monotonic() - interrupted < 5
        assert not (tmp_path / "o").exists()


def test_sigterm_during_training_exits_143(tmp_path, records_file):
    with running_train(tmp_path, records_file) as proc:
        proc.send_signal(signal.SIGTERM)  # as a scheduler or `kill` does
        stopped = time.monotonic()
        _out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (143, "")
        assert time.monotonic() - stopped < 5
        assert not (tmp_path / "o").exists()  # neither a run directory nor a hidden one


# --- records.cols beside ingest's NDJSON --------------------------------------

SIDECAR_COMMANDS = (
    ("analyze", [], ("stats.csv", "histogram.csv", "growth.csv", "ranking.csv")),
    ("train", ["--window", 5, "--hidden", 2, "--epochs", 2], ("history.csv", "checkpoint.json")),
    ("grid", ["--windows", "3,4", "--hiddens", "2", "--epochs", 1], ("grid_table.txt",)),
    ("forecast", [], ("forecast.csv", "forecast.svg")),
)
# Turns a file left open, and an exception raised where nothing can catch it,
# into test failures.
NO_LEAKS = pytest.mark.filterwarnings(
    "error::ResourceWarning", "error::pytest.PytestUnraisableExceptionWarning"
)


def run_after_ingest(records_path, out, capsys):
    """Run analyze/train/grid/forecast on one records file: outputs, stdout, sources."""
    outputs, sources, stdout = {}, set(), []
    for command, flags, names in SIDECAR_COMMANDS:
        inputs = [out / "train-3" / "checkpoint.json"] if command == "forecast" else []
        code = run([command, *inputs, records_path, *flags, "--out", out, "--seed", 3])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert "Traceback" not in captured.err
        stdout.append(captured.out)
        for name in names:
            outputs[f"{command}/{name}"] = (out / f"{command}-3" / name).read_bytes()
        doc = json.loads((out / f"{command}-3" / "manifest.json").read_text())
        sources.add(doc["inputs"][-1]["read_from"])
    return outputs, stdout, sources


class Tripwire:
    """Unpickling an instance writes the file its path names."""

    def __init__(self, path):
        self.path = str(path)

    def __reduce__(self):
        return (Path.touch, (Path(self.path),))


def _parsed_columns(ndjson: Path) -> dict:
    records, _report = parse_records(ndjson.read_bytes())
    return {name: getattr(records, name).copy() for name in SOURCE_COLUMNS}


def _write_stamped(sidecar: Path, ndjson: Path, **changes) -> None:
    """Write the columns of ``ndjson``, with ``changes``, stamped for its bytes."""
    columns = {**_parsed_columns(ndjson), **changes}
    digest = cli.sha256_hex(ndjson.read_bytes())
    sidecar.write_bytes(_sidecar_bytes([columns[name] for name in SOURCE_COLUMNS], digest))


def _old_npz(ndjson: Path, **changes) -> bytes:
    """A records.npz as ingest wrote it before records.cols, with ``changes``."""
    arrays = {"sha256": np.array(cli.sha256_hex(ndjson.read_bytes())),
              **_parsed_columns(ndjson), **changes}
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _sidecar_state(state: str, ndjson: Path, sidecar: Path, tmp_path: Path) -> None:
    columns = _parsed_columns(ndjson)
    if state == "deleted":
        sidecar.unlink()
    elif state == "stale-whitespace":  # same records, other bytes
        ndjson.write_bytes(ndjson.read_bytes()[:-1] + b" ")
    elif state == "stale-record":  # the first record now starts after it stops
        raw = bytearray(ndjson.read_bytes())
        at = raw.index(b'"start": 1') + len(b'"start": ')
        raw[at] = ord("2")
        ndjson.write_bytes(bytes(raw))
    elif state == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[: sidecar.stat().st_size // 2])
    elif state == "flipped-byte":  # the second start moves by one second, still in range
        raw = bytearray(sidecar.read_bytes())
        raw[64 + 8] ^= 1
        sidecar.write_bytes(bytes(raw))
    elif state == "wrong-length":  # one trailing byte: not 64 + 25 bytes per record
        sidecar.write_bytes(sidecar.read_bytes() + b"\0")
    elif state == "foreign-npz":  # an older ingest's sidecar, copied into place
        sidecar.write_bytes(_old_npz(ndjson))
    elif state == "object-array":  # an npz whose loading would unpickle
        tripwire = np.empty(len(columns["subclass"]), dtype=object)
        tripwire[:] = Tripwire(tmp_path / "unpickled")
        sidecar.write_bytes(_old_npz(ndjson, subclass=tripwire))
    elif state == "bad-code":  # the first code past the last subclass, validly stamped
        columns["subclass"][-1] = len(SUBCLASSES)
        _write_stamped(sidecar, ndjson, subclass=columns["subclass"])
    elif state == "negative-start":  # validly stamped
        columns["start"][0] = -1
        _write_stamped(sidecar, ndjson, start=columns["start"])
    else:
        assert state == "present"


SIDECAR_STATES = ["present", "deleted", "stale-whitespace", "stale-record", "truncated",
                  "flipped-byte", "wrong-length", "foreign-npz", "object-array", "bad-code",
                  "negative-start"]


@NO_LEAKS
@pytest.mark.parametrize("state", SIDECAR_STATES)
def test_sidecar_state_never_changes_outputs(tmp_path, records_file, capsys, state):
    assert run(["ingest", records_file, "--out", tmp_path / "i", "--seed", 1]) == 0
    ndjson = tmp_path / "i" / "ingest-1" / "records.ndjson"
    sidecar = ndjson.with_name("records.cols")
    assert sidecar.is_file()
    _sidecar_state(state, ndjson, sidecar, tmp_path)

    # the reference parses a copy of the same bytes with no sidecar beside it
    plain = tmp_path / "plain" / "records.ndjson"
    plain.parent.mkdir()
    plain.write_bytes(ndjson.read_bytes())
    capsys.readouterr()
    expected, expected_stdout, plain_sources = run_after_ingest(plain, tmp_path / "o", capsys)
    got, stdout, sources = run_after_ingest(ndjson, tmp_path / "o", capsys)

    assert got == expected
    assert stdout == expected_stdout
    record_count = 599 if state == "stale-record" else 600
    assert got["analyze/stats.csv"].split(b"\n")[1].startswith(b"%d," % record_count)
    assert plain_sources == {"parse"}
    assert sources == {"records.cols" if state == "present" else "parse"}
    assert not (tmp_path / "unpickled").exists()


def test_the_sidecar_swaps_int64_columns_only_on_a_big_endian_host(monkeypatch):
    # On a big-endian host the int64 columns are byte-swapped; faking the host's
    # byte order here makes the swap turn native columns into big-endian ones.
    records = generate_synthetic(SyntheticSpec(record_count=40, seed=3))
    digest = cli.sha256_hex(records_to_ndjson(records).encode())
    columns = (records.start, records.stop, records.max_bps)
    for byteorder, order in (("little", "<i8"), ("big", ">i8")):
        monkeypatch.setattr(sys, "byteorder", byteorder)
        body = _sidecar_bytes(source_columns(records), digest)[64:]
        assert body == b"".join(np.asarray(column, order).tobytes() for column in columns) + \
            records.subclass.tobytes()


@NO_LEAKS
def test_mutated_sidecar_loads_its_columns_or_none(tmp_path):
    records = generate_synthetic(SyntheticSpec(record_count=40, seed=3))
    digest = cli.sha256_hex(records_to_ndjson(records).encode())
    original = _sidecar_bytes(source_columns(records), digest)
    path = tmp_path / "records.cols"
    path.write_bytes(original)
    assert _load_sidecar(path, digest) is not None

    rng = random.Random(0)
    for _ in range(3000):
        data = bytearray(original)
        kind = rng.choice(["flip", "truncate", "insert"])
        at = rng.randrange(len(data))
        if kind == "flip":
            data[at] ^= rng.randrange(1, 256)
        elif kind == "truncate":  # anywhere, or by whole records so the length still fits
            del data[at if rng.random() < 0.5 else len(data) - 25 * rng.randint(1, 40):]
        else:
            size = rng.choice([1, 25, 50, rng.randint(1, 60)])
            data[at:at] = rng.randbytes(size)
        path.write_bytes(bytes(data))
        columns = _load_sidecar(path, digest)
        if columns is not None:
            for name, column in zip(SOURCE_COLUMNS, columns, strict=True):
                assert np.array_equal(column, getattr(records, name))


def test_sidecar_table_equals_parsed_table(tmp_path, records_file):
    from ddoscast.cli import sha256_hex

    assert run(["ingest", records_file, "--out", tmp_path, "--seed", 1]) == 0
    ndjson = tmp_path / "ingest-1" / "records.ndjson"
    raw = ndjson.read_bytes()
    columns = _load_sidecar(ndjson.with_name("records.cols"), sha256_hex(raw))
    assert columns is not None and not any(column.flags.writeable for column in columns)
    cached, parsed = RecordTable(*columns), enrich_all(parse_records(raw)[0])
    assert len(cached) == len(parsed) == 600
    for name in ("subclass", "start", "stop", "max_bps", "duration_min", "max_gbps"):
        got, want = getattr(cached, name), getattr(parsed, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert _load_sidecar(ndjson.with_name("records.cols"), sha256_hex(raw + b"\n")) is None


def test_synthetic_ingest_writes_sidecar(tmp_path):
    assert run(["ingest", "--synthetic", "--count", 50, "--out", tmp_path, "--seed", 2]) == 0
    ndjson = (tmp_path / "ingest-2" / "records.ndjson").read_bytes()
    sidecar = (tmp_path / "ingest-2" / "records.cols").read_bytes()
    records, _report = parse_records(ndjson)
    body = b"".join([*(getattr(records, name).astype("<i8").tobytes()
                       for name in ("start", "stop", "max_bps")),
                     records.subclass.astype(np.uint8).tobytes()])
    assert len(sidecar) == 64 + 25 * 50
    assert sidecar[:32].startswith(b"ddoscast records.cols") and sidecar[31:32] == b"\n"
    assert sidecar[32:64] == hashlib.sha256(hashlib.sha256(ndjson).digest() + body).digest()
    assert sidecar[64:] == body


def test_older_npz_sidecar_is_ignored(tmp_path, records_file, capsys):
    assert run(["ingest", records_file, "--out", tmp_path / "i", "--seed", 1]) == 0
    ndjson = tmp_path / "i" / "ingest-1" / "records.ndjson"
    ndjson.with_name("records.cols").unlink()
    ndjson.with_name("records.npz").write_bytes(_old_npz(ndjson))
    assert run(["analyze", ndjson, "--out", tmp_path / "o", "--seed", 1]) == 0
    doc = json.loads((tmp_path / "o" / "analyze-1" / "manifest.json").read_text())
    assert doc["inputs"][0]["read_from"] == "parse"


def test_a_parsed_records_read_records_its_counts(tmp_path, records_file, capsys):
    assert run(["ingest", records_file, "--out", tmp_path / "i"]) == 0
    ndjson = tmp_path / "i" / "ingest-0" / "records.ndjson"
    accepted = ndjson.read_bytes().count(b"\n")
    assert run(["analyze", ndjson, "--out", tmp_path / "a"]) == 0
    entry = json.loads((tmp_path / "a" / "analyze-0" / "manifest.json").read_text())["inputs"][0]
    assert entry["read_from"] == "records.cols"
    assert "accepted" not in entry and "rejected" not in entry
    ndjson.with_name("records.cols").unlink()
    with ndjson.open("ab") as fh:
        fh.write(b'garbage\n{"x":1}\n')
    assert run(["analyze", ndjson, "--out", tmp_path / "o"]) == 0
    entry = json.loads((tmp_path / "o" / "analyze-0" / "manifest.json").read_text())["inputs"][0]
    assert (entry["read_from"], entry["accepted"], entry["rejected"]) == ("parse", accepted, 2)
    assert accepted == 600


def _no_parse_records(raw, strict=False):
    raise AssertionError("a command reached parse_records")


@pytest.mark.parametrize("form", ["export", "ndjson-without-sidecar"])
def test_no_command_reaches_parse_records(tmp_path, records_file, monkeypatch, form):
    if form == "export":
        path = tmp_path / "export.json"
        path.write_text(records_to_json(parse_records(records_file.read_bytes())[0]))
    else:
        assert run(["ingest", records_file, "--out", tmp_path / "i"]) == 0
        path = tmp_path / "i" / "ingest-0" / "records.ndjson"
        path.with_name("records.cols").unlink()
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "ddoscast" and hasattr(module, "parse_records"):
            monkeypatch.setattr(module, "parse_records", _no_parse_records)
    out = tmp_path / "o"
    assert run(["analyze", path, "--out", out]) == 0
    assert run(["train", path, "--window", 5, "--hidden", 2, "--epochs", 1, "--out", out]) == 0
    assert run(["grid", path, "--windows", "3", "--hiddens", "2", "--epochs", 1,
                "--out", out]) == 0
    assert run(["forecast", out / "train-0" / "checkpoint.json", path, "--out", out]) == 0
    for command in ("analyze", "train", "grid", "forecast"):
        inputs = json.loads((out / f"{command}-0" / "manifest.json").read_text())["inputs"]
        entry = next(entry for entry in inputs if entry["param"] == "records")
        assert (entry["read_from"], entry["accepted"], entry["rejected"]) == ("parse", 600, 0)


@pytest.mark.parametrize("rejected_only", [False, True])
def test_empty_ingest_output_keeps_exit_three(tmp_path, capsys, rejected_only):
    source = tmp_path / "export.ndjson"
    source.write_bytes(as_ndjson(record_obj(subclass="??")) if rejected_only else b"[]")
    assert run(["ingest", source, "--out", tmp_path / "i"]) == 0
    ndjson = tmp_path / "i" / "ingest-0" / "records.ndjson"
    sidecar = ndjson.with_name("records.cols")
    assert ndjson.read_bytes() == b"" and len(sidecar.read_bytes()) == 64
    capsys.readouterr()
    assert run(["analyze", ndjson, "--out", tmp_path / "o"]) == 3
    assert capsys.readouterr().err == f"error: records file {ndjson} is empty\n"


# --- manifest input digests and replay ----------------------------------------


def test_manifest_records_input_digests(tmp_path, records_file):
    out = tmp_path / "o"
    assert run(["train", records_file, "--window", 5, "--hidden", 2, "--epochs", 1,
                "--out", out, "--seed", 6]) == 0
    checkpoint = out / "train-6" / "checkpoint.json"
    assert run(["forecast", checkpoint, records_file, "--out", out, "--seed", 6]) == 0
    doc = json.loads((out / "forecast-6" / "manifest.json").read_text())
    assert [(e["param"], e["path"]) for e in doc["inputs"]] == [
        ("checkpoint", str(checkpoint.resolve())), ("records", str(records_file.resolve()))]
    for entry, path in zip(doc["inputs"], (checkpoint, records_file)):
        assert entry["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
        assert entry["bytes"] == path.stat().st_size
    assert doc["inputs"][1]["read_from"] == "parse"  # records_file has no sidecar

    assert run(["ingest", records_file, "--out", out, "--seed", 6]) == 0
    doc = json.loads((out / "ingest-6" / "manifest.json").read_text())
    assert doc["inputs"][0]["param"] == "input"
    assert doc["inputs"][0]["bytes"] == records_file.stat().st_size


@pytest.mark.parametrize("command", ["ingest", "analyze", "forecast"])
def test_replay_refuses_changed_input(tmp_path, records_file, capsys, command):
    out = tmp_path / "first"
    assert run(["train", records_file, "--window", 5, "--hidden", 2, "--epochs", 1,
                "--out", out, "--seed", 6]) == 0
    checkpoint = out / "train-6" / "checkpoint.json"
    args = {"ingest": ["ingest", records_file], "analyze": ["analyze", records_file],
            "forecast": ["forecast", checkpoint, records_file]}[command]
    assert run(args + ["--out", out, "--seed", 6]) == 0
    edited = checkpoint if command == "forecast" else records_file
    edited.write_bytes(edited.read_bytes() + b"\n")  # same content, other bytes
    capsys.readouterr()
    code = replay_manifest(out / f"{command}-6" / "manifest.json", str(tmp_path / "second"))
    assert code == 7
    err = capsys.readouterr().err
    assert err.startswith(f"error: replay refused: {edited}") and err.count("\n") == 1
    assert not (tmp_path / "second").exists()


def _replay_edited(tmp_path, records_file, capsys, edit) -> int:
    """Exit code of replaying an analyze run after ``edit`` rewrote its manifest.

    ``edit`` is the manifest's new bytes, None to delete it, or a function
    from the recorded document to the one to write.
    """
    out = tmp_path / "first"
    assert run(["analyze", records_file, "--out", out, "--seed", 6]) == 0
    manifest = out / "analyze-6" / "manifest.json"
    if edit is None:
        manifest.unlink()
    elif isinstance(edit, bytes):
        manifest.write_bytes(edit)
    else:
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
    capsys.readouterr()
    return replay_manifest(manifest, str(tmp_path / "second"))


def test_replay_of_manifest_without_digests(tmp_path, records_file, capsys):
    # a bare path, as manifests listed inputs before they carried digests
    bare = [str(records_file.resolve())]
    code = _replay_edited(tmp_path, records_file, capsys, lambda doc: {**doc, "inputs": bare})
    err = capsys.readouterr().err
    assert code == 7
    assert err.startswith("error: replay refused: ") and err.count("\n") == 1
    assert not (tmp_path / "second").exists()


@pytest.mark.parametrize("entry", [{"param": "records"}, {"sha256": "0" * 64}, None, 3])
def test_replay_refuses_input_entry_without_param_and_digest(tmp_path, records_file, capsys,
                                                             entry):
    code = _replay_edited(tmp_path, records_file, capsys, lambda doc: {**doc, "inputs": [entry]})
    err = capsys.readouterr().err
    assert (code, err.count("\n")) == (7, 1)
    assert not (tmp_path / "second").exists()


def _without(mapping: dict, key: str) -> dict:
    return {k: v for k, v in mapping.items() if k != key}


# Each case: its exit code, and the manifest's new bytes, None to delete
# it, or a function from the recorded document to the one to write.
MALFORMED_MANIFESTS = {
    "missing file": (1, None),
    "not JSON": (7, b"{params: 1}"),
    "not UTF-8": (7, b'{"command": "\xff"}'),
    "nested too deep": (7, b"[" * 100_000),
    "JSON list": (7, lambda doc: [doc]),
    "no params": (7, lambda doc: _without(doc, "params")),
    "unknown command": (7, lambda doc: {**doc, "command": "plot"}),
    "input param absent": (7, lambda doc: {**doc, "inputs": [
        {**doc["inputs"][0], "param": "checkpoint"}]}),  # analyze has no such parameter
    "no year_a": (7, lambda doc: {**doc, "params": _without(doc["params"], "year_a")}),
    "inputs not a list": (7, lambda doc: {**doc, "inputs": 5}),
    "records not a path": (7, lambda doc: {**doc, "params": {**doc["params"], "records": 5}}),
    "seed not an integer": (7, lambda doc: {**doc, "params": {**doc["params"], "seed": "x"}}),
    "unknown param": (7, lambda doc: {**doc, "params": {**doc["params"], "colour": "red"}}),
}


@pytest.mark.parametrize("case", MALFORMED_MANIFESTS)
def test_malformed_manifest_refuses_replay_with_one_line(tmp_path, records_file, capsys, case):
    code, edit = MALFORMED_MANIFESTS[case]
    assert _replay_edited(tmp_path, records_file, capsys, edit) == code
    err = capsys.readouterr().err
    assert err.startswith("error: replay refused: " if code == 7 else "error: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "second").exists()


# --- synthetic ingest -----------------------------------------------------------


@pytest.mark.parametrize(
    "flag, value",
    [("--start-date", "2020-13-01"), ("--end-date", "31/12/2020"), ("--start-date", "1969-12-31"),
     ("--count", "0"), ("--end-date", "2018-12-31")],  # the range starts on 2019-01-01
)
def test_bad_synthetic_settings_exit_two(tmp_path, capsys, flag, value):
    assert run(["ingest", "--synthetic", flag, value, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_synthetic_range_may_end_on_the_last_representable_day(tmp_path):
    args = ["--count", 40, "--start-date", "9999-01-01", "--end-date", "9999-12-31"]
    assert run(["ingest", "--synthetic", *args, "--out", tmp_path]) == 0
    records, report = parse_records((tmp_path / "ingest-0" / "records.ndjson").read_bytes(),
                                    strict=True)
    assert report.accepted == 40 and max(records.stop) <= MAX_UNIX_SECONDS


# SHA-256 of records.ndjson from `ingest --synthetic --count 500 --start-date
# 2013-06-01 --seed N` as written when ingest still parsed its own output.
SYNTHETIC_NDJSON_SHA256 = {
    0: "63508ce23831f5635113470897c7d23a8afd75ec4ee2b010e04adeea9a07178c",
    3: "3910972edc5a2fb0a7de0512f55b2edaa04d165d056548426499d8fb25c02bd3",
    11: "b37e3fb78b8ccd0e5af73f8c7a1961cf14e5e11f050674d7096162767d20ca01",
}


@pytest.mark.parametrize("seed", sorted(SYNTHETIC_NDJSON_SHA256))
def test_synthetic_ingest_writes_what_parsing_its_records_gives(tmp_path, seed):
    args = ["--count", 500, "--start-date", "2013-06-01", "--seed", seed]
    assert run(["ingest", "--synthetic", *args, "--out", tmp_path]) == 0
    out = tmp_path / f"ingest-{seed}"
    ndjson = (out / "records.ndjson").read_bytes()
    assert hashlib.sha256(ndjson).hexdigest() == SYNTHETIC_NDJSON_SHA256[seed]
    assert (out / "parse_report.json").read_text() == (
        '{\n  "accepted": 500,\n  "rejected": 0,\n  "rejection_reasons": []\n}\n'
    )
    parsed, _report = parse_records(ndjson, strict=True)
    assert (out / "records.cols").read_bytes() == _sidecar_bytes(source_columns(parsed),
                                                                   cli.sha256_hex(ndjson))


@pytest.mark.parametrize("draw", [1e19, math.inf])  # int() of inf raises OverflowError too
def test_out_of_range_synthetic_draw_exits_two(tmp_path, capsys, monkeypatch, draw):
    # every duration and max_bps draw; a max_bps of 1e19 does not fit int64
    monkeypatch.setattr("ddoscast.ingest._lognormal", lambda *args: draw)
    assert run(["ingest", "--synthetic", "--count", 3, "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a synthetic record") and err.count("\n") == 1
    assert not (tmp_path / "ingest-0").exists()


# --- grid worker processes --------------------------------------------------------


@contextlib.contextmanager
def running_grid(tmp_path, records_file):
    """A grid run long enough to be caught while its workers train.

    It runs in a session of its own, so SIGINT can go to the whole group as
    a terminal's Ctrl-C does, and so whatever is left of it when the test
    ends, a stranded worker too, is killed with the group.
    """
    proc = subprocess.Popen(
        [sys.executable, "-m", "ddoscast.cli", "grid", str(records_file), "--windows", "3,4",
         "--hiddens", "8,16", "--epochs", "100000", "--out", str(tmp_path / "o")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
        start_new_session=True,
    )
    try:
        yield proc
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


def wait_for_workers(proc: subprocess.Popen, timeout: float = 60.0) -> list[int]:
    expected = min(4, len(os.sched_getaffinity(0)))
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = child_pids(proc.pid)
        if len(workers) >= expected:
            return workers
        assert proc.poll() is None, proc.communicate()
        time.sleep(0.05)
    raise AssertionError("grid started no workers")


@pytest.mark.parametrize(
    "signum, code, message",
    [(signal.SIGTERM, 143, ""), (signal.SIGINT, 130, "error: interrupted\n")],
)
def test_signal_stops_grid_and_its_workers(tmp_path, records_file, signum, code, message):
    with running_grid(tmp_path, records_file) as proc:
        workers = wait_for_workers(proc)
        if signum == signal.SIGINT:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        _out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (code, message)
        assert not [pid for pid in workers if is_running(pid)]


def test_sigkilled_grid_takes_its_workers_with_it(tmp_path, records_file):
    with running_grid(tmp_path, records_file) as proc:
        workers = wait_for_workers(proc)
        proc.kill()
        proc.wait(timeout=60)
        deadline = time.monotonic() + 5
        while any(is_running(pid) for pid in workers) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not [pid for pid in workers if is_running(pid)]


def test_killed_worker_fails_grid_with_exit_eight(tmp_path, records_file):
    with running_grid(tmp_path, records_file) as proc:
        workers = wait_for_workers(proc)
        os.kill(workers[0], signal.SIGKILL)
        _out, err = proc.communicate(timeout=60)
        assert proc.returncode == 8
        assert err.startswith("error: a grid worker process ended") and err.count("\n") == 1
        assert not [pid for pid in workers if is_running(pid)]


# --- ingest worker processes ------------------------------------------------------

# Runs ``python -m ddoscast.cli`` with two ingest workers whose entry checks
# never return, so the test can signal the command while its workers run. Its
# small export is cut as a large one is.
STALLED_INGEST = """
import runpy, time
from ddoscast import ingest, pool

pool.worker_count = lambda tasks=None: 2
ingest._PART_MIN_CHARS = 1
ingest._check_entry = lambda entry: time.sleep(3600)
runpy.run_module("ddoscast.cli", run_name="__main__", alter_sys=True)
"""


@contextlib.contextmanager
def running_ingest(tmp_path):
    """An ingest of a JSON array caught while its two workers check entries."""
    export = tmp_path / "export.json"
    export.write_text(json.dumps([record_obj()] * 4))
    proc = subprocess.Popen(
        [sys.executable, "-c", STALLED_INGEST, "ingest", str(export), "--out", str(tmp_path / "o")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while len(child_pids(proc.pid)) < 2:
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "ingest started no workers"
            time.sleep(0.05)
        yield proc, child_pids(proc.pid)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()


@pytest.mark.parametrize(
    "signum, code, message",
    [(signal.SIGTERM, 143, ""), (signal.SIGINT, 130, "error: interrupted\n")],
)
def test_signal_stops_ingest_and_its_workers(tmp_path, signum, code, message):
    with running_ingest(tmp_path) as (proc, workers):
        if signum == signal.SIGINT:
            os.killpg(proc.pid, signum)
        else:
            proc.send_signal(signum)
        _out, err = proc.communicate(timeout=60)
        assert (proc.returncode, err) == (code, message)
        assert not [pid for pid in workers if is_running(pid)]
        assert not (tmp_path / "o").exists()


def test_killed_worker_fails_ingest_with_exit_eight(tmp_path):
    with running_ingest(tmp_path) as (proc, workers):
        os.kill(workers[0], signal.SIGKILL)
        _out, err = proc.communicate(timeout=60)
        assert proc.returncode == 8
        assert err == ("error: an ingest worker process ended abruptly "
                       "(killed by a signal or out of memory)\n")
        assert not [pid for pid in workers if is_running(pid)]


ALLOCATION_FAILED = "Unable to allocate 298. GiB for an array with shape (40000900001,)"


def unable_to_allocate(hidden_size):
    raise MemoryError(ALLOCATION_FAILED)


@pytest.mark.parametrize("command", ["train", "grid"])
def test_memory_error_exits_nine_with_one_stderr_line(
    monkeypatch, capsys, tmp_path, records_file, command
):
    # grid's workers are forked, so they inherit the patch and raise in the worker
    monkeypatch.setattr(LstmParams, "zeros", staticmethod(unable_to_allocate))
    sizes = ["--hidden", 4] if command == "train" else ["--hiddens", "4,5"]
    code = run([command, records_file, *sizes, "--epochs", 1, "--out", tmp_path / "o"])
    assert code == 9
    assert capsys.readouterr().err == f"error: out of memory: {ALLOCATION_FAILED}\n"
    assert not (tmp_path / "o").exists()


def test_diverging_grid_exits_five_with_one_stderr_line(tmp_path, records_file):
    proc = subprocess.run(
        [sys.executable, "-m", "ddoscast.cli", "grid", str(records_file), "--windows", "3,4",
         "--hiddens", "2,3", "--epochs", "1", "--learning-rate", "1e300",
         "--out", str(tmp_path / "o")],
        capture_output=True, text=True, env=cli_env(), timeout=120,
    )
    assert proc.returncode == 5
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


# --- resolved parameters: flag > config file > built-in default -------------------

COMMON = {"out": "out", "seed": 0}
SERIES = {"records": "r.ndjson", "subclass": "TotalTraffic", "metric": "count"}
FITTING = {"learning_rate": 0.0002, "epochs": 100, "batch_size": 32, "norm_source": "full_series"}
INGEST = {"input": None, "strict": False, "synthetic": False, "count": 1000,
          "start_date": "2019-01-01", "end_date": "2020-12-31"}
TRAIN = {**SERIES, "window": 24, "hidden": 64, **FITTING}
GRID = {**SERIES, "windows": [8, 16, 24, 32], "hiddens": [32, 64, 128], **FITTING}
ANALYZE = {"records": "r.ndjson", "year_a": None, "year_b": None}
FORECAST = {"checkpoint": "c.json", "records": "r.ndjson", "subclass": None, "metric": None}

TRAIN_FLAGS = ["--subclass", "ICMP", "--metric", "max_gbps", "--learning-rate", "0.01",
               "--epochs", "7", "--batch-size", "8", "--norm-source", "train_only"]
TRAIN_SET = {"subclass": "ICMP", "metric": "max_gbps", "learning_rate": 0.01, "epochs": 7,
             "batch_size": 8, "norm_source": "train_only"}
FITTING_CONFIG = ("subclass = UDP Misuse\nmetric=duration_min\nlearning_rate=1e-3\nepochs=3\n"
                  "batch_size=16\nnorm_source=train_only\nrecords=ignored.ndjson\n")
FITTING_FROM_CONFIG = {"subclass": "UDP Misuse", "metric": "duration_min", "learning_rate": 1e-3,
                       "epochs": 3, "batch_size": 16, "norm_source": "train_only"}

PARAMS_TABLE = [
    # (argv, config text or None, resolved params)
    (["ingest"], None, {**COMMON, **INGEST}),
    (["ingest", "in.json", "--strict", "--synthetic", "--count", "5", "--start-date", "2020-01-01",
      "--end-date", "2020-02-01", "--out", "o", "--seed", "3"], None,
     {"out": "o", "seed": 3, "input": "in.json", "strict": True, "synthetic": True, "count": 5,
      "start_date": "2020-01-01", "end_date": "2020-02-01"}),
    (["ingest"], "# every key\ninput = in.json\nstrict=YES\nsynthetic=on\ncount=7\n\n"
     "start_date=2021-01-01\nend_date=2021-03-01\nout=cfg\nseed=4\n",
     {"out": "cfg", "seed": 4, "input": "in.json", "strict": True, "synthetic": True, "count": 7,
      "start_date": "2021-01-01", "end_date": "2021-03-01"}),
    (["ingest"], "strict=0\nsynthetic=False\n", {**COMMON, **INGEST}),
    (["ingest", "flag.json", "--strict", "--count", "9", "--seed", "1"],
     "input=cfg.json\nstrict=off\ncount=7\nseed=4\nout=cfg\n",
     {**INGEST, "out": "cfg", "seed": 1, "input": "flag.json", "strict": True, "count": 9}),
    (["ingest"], "epochs=5\nwindows=4,8\nmetric=max_gbps\nyear_a=2019\ncheckpoint=c.json\n",
     {**COMMON, **INGEST}),
    (["analyze", "r.ndjson"], None, {**COMMON, **ANALYZE}),
    (["analyze", "r.ndjson", "--year-a", "2019", "--year-b", "2020", "--out", "o", "--seed", "2"],
     None, {"out": "o", "seed": 2, "records": "r.ndjson", "year_a": 2019, "year_b": 2020}),
    (["analyze", "r.ndjson"], "records=other.ndjson\nyear_a=2018\nyear_b=2020\nseed=5\n",
     {**COMMON, **ANALYZE, "seed": 5, "year_a": 2018, "year_b": 2020}),
    (["analyze", "r.ndjson", "--year-b", "2021"], "year_a=2018\nyear_b=2020\ncount=3\n",
     {**COMMON, **ANALYZE, "year_a": 2018, "year_b": 2021}),
    (["train", "r.ndjson"], None, {**COMMON, **TRAIN}),
    (["train", "r.ndjson", "--window", "6", "--hidden", "3", *TRAIN_FLAGS, "--out", "o",
      "--seed", "9"], None,
     {**TRAIN, **TRAIN_SET, "out": "o", "seed": 9, "window": 6, "hidden": 3}),
    (["train", "r.ndjson"], FITTING_CONFIG + "window=12\nhidden=5\nseed=8\nout=cfg\n",
     {**TRAIN, **FITTING_FROM_CONFIG, "out": "cfg", "seed": 8, "window": 12, "hidden": 5}),
    (["train", "r.ndjson", "--window", "6", "--metric", "count", "--seed", "1"],
     FITTING_CONFIG + "window=12\nseed=8\n",
     {**TRAIN, **FITTING_FROM_CONFIG, "out": "out", "seed": 1, "window": 6, "metric": "count"}),
    (["train", "r.ndjson"], "count=40\nwindows=4,8\nstrict=true\nyear_b=2020\n",
     {**COMMON, **TRAIN}),
    (["grid", "r.ndjson"], None, {**COMMON, **GRID}),
    (["grid", "r.ndjson", "--windows", "3,4", "--hiddens", "2", *TRAIN_FLAGS, "--seed", "2"],
     None, {**GRID, **TRAIN_SET, "out": "out", "seed": 2, "windows": [3, 4], "hiddens": [2]}),
    (["grid", "r.ndjson"], FITTING_CONFIG + "windows = 5, 6,\nhiddens=7\n",
     {**COMMON, **GRID, **FITTING_FROM_CONFIG, "windows": [5, 6], "hiddens": [7]}),
    (["grid", "r.ndjson", "--hiddens", "2,3", "--epochs", "1"], FITTING_CONFIG + "hiddens=7\n",
     {**COMMON, **GRID, **FITTING_FROM_CONFIG, "hiddens": [2, 3], "epochs": 1}),
    (["grid", "r.ndjson"], "window=6\nhidden=3\ninput=x.json\n", {**COMMON, **GRID}),
    (["forecast", "c.json", "r.ndjson"], None, {**COMMON, **FORECAST}),
    (["forecast", "c.json", "r.ndjson", "--subclass", "ICMP", "--metric", "max_gbps",
      "--out", "o", "--seed", "4"], None,
     {**FORECAST, "out": "o", "seed": 4, "subclass": "ICMP", "metric": "max_gbps"}),
    (["forecast", "c.json", "r.ndjson"], "subclass=Bandwidth\nmetric=duration_min\n"
     "checkpoint=other.json\n",
     {**COMMON, **FORECAST, "subclass": "Bandwidth", "metric": "duration_min"}),
    (["forecast", "c.json", "r.ndjson", "--metric", "count"], "subclass=ICMP\nmetric=max_gbps\n",
     {**COMMON, **FORECAST, "subclass": "ICMP", "metric": "count"}),
    (["forecast", "c.json", "r.ndjson"], "window=6\nepochs=2\nnorm_source=train_only\n",
     {**COMMON, **FORECAST}),
]


@pytest.mark.parametrize("argv, config, expected", PARAMS_TABLE)
def test_resolved_params(tmp_path, argv, config, expected):
    if config is not None:
        path = tmp_path / "run.cfg"
        path.write_text(config)
        argv = [*argv, "--config", str(path)]
    params = _resolve_params(_build_parser().parse_args(argv))
    assert params == expected
    assert {k: type(v) for k, v in params.items()} == {k: type(v) for k, v in expected.items()}


POSITIONALS = {"ingest": [], "analyze": ["r.ndjson"], "train": ["r.ndjson"],
               "grid": ["r.ndjson"], "forecast": ["c.json", "r.ndjson"]}


@pytest.mark.parametrize("command", sorted(POSITIONALS))
def test_help_shows_the_resolved_defaults(capsys, command):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    shown = {}
    for chunk in re.split(r"\n  (?=-)", capsys.readouterr().out)[1:]:  # one per option
        match = re.search(r"\(default: ([^)]*)\)", " ".join(chunk.split()))
        shown[chunk.split()[0].rstrip(",")] = match and match.group(1)
    params = _resolve_params(_build_parser().parse_args([command, *POSITIONALS[command]]))
    expected = {"-h": None, "--config": None}
    for name, value in params.items():
        if name not in ("input", "checkpoint", "records"):
            text = ",".join(map(str, value)) if isinstance(value, list) else value
            expected["--" + name.replace("_", "-")] = None if value is None else str(text)
    assert shown == expected


def args_of(command: str, tmp_path, records) -> list:
    checkpoint = [tmp_path / "missing-checkpoint.json"] if command == "forecast" else []
    return [command, *checkpoint, records, "--out", tmp_path / "o"]


@pytest.mark.parametrize(
    "command, key, given_as",
    [(command, key, given_as) for command, key in [("train", "metric"), ("train", "norm_source"),
                                                    ("grid", "metric"), ("grid", "norm_source"),
                                                    ("forecast", "metric")]
     for given_as in ("flag", "config")]
    + [("forecast", "norm_source", "config")],  # a key of train and grid, checked all the same
)
def test_bad_enum_value_exit_two(tmp_path, records_file, capsys, command, key, given_as):
    args = args_of(command, tmp_path, records_file)
    if given_as == "flag":
        with pytest.raises(SystemExit) as exit_info:  # argparse rejects the choice
            run(args + ["--" + key.replace("_", "-"), "foo"])
        code, named = exit_info.value.code, "--" + key.replace("_", "-")
    else:
        config = tmp_path / "run.cfg"
        config.write_text(f"{key} = foo\n")
        code, named = run(args + ["--config", config]), repr(key)
    err = capsys.readouterr().err
    assert code == 2 and "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and named in errors[0] and "foo" in errors[0]
    if given_as == "config":
        assert err == errors[0] + "\n" and err.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["ingest", "train"])
@pytest.mark.parametrize(
    "line, message",
    [("epochs 5", "config line 2: expected key=value, got 'epochs 5'"),
     ("strict = maybe", "config key 'strict': cannot use value 'maybe'"),
     ("epoch=5", "config line 2: unknown key 'epoch'"),
     ("config=other.cfg", "config line 2: unknown key 'config'"),
     ("epochs=1\nepochs=2", "config line 3: key 'epochs' repeats line 2")],
)
def test_config_typo_exit_two(tmp_path, records_file, capsys, command, line, message):
    config = tmp_path / "run.cfg"
    config.write_text(f"# a comment\n{line}\nseed=3\n")
    assert run(args_of(command, tmp_path, records_file) + ["--config", config]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("given_as", ["flag", "config", "forecast override"])
def test_unknown_subclass_exit_two_before_records_are_read(tmp_path, capsys, given_as):
    missing = tmp_path / "missing.ndjson"  # reading it would exit 1
    if given_as == "forecast override":
        checkpoint = tmp_path / "c.json"
        model = init_model(2, seed=0)
        checkpoint.write_bytes(save_checkpoint(
            model, RmsPropState.zeros_like(model), TrainConfig(window_size=3, hidden_size=2),
            {"subclass": "TotalTraffic", "metric": "count"}))
        args = ["forecast", checkpoint, missing, "--subclass", "Foo"]
    elif given_as == "flag":
        args = ["train", missing, "--subclass", "Foo"]
    else:
        config = tmp_path / "run.cfg"
        config.write_text("subclass=Foo\n")
        args = ["grid", missing, "--config", config]
    assert run(args + ["--out", tmp_path / "o"]) == 2
    names = ", ".join(s.value for s in Subclass)
    assert capsys.readouterr().err == f"error: unknown subclass 'Foo'; choose from {names}\n"


def test_spaced_subclass_spelling_names_the_same_series(records_file):
    spaced, _entry = cli._load_series(str(records_file), "Total Traffic", "count")
    plain, _entry = cli._load_series(str(records_file), "TotalTraffic", "count")
    assert spaced.subclass is plain.subclass is Subclass.TOTAL_TRAFFIC
    assert np.array_equal(spaced.values, plain.values)


# --- every failure is one error line ----------------------------------------------


@pytest.mark.parametrize("command", [["analyze"], ["ingest", "--synthetic", "--config"]])
def test_directory_as_a_file_exits_one(tmp_path, capsys, command):
    folder = tmp_path / "folder"
    folder.mkdir()
    assert run([*command, folder, "--out", tmp_path / "o"]) == 1
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: '{folder}'\n"


def test_config_that_is_not_utf8_exits_two(tmp_path, capsys):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xff\xfeseed=1\ncount=5\n")
    assert run(["ingest", "--synthetic", "--config", config, "--out", tmp_path / "o"]) == 2
    assert capsys.readouterr().err == f"error: config file {config} is not UTF-8 text\n"
    assert not (tmp_path / "o").exists()


def test_config_with_a_byte_order_mark_is_read(tmp_path):
    config = tmp_path / "run.cfg"
    config.write_bytes(b"\xef\xbb\xbfseed=5\ncount=40\n")
    assert run(["ingest", "--synthetic", "--config", config, "--out", tmp_path / "o"]) == 0
    assert len((tmp_path / "o" / "ingest-5" / "records.ndjson").read_bytes().splitlines()) == 40


# --- a failing run writes nothing -------------------------------------------------

DAY0 = 1577836800  # 2020-01-01T00:00:00Z


def checkpoint_doc() -> dict:
    """The checkpoint JSON of an untrained W=2, H=2 model, as train would write it."""
    model = init_model(2, seed=0)
    meta = {"subclass": "TotalTraffic", "metric": "count", "granularity": "daily",
            "norm_source": "full_series"}
    config = TrainConfig(window_size=2, hidden_size=2)
    return json.loads(save_checkpoint(model, RmsPropState.zeros_like(model), config, meta))


def first_value_set(doc: dict, group: str, block: str, value: float) -> dict:
    """``doc`` with the first float64 of its ``group`` ``block`` (base64 ``data``) set to ``value``."""
    data = doc[group][block]
    values = np.frombuffer(base64.b64decode(data["data"]), dtype="<f8").copy()
    values[0] = value
    data["data"] = base64.b64encode(values.tobytes()).decode("ascii")
    return doc


def config_set(doc: dict, **values) -> dict:
    """``doc`` with its ``config`` fields ``values`` set."""
    doc["config"].update(values)
    return doc


def write(path: Path, data) -> Path:
    path.write_bytes(data if isinstance(data, bytes) else json.dumps(data).encode())
    return path


def one_day_records(tmp_path) -> Path:
    return write(tmp_path / "one-day.ndjson",
                 as_ndjson(*(record_obj(start=DAY0 + 600 * i, stop=DAY0 + 600 * i + 60)
                             for i in range(5))))


def uneven_days_records(tmp_path) -> Path:
    """40 days of 0-8 records each: a daily count series whose sigma is above 1."""
    return write(tmp_path / "uneven.ndjson",
                 as_ndjson(*(record_obj(start=DAY0 + 86_400 * day + i, stop=DAY0 + 86_400 * day + 60)
                             for day in range(40) for i in range(day * 7 % 9))))


def span_past_float64_checkpoint(tmp_path, records: Path) -> Path:
    """An H=1, W=2 checkpoint whose denormalized predictions on ``records`` are about ±1.1e308.

    Each prediction fits in float64, but the span between them does not. The
    forget gate is shut and the other gates open, so h = tanh(tanh(50 (x - 4.5 / sigma))),
    about ±0.76 as the window's last count is above or below 4.5.
    """
    series, _entry = cli._load_series(str(records), "TotalTraffic", "count")
    sigma = build_windowed(series.values, 2, NormSource.FULL_SERIES).normalization.sigma
    model = LstmParams.zeros(1)
    model.W[:] = [0.0, 0.0, 0.0, 50.0]
    model.b[:] = [20.0, -20.0, 20.0, -50.0 * 4.5 / sigma]
    model.wy[:] = 1.5e308 / sigma
    config = TrainConfig(window_size=2, hidden_size=1)
    return write(tmp_path / "checkpoint.json",
                 save_checkpoint(model, RmsPropState.zeros_like(model), config))


FAILING_RUNS = {
    "ingest not JSON": (2, lambda tmp, records: [
        "ingest", write(tmp / "export.json", b"this is not json")]),
    "ingest not UTF-8": (2, lambda tmp, records: [
        "ingest", write(tmp / "export.json", as_ndjson(record_obj()) + b"\xff\n")]),
    "analyze a directory": (1, lambda tmp, records: ["analyze", tmp]),
    "analyze an absent --year-a": (1, lambda tmp, records: [
        "analyze", records, "--year-a", 1999]),
    "train a missing file": (1, lambda tmp, records: ["train", tmp / "missing.ndjson"]),
    "grid a window too large": (4, lambda tmp, records: [
        "grid", records, "--windows", 4000, "--hiddens", 2, "--epochs", 1]),
    "forecast a corrupt checkpoint": (6, lambda tmp, records: [
        "forecast", write(tmp / "checkpoint.json", b"{truncated"), records]),
    "forecast a checkpoint whose hidden size was edited up": (6, lambda tmp, records: [
        "forecast", write(tmp / "checkpoint.json", config_set(checkpoint_doc(), hidden_size=10**6)),
        records]),
    "forecast a one-day series": (4, lambda tmp, records: [
        "forecast", write(tmp / "checkpoint.json", checkpoint_doc()), one_day_records(tmp)]),
    "forecast a prediction past float64 once multiplied by sigma": (1, lambda tmp, records: [
        "forecast", write(tmp / "checkpoint.json",
                          first_value_set(checkpoint_doc(), "params", "by", 1.7e308)),
        uneven_days_records(tmp)]),
    "forecast predictions that span past float64": (1, lambda tmp, records: [
        "forecast", span_past_float64_checkpoint(tmp, uneven_days_records(tmp)),
        uneven_days_records(tmp)]),
    "ingest a negative seed": (2, lambda tmp, records: ["ingest", "--synthetic", "--seed", -1]),
    "train an infinite learning rate": (2, lambda tmp, records: [
        "train", records, "--learning-rate", "inf", "--window", 2, "--hidden", 2, "--epochs", 1]),
    "train an infinite learning rate from a config": (2, lambda tmp, records: [
        "train", records, "--config", write(tmp / "run.cfg", b"learning_rate=inf\n")]),
    "grid an infinite learning rate from a config": (2, lambda tmp, records: [
        "grid", records, "--config", write(tmp / "run.cfg", b"learning_rate = inf\n")]),
    "train a negative seed": (2, lambda tmp, records: [
        "train", records, "--seed", -1, "--window", 2, "--hidden", 2, "--epochs", 1]),
    "grid a negative seed": (2, lambda tmp, records: [
        "grid", records, "--seed", -1, "--windows", 2, "--hiddens", 2, "--epochs", 1]),
}


@pytest.mark.parametrize("case", sorted(FAILING_RUNS))
def test_failing_run_leaves_no_run_directory(tmp_path, records_file, capsys, case):
    code, args_of_case = FAILING_RUNS[case]
    args = args_of_case(tmp_path, records_file)
    out = tmp_path / "o"
    assert run([*args, "--out", out]) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


@pytest.mark.parametrize("given_as", ["config", "manifest"])
def test_negative_seed_from_config_or_manifest_exits_two(tmp_path, capsys, given_as):
    if given_as == "config":
        config = write(tmp_path / "run.cfg", b"seed=-3\n")
        code = run(["ingest", "--synthetic", "--config", config, "--out", tmp_path / "o"])
    else:
        assert run(["ingest", "--synthetic", "--count", 5, "--out", tmp_path / "a"]) == 0
        manifest = json.loads((tmp_path / "a" / "ingest-0" / "manifest.json").read_text())
        manifest["params"]["seed"] = -3
        code = replay_manifest(write(tmp_path / "manifest.json", manifest), tmp_path / "o")
    assert code == 2
    assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
    assert not (tmp_path / "o").exists()


MALFORMED_CHECKPOINTS = {
    "window_size 2.5": lambda doc: doc["config"].update(window_size=2.5),
    "window_size true": lambda doc: doc["config"].update(window_size=True),
    "hidden_size 2.0": lambda doc: doc["config"].update(hidden_size=2.0),  # the model's own H
    "seed -1": lambda doc: doc["config"].update(seed=-1),
    "meta a list": lambda doc: doc.update(meta=[]),
    "norm_source foo": lambda doc: doc["meta"].update(norm_source="foo"),
    "metric foo": lambda doc: doc["meta"].update(metric="foo"),
    "subclass 5": lambda doc: doc["meta"].update(subclass=5),
    "block data 5": lambda doc: doc["params"]["wi"].update(data=5),
    "block data null": lambda doc: doc["opt_acc"]["by"].update(data=None),
    # json writes 1e999 as Infinity, which reads back as the same float
    "shape entry 1e999": lambda doc: doc["params"]["ui"].update(shape=[1e999, 2]),
    "format_version true": lambda doc: doc.update(format_version=True),
    "format_version 1.0": lambda doc: doc.update(format_version=1.0),
    "epsilon 0": lambda doc: doc["config"].update(epsilon=0.0),
    "epsilon -1e-07": lambda doc: doc["config"].update(epsilon=-1e-7),
    "epsilon NaN": lambda doc: doc["config"].update(epsilon=math.nan),
    "learning_rate inf": lambda doc: doc["config"].update(learning_rate=math.inf),
    "wy NaN": lambda doc: first_value_set(doc, "params", "wy", math.nan),
    "opt_acc by inf": lambda doc: first_value_set(doc, "opt_acc", "by", math.inf),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_CHECKPOINTS))
def test_malformed_checkpoint_exits_six_with_one_line(tmp_path, records_file, capsys, case):
    doc = checkpoint_doc()
    MALFORMED_CHECKPOINTS[case](doc)
    checkpoint = write(tmp_path / "checkpoint.json", doc)
    assert run(["forecast", checkpoint, records_file, "--out", tmp_path / "o"]) == 6
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err


@st.composite
def accepted_record_sets(draw):
    """NDJSON bytes of 1-120 valid records over at most 61 days, and one subclass in them.

    Half the sets give every subclass the same count each day, so its daily
    series is constant; short spans leave a series too short for a window.
    """
    days = draw(st.integers(1, 61))
    subclasses = draw(st.lists(st.sampled_from(list(Subclass)), min_size=1, max_size=3,
                               unique=True))
    if draw(st.booleans()):
        days = min(days, 120 // len(subclasses))
        starts = [DAY0 + day * 86_400 for day in range(days) for _ in subclasses]
        names = [sub.value for _ in range(days) for sub in subclasses]
    else:
        count = draw(st.integers(1, 120))
        starts = draw(st.lists(st.integers(DAY0, DAY0 + days * 86_400 - 1),
                               min_size=count, max_size=count))
        names = draw(st.lists(st.sampled_from([sub.value for sub in subclasses]),
                              min_size=count, max_size=count))
    durations = draw(st.lists(st.integers(0, 7200), min_size=len(starts), max_size=len(starts)))
    records = [record_obj(subclass=name, start=start, stop=start + duration)
               for name, start, duration in zip(names, starts, durations)]
    return as_ndjson(*records), subclasses[0].value


@pytest.fixture(scope="module")
def tiny_checkpoint(tmp_path_factory):
    """A W=2, H=2 checkpoint that every drawn record set is forecast with."""
    records = tmp_path_factory.mktemp("tiny") / "records.ndjson"
    records.write_text(records_to_ndjson(generate_synthetic(SyntheticSpec(record_count=300))))
    out = records.parent / "o"
    assert run(["train", records, "--window", 2, "--hidden", 2, "--epochs", 1,
                "--out", out]) == 0
    return out / "train-0" / "checkpoint.json"


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(drawn=accepted_record_sets())
def test_every_command_ends_in_a_documented_exit_code(tiny_checkpoint, drawn):
    ndjson, subclass = drawn
    documented = readme_exit_codes()
    with tempfile.TemporaryDirectory() as tmp:
        source = Path(tmp) / "export.ndjson"
        source.write_bytes(ndjson)
        out = Path(tmp) / "o"
        assert run(["ingest", source, "--out", out]) == 0
        records = out / "ingest-0" / "records.ndjson"
        series = ["--subclass", subclass, "--epochs", 1, "--out", out]
        for args in (["analyze", records, "--out", out],
                     ["train", records, "--window", 2, "--hidden", 2, *series],
                     ["grid", records, "--windows", "2,3", "--hiddens", "2,3", *series],
                     ["forecast", tiny_checkpoint, records, "--subclass", subclass,
                      "--out", out]):
            stderr = io.StringIO()
            with contextlib.redirect_stderr(stderr), contextlib.redirect_stdout(io.StringIO()):
                code = run(args)
            assert code in documented, (args[0], code)
            if code != 0:
                err = stderr.getvalue()
                assert err.startswith("error: ") and err.count("\n") == 1, (args[0], err)
                assert "Traceback" not in err


# --- output bytes are pinned --------------------------------------------------

# SHA-256 of the files that ingest and analyze write for golden_export(),
# recorded before the CSV writers were merged into one. None of these files
# goes through BLAS, so their bytes do not depend on the machine.
GOLDEN_DIGESTS = {
    "ingest-0/records.ndjson":
        "1197be521808d11a3e50ecbf8860c4095b66ba085971924857c8b3fa9bb2d396",
    "ingest-0/parse_report.json":
        "8fda577276922227b3a586aebabffd65b0c4e5126127fd60e0e34d44275a8ab8",
    "analyze-0/stats.csv":
        "246915548dbeac89c589107d3aa53b2fe1718480da8da674ffc9ba8067759303",
    "analyze-0/histogram.csv":
        "d0619b838404da95688fc30ef7ef2da721e7e77a462db42aa8a9084d41d94ffc",
    "analyze-0/growth.csv":
        "3ce8e694923c8c95571264ae692db3d8643a7c8f2954fe2a2d285b66e0bc6d78",
    "analyze-0/ranking.csv":
        "f276c68ba6e3a99df53d4b5d70b6b31d95763657f23b078f87abbab6e5cb48fb",
}


def golden_export() -> bytes:
    """3,000 seeded synthetic records over 2019-2020, three in 2018, and four malformed lines.

    One malformed line names a subclass that holds a comma, and one is not
    an object. Analyzed with growth from 2018, most growth cells have a zero
    baseline.
    """
    lines = records_to_ndjson(
        generate_synthetic(SyntheticSpec(record_count=3000, seed=12))).splitlines()
    lines[10:10] = [
        "not json",
        "[1, 2]",
        json.dumps(record_obj(subclass="Total,Traffic")),
        json.dumps({"subclass": "ICMP"}),
        *(json.dumps(record_obj(subclass="ICMP", start=1514764800 + 3600 * i,
                                stop=1514764800 + 3600 * i + 600)) for i in range(3)),
    ]
    return ("\n".join(lines) + "\n").encode()


def test_ingest_and_analyze_outputs_match_golden_digests(tmp_path):
    export = write(tmp_path / "export.ndjson", golden_export())
    out = tmp_path / "o"
    assert run(["ingest", export, "--out", out]) == 0
    assert run(["analyze", out / "ingest-0" / "records.ndjson", "--year-a", 2018,
                "--out", out]) == 0
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in GOLDEN_DIGESTS}
    assert digests == GOLDEN_DIGESTS


def test_train_reproduces_the_bench_reference(tmp_path, monkeypatch):
    # The train-ref workload, run in process: a drift at the reference shape
    # shows here before the benchmark's own check sees it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
    import workloads

    export = tmp_path / "export.json"
    workloads.write_export(export, workloads.synthetic(0, workloads.SMALL_RECORDS))
    assert run(["ingest", export, "--out", tmp_path]) == 0
    assert run(["train", tmp_path / "ingest-0" / "records.ndjson",
                "--epochs", workloads.TRAIN_EPOCHS, "--window", workloads.REF_WINDOW,
                "--hidden", workloads.REF_HIDDEN, "--batch-size", workloads.REF_BATCH,
                "--learning-rate", workloads.REF_LR, "--subclass", "TotalTraffic",
                "--metric", "count", "--out", tmp_path]) == 0
    rows = workloads.read_rows(tmp_path / "train-0" / "history.csv")
    history = [[float(row["train_mse"]), float(row["val_mse"])] for row in rows]
    reference = workloads.load_reference("train-ref", 0)["history"]
    assert len(history) == len(reference)
    for got, want in zip(history, reference):
        assert all(map(workloads.close, got, want)), (got, want)


# --- a run directory is whole or absent -------------------------------------------


def tree_bytes(path: Path) -> dict:
    return {entry.name: entry.read_bytes() for entry in sorted(path.iterdir())}


def hidden_entries(out: Path) -> list:
    return [entry.name for entry in out.iterdir() if entry.name.startswith(".")]


@pytest.fixture()
def older_ingest(tmp_path, records_file):
    """The out root of an ingest of ``records_file`` at seed 0, with a stray file in its run."""
    out = tmp_path / "o"
    assert run(["ingest", records_file, "--out", out]) == 0
    (out / "ingest-0" / "stray.txt").write_bytes(b"left by hand\n")
    return out


def other_export(tmp_path) -> Path:
    path = tmp_path / "other.ndjson"
    path.write_text(records_to_ndjson(generate_synthetic(SyntheticSpec(record_count=50, seed=2))))
    return path


@pytest.mark.parametrize(
    "error, code, message",
    [(OSError(28, "No space left on device"), 1, "error: [Errno 28] No space left on device\n"),
     (KeyboardInterrupt(), 130, "error: interrupted\n")],
    ids=["oserror", "interrupt"],
)
def test_a_failed_write_leaves_the_older_run_as_it_was(
    tmp_path, older_ingest, capsys, monkeypatch, error, code, message
):
    older = tree_bytes(older_ingest / "ingest-0")
    opened = []

    def open_failing_second(path, *args, **kwargs):
        opened.append(Path(path).name)
        if len(opened) == 2:
            raise error
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", open_failing_second, raising=False)
    capsys.readouterr()
    assert run(["ingest", other_export(tmp_path), "--out", older_ingest]) == code
    assert capsys.readouterr().err == message
    assert opened == ["records.ndjson", "records.cols"]
    assert tree_bytes(older_ingest / "ingest-0") == older
    assert hidden_entries(older_ingest) == []


def test_a_rerun_holds_exactly_the_new_files(tmp_path, older_ingest):
    export = other_export(tmp_path)
    assert run(["ingest", export, "--out", tmp_path / "fresh"]) == 0
    assert run(["ingest", export, "--out", older_ingest]) == 0
    fresh, rerun = (tree_bytes(out / "ingest-0") for out in (tmp_path / "fresh", older_ingest))
    data = ("records.ndjson", "records.cols", "parse_report.json")
    assert set(rerun) == set(fresh) == {*data, "manifest.json"}
    assert [rerun[name] for name in data] == [fresh[name] for name in data]
    assert json.loads(rerun["manifest.json"])["out_dir"] == str(older_ingest / "ingest-0")
    assert hidden_entries(older_ingest) == []


def test_a_failed_swap_puts_the_older_run_back(tmp_path, older_ingest, monkeypatch, capsys):
    older = tree_bytes(older_ingest / "ingest-0")
    rename = Path.rename

    def rename_failing_the_new_run(self, target):
        if Path(target) == older_ingest / "ingest-0" and not self.name.endswith(".old"):
            raise OSError(28, "No space left on device")
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", rename_failing_the_new_run)
    capsys.readouterr()
    assert run(["ingest", other_export(tmp_path), "--out", older_ingest]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert tree_bytes(older_ingest / "ingest-0") == older
    assert hidden_entries(older_ingest) == []


def assert_published(out: Path, fresh: Path) -> None:
    """``out`` holds the ingest run that ``fresh`` holds, and no hidden entry."""
    published, want = tree_bytes(out / "ingest-0"), tree_bytes(fresh / "ingest-0")
    assert json.loads(published.pop("manifest.json"))["out_dir"] == str(out / "ingest-0")
    assert published == {name: data for name, data in want.items() if name != "manifest.json"}
    assert hidden_entries(out) == []


def test_a_stop_during_the_swap_waits_for_the_removal(tmp_path, older_ingest, monkeypatch, capsys):
    export = other_export(tmp_path)
    assert run(["ingest", export, "--out", tmp_path / "fresh"]) == 0
    rename = Path.rename

    def rename_interrupted(self, target):
        if Path(target) == older_ingest / "ingest-0" and not self.name.endswith(".old"):
            signal.pthread_kill(threading.get_ident(), signal.SIGINT)
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", rename_interrupted)
    capsys.readouterr()
    assert run(["ingest", export, "--out", older_ingest]) == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")
    assert_published(older_ingest, tmp_path / "fresh")


@pytest.mark.parametrize("kind", ["symlink", "dangling symlink", "file"])
def test_whatever_is_at_the_run_path_is_the_older_run(tmp_path, records_file, capsys, kind):
    out, elsewhere = tmp_path / "o", tmp_path / "elsewhere"
    out.mkdir()
    if kind == "file":
        (out / "analyze-0").write_bytes(b"not a run\n")
    else:
        (out / "analyze-0").symlink_to(elsewhere, target_is_directory=True)
    if kind == "symlink":
        elsewhere.mkdir()
        (elsewhere / "kept.txt").write_bytes(b"kept\n")
    assert run(["analyze", records_file, "--out", out]) == 0
    captured = capsys.readouterr()
    assert (captured.out.count("\n"), captured.err) == (1, "")
    run_dir = out / "analyze-0"
    assert run_dir.is_dir() and not run_dir.is_symlink()
    assert (run_dir / "manifest.json").is_file()
    assert hidden_entries(out) == []
    if kind == "symlink":  # replaced, never followed
        assert tree_bytes(elsewhere) == {"kept.txt": b"kept\n"}


def test_a_run_published_during_the_swap_is_the_older_run(tmp_path, older_ingest, monkeypatch):
    run_dir, rename = older_ingest / "ingest-0", Path.rename
    fresh, racer = tmp_path / "fresh", tmp_path / "racer"
    for out in (fresh, racer):
        assert run(["ingest", other_export(tmp_path), "--out", out]) == 0
    (racer / "ingest-0" / "racer.txt").write_bytes(b"the other run\n")
    published = []

    def rename_after_a_racer_publishes(self, target):
        # Between this run's two renames, another run publishes its own at the run path.
        if Path(target) == run_dir and not run_dir.exists() and not published:
            published.append(rename(racer / "ingest-0", run_dir))
        return rename(self, target)

    monkeypatch.setattr(Path, "rename", rename_after_a_racer_publishes)
    assert run(["ingest", other_export(tmp_path), "--out", older_ingest]) == 0
    assert published
    assert_published(older_ingest, fresh)


def test_a_hidden_entry_of_the_run_name_is_left_alone(tmp_path, records_file):
    out = tmp_path / "o"
    # What a killed run whose pid is reused, or a run on another host, leaves.
    stale = out / f".ingest-0.{os.getpid()}"
    stale.mkdir(parents=True)
    (stale / "marker").write_bytes(b"not this run's\n")
    assert run(["ingest", records_file, "--out", out]) == 0
    assert (out / "ingest-0" / "manifest.json").is_file()
    assert hidden_entries(out) == [stale.name]
    assert tree_bytes(stale) == {"marker": b"not this run's\n"}


# Runs ``python -m ddoscast.cli`` with its manifest write stalled, so the test
# can signal the command while it writes its run.
STALLED_WRITE = """
import pathlib, runpy, time

write_text = pathlib.Path.write_text

def stalled_write_text(self, *args, **kwargs):
    if self.name == "manifest.json":
        print("writing", flush=True)
        time.sleep(3600)
    return write_text(self, *args, **kwargs)

pathlib.Path.write_text = stalled_write_text
runpy.run_module("ddoscast.cli", run_name="__main__", alter_sys=True)
"""

WRITE_FLAGS = {
    "ingest": [],
    "analyze": [],
    "train": ["--window", 5, "--hidden", 2, "--epochs", 1],
    "grid": ["--windows", "3,4", "--hiddens", "2", "--epochs", 1],
    "forecast": [],
}


@pytest.mark.parametrize("command", WRITE_FLAGS)
def test_sigterm_while_writing_leaves_the_older_run_as_it_was(tmp_path, records_file, command):
    out = tmp_path / "o"
    checkpoint = tmp_path / "trained" / "train-0" / "checkpoint.json"
    assert run(["train", records_file, *WRITE_FLAGS["train"], "--out", checkpoint.parents[1]]) == 0
    inputs = [checkpoint] if command == "forecast" else []
    args = [str(arg) for arg in [command, *inputs, records_file, *WRITE_FLAGS[command],
                                 "--out", out]]
    assert run(args) == 0
    (out / f"{command}-0" / "stray.txt").write_bytes(b"left by hand\n")  # a re-run drops it
    older = tree_bytes(out / f"{command}-0")
    proc = subprocess.Popen(
        [sys.executable, "-c", STALLED_WRITE, *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
    )
    try:
        assert proc.stdout.readline() == "writing\n", proc.communicate()
        proc.send_signal(signal.SIGTERM)
        _out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert (proc.returncode, err) == (143, "")
    assert tree_bytes(out / f"{command}-0") == older
    assert hidden_entries(out) == []


# Runs ``python -m ddoscast.cli`` with the removal of its hidden sibling
# stalled, so the test can signal the command after it published its run.
STALLED_REMOVAL = """
import runpy, shutil, time

rmtree = shutil.rmtree

def stalled_rmtree(*args, **kwargs):
    print("removing", flush=True)
    time.sleep(2)
    return rmtree(*args, **kwargs)

shutil.rmtree = stalled_rmtree
runpy.run_module("ddoscast.cli", run_name="__main__", alter_sys=True)
"""


def test_sigterm_while_removing_the_older_run_waits_for_the_removal(tmp_path, older_ingest):
    export = other_export(tmp_path)
    assert run(["ingest", export, "--out", tmp_path / "fresh"]) == 0
    proc = subprocess.Popen(
        [sys.executable, "-c", STALLED_REMOVAL, "ingest", str(export), "--out", str(older_ingest)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=cli_env(),
    )
    try:
        assert proc.stdout.readline() == "removing\n", proc.communicate()
        proc.send_signal(signal.SIGTERM)
        _out, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    assert (proc.returncode, err) == (143, "")
    assert_published(older_ingest, tmp_path / "fresh")
