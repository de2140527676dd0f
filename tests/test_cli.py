import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import ddoscast
from conftest import (
    as_ndjson,
    child_pids,
    huge_int_line,
    is_running,
    readme_exit_codes,
    record_obj,
)
from ddoscast import cli
from ddoscast.analytics import global_stats, rank_subclasses, ranking_to_csv, stats_to_csv
from ddoscast.cli import _build_parser, _resolve_params, main, replay_manifest
from ddoscast.ingest import (
    MAX_UNIX_SECONDS,
    Subclass,
    SyntheticSpec,
    generate_synthetic,
    parse_records,
    records_to_ndjson,
)
from ddoscast.lstm import TrainConfig, load_checkpoint, save_checkpoint, RmsPropState, init_model
from ddoscast.preprocess import Metric, enrich_all


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

    def test_empty_file_exit_three(self, tmp_path):
        empty = tmp_path / "empty.ndjson"
        empty.write_text("")
        assert run(["analyze", empty, "--out", tmp_path / "o"]) == 3

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

    def test_forecast_outputs(self, tmp_path, records_file):
        ckpt = self.train_small(tmp_path, records_file)
        out = tmp_path / "o"
        assert run(["forecast", ckpt, records_file, "--seed", 4, "--out", out]) == 0
        svg = (out / "forecast-4" / "forecast.svg").read_bytes()
        assert svg.decode().count("<polyline") == 2

        csv_lines = (out / "forecast-4" / "forecast.csv").read_text().strip().split("\n")
        assert csv_lines[0] == "period,actual,predicted"
        # actual column equals the denormalized test targets exactly
        from ddoscast.cli import _load_series
        from ddoscast.windowing import build_windowed

        series, _ = _load_series(str(records_file), "TotalTraffic", "count")
        ds = build_windowed(series.values, 6)
        expected = ds.test.y * ds.normalization.sigma
        actuals = np.array([float(line.split(",")[1]) for line in csv_lines[1:]])
        assert np.array_equal(actuals, expected)
        # periods line up with the test split
        first_period = csv_lines[1].split(",")[0]
        offset = ds.splits.train.size + ds.splits.validation.size + 6
        assert first_period == series.periods[offset]

    def test_version_mismatch_exit_six(self, tmp_path, records_file):
        ckpt = self.train_small(tmp_path, records_file)
        doc = json.loads(ckpt.read_text())
        doc["format_version"] = 12
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert run(["forecast", bad, records_file, "--out", tmp_path / "x"]) == 6

    def test_empty_test_split_exit_three(self, tmp_path, records_file):
        # checkpoint whose window cannot fit in the test split
        config = TrainConfig(window_size=250, hidden_size=2)
        blob = save_checkpoint(
            init_model(2, seed=0), RmsPropState.zeros_like(init_model(2, seed=0)),
            config, {"subclass": "TotalTraffic", "metric": "count"},
        )
        ckpt = tmp_path / "wide.json"
        ckpt.write_bytes(blob)
        code = run(["forecast", ckpt, records_file, "--out", tmp_path / "x"])
        assert code == 3
        assert not (tmp_path / "x" / "forecast-0" / "forecast.svg").exists()


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
    ],
)
def test_bad_hyperparameter_exit_two(tmp_path, records_file, capsys, command, flag, value):
    code = run([command, records_file, flag, value, "--out", tmp_path / "o"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()  # rejected before any work or output


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


# --- records.npz beside ingest's NDJSON ---------------------------------------

SIDECAR_COMMANDS = (
    ("analyze", [], ("stats.csv", "histogram.csv", "growth.csv", "ranking.csv")),
    ("train", ["--window", 5, "--hidden", 2, "--epochs", 2], ("history.csv", "checkpoint.json")),
    ("grid", ["--windows", "3,4", "--hiddens", "2", "--epochs", 1], ("grid_table.txt",)),
    ("forecast", [], ("forecast.csv", "forecast.svg")),
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


def _rewrite_sidecar(path: Path, **changes):
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    arrays.update(changes)
    for name in [name for name, value in arrays.items() if value is None]:
        del arrays[name]
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def _sidecar_state(state: str, ndjson: Path, sidecar: Path, tmp_path: Path) -> None:
    columns = dict(np.load(sidecar))
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
    elif state == "not-a-zip":
        sidecar.write_bytes(b"not a zip file\n")
    elif state == "wrong-dtype":
        _rewrite_sidecar(sidecar, start=columns["start"].astype(np.int32))
    elif state == "wrong-length":
        _rewrite_sidecar(sidecar, stop=columns["stop"][:-1])
    elif state == "missing-array":
        _rewrite_sidecar(sidecar, max_bps=None)
    elif state == "bad-code":
        _rewrite_sidecar(sidecar, subclass=np.full_like(columns["subclass"], 200))
    elif state == "object-array":
        tripwire = np.empty(len(columns["subclass"]), dtype=object)
        tripwire[:] = Tripwire(tmp_path / "unpickled")
        _rewrite_sidecar(sidecar, subclass=tripwire)
    else:
        assert state == "present"


SIDECAR_STATES = ["present", "deleted", "stale-whitespace", "stale-record", "truncated",
                  "not-a-zip", "wrong-dtype", "wrong-length", "missing-array", "bad-code",
                  "object-array"]


@pytest.mark.parametrize("state", SIDECAR_STATES)
def test_sidecar_state_never_changes_outputs(tmp_path, records_file, capsys, state):
    assert run(["ingest", records_file, "--out", tmp_path / "i", "--seed", 1]) == 0
    ndjson = tmp_path / "i" / "ingest-1" / "records.ndjson"
    sidecar = ndjson.with_name("records.npz")
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
    assert sources == {"records.npz" if state == "present" else "parse"}
    assert not (tmp_path / "unpickled").exists()


def test_sidecar_table_equals_parsed_table(tmp_path, records_file):
    from ddoscast.cli import _load_sidecar, sha256_hex
    from ddoscast.ingest import parse_records

    assert run(["ingest", records_file, "--out", tmp_path, "--seed", 1]) == 0
    ndjson = tmp_path / "ingest-1" / "records.ndjson"
    raw = ndjson.read_bytes()
    cached = _load_sidecar(ndjson.with_name("records.npz"), sha256_hex(raw))
    parsed = enrich_all(parse_records(raw)[0])
    assert cached is not None and len(cached) == len(parsed) == 600
    for name in ("subclass", "start", "stop", "max_bps", "duration_min", "max_gbps"):
        got, want = getattr(cached, name), getattr(parsed, name)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert not got.flags.writeable
    assert _load_sidecar(ndjson.with_name("records.npz"), sha256_hex(raw + b"\n")) is None


def test_synthetic_ingest_writes_sidecar(tmp_path):
    assert run(["ingest", "--synthetic", "--count", 50, "--out", tmp_path, "--seed", 2]) == 0
    with np.load(tmp_path / "ingest-2" / "records.npz") as npz:
        assert sorted(npz.files) == ["max_bps", "sha256", "start", "stop", "subclass"]
        assert len(npz["start"]) == 50


@pytest.mark.parametrize("rejected_only", [False, True])
def test_empty_ingest_output_keeps_exit_three(tmp_path, capsys, rejected_only):
    source = tmp_path / "export.ndjson"
    source.write_bytes(as_ndjson(record_obj(subclass="??")) if rejected_only else b"[]")
    assert run(["ingest", source, "--out", tmp_path / "i"]) == 0
    ndjson = tmp_path / "i" / "ingest-0" / "records.ndjson"
    assert ndjson.read_bytes() == b"" and ndjson.with_name("records.npz").exists()
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


def test_replay_of_manifest_without_digests(tmp_path, records_file):
    out = tmp_path / "first"
    assert run(["analyze", records_file, "--out", out, "--seed", 6]) == 0
    manifest = out / "analyze-6" / "manifest.json"
    doc = json.loads(manifest.read_text())
    doc["inputs"] = [str(records_file.resolve())]  # as written before inputs had digests
    manifest.write_text(json.dumps(doc))
    assert replay_manifest(manifest, str(tmp_path / "second")) == 0
    for name in ("stats.csv", "histogram.csv", "growth.csv", "ranking.csv"):
        assert (tmp_path / "second" / "analyze-6" / name).read_bytes() == (
            out / "analyze-6" / name
        ).read_bytes()


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
    cli._write_sidecar(tmp_path / "parsed.npz", parsed, cli.sha256_hex(ndjson))
    assert (out / "records.npz").read_bytes() == (tmp_path / "parsed.npz").read_bytes()


@pytest.mark.parametrize(
    "field, value",
    [("max_bps", -1), ("max_bps", 2**63), ("start", -5), ("stop", MAX_UNIX_SECONDS + 1)],
)
def test_out_of_range_synthetic_draw_exits_two(tmp_path, capsys, monkeypatch, field, value):
    drawn = generate_synthetic(SyntheticSpec(record_count=3, seed=1))
    drawn[1] = dataclasses.replace(drawn[1], **{field: value})
    monkeypatch.setattr(cli, "generate_synthetic", lambda spec: drawn)
    assert run(["ingest", "--synthetic", "--out", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: a synthetic record") and err.count("\n") == 1


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
     ("config=other.cfg", "config line 2: unknown key 'config'")],
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


DAY0 = 1577836800  # 2020-01-01T00:00:00Z


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
