"""Batch command-line front end: ingest, analyze, train, grid, forecast.

Each command computes its outputs and writes nothing; ``_execute`` then
writes them plus a ``manifest.json`` into ``<out>/<command>-<seed>/``, so a
run that fails leaves no directory behind. The manifest records the fully
resolved parameters, so ``replay_manifest`` reproduces a run (and its
output bytes) from the manifest alone. All randomness flows from ``--seed``.
"""

from __future__ import annotations

import signal
import sys

if __name__ == "__main__":
    # python -m ddoscast.cli: the start-up prologue runs before the imports
    # below; the block at the end hands SIGINT back to _run.
    from .__main__ import prologue

    prologue()

import argparse
import dataclasses
import datetime as dt
import enum
import hashlib
import json
from pathlib import Path

from . import __version__
from .analytics import (
    GrowthDimension,
    csv_text,
    global_stats,
    growth_to_csv,
    histogram_duration,
    histogram_throughput,
    histogram_to_csv,
    rank_subclasses,
    ranking_to_csv,
    stats_to_csv,
    yoy_growth,
)
from .chart import render_line_chart
from .errors import (
    OUT_OF_MEMORY_EXIT_CODE,
    CorruptCheckpointError,
    DdoscastError,
    InputChangedError,
    InvalidConfigError,
    ReplayRefusedError,
)
from .grid import (
    DEFAULT_HIDDEN_SIZES,
    DEFAULT_WINDOW_SIZES,
    GridSpec,
    best_config,
    grid_to_csv,
    render_grid_table,
    run_grid,
)
from .ingest import (
    MAX_UNIX_SECONDS,
    ParseReport,
    RecordColumns,
    Subclass,
    SyntheticSpec,
    _text_of,
    columns_in_bounds,
    generate_synthetic,
    raise_first_rejection,
    records_to_ndjson,
)
from .lstm import (
    RmsPropState,
    TrainConfig,
    init_model,
    load_checkpoint,
    predict_series,
    save_checkpoint,
    train,
)
from .preprocess import Granularity, Metric, aggregate, enrich_all, series_for
from .records import ingest_export, read_records, records_files
from .windowing import NormSource, build_windowed


def sha256_hex(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _input(param: str, path: str, raw: bytes) -> dict:
    """Manifest entry of the input file ``path``, given as parameter ``param``."""
    return {"param": param, "path": str(Path(path).resolve()), "sha256": sha256_hex(raw),
            "bytes": len(raw)}


def _now() -> str:
    return dt.datetime.now(dt.timezone.utc).isoformat()


def _read_records(path: str):
    """The RecordTable of a records file and its manifest entry."""
    raw = Path(path).read_bytes()
    entry = _input("records", path, raw)
    table, entry["read_from"] = read_records(path, raw, entry["sha256"])
    return table, entry


def _subclass_of(name: str) -> Subclass:
    try:
        return Subclass(name.replace(" ", ""))
    except ValueError:
        raise InvalidConfigError(
            f"unknown subclass {name!r}; choose from "
            f"{', '.join(s.value for s in Subclass)}"
        ) from None


def _load_series(records_path: str, subclass: str, metric: str):
    """The daily series of a records file and the file's manifest entry."""
    subclass = _subclass_of(subclass)  # a typo fails before the records are read
    enriched, entry = _read_records(records_path)
    table = aggregate(enriched, Granularity.DAILY)
    return series_for(table, subclass, Metric(metric)), entry


# --- commands ---------------------------------------------------------------
#
# A command computes and returns everything its run writes: the output files
# as an ordered {name: bytes | str | list of byte chunks} mapping, the
# manifest entries of the files it read, and its stdout summary line. It
# creates no directory, writes no file and prints nothing; _execute does that
# once the command returns.


def _date(params: dict, name: str) -> dt.date:
    try:
        return dt.date.fromisoformat(params[name])
    except ValueError:
        raise InvalidConfigError(
            f"{name}: expected a date as YYYY-MM-DD, got {params[name]!r}"
        ) from None


def _synthetic_records(params: dict) -> RecordColumns:
    """Generated records as columns, held to the bounds parsing enforces.

    They are valid by construction, so they are not serialized and parsed
    again; a draw outside the bounds (or beyond int64) is a config error.
    """
    spec = SyntheticSpec(
        record_count=params["count"],
        start_date=_date(params, "start_date"),
        end_date=_date(params, "end_date"),
        seed=params["seed"],
    )
    try:
        records = generate_synthetic(spec)
    except OverflowError:
        records = None
    if records is None or not columns_in_bounds(records.start, records.stop, records.max_bps):
        raise InvalidConfigError(
            "a synthetic record falls outside the bounds parsing enforces "
            f"(0 <= start <= stop <= {MAX_UNIX_SECONDS}, 0 <= max_bps < 2**63)"
        )
    return records


def _cmd_ingest(params: dict):
    if params["synthetic"] and params["input"] is not None:
        raise InvalidConfigError("ingest takes an input file or --synthetic, not both")
    if not params["synthetic"] and params["input"] is None:
        raise InvalidConfigError("ingest needs an input file or --synthetic")
    if params["synthetic"]:
        records = _synthetic_records(params)
        files = records_files([records_to_ndjson(records).encode()], enrich_all(records))
        report = ParseReport(accepted=len(records))
        inputs = []
    else:
        raw = Path(params["input"]).read_bytes()
        inputs = [_input("input", params["input"], raw)]
        raw = _text_of(raw)  # frees the bytes: the workers fork with the decoded text only
        files, report = ingest_export(raw)
        if params["strict"]:
            raise_first_rejection(report)  # before any file is returned, so none is written
    files["parse_report.json"] = json.dumps(dataclasses.asdict(report), indent=2) + "\n"
    return files, inputs, f"ingest: {report.accepted} accepted, {report.rejected} rejected"


def _growth_years(params: dict, enriched) -> tuple[int, int]:
    """Explicit flags win; otherwise compare the two most recent years seen."""
    years = sorted(set(enriched.start_years().tolist()))
    default_a = years[-2] if len(years) > 1 else years[-1]
    year_a = params["year_a"] if params["year_a"] is not None else default_a
    year_b = params["year_b"] if params["year_b"] is not None else years[-1]
    return year_a, year_b


def _cmd_analyze(params: dict):
    enriched, records_input = _read_records(params["records"])
    year_a, year_b = _growth_years(params, enriched)
    files = {
        "stats.csv": stats_to_csv(global_stats(enriched)),
        "histogram.csv": histogram_to_csv(histogram_duration(enriched, per_year=True),
                                          histogram_throughput(enriched, per_year=True)),
        "growth.csv": growth_to_csv(*(yoy_growth(enriched, year_a, year_b, dim)
                                      for dim in GrowthDimension)),
        "ranking.csv": ranking_to_csv(rank_subclasses(enriched, Metric.COUNT)),
    }
    return files, [records_input], f"analyze: {len(enriched)} records, growth {year_a}->{year_b}"


def _cmd_train(params: dict):
    config = TrainConfig(
        window_size=params["window"],
        hidden_size=params["hidden"],
        learning_rate=params["learning_rate"],
        epochs=params["epochs"],
        batch_size=params["batch_size"],
        seed=params["seed"],
    )
    norm = NormSource(params["norm_source"])
    series, records_input = _load_series(params["records"], params["subclass"], params["metric"])
    dataset = build_windowed(series.values, config.window_size, norm)
    model = init_model(config.hidden_size, config.seed)
    model, history = train(model, dataset, config)

    meta = {
        "subclass": series.subclass.value,
        "metric": series.metric.value,
        "granularity": series.granularity.value,
        "norm_source": norm.value,
    }
    files = {
        # training runs to completion per invocation; accumulators restart on resume
        "checkpoint.json": save_checkpoint(model, RmsPropState.zeros_like(model), config, meta),
        "history.csv": csv_text(["epoch", "train_mse", "val_mse"],
                                zip(range(1, config.epochs + 1), history.train_mse,
                                    history.val_mse)),
    }
    summary = (f"train: {config.epochs} epochs, final train_mse={history.train_mse[-1]:.6f} "
               f"val_mse={history.val_mse[-1]:.6f}")
    return files, [records_input], summary


def _cmd_grid(params: dict):
    base = TrainConfig(
        window_size=params["windows"][0],
        hidden_size=params["hiddens"][0],
        learning_rate=params["learning_rate"],
        epochs=params["epochs"],
        batch_size=params["batch_size"],
    )
    spec = GridSpec(
        window_sizes=tuple(params["windows"]),
        hidden_sizes=tuple(params["hiddens"]),
        base_config=base,
        master_seed=params["seed"],
        norm_source=NormSource(params["norm_source"]),
    )
    series, records_input = _load_series(params["records"], params["subclass"], params["metric"])
    result = run_grid(series, spec)
    window, hidden = best_config(result)
    files = {
        "grid.csv": grid_to_csv(result),
        "grid_table.txt": render_grid_table(result)
        + f"\nrecommended: window={window} hidden={hidden}\n",
    }
    summary = f"grid: {len(result.cells)} cells, recommended window={window} hidden={hidden}"
    return files, [records_input], summary


def _checkpoint_meta(meta: dict, key: str, default: enum.Enum) -> str:
    """The checkpoint's ``meta[key]``, a value of ``default``'s Enum; absent gives ``default``."""
    kind = type(default)
    value = meta.get(key, default.value)
    try:
        return kind(value).value
    except (ValueError, TypeError):
        raise CorruptCheckpointError(
            f"checkpoint meta {key} {value!r} is not one of {', '.join(m.value for m in kind)}"
        ) from None


def _cmd_forecast(params: dict):
    raw = Path(params["checkpoint"]).read_bytes()
    model, _opt, config, meta = load_checkpoint(raw)

    # an override is checked as any --subclass/--metric is; a stored value must be valid
    subclass = params["subclass"] or _checkpoint_meta(meta, "subclass", Subclass.TOTAL_TRAFFIC)
    metric = params["metric"] or _checkpoint_meta(meta, "metric", Metric.COUNT)
    norm = NormSource(_checkpoint_meta(meta, "norm_source", NormSource.FULL_SERIES))

    series, records_input = _load_series(params["records"], subclass, metric)
    dataset = build_windowed(series.values, config.window_size, norm)
    targets, preds = predict_series(model, dataset, "test", denormalized=True)

    offset = dataset.splits.train.size + dataset.splits.validation.size + config.window_size
    periods = series.periods[offset : offset + targets.size]

    actual, predicted = targets.tolist(), preds.tolist()
    svg = render_line_chart(
        [actual, predicted],
        ["actual", "predicted"],
        f"{subclass} {metric}: predicted vs actual (test split)",
        x_labels=list(periods),
    )
    files = {
        "forecast.csv": csv_text(["period", "actual", "predicted"],
                                 zip(periods, actual, predicted)),
        "forecast.svg": svg,
    }
    inputs = [_input("checkpoint", params["checkpoint"], raw), records_input]
    return files, inputs, f"forecast: {targets.size} test points"


_DISPATCH = {
    "ingest": _cmd_ingest,
    "analyze": _cmd_analyze,
    "train": _cmd_train,
    "grid": _cmd_grid,
    "forecast": _cmd_forecast,
}


def _execute(command: str, params: dict) -> int:
    """Run ``command``, then write its outputs and manifest and print its summary.

    The run directory is created only after the command has returned, so a
    command that fails or is interrupted leaves none behind.
    """
    if params["seed"] < 0:  # flags, config files and replayed manifests all come here
        raise InvalidConfigError(f"seed must be >= 0, got {params['seed']}")
    started = _now()
    files, inputs, summary = _DISPATCH[command](params)
    out = Path(params["out"]) / f"{command}-{params['seed']}"
    out.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        if not isinstance(data, list):
            data = [data if isinstance(data, bytes) else data.encode()]
        with open(out / name, "wb") as fh:
            fh.writelines(data)
    manifest = {
        "tool": "ddoscast",
        "version": __version__,
        "command": command,
        "params": params,
        "inputs": inputs,
        "seed": params["seed"],
        "out_dir": str(out),
        "started_utc": started,
        "finished_utc": _now(),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    print(f"{summary} -> {out}")
    return 0


def _read_manifest(path):
    """The command, params and inputs of the manifest at ``path``.

    The replay is refused unless the params hold exactly the command's
    settings, each a value of the option's type or None where the option
    may be left unset.
    """
    try:
        doc = json.loads(Path(path).read_bytes())
    except (ValueError, RecursionError):  # not JSON, or not UTF-8 text
        doc = None
    if not isinstance(doc, dict):
        raise ReplayRefusedError(f"replay refused: {path} is not a JSON object")
    command, params, inputs = doc.get("command"), doc.get("params"), doc.get("inputs")
    if not (isinstance(command, str) and command in _COMMANDS):
        raise ReplayRefusedError(f"replay refused: unknown command {command!r}")
    options = _COMMON + _COMMANDS[command][1]
    names = [name for name, _kind, _default, _help in options]
    if isinstance(params, dict) and command != "ingest" and type(params.get("strict")) is bool:
        del params["strict"]  # written when every command took --strict
    if not (isinstance(params, dict) and set(params) == set(names)):
        raise ReplayRefusedError(f"replay refused: {command} params must be {', '.join(names)}")
    for name, kind, default, _help in options:
        # a required positional argument is never unset
        unset_ok = default is None and _POSITIONAL_NARGS.get(name, "?") is not None
        if not (params[name] is None and unset_ok or _holds(kind, params[name])):
            raise ReplayRefusedError(f"replay refused: param {name} cannot be {params[name]!r}")
    if not isinstance(inputs, list):
        raise ReplayRefusedError(f"replay refused: inputs {inputs!r} is not a list")
    return command, params, inputs


def _check_inputs(inputs: list, params: dict) -> None:
    """Raise InputChangedError unless each recorded input still has its SHA-256.

    An entry without a digest (a bare path, as manifests listed inputs before
    they carried digests) cannot be checked, so it refuses the replay too.
    """
    for entry in inputs:
        if not (isinstance(entry, dict) and "param" in entry and "sha256" in entry):
            raise InputChangedError(
                f"replay refused: manifest input {entry!r} has no SHA-256 to check"
            )
        path = params.get(entry["param"]) if isinstance(entry["param"], str) else None
        if not isinstance(path, str):
            raise ReplayRefusedError(f"replay refused: manifest input {entry!r} names no file")
        digest = sha256_hex(Path(path).read_bytes())
        if digest != entry["sha256"]:
            raise InputChangedError(
                f"replay refused: {path} has sha256 {digest}, the manifest recorded "
                f"{entry['sha256']}"
            )


def replay_manifest(manifest_path: str | Path, out_root: str | None = None) -> int:
    """Re-run a recorded invocation; outputs are byte-identical per seed.

    Returns the exit code ``main`` would; a malformed manifest, or an input
    whose bytes changed since the recorded run, refuses the replay with exit
    code 7.
    """

    def replay() -> int:
        command, params, inputs = _read_manifest(manifest_path)
        _check_inputs(inputs, params)
        if out_root is not None:
            params["out"] = str(out_root)
        return _execute(command, params)

    return _run(replay)


# --- argument handling ------------------------------------------------------
#
# Each setting is declared once, as (name, type, default, help). These lists
# build the parser, cast config-file values and resolve the parameters: a
# flag wins over a config value, which wins over the default. The type is
#   - a callable: argparse's type= and the cast of a config value;
#   - bool: a flag that takes no value, and a boolean word in a config file;
#   - an Enum class: its member values are the choices, and params hold the
#     chosen value as a plain string.
# The names in _POSITIONAL_NARGS are positional arguments.

_POSITIONAL_NARGS = {"input": "?", "checkpoint": None, "records": None}
_TRUE_WORDS = ("1", "true", "yes", "on")
_FALSE_WORDS = ("0", "false", "no", "off")


def _as_bool(text: str) -> bool:
    word = text.lower()
    if word not in _TRUE_WORDS + _FALSE_WORDS:
        raise ValueError(f"not a boolean: {text!r}")
    return word in _TRUE_WORDS


def _int_list(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise InvalidConfigError(f"expected a comma-separated list of integers, got {text!r}")
    return values


_RECORDS = ("records", str, None, "records file from ingest")
_COMMON = [
    ("out", str, "out", "output root directory"),
    ("seed", int, 0, "master seed"),
]
_SERIES = [
    _RECORDS,
    ("subclass", str, Subclass.TOTAL_TRAFFIC.value, "attack subclass"),
    ("metric", Metric, Metric.COUNT.value, "series metric"),
]
_FITTING = [
    ("learning_rate", float, TrainConfig.learning_rate, "RMSprop learning rate"),
    ("epochs", int, TrainConfig.epochs, "training epochs"),
    ("batch_size", int, TrainConfig.batch_size, "mini-batch size"),
    ("norm_source", NormSource, NormSource.FULL_SERIES.value, "span that sigma is computed over"),
]
_COMMANDS = {
    "ingest": ("parse or synthesize a record file", [
        ("input", str, None, "attack-record JSON/NDJSON export"),
        ("strict", bool, False, "abort on the first malformed record"),
        ("synthetic", bool, False, "generate records instead of reading a file"),
        ("count", int, 1000, "synthetic record count"),
        ("start_date", str, SyntheticSpec.start_date.isoformat(), "synthetic range start"),
        ("end_date", str, SyntheticSpec.end_date.isoformat(), "synthetic range end"),
    ]),
    "analyze": ("write stats/histogram/growth/ranking CSVs", [
        _RECORDS,
        ("year_a", int, None, "growth baseline year"),
        ("year_b", int, None, "growth comparison year"),
    ]),
    "train": ("train the forecaster on one series", [
        *_SERIES,
        ("window", int, 24, "window size W"),
        ("hidden", int, 64, "hidden size H"),
        *_FITTING,
    ]),
    "grid": ("sweep window and hidden sizes", [
        *_SERIES,
        ("windows", _int_list, list(DEFAULT_WINDOW_SIZES), "comma list of window sizes"),
        ("hiddens", _int_list, list(DEFAULT_HIDDEN_SIZES), "comma list of hidden sizes"),
        *_FITTING,
    ]),
    "forecast": ("predicted-vs-actual CSV and SVG chart", [
        ("checkpoint", str, None, "checkpoint from train"),
        _RECORDS,
        ("subclass", str, None, "override the checkpoint's series subclass"),
        ("metric", Metric, None, "override the checkpoint's series metric"),
    ]),
}


def _add_option(parser: argparse.ArgumentParser, name: str, kind, default, text: str) -> None:
    if default is not None:
        shown = ",".join(map(str, default)) if isinstance(default, list) else default
        text = f"{text} (default: {shown})"
    if name in _POSITIONAL_NARGS:
        parser.add_argument(name, nargs=_POSITIONAL_NARGS[name], help=text)
        return
    if kind is bool:
        how = {"action": "store_const", "const": True}
    elif isinstance(kind, enum.EnumMeta):
        how = {"choices": [member.value for member in kind]}
    else:
        how = {"type": kind}
    parser.add_argument("--" + name.replace("_", "-"), dest=name, help=text, **how)


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for option in _COMMON:
        _add_option(common, *option)
    common.add_argument("--config", help="key=value file mirroring flags; flags win")

    parser = argparse.ArgumentParser(
        prog="ddoscast",
        description="DDoS attack-record statistics and LSTM trend forecasting",
    )
    parser.add_argument("--version", action="version", version=f"ddoscast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in _COMMANDS.items():
        p = sub.add_parser(command, parents=[common], help=summary)
        for option in options:
            _add_option(p, *option)
    return parser


def _holds(kind, value) -> bool:
    """Whether ``value`` is what an option of type ``kind`` resolves to."""
    if isinstance(kind, enum.EnumMeta):
        return value in [member.value for member in kind]
    if kind is _int_list:
        return isinstance(value, list) and bool(value) and all(type(v) is int for v in value)
    return type(value) is kind


def _cast(kind, text: str):
    """A config-file value read as an option of type ``kind``."""
    if kind is bool:
        return _as_bool(text)
    if isinstance(kind, enum.EnumMeta):
        return kind(text).value
    return kind(text)


def _load_config_file(path: str | None) -> dict:
    """The values of a key=value file, each cast to its option's type.

    Every key must be one that some command declares; a key that belongs to
    another command is checked but not used, so one file can serve several.
    """
    if path is None:
        return {}
    kinds = {name: kind for _summary, options in _COMMANDS.values()
             for name, kind, _default, _help in _COMMON + options}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise InvalidConfigError(f"config file {path} is not UTF-8 text") from None
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, equals, text = (part.strip() for part in line.partition("="))
        if not equals:
            raise InvalidConfigError(f"config line {lineno}: expected key=value, got {line!r}")
        if key not in kinds:
            raise InvalidConfigError(f"config line {lineno}: unknown key {key!r}")
        try:
            values[key] = _cast(kinds[key], text)
        except ValueError:
            raise InvalidConfigError(f"config key {key!r}: cannot use value {text!r}") from None
    return values


def _resolve_params(args: argparse.Namespace) -> dict:
    """Flag > config-file value > built-in default."""
    config = _load_config_file(args.config)
    params = {}
    for name, _kind, default, _help in _COMMON + _COMMANDS[args.command][1]:
        flag_value = getattr(args, name)
        params[name] = flag_value if flag_value is not None else config.get(name, default)
    return params


def _run(call) -> int:
    """Exit code of ``call()``; a failure becomes one stderr line.

    A domain error exits with its class's code, a file that cannot be read
    with 1, and a failed allocation (a MemoryError, also one raised in a
    grid or ingest worker) with OUT_OF_MEMORY_EXIT_CODE.
    """
    try:
        return call()
    except DdoscastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print("error: out of memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return OUT_OF_MEMORY_EXIT_CODE
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def main(argv=None) -> int:
    def run() -> int:
        args = _build_parser().parse_args(argv)
        return _execute(args.command, _resolve_params(args))

    return _run(run)


if __name__ == "__main__":
    signal.signal(signal.SIGINT, signal.default_int_handler)
    sys.exit(main())
