"""Batch command-line front end: ingest, analyze, train, grid, forecast.

Every invocation writes its outputs plus a ``manifest.json`` into
``<out>/<command>-<seed>/``. The manifest records the fully resolved
parameters, so ``replay_manifest`` reproduces a run (and its output bytes)
from the manifest alone. All randomness flows from ``--seed``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import enum
import hashlib
import json
import sys
import zipfile
import zlib
from dataclasses import dataclass, asdict
from pathlib import Path

import numpy as np

from . import __version__
from .analytics import (
    GrowthDimension,
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
from .errors import DdoscastError, EmptyDatasetError, InputChangedError, InvalidConfigError
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
    SUBCLASSES,
    ParseReport,
    RecordColumns,
    Subclass,
    SyntheticSpec,
    columns_in_bounds,
    generate_synthetic,
    parse_records,
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
from .preprocess import Granularity, Metric, RecordTable, aggregate, enrich_all, series_for
from .windowing import NormSource, build_windowed, check_window_fits


@dataclass
class RunManifest:
    tool: str
    version: str
    command: str
    params: dict
    inputs: list[dict]
    seed: int
    out_dir: str
    started_utc: str
    finished_utc: str


def sha256_hex(raw: bytes) -> str:
    return hashlib.sha256(raw).hexdigest()


def _input(param: str, path: str, raw: bytes) -> dict:
    """Manifest entry of the input file ``path``, given as parameter ``param``."""
    return {"param": param, "path": str(Path(path).resolve()), "sha256": sha256_hex(raw),
            "bytes": len(raw)}


def _write_manifest(out_dir: Path, command: str, params: dict, inputs: list[dict], started: str):
    manifest = RunManifest(
        tool="ddoscast",
        version=__version__,
        command=command,
        params=params,
        inputs=inputs,
        seed=params["seed"],
        out_dir=str(out_dir),
        started_utc=started,
        finished_utc=dt.datetime.now(dt.timezone.utc).isoformat(),
    )
    (out_dir / "manifest.json").write_text(
        json.dumps(asdict(manifest), indent=2, sort_keys=True) + "\n"
    )


def _now() -> str:
    return dt.datetime.now(dt.timezone.utc).isoformat()


def _out_dir(params: dict, command: str) -> Path:
    out = Path(params["out"]) / f"{command}-{params['seed']}"
    out.mkdir(parents=True, exist_ok=True)
    return out


# --- records.npz: the parsed columns of records.ndjson ------------------------
#
# ingest writes the source columns of the records it accepted next to
# records.ndjson, with the SHA-256 of the NDJSON bytes. Reading a records
# file uses them only when that digest matches the file's bytes and every
# column has the expected dtype, shape and range; otherwise it parses the
# file. The sidecar is a cache: deleting it changes nothing but speed.

SIDECAR_NAME = "records.npz"
_SIDECAR_COLUMNS = {"subclass": np.uint8, "start": np.int64, "stop": np.int64, "max_bps": np.int64}
# What np.load and reading a member raise on a truncated, corrupt or foreign
# file; zipfile raises NotImplementedError for an unknown compression method
# and RuntimeError for an encrypted member.
_UNREADABLE = (OSError, ValueError, EOFError, KeyError, zipfile.BadZipFile, zlib.error,
               NotImplementedError, RuntimeError)


def _write_sidecar(path: Path, records, digest: str) -> None:
    columns = {name: getattr(records, name) for name in _SIDECAR_COLUMNS}
    with open(path, "wb") as fh:
        np.savez(fh, sha256=np.array(digest), **columns)


def _load_sidecar(path: Path, digest: str) -> RecordTable | None:
    """The table cached in ``path`` for records whose bytes hash to ``digest``, or None."""
    try:
        npz = np.load(path, allow_pickle=False)
    except _UNREADABLE:
        return None
    if not isinstance(npz, np.lib.npyio.NpzFile):
        return None
    with npz:
        try:
            if sorted(npz.files) != sorted(["sha256", *_SIDECAR_COLUMNS]):
                return None
            stamp = npz["sha256"]  # read first: a stale file costs no column load
            if stamp.shape != () or stamp.dtype.kind != "U" or str(stamp) != digest:
                return None
            columns = [npz[name] for name in _SIDECAR_COLUMNS]
        except _UNREADABLE:
            return None
    if any(c.dtype != dtype or c.ndim != 1 or c.size != columns[0].size
           for c, dtype in zip(columns, _SIDECAR_COLUMNS.values())):
        return None
    codes, start, stop, max_bps = columns
    if not (np.all(codes < len(SUBCLASSES)) and columns_in_bounds(start, stop, max_bps)):
        return None
    return RecordTable(codes, start, stop, max_bps)


def _read_records(path: str):
    """The RecordTable of a records file and its manifest entry."""
    raw = Path(path).read_bytes()
    if not raw or raw.isspace():
        raise EmptyDatasetError(f"records file {path} is empty")
    entry = _input("records", path, raw)
    enriched = _load_sidecar(Path(path).with_name(SIDECAR_NAME), entry["sha256"])
    entry["read_from"] = "parse" if enriched is None else SIDECAR_NAME
    if enriched is None:
        records, _report = parse_records(raw)
        enriched = enrich_all(records)
    if not enriched:
        raise EmptyDatasetError(f"no valid records in {path}")
    return enriched, entry


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
    if params["count"] < 1:
        raise InvalidConfigError(f"count must be >= 1, got {params['count']}")
    spec = SyntheticSpec(
        record_count=params["count"],
        start_date=_date(params, "start_date"),
        end_date=_date(params, "end_date"),
        seed=params["seed"],
    )
    try:
        records = RecordColumns.of(generate_synthetic(spec))
    except OverflowError:
        records = None
    if records is None or not columns_in_bounds(records.start, records.stop, records.max_bps):
        raise InvalidConfigError(
            "a synthetic record falls outside the bounds parsing enforces "
            f"(0 <= start <= stop <= {MAX_UNIX_SECONDS}, 0 <= max_bps < 2**63)"
        )
    return records


def _cmd_ingest(params: dict) -> int:
    if not params["synthetic"] and params["input"] is None:
        raise InvalidConfigError("ingest needs an input file or --synthetic")
    started = _now()
    out = _out_dir(params, "ingest")
    if params["synthetic"]:
        records = _synthetic_records(params)
        report = ParseReport(accepted=len(records))
        ndjson = records_to_ndjson(records)
        inputs = []
    else:
        raw = Path(params["input"]).read_bytes()
        records, report = parse_records(raw, strict=params["strict"])
        ndjson = records_to_ndjson(records)
        inputs = [_input("input", params["input"], raw)]

    data = ndjson.encode()
    (out / "records.ndjson").write_bytes(data)
    _write_sidecar(out / SIDECAR_NAME, records, sha256_hex(data))
    (out / "parse_report.json").write_text(
        json.dumps(
            {
                "accepted": report.accepted,
                "rejected": report.rejected,
                "rejection_reasons": [list(r) for r in report.rejection_reasons],
            },
            indent=2,
        )
        + "\n"
    )
    _write_manifest(out, "ingest", params, inputs, started)
    print(f"ingest: {report.accepted} accepted, {report.rejected} rejected -> {out}")
    return 0


def _growth_years(params: dict, enriched) -> tuple[int, int]:
    """Explicit flags win; otherwise compare the two most recent years seen."""
    years = sorted(set(enriched.start_years().tolist()))
    default_a = years[-2] if len(years) > 1 else years[-1]
    year_a = params["year_a"] if params["year_a"] is not None else default_a
    year_b = params["year_b"] if params["year_b"] is not None else years[-1]
    return year_a, year_b


def _cmd_analyze(params: dict) -> int:
    started = _now()
    out = _out_dir(params, "analyze")
    enriched, records_input = _read_records(params["records"])

    (out / "stats.csv").write_text(stats_to_csv(global_stats(enriched)))

    dur = histogram_to_csv(histogram_duration(enriched, per_year=True))
    thr = histogram_to_csv(histogram_throughput(enriched, per_year=True))
    body = thr.split("\n", 1)[1]  # shared header
    (out / "histogram.csv").write_text(dur + body)

    year_a, year_b = _growth_years(params, enriched)
    blocks = []
    for dim in GrowthDimension:
        csv_text = growth_to_csv(yoy_growth(enriched, year_a, year_b, dim))
        blocks.append(csv_text if not blocks else csv_text.split("\n", 1)[1])
    (out / "growth.csv").write_text("".join(blocks))

    (out / "ranking.csv").write_text(ranking_to_csv(rank_subclasses(enriched, Metric.COUNT)))

    _write_manifest(out, "analyze", params, [records_input], started)
    print(f"analyze: {len(enriched)} records, growth {year_a}->{year_b} -> {out}")
    return 0


def _history_csv(history) -> str:
    lines = ["epoch,train_mse,val_mse"]
    for epoch, (tr, va) in enumerate(zip(history.train_mse, history.val_mse), start=1):
        lines.append(f"{epoch},{tr!r},{va!r}")
    return "\n".join(lines) + "\n"


def _cmd_train(params: dict) -> int:
    started = _now()
    config = TrainConfig(
        window_size=params["window"],
        hidden_size=params["hidden"],
        learning_rate=params["learning_rate"],
        epochs=params["epochs"],
        batch_size=params["batch_size"],
        seed=params["seed"],
    )
    out = _out_dir(params, "train")
    series, records_input = _load_series(params["records"], params["subclass"], params["metric"])
    check_window_fits(series.values.size, config.window_size)

    norm = NormSource(params["norm_source"])
    dataset = build_windowed(series.values, config.window_size, norm)
    model = init_model(config.hidden_size, config.seed)
    model, history = train(model, dataset, config)

    meta = {
        "subclass": series.subclass.value,
        "metric": series.metric.value,
        "granularity": series.granularity.value,
        "norm_source": norm.value,
    }
    # training runs to completion per invocation; accumulators restart on resume
    (out / "checkpoint.json").write_bytes(
        save_checkpoint(model, RmsPropState.zeros_like(model), config, meta)
    )
    (out / "history.csv").write_text(_history_csv(history))
    _write_manifest(out, "train", params, [records_input], started)
    print(
        f"train: {config.epochs} epochs, final train_mse={history.train_mse[-1]:.6f} "
        f"val_mse={history.val_mse[-1]:.6f} -> {out}"
    )
    return 0


def _cmd_grid(params: dict) -> int:
    started = _now()
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
    out = _out_dir(params, "grid")
    series, records_input = _load_series(params["records"], params["subclass"], params["metric"])
    result = run_grid(series, spec)
    window, hidden = best_config(result)

    (out / "grid.csv").write_text(grid_to_csv(result))
    table = render_grid_table(result)
    (out / "grid_table.txt").write_text(
        table + f"\nrecommended: window={window} hidden={hidden}\n"
    )
    _write_manifest(out, "grid", params, [records_input], started)
    print(f"grid: {len(result.cells)} cells, recommended window={window} hidden={hidden} -> {out}")
    return 0


def _cmd_forecast(params: dict) -> int:
    started = _now()
    out = _out_dir(params, "forecast")
    raw = Path(params["checkpoint"]).read_bytes()
    model, _opt, config, meta = load_checkpoint(raw)

    subclass = params["subclass"] or meta.get("subclass", Subclass.TOTAL_TRAFFIC.value)
    metric = params["metric"] or meta.get("metric", Metric.COUNT.value)
    norm = NormSource(meta.get("norm_source", NormSource.FULL_SERIES.value))

    series, records_input = _load_series(params["records"], subclass, metric)
    dataset = build_windowed(series.values, config.window_size, norm)
    targets, preds = predict_series(model, dataset, "test", denormalized=True)

    offset = dataset.splits.train.size + dataset.splits.validation.size + config.window_size
    periods = series.periods[offset : offset + targets.size]

    lines = ["period,actual,predicted"]
    for period, actual, predicted in zip(periods, targets, preds):
        lines.append(f"{period},{float(actual)!r},{float(predicted)!r}")
    (out / "forecast.csv").write_text("\n".join(lines) + "\n")

    svg = render_line_chart(
        [targets.tolist(), preds.tolist()],
        ["actual", "predicted"],
        f"{subclass} {metric}: predicted vs actual (test split)",
        x_labels=list(periods),
    )
    (out / "forecast.svg").write_bytes(svg)
    inputs = [_input("checkpoint", params["checkpoint"], raw), records_input]
    _write_manifest(out, "forecast", params, inputs, started)
    print(f"forecast: {targets.size} test points -> {out}")
    return 0


_DISPATCH = {
    "ingest": _cmd_ingest,
    "analyze": _cmd_analyze,
    "train": _cmd_train,
    "grid": _cmd_grid,
    "forecast": _cmd_forecast,
}


def _check_inputs(doc: dict, params: dict) -> None:
    """Raise InputChangedError unless each recorded input still has its SHA-256.

    Manifests written before inputs carried digests list bare paths; those
    entries have nothing to check.
    """
    for entry in doc["inputs"]:
        if not isinstance(entry, dict):
            continue
        path = params[entry["param"]]
        digest = sha256_hex(Path(path).read_bytes())
        if digest != entry["sha256"]:
            raise InputChangedError(
                f"replay refused: {path} has sha256 {digest}, the manifest recorded "
                f"{entry['sha256']}"
            )


def replay_manifest(manifest_path: str | Path, out_root: str | None = None) -> int:
    """Re-run a recorded invocation; outputs are byte-identical per seed.

    Returns the exit code ``main`` would; an input whose bytes changed since
    the recorded run refuses the replay with exit code 7.
    """
    doc = json.loads(Path(manifest_path).read_text())
    params = dict(doc["params"])
    if out_root is not None:
        params["out"] = str(out_root)
    return _run(_replay, doc, params)


def _replay(doc: dict, params: dict) -> int:
    _check_inputs(doc, params)
    return _DISPATCH[doc["command"]](params)


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
        ("start_date", str, "2019-01-01", "synthetic range start"),
        ("end_date", str, "2020-12-31", "synthetic range end"),
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


def _run(command, *args) -> int:
    """Exit code of ``command(*args)``; a failure becomes one stderr line.

    A domain error exits with its class's code, a file that cannot be read
    with 1.
    """
    try:
        return command(*args)
    except DdoscastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def _run_args(args: argparse.Namespace) -> int:
    return _DISPATCH[args.command](_resolve_params(args))


def main(argv=None) -> int:
    return _run(_run_args, _build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
