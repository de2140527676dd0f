"""Batch command-line front end: ingest, analyze, train, grid, forecast.

Every invocation writes its outputs plus a ``manifest.json`` into
``<out>/<command>-<seed>/``. The manifest records the fully resolved
parameters, so ``replay_manifest`` reproduces a run (and its output bytes)
from the manifest alone. All randomness flows from ``--seed``.
"""

from __future__ import annotations

import argparse
import datetime as dt
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
from .errors import (
    CorruptCheckpointError,
    DdoscastError,
    DivergedNonFiniteError,
    EmptyDatasetError,
    EmptySplitError,
    InputChangedError,
    InvalidConfigError,
    NotJsonError,
    SchemaViolationError,
    SeriesTooShortError,
    SeriesTooShortForWindowError,
    VersionMismatchError,
    WorkerLostError,
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
    SUBCLASSES,
    ParseReport,
    RecordColumns,
    Subclass,
    SyntheticSpec,
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


def _exit_code_for(exc: DdoscastError) -> int:
    if isinstance(exc, (NotJsonError, SchemaViolationError, InvalidConfigError)):
        return 2
    if isinstance(exc, (EmptyDatasetError, EmptySplitError)):
        return 3
    if isinstance(exc, (SeriesTooShortForWindowError, SeriesTooShortError)):
        return 4
    if isinstance(exc, DivergedNonFiniteError):
        return 5
    if isinstance(exc, (VersionMismatchError, CorruptCheckpointError)):
        return 6
    if isinstance(exc, InputChangedError):
        return 7
    if isinstance(exc, WorkerLostError):
        return 8
    return 1


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
    if not (np.all(codes < len(SUBCLASSES)) and np.all(start >= 0) and np.all(start <= stop)
            and np.all(stop <= MAX_UNIX_SECONDS) and np.all(max_bps >= 0)):
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
        raise DdoscastError(
            f"unknown subclass {name!r}; choose from "
            f"{', '.join(s.value for s in Subclass)}"
        ) from None


def _load_series(records_path: str, subclass: str, metric: str):
    """The daily series of a records file and the file's manifest entry."""
    enriched, entry = _read_records(records_path)
    table = aggregate(enriched, Granularity.DAILY)
    return series_for(table, _subclass_of(subclass), Metric(metric)), entry


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
    if records is None or not (
        np.all(records.start >= 0) and np.all(records.start <= records.stop)
        and np.all(records.stop <= MAX_UNIX_SECONDS) and np.all(records.max_bps >= 0)
    ):
        raise InvalidConfigError(
            "a synthetic record falls outside the bounds parsing enforces "
            f"(0 <= start <= stop <= {MAX_UNIX_SECONDS}, 0 <= max_bps < 2**63)"
        )
    return records


def _cmd_ingest(params: dict) -> int:
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


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    values = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DdoscastError(f"config line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        values[key.strip()] = value.strip()
    return values


def _as_bool(text: str) -> bool:
    return text.lower() in ("1", "true", "yes", "on")


def _int_list(text: str) -> list[int]:
    values = [int(part) for part in text.split(",") if part.strip()]
    if not values:
        raise InvalidConfigError(f"expected a comma-separated list of integers, got {text!r}")
    return values


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="output root directory (default: out)")
    common.add_argument("--seed", type=int, help="master seed (default: 0)")
    common.add_argument("--config", help="key=value file mirroring flags; flags win")

    parser = argparse.ArgumentParser(
        prog="ddoscast",
        description="DDoS attack-record statistics and LSTM trend forecasting",
    )
    parser.add_argument("--version", action="version", version=f"ddoscast {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", parents=[common], help="parse or synthesize a record file")
    p.add_argument("input", nargs="?", help="attack-record JSON/NDJSON export")
    p.add_argument("--strict", action="store_const", const=True, default=None,
                   help="abort on the first malformed record")
    p.add_argument("--synthetic", action="store_const", const=True, default=None,
                   help="generate records instead of reading a file")
    p.add_argument("--count", type=int, help="synthetic record count (default: 1000)")
    p.add_argument("--start-date", dest="start_date", help="synthetic range start (default: 2019-01-01)")
    p.add_argument("--end-date", dest="end_date", help="synthetic range end (default: 2020-12-31)")

    p = sub.add_parser("analyze", parents=[common], help="write stats/histogram/growth/ranking CSVs")
    p.add_argument("records", help="records file from ingest")
    p.add_argument("--year-a", dest="year_a", type=int, help="growth baseline year")
    p.add_argument("--year-b", dest="year_b", type=int, help="growth comparison year")

    p = sub.add_parser("train", parents=[common], help="train the forecaster on one series")
    p.add_argument("records", help="records file from ingest")
    p.add_argument("--subclass", help="attack subclass (default: TotalTraffic)")
    p.add_argument("--metric", choices=[m.value for m in Metric], help="series metric (default: count)")
    p.add_argument("--window", type=int, help="window size W (default: 24)")
    p.add_argument("--hidden", type=int, help="hidden size H (default: 64)")
    p.add_argument("--learning-rate", dest="learning_rate", type=float, help="default: 0.0002")
    p.add_argument("--epochs", type=int, help="default: 100")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="default: 32")
    p.add_argument("--norm-source", dest="norm_source",
                   choices=[s.value for s in NormSource], help="default: full_series")

    p = sub.add_parser("grid", parents=[common], help="sweep window and hidden sizes")
    p.add_argument("records", help="records file from ingest")
    p.add_argument("--subclass", help="attack subclass (default: TotalTraffic)")
    p.add_argument("--metric", choices=[m.value for m in Metric], help="series metric (default: count)")
    p.add_argument("--windows", type=_int_list, help="comma list (default: 8,16,24,32)")
    p.add_argument("--hiddens", type=_int_list, help="comma list (default: 32,64,128)")
    p.add_argument("--learning-rate", dest="learning_rate", type=float, help="default: 0.0002")
    p.add_argument("--epochs", type=int, help="default: 100")
    p.add_argument("--batch-size", dest="batch_size", type=int, help="default: 32")
    p.add_argument("--norm-source", dest="norm_source",
                   choices=[s.value for s in NormSource], help="default: full_series")

    p = sub.add_parser("forecast", parents=[common], help="predicted-vs-actual CSV and SVG chart")
    p.add_argument("checkpoint", help="checkpoint from train")
    p.add_argument("records", help="records file from ingest")
    p.add_argument("--subclass", help="override the checkpoint's series subclass")
    p.add_argument("--metric", choices=[m.value for m in Metric],
                   help="override the checkpoint's series metric")

    return parser


_COMMON_DEFAULTS = {"out": ("out", str), "seed": (0, int)}

_COMMAND_DEFAULTS: dict[str, dict] = {
    "ingest": {
        "input": (None, str),
        "strict": (False, _as_bool),
        "synthetic": (False, _as_bool),
        "count": (1000, int),
        "start_date": ("2019-01-01", str),
        "end_date": ("2020-12-31", str),
    },
    "analyze": {"records": (None, str), "year_a": (None, int), "year_b": (None, int)},
    "train": {
        "records": (None, str),
        "subclass": (Subclass.TOTAL_TRAFFIC.value, str),
        "metric": (Metric.COUNT.value, str),
        "window": (24, int),
        "hidden": (64, int),
        "learning_rate": (0.0002, float),
        "epochs": (100, int),
        "batch_size": (32, int),
        "norm_source": (NormSource.FULL_SERIES.value, str),
    },
    "grid": {
        "records": (None, str),
        "subclass": (Subclass.TOTAL_TRAFFIC.value, str),
        "metric": (Metric.COUNT.value, str),
        "windows": (list(DEFAULT_WINDOW_SIZES), _int_list),
        "hiddens": (list(DEFAULT_HIDDEN_SIZES), _int_list),
        "learning_rate": (0.0002, float),
        "epochs": (100, int),
        "batch_size": (32, int),
        "norm_source": (NormSource.FULL_SERIES.value, str),
    },
    "forecast": {
        "checkpoint": (None, str),
        "records": (None, str),
        "subclass": (None, str),
        "metric": (None, str),
    },
}


def _resolve_params(args: argparse.Namespace) -> dict:
    """Flag > config-file value > built-in default."""
    config = _load_config_file(args.config)
    spec = dict(_COMMON_DEFAULTS)
    spec.update(_COMMAND_DEFAULTS[args.command])
    params = {}
    for name, (default, cast) in spec.items():
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            params[name] = flag_value
        elif name in config:
            try:
                params[name] = cast(config[name])
            except ValueError:
                raise InvalidConfigError(
                    f"config key {name!r}: cannot use value {config[name]!r}"
                ) from None
        else:
            params[name] = default
    return params


def _run(command, *args) -> int:
    """Exit code of ``command(*args)``; a domain error becomes one stderr line."""
    try:
        return command(*args)
    except DdoscastError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code_for(exc)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


def _run_args(args: argparse.Namespace) -> int:
    params = _resolve_params(args)
    if args.command == "ingest" and not params["synthetic"] and params["input"] is None:
        print("error: ingest needs an input file or --synthetic", file=sys.stderr)
        return 2
    return _DISPATCH[args.command](params)


def main(argv=None) -> int:
    return _run(_run_args, _build_parser().parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
