"""Traced run: re-drive each CLI command's layer calls with a span around each.

For every command of the workload's operation, the traced run first runs
``ddoscast.cli.main`` in this process without tracing, then re-drives the
same command from the benchmark's own code: it calls each layer's public
functions in the order the CLI calls them, records a span around every call,
writes the same output files and compares them byte for byte with the CLI's
(grid.csv without its wall_ms column). A mismatch fails the operation.

Layers the operation never reaches (analytics on train-ref, say) are then
probed once on the workload's own data, so that every per-layer metric is a
measurement on every workload; the report marks those as probed.

If a public function the re-drive calls no longer exists (or changed its
signature), that command's re-drive stops and the layers it did not reach
are reported as unmeasured; the operation itself still counts.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

from ddoscast import analytics, chart, cli, grid, ingest, lstm, preprocess, windowing
from ddoscast.errors import DdoscastError

from workloads import REF_BATCH, REF_HIDDEN, REF_LR, REF_WINDOW, cli_env

LAYERS = ("ingest", "preprocess", "analytics", "windowing", "lstm", "grid", "chart")
API_DRIFT = (AttributeError, ImportError, TypeError, KeyError)
STARTUP_SAMPLES = 3
PROBE_EPOCHS = 2


class Tracer:
    """Spans kept in memory: name, parent index, start, end (perf_counter s)."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        record = [name, parent, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def durations(self, name: str) -> list[float]:
        return [end - start for n, _, start, end in self.spans if n == name]

    def has(self, name: str) -> bool:
        return any(s[0] == name for s in self.spans)

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def layer_time_under(self, index: int) -> float:
        """Time of the layer spans directly under span ``index``."""
        return sum(
            end - start for n, parent, start, end in self.spans
            if parent == index and n.split(".")[0] in LAYERS
        )


@dataclasses.dataclass
class State:
    """What the re-drive has in hand, for the probes that follow it."""

    export: Path
    enriched: object = None
    series: object = None
    dataset: object = None
    model: object = None
    config: object = None
    blob: bytes | None = None
    targets: object = None
    preds: object = None
    grid_result: object = None


def _params(argv: list[str]) -> dict:
    """The command's parameters exactly as the CLI resolves them."""
    return cli._resolve_params(cli._build_parser().parse_args(argv))


def _cmd_dir(params: dict, command: str, root: Path) -> Path:
    out = root / f"{command}-{params['seed']}"
    out.mkdir(parents=True, exist_ok=True)
    return out


def _parse(t: Tracer, path: str, span: str, strict: bool = False):
    raw = Path(path).read_bytes()
    with t.span(span):
        records, report = ingest.parse_records(raw, strict=strict)
    t.counts.setdefault("ingest.accepted", report.accepted)
    t.counts.setdefault("ingest.rejected", report.rejected)
    return records, report


def _load_enriched(t: Tracer, st: State, path: str) -> None:
    records, _ = _parse(t, path, "ingest.parse_ndjson")
    with t.span("preprocess.enrich"):
        st.enriched = preprocess.enrich_all(records)


def _load_series(t: Tracer, st: State, path: str, subclass: str, metric: str):
    _load_enriched(t, st, path)
    with t.span("preprocess.aggregate_daily"):
        table = preprocess.aggregate(st.enriched, preprocess.Granularity.DAILY)
    t.counts.setdefault("preprocess.cells_daily", len(table.rows))
    with t.span("preprocess.series_for"):
        st.series = preprocess.series_for(
            table, ingest.Subclass(subclass.replace(" ", "")), preprocess.Metric(metric)
        )
    return st.series


def redrive_ingest(t: Tracer, st: State, p: dict, root: Path) -> None:
    out = _cmd_dir(p, "ingest", root)
    records, report = _parse(t, p["input"], "ingest.parse_array", p["strict"])
    with t.span("ingest.serialize"):
        ndjson = ingest.records_to_ndjson(records)
    (out / "records.ndjson").write_text(ndjson)
    (out / "parse_report.json").write_text(json.dumps({
        "accepted": report.accepted,
        "rejected": report.rejected,
        "rejection_reasons": [list(r) for r in report.rejection_reasons],
    }, indent=2) + "\n")


def _analytics(t: Tracer, enriched, year_a=None, year_b=None) -> dict[str, str]:
    """The analyze command's analytics calls; returns its CSV files' text."""
    a = analytics
    files = {}
    with t.span("analytics.global_stats"):
        stats = a.global_stats(enriched)
    with t.span("analytics.csv"):
        files["stats.csv"] = a.stats_to_csv(stats)
    with t.span("analytics.histograms"):
        dur = a.histogram_duration(enriched, per_year=True)
        thr = a.histogram_throughput(enriched, per_year=True)
    with t.span("analytics.csv"):
        files["histogram.csv"] = (
            a.histogram_to_csv(dur) + a.histogram_to_csv(thr).split("\n", 1)[1]
        )
    years = sorted({r.start_time.year for r in enriched})
    year_a = year_a if year_a is not None else (years[-2] if len(years) > 1 else years[-1])
    year_b = year_b if year_b is not None else years[-1]
    with t.span("analytics.growth"):
        reports = [a.yoy_growth(enriched, year_a, year_b, dim) for dim in a.GrowthDimension]
    with t.span("analytics.csv"):
        blocks = [a.growth_to_csv(r) for r in reports]
        files["growth.csv"] = blocks[0] + "".join(b.split("\n", 1)[1] for b in blocks[1:])
    with t.span("analytics.ranking"):
        ranking = a.rank_subclasses(enriched, preprocess.Metric.COUNT)
    with t.span("analytics.csv"):
        files["ranking.csv"] = a.ranking_to_csv(ranking)
    return files


def redrive_analyze(t: Tracer, st: State, p: dict, root: Path) -> None:
    out = _cmd_dir(p, "analyze", root)
    _load_enriched(t, st, p["records"])
    for name, text in _analytics(t, st.enriched, p["year_a"], p["year_b"]).items():
        (out / name).write_text(text)


def redrive_training(t: Tracer, params, dataset, config):
    """lstm.train, call by call: shuffle, forward, backward, clip + RMSprop, eval."""
    train_ws = dataset.train
    n = len(train_ws)
    h = config.hidden_size
    rng = np.random.default_rng(config.seed)
    opt = lstm.RmsPropState.zeros_like(params)
    history = lstm.TrainHistory(train_mse=[], val_mse=[])
    per_sample = 8 * config.window_size * h * h  # one (B,H)x(H,4H) matmul per step
    with t.span("lstm.train"):
        for _epoch in range(config.epochs):
            with t.span("lstm.epoch"):
                perm = rng.permutation(n)
                batches = 0
                for lo in range(0, n, config.batch_size):
                    idx = perm[lo : lo + config.batch_size]
                    with t.span("lstm.forward"):
                        _, cache = lstm.forward_batch(params, train_ws.x[idx])
                    with t.span("lstm.backward"):
                        grads = lstm.backward(params, cache, train_ws.y[idx])
                    with t.span("lstm.update"):
                        clipped = lstm.clip_gradients(grads, config.clip_norm)
                        params, opt = lstm.rmsprop_update(
                            params, clipped, opt, config.learning_rate, config.rho, config.epsilon
                        )
                    t.add("lstm.steps", 1)
                    t.add("lstm.clipped", clipped is not grads)
                    t.add("lstm.flops", 3 * per_sample * idx.size)  # forward + 2 in backward
                    batches += 1
                with t.span("lstm.eval"):
                    epoch_train = lstm.mse(train_ws.y, lstm.predict_batch(params, train_ws.x))
                    if len(dataset.validation) > 0:
                        epoch_val = lstm.mse(
                            dataset.validation.y, lstm.predict_batch(params, dataset.validation.x)
                        )
                    else:
                        epoch_val = math.nan
                t.add("lstm.flops", per_sample * (n + len(dataset.validation)))
            history.train_mse.append(epoch_train)
            history.val_mse.append(epoch_val)
    t.counts["lstm.batches_per_epoch"] = batches
    return params, history


def _history_csv(history) -> str:
    lines = ["epoch,train_mse,val_mse"]
    for epoch, (tr, va) in enumerate(zip(history.train_mse, history.val_mse), start=1):
        lines.append(f"{epoch},{tr!r},{va!r}")
    return "\n".join(lines) + "\n"


def _save_checkpoint(t: Tracer, st: State, meta: dict) -> bytes:
    with t.span("lstm.checkpoint_save"):
        st.blob = lstm.save_checkpoint(
            st.model, lstm.RmsPropState.zeros_like(st.model), st.config, meta
        )
    t.counts["lstm.checkpoint_bytes"] = len(st.blob)
    return st.blob


def redrive_train(t: Tracer, st: State, p: dict, root: Path) -> None:
    out = _cmd_dir(p, "train", root)
    series = _load_series(t, st, p["records"], p["subclass"], p["metric"])
    norm = windowing.NormSource(p["norm_source"])
    with t.span("windowing.build"):
        st.dataset = windowing.build_windowed(series.values, p["window"], norm)
    t.counts.setdefault("windowing.train_samples", len(st.dataset.train))
    st.config = lstm.TrainConfig(
        window_size=p["window"], hidden_size=p["hidden"], learning_rate=p["learning_rate"],
        epochs=p["epochs"], batch_size=p["batch_size"], seed=p["seed"],
    )
    with t.span("lstm.init"):
        model = lstm.init_model(st.config.hidden_size, st.config.seed)
    st.model, history = redrive_training(t, model, st.dataset, st.config)
    meta = {
        "subclass": series.subclass.value,
        "metric": series.metric.value,
        "granularity": series.granularity.value,
        "norm_source": norm.value,
    }
    (out / "checkpoint.json").write_bytes(_save_checkpoint(t, st, meta))
    (out / "history.csv").write_text(_history_csv(history))


def _grid_report(result) -> tuple[str, str]:
    window, hidden = grid.best_config(result)
    table = grid.render_grid_table(result)
    return grid.grid_to_csv(result), table + f"\nrecommended: window={window} hidden={hidden}\n"


def redrive_grid(t: Tracer, st: State, p: dict, root: Path) -> None:
    out = _cmd_dir(p, "grid", root)
    series = _load_series(t, st, p["records"], p["subclass"], p["metric"])
    base = lstm.TrainConfig(
        window_size=p["windows"][0], hidden_size=p["hiddens"][0],
        learning_rate=p["learning_rate"], epochs=p["epochs"], batch_size=p["batch_size"],
    )
    spec = grid.GridSpec(
        window_sizes=tuple(p["windows"]), hidden_sizes=tuple(p["hiddens"]), base_config=base,
        master_seed=p["seed"], norm_source=windowing.NormSource(p["norm_source"]),
    )
    _run_grid(t, st, series, spec)
    with t.span("grid.report"):
        csv_text, table = _grid_report(st.grid_result)
    (out / "grid.csv").write_text(csv_text)
    (out / "grid_table.txt").write_text(table)


def _run_grid(t: Tracer, st: State, series, spec) -> None:
    with t.span("grid.run"):
        st.grid_result = grid.run_grid(series, spec)
    walls = [c.wall_ms / 1000.0 for c in st.grid_result.cells]
    t.counts["grid.cell_s_sum"] = sum(walls)
    t.counts["grid.cell_s_max"] = max(walls)


def redrive_forecast(t: Tracer, st: State, p: dict, root: Path) -> None:
    out = _cmd_dir(p, "forecast", root)
    raw = Path(p["checkpoint"]).read_bytes()
    with t.span("lstm.checkpoint_load"):
        st.model, _opt, st.config, meta = lstm.load_checkpoint(raw)
    subclass = p["subclass"] or meta.get("subclass", ingest.Subclass.TOTAL_TRAFFIC.value)
    metric = p["metric"] or meta.get("metric", preprocess.Metric.COUNT.value)
    norm = windowing.NormSource(meta.get("norm_source", windowing.NormSource.FULL_SERIES.value))
    series = _load_series(t, st, p["records"], subclass, metric)
    with t.span("windowing.build"):
        st.dataset = windowing.build_windowed(series.values, st.config.window_size, norm)
    t.counts.setdefault("windowing.train_samples", len(st.dataset.train))
    with t.span("lstm.predict"):
        st.targets, st.preds = lstm.predict_series(st.model, st.dataset, "test", denormalized=True)
    offset = (st.dataset.splits.train.size + st.dataset.splits.validation.size
              + st.config.window_size)
    periods = series.periods[offset : offset + st.targets.size]
    lines = ["period,actual,predicted"]
    for period, actual, predicted in zip(periods, st.targets, st.preds):
        lines.append(f"{period},{float(actual)!r},{float(predicted)!r}")
    (out / "forecast.csv").write_text("\n".join(lines) + "\n")
    svg = _render(t, st, f"{subclass} {metric}: predicted vs actual (test split)", list(periods))
    (out / "forecast.svg").write_bytes(svg)


def _render(t: Tracer, st: State, title: str, x_labels) -> bytes:
    with t.span("chart.render"):
        svg = chart.render_line_chart(
            [st.targets.tolist(), st.preds.tolist()], ["actual", "predicted"], title,
            x_labels=x_labels,
        )
    t.counts["chart.svg_bytes"] = len(svg)
    return svg


REDRIVE = {
    "ingest": redrive_ingest,
    "analyze": redrive_analyze,
    "train": redrive_train,
    "grid": redrive_grid,
    "forecast": redrive_forecast,
}

# Files each command writes that must match the CLI's byte for byte.
COMPARED = {
    "ingest": ("records.ndjson", "parse_report.json"),
    "analyze": ("stats.csv", "histogram.csv", "growth.csv", "ranking.csv"),
    "train": ("history.csv", "checkpoint.json"),
    "grid": ("grid.csv", "grid_table.txt"),
    "forecast": ("forecast.csv", "forecast.svg"),
}


def _without_wall_ms(text: str) -> str:
    rows = [line.split(",") for line in text.splitlines()]
    if not rows or "wall_ms" not in rows[0]:
        return text
    k = rows[0].index("wall_ms")
    return "\n".join(",".join(r[:k] + r[k + 1:]) for r in rows)


def compare_outputs(command: str, seed: int, cli_root: Path, trace_root: Path) -> list[str]:
    errors = []
    for name in COMPARED[command]:
        a = cli_root / f"{command}-{seed}" / name
        b = trace_root / f"{command}-{seed}" / name
        if not b.exists():
            errors.append(f"re-driven {command} wrote no {name}")
            continue
        left, right = a.read_bytes(), b.read_bytes()
        if name == "grid.csv":
            left = _without_wall_ms(left.decode()).encode()
            right = _without_wall_ms(right.decode()).encode()
        if left != right:
            errors.append(f"re-driven {command} {name} differs from the CLI's")
    return errors


# --- probes: layers the operation never reached ---------------------------


def _probe_ingest(t: Tracer, st: State) -> None:
    records, _ = _parse(t, st.export, "ingest.parse_array")
    with t.span("ingest.serialize"):
        ingest.records_to_ndjson(records)


def _probe_analytics(t: Tracer, st: State) -> None:
    _analytics(t, st.enriched)


def _probe_windowing(t: Tracer, st: State) -> None:
    with t.span("windowing.build"):
        st.dataset = windowing.build_windowed(st.series.values, REF_WINDOW)
    t.counts.setdefault("windowing.train_samples", len(st.dataset.train))


def _probe_training(t: Tracer, st: State) -> None:
    config = lstm.TrainConfig(
        window_size=st.dataset.window_size, hidden_size=REF_HIDDEN, learning_rate=REF_LR,
        epochs=PROBE_EPOCHS, batch_size=REF_BATCH,
    )
    model, _ = redrive_training(t, lstm.init_model(REF_HIDDEN, 0), st.dataset, config)
    if st.model is None:
        st.model, st.config = model, config


def _probe_checkpoint_save(t: Tracer, st: State) -> None:
    _save_checkpoint(t, st, {})


def _probe_checkpoint_load(t: Tracer, st: State) -> None:
    with t.span("lstm.checkpoint_load"):
        lstm.load_checkpoint(st.blob)


def _probe_predict(t: Tracer, st: State) -> None:
    with t.span("lstm.predict"):
        st.targets, st.preds = lstm.predict_series(st.model, st.dataset, "test", denormalized=True)


def _probe_chart(t: Tracer, st: State) -> None:
    _render(t, st, "predicted vs actual (test split)", None)


def _probe_grid(t: Tracer, st: State) -> None:
    base = lstm.TrainConfig(window_size=REF_WINDOW, hidden_size=REF_HIDDEN, epochs=1)
    _run_grid(t, st, st.series, grid.GridSpec((REF_WINDOW,), (REF_HIDDEN,), base_config=base))


# (span whose absence triggers the probe, probe), in pipeline order.
PROBES = (
    ("ingest.parse_array", _probe_ingest),
    ("analytics.global_stats", _probe_analytics),
    ("windowing.build", _probe_windowing),
    ("lstm.forward", _probe_training),
    ("lstm.checkpoint_save", _probe_checkpoint_save),
    ("lstm.checkpoint_load", _probe_checkpoint_load),
    ("lstm.predict", _probe_predict),
    ("chart.render", _probe_chart),
    ("grid.run", _probe_grid),
)


def cli_startup_s() -> list[float]:
    """Fresh-process ``import ddoscast.cli``, as every command pays it."""
    walls = []
    for _ in range(STARTUP_SAMPLES):
        started = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import ddoscast.cli"], env=cli_env(), check=True)
        walls.append(time.perf_counter() - started)
    return walls


def _median_ms(t: Tracer, name: str):
    values = t.durations(name)
    return statistics.median(values) * 1000.0 if values else None


def layer_metrics(t: Tracer) -> dict[str, tuple[float | None, str]]:
    """Per-layer metric name -> (value or None when unmeasured, unit)."""
    c = t.counts

    def total(name):
        return t.total(name) if t.has(name) else None

    def ms(name):
        return t.total(name) * 1000.0 if t.has(name) else None

    busy = sum(t.total(n) for n in ("lstm.forward", "lstm.backward", "lstm.update", "lstm.eval"))
    run_s = total("grid.run")
    return {
        "ingest.parse_array_s": (total("ingest.parse_array"), "s"),
        "ingest.parse_ndjson_s": (total("ingest.parse_ndjson"), "s"),
        "ingest.serialize_s": (total("ingest.serialize"), "s"),
        "ingest.accepted": (c.get("ingest.accepted"), "count"),
        "ingest.rejected": (c.get("ingest.rejected"), "count"),
        "preprocess.enrich_s": (total("preprocess.enrich"), "s"),
        "preprocess.aggregate_daily_s": (total("preprocess.aggregate_daily"), "s"),
        "preprocess.series_for_s": (total("preprocess.series_for"), "s"),
        "preprocess.cells_daily": (c.get("preprocess.cells_daily"), "count"),
        "analytics.global_stats_s": (total("analytics.global_stats"), "s"),
        "analytics.histograms_s": (total("analytics.histograms"), "s"),
        "analytics.growth_s": (total("analytics.growth"), "s"),
        "analytics.ranking_s": (total("analytics.ranking"), "s"),
        "analytics.csv_s": (total("analytics.csv"), "s"),
        "windowing.build_s": (total("windowing.build"), "s"),
        "windowing.train_samples": (c.get("windowing.train_samples"), "count"),
        "lstm.forward_ms": (_median_ms(t, "lstm.forward"), "ms"),
        "lstm.backward_ms": (_median_ms(t, "lstm.backward"), "ms"),
        "lstm.update_ms": (_median_ms(t, "lstm.update"), "ms"),
        "lstm.eval_ms": (_median_ms(t, "lstm.eval"), "ms"),
        "lstm.epoch_ms": (_median_ms(t, "lstm.epoch"), "ms"),
        "lstm.batches_per_epoch": (c.get("lstm.batches_per_epoch"), "count"),
        "lstm.clipped_share": (
            c["lstm.clipped"] / c["lstm.steps"] if c.get("lstm.steps") else None, "ratio"),
        "lstm.gflops": (c["lstm.flops"] / busy / 1e9 if busy else None, "GFLOP/s"),
        "lstm.checkpoint_save_ms": (ms("lstm.checkpoint_save"), "ms"),
        "lstm.checkpoint_load_ms": (ms("lstm.checkpoint_load"), "ms"),
        "lstm.checkpoint_bytes": (c.get("lstm.checkpoint_bytes"), "bytes"),
        "lstm.predict_ms": (ms("lstm.predict"), "ms"),
        "grid.run_s": (run_s, "s"),
        "grid.cell_s_sum": (c.get("grid.cell_s_sum"), "s"),
        "grid.cell_s_max": (c.get("grid.cell_s_max"), "s"),
        "grid.parallelism": (c["grid.cell_s_sum"] / run_s if run_s else None, "ratio"),
        "chart.render_ms": (ms("chart.render"), "ms"),
        "chart.svg_bytes": (c.get("chart.svg_bytes"), "bytes"),
    }


def run_traced(workload) -> dict:
    """One traced operation: per command, the traced re-drive, then CLI main().

    The re-drive goes first, so warm-up in this process (heap growth, first
    calls) falls on it: trace.overhead_s errs high, never low.
    """
    t = Tracer()
    st = State(export=workload.inputs / "export.json")
    cli_root, trace_root = workload.out, workload.work / "trace"
    errors, unmeasured, per_command = [], [], {}
    for argv in workload.commands():
        command = argv[0]
        index = len(t.spans)
        try:
            params = _params(argv)
            params["out"] = str(trace_root)
            with t.span(f"cmd.{command}"):
                REDRIVE[command](t, st, params, trace_root)
        except API_DRIFT:
            unmeasured.append(f"{command}: {traceback.format_exc(limit=1).splitlines()[-1]}")
            index = None
        except DdoscastError as exc:
            errors.append(f"re-driven {command} raised {type(exc).__name__}: {exc}")
            index = None
        started = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        main_s = time.perf_counter() - started
        if code != 0:
            errors.append(f"in-process {command} exited {code}")
            break
        if index is None:
            continue
        redrive_s = t.spans[index][3] - t.spans[index][2]
        per_command[command] = {
            "main_s": main_s,
            "redrive_s": redrive_s,
            "overhead_s": redrive_s - t.layer_time_under(index),
        }
        errors += compare_outputs(command, workload.seed, cli_root, trace_root)
    check = workload.check() if not errors else None

    probed = []
    for trigger, probe in PROBES:
        if t.has(trigger):
            continue
        mark = len(t.spans)
        try:
            probe(t, st)
        except API_DRIFT + (DdoscastError,):
            unmeasured.append(f"probe {trigger}: {traceback.format_exc(limit=1).splitlines()[-1]}")
        probed += sorted({s[0] for s in t.spans[mark:]})

    metrics = layer_metrics(t)
    startup = cli_startup_s()
    metrics["cli.startup_s"] = (statistics.median(startup), "s")
    if per_command:
        metrics["cli.overhead_s"] = (sum(c["overhead_s"] for c in per_command.values()), "s")
        metrics["trace.overhead_s"] = (
            sum(c["redrive_s"] - c["main_s"] for c in per_command.values()), "s")
    return {
        "errors": errors + (check.errors if check else []),
        "metrics": metrics,
        "per_command": per_command,
        "probed": probed,
        "unmeasured": unmeasured,
        "startup_samples": startup,
    }
