"""Hyperparameter sweep over window sizes and hidden sizes.

One model per (window, hidden) cell, each trained from its own derived
seed so cells are independent: removing a cell from the spec never changes
another cell's result.
"""

from __future__ import annotations

import csv
import hashlib
import io
import time
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyGridError, InvalidConfigError
from .lstm import TrainConfig, init_model, mse, predict_series, train
from .preprocess import TimeSeries
from .windowing import NormSource, build_windowed, check_window_fits

DEFAULT_WINDOW_SIZES = (8, 16, 24, 32)
DEFAULT_HIDDEN_SIZES = (32, 64, 128)


@dataclass(frozen=True)
class GridSpec:
    window_sizes: tuple[int, ...] = DEFAULT_WINDOW_SIZES
    hidden_sizes: tuple[int, ...] = DEFAULT_HIDDEN_SIZES
    base_config: TrainConfig = TrainConfig(window_size=24, hidden_size=64)
    master_seed: int = 0
    norm_source: NormSource = NormSource.FULL_SERIES

    def __post_init__(self):
        if not self.window_sizes or not self.hidden_sizes:
            raise InvalidConfigError("window_sizes and hidden_sizes must be non-empty")
        if min(self.window_sizes) < 1 or min(self.hidden_sizes) < 1:
            raise InvalidConfigError("window and hidden sizes must be >= 1")


@dataclass(frozen=True)
class GridCell:
    window: int
    hidden: int
    train_mse: float
    test_mse: float
    wall_ms: float
    seed: int


@dataclass
class GridResult:
    cells: list[GridCell]
    master_seed: int
    subclass: str | None = None
    metric: str | None = None


def cell_seed(master_seed: int, window: int, hidden: int) -> int:
    """Stable per-cell seed; survives grid reshaping and process restarts."""
    digest = hashlib.sha256(f"{master_seed}:{window}:{hidden}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_grid(series, spec: GridSpec) -> GridResult:
    """Train one model per grid cell and collect train/test MSE.

    ``series`` is a TimeSeries or a plain value array. Every window size
    must fit in every split with at least one sample (split length >= W+1).
    """
    if isinstance(series, TimeSeries):
        values = series.values
        identity = (series.subclass.value, series.metric.value)
    else:
        values = np.asarray(series, dtype=np.float64)
        identity = (None, None)

    for window in spec.window_sizes:
        check_window_fits(values.size, window)

    cells = []
    for window in spec.window_sizes:
        dataset = build_windowed(values, window, spec.norm_source)
        for hidden in spec.hidden_sizes:
            seed = cell_seed(spec.master_seed, window, hidden)
            config = replace(
                spec.base_config, window_size=window, hidden_size=hidden, seed=seed
            )
            started = time.perf_counter()
            params = init_model(hidden, seed)
            params, history = train(params, dataset, config)
            targets, preds = predict_series(params, dataset, "test")
            wall_ms = (time.perf_counter() - started) * 1000.0
            cells.append(
                GridCell(
                    window=window,
                    hidden=hidden,
                    train_mse=history.train_mse[-1],
                    test_mse=mse(targets, preds),
                    wall_ms=wall_ms,
                    seed=seed,
                )
            )
    return GridResult(
        cells=cells, master_seed=spec.master_seed, subclass=identity[0], metric=identity[1]
    )


def best_config(result: GridResult) -> tuple[int, int]:
    """Lowest test MSE wins; ties prefer the smaller hidden size, then window."""
    if not result.cells:
        raise EmptyGridError("grid has no cells")
    chosen = min(result.cells, key=lambda c: (c.test_mse, c.hidden, c.window))
    return chosen.window, chosen.hidden


def grid_to_csv(result: GridResult) -> str:
    if not result.cells:
        raise EmptyGridError("grid has no cells")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["window", "hidden", "train_mse", "test_mse", "wall_ms", "seed"])
    for cell in sorted(result.cells, key=lambda c: (c.window, c.hidden)):
        writer.writerow(
            [
                cell.window,
                cell.hidden,
                repr(cell.train_mse),
                repr(cell.test_mse),
                repr(cell.wall_ms),
                cell.seed,
            ]
        )
    return buf.getvalue()


def render_grid_table(result: GridResult) -> str:
    """Fixed-width text table: rows are window sizes, column pairs per hidden size."""
    if not result.cells:
        raise EmptyGridError("grid has no cells")
    windows = sorted({c.window for c in result.cells})
    hiddens = sorted({c.hidden for c in result.cells})
    by_key = {(c.window, c.hidden): c for c in result.cells}

    header1 = ["window"] + [f"H={h}" for h in hiddens for _ in (0, 1)]
    header2 = [""] + ["train_mse", "test_mse"] * len(hiddens)
    rows = []
    for w in windows:
        row = [str(w)]
        for h in hiddens:
            cell = by_key.get((w, h))
            if cell is None:
                row += ["-", "-"]
            else:
                row += [f"{cell.train_mse:.4f}", f"{cell.test_mse:.4f}"]
        rows.append(row)

    widths = [
        max(len(col[i]) for col in [header1, header2] + rows)
        for i in range(len(header1))
    ]

    def fmt(row):
        return "  ".join(text.rjust(widths[i]) for i, text in enumerate(row))

    lines = [fmt(header1), fmt(header2)] + [fmt(r) for r in rows]
    return "\n".join(lines) + "\n"
