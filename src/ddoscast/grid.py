"""Hyperparameter sweep over window sizes and hidden sizes.

One model per (window, hidden) cell, each trained from its own derived
seed so cells are independent: removing a cell from the spec never changes
another cell's result.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from . import pool
from .analytics import csv_text
from .errors import DivergedNonFiniteError, EmptyGridError, InvalidConfigError, NonFiniteStateError
from .lstm import init_model, split_mse, train_epochs
from .preprocess import TimeSeries
from .settings import DEFAULT_HIDDEN_SIZES, DEFAULT_WINDOW_SIZES, TrainConfig
from .windowing import NormSource, build_windowed, check_window_fits


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
        for name, sizes in (("window", self.window_sizes), ("hidden", self.hidden_sizes)):
            if len(set(sizes)) < len(sizes):
                raise InvalidConfigError(f"{name} sizes must not repeat, got {list(sizes)}")


@dataclass(frozen=True)
class GridCell:
    """One trained cell of the grid.

    ``train_mse`` and ``test_mse`` are the MSEs, in normalized units, of the
    cell's final params over its train and test splits; no earlier epoch is
    scored. ``wall_ms`` is the cell's time in its worker, ``seed`` its
    ``cell_seed``.
    """

    window: int
    hidden: int
    train_mse: float
    test_mse: float
    wall_ms: float
    seed: int


@dataclass
class GridResult:
    """The cells of a grid run; there is always at least one.

    The seed they were trained from is the ``GridSpec``'s.
    """

    cells: list[GridCell]

    def __post_init__(self):
        if not self.cells:
            raise EmptyGridError("grid has no cells")


def cell_seed(master_seed: int, window: int, hidden: int) -> int:
    """Stable per-cell seed; survives grid reshaping and process restarts."""
    digest = hashlib.sha256(f"{master_seed}:{window}:{hidden}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def run_grid(series, spec: GridSpec) -> GridResult:
    """Train one model per grid cell and collect the train and test MSE of its final params.

    A cell trains all its epochs without evaluating them, then predicts its
    train and test splits once each (see ``_train_cell``).
    ``series`` is a TimeSeries or a plain value array. Every window size
    must fit in every split with at least one sample (split length >= W+1).
    Every cell, even of a 1-cell grid, trains in a ``pool`` worker process
    whose OpenBLAS runs one thread, so a cell's bits never depend on the
    core count, the worker count or the grid's shape. Cells come back in
    spec order (windows outer, hiddens inner). The first cell that raises
    stops the others and its error is raised here; a worker that dies
    raises WorkerLostError.
    """
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series, np.float64)

    # Every cell would refuse a window that does not fit, but checking here
    # fails before any worker forks, and names the first such window in spec
    # order rather than whichever worker raises first.
    for window in spec.window_sizes:
        check_window_fits(values.size, window)

    keys = [(window, hidden) for window in spec.window_sizes for hidden in spec.hidden_sizes]
    # Longest cells first, so the last cell to start is a short one.
    order = sorted(range(len(keys)), key=lambda i: keys[i][0] * keys[i][1], reverse=True)
    cells = pool.run_pool(_train_cell, keys, (values, spec), "a grid worker", order)
    return GridResult(cells=cells)


def _train_cell(values: np.ndarray, spec: GridSpec, window: int, hidden: int) -> GridCell:
    """One grid cell, start to finish; ``wall_ms`` is its time in the worker.

    The cell trains its epochs without evaluating any of them, then scores
    the final params once, with one prediction over the train split and one
    over the test split; the validation split is never predicted. Each is a
    call of its own because a product's columns are not bit-stable across
    batch sizes, so ``train_mse`` is bit for bit ``train``'s last
    ``history.train_mse`` and ``test_mse`` is the test MSE of
    ``predict_series``. A forward that overflows, in training or in scoring,
    and a non-finite train MSE raise DivergedNonFiniteError.
    """
    started = time.perf_counter()
    dataset = build_windowed(values, window, spec.norm_source)
    seed = cell_seed(spec.master_seed, window, hidden)
    config = replace(spec.base_config, window_size=window, hidden_size=hidden, seed=seed)
    try:
        for params in train_epochs(init_model(hidden, seed), dataset, config):
            pass  # only the last epoch's params are scored
        train_mse = split_mse(params, dataset, "train")
        test_mse = split_mse(params, dataset, "test")
    except NonFiniteStateError as exc:
        raise DivergedNonFiniteError(str(exc)) from exc
    if not math.isfinite(train_mse):
        raise DivergedNonFiniteError("training loss became non-finite")
    return GridCell(
        window=window,
        hidden=hidden,
        train_mse=train_mse,
        test_mse=test_mse,
        wall_ms=(time.perf_counter() - started) * 1000.0,
        seed=seed,
    )


def best_config(result: GridResult) -> tuple[int, int]:
    """Lowest test MSE wins; ties prefer the smaller hidden size, then window."""
    chosen = min(result.cells, key=lambda c: (c.test_mse, c.hidden, c.window))
    return chosen.window, chosen.hidden


def grid_to_csv(result: GridResult) -> str:
    """One row per cell holding the fields of GridCell, in (window, hidden) order."""
    cells = sorted(result.cells, key=lambda c: (c.window, c.hidden))
    return csv_text([f.name for f in fields(GridCell)], map(astuple, cells))


def render_grid_table(result: GridResult) -> str:
    """Fixed-width text table: rows are window sizes, column pairs per hidden size."""
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
