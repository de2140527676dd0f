"""Hyperparameter sweep over window sizes and hidden sizes.

One model per (window, hidden) cell, each trained from its own derived
seed so cells are independent: removing a cell from the spec never changes
another cell's result.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import math
import multiprocessing
import os
import signal
import sys
import threading
import time
from concurrent.futures import FIRST_EXCEPTION, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import astuple, dataclass, fields, replace

import numpy as np

from .analytics import csv_text
from .blas import openblas_threads
from .errors import (
    DivergedNonFiniteError,
    EmptyGridError,
    InvalidConfigError,
    NonFiniteStateError,
    WorkerLostError,
)
from .lstm import TrainConfig, init_model, split_mse, train_epochs
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
    """The cells of a grid run; there is always at least one."""

    cells: list[GridCell]
    master_seed: int

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
    Cells train in a pool of forked worker processes, each running OpenBLAS
    on one thread, and come back in spec order (windows outer, hiddens
    inner). The first cell that raises stops the others and its error is
    raised here; a worker that dies raises WorkerLostError.
    """
    values = series.values if isinstance(series, TimeSeries) else np.asarray(series, np.float64)

    # Every cell would refuse a window that does not fit, but checking here
    # fails before any worker forks, and names the first such window in spec
    # order rather than whichever worker raises first.
    for window in spec.window_sizes:
        check_window_fits(values.size, window)

    keys = [(window, hidden) for window in spec.window_sizes for hidden in spec.hidden_sizes]
    return GridResult(cells=_run_pool(values, spec, keys), master_seed=spec.master_seed)


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


# --- the worker pool ----------------------------------------------------------
#
# Every cell, even of a 1-cell grid, trains in a worker whose OpenBLAS runs
# one thread, so a cell's bits never depend on the core count, the worker
# count or the grid's shape, and two workers' BLAS threads never fight over
# the same CPUs. Workers are forked rather than spawned: they start with
# numpy and ddoscast imported and the series in memory, and a script
# without a __main__ guard is not run again. The fork is safe here because
# ProcessPoolExecutor forks every worker before it starts its own threads,
# and OpenBLAS stops its thread pool before a fork and restarts it on use.


def _worker_count(cells: int) -> int:
    """One worker per usable CPU, but only if every worker can pin BLAS to one thread."""
    if not openblas_threads():
        return 1
    return min(cells, len(os.sched_getaffinity(0)))


_STOP_SIGNALS = {signal.SIGINT, signal.SIGTERM}


@contextlib.contextmanager
def _stop_signals(how: int):
    """Block (SIG_BLOCK) or let in (SIG_UNBLOCK) SIGINT and SIGTERM in this thread."""
    previous = signal.pthread_sigmask(how, _STOP_SIGNALS)
    try:
        yield
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, previous)


_PR_SET_PDEATHSIG = 1


def _die_with_parent(owner_pid: int) -> None:
    """Have the kernel SIGKILL this process when ``owner_pid``, its parent, dies.

    Linux only; elsewhere a no-op. A parent killed outright (SIGKILL, the
    OOM killer) cannot stop its workers, and they would otherwise train on
    under PID 1. The signal follows the thread that forked the worker, not
    the process; every worker is forked by the thread that calls run_grid,
    which outlives the pool.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    if prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0) != 0:
        return
    # The owner may have died between the fork and the prctl call above.
    if os.getppid() != owner_pid:
        os.kill(os.getpid(), signal.SIGKILL)


def _init_worker(owner_pid: int) -> None:
    _die_with_parent(owner_pid)
    # Forked with SIGINT and SIGTERM blocked. A worker leaves SIGINT to the
    # parent, which stops it, and dies at once on SIGTERM.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, _STOP_SIGNALS)
    for _get_threads, set_threads in openblas_threads():
        set_threads(1)


def _exit_on_sigterm(signum, _frame):
    raise SystemExit(128 + signum)


@contextlib.contextmanager
def _sigterm_unwinds():
    """Make SIGTERM raise SystemExit, so the pool's workers are stopped on the way out.

    Only where SIGTERM would otherwise kill the process outright: a handler
    the caller installed, or an ignored signal, is left as it is.
    """
    if (threading.current_thread() is not threading.main_thread()
            or signal.getsignal(signal.SIGTERM) is not signal.SIG_DFL):
        yield
        return
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, signal.SIG_DFL)


def _run_pool(values: np.ndarray, spec: GridSpec, keys: list) -> list[GridCell]:
    """Train the cells ``keys`` in worker processes; cells in the order of ``keys``."""
    # Longest cells first, so the last cell to start is a short one.
    order = sorted(range(len(keys)), key=lambda i: keys[i][0] * keys[i][1], reverse=True)
    # SIGINT and SIGTERM wait while workers are forked and tracked, and again
    # while they are stopped, so an interrupt never strands a worker.
    with _sigterm_unwinds(), _stop_signals(signal.SIG_BLOCK):
        pool = ProcessPoolExecutor(
            _worker_count(len(keys)),
            mp_context=multiprocessing.get_context("fork"),
            initializer=_init_worker,
            initargs=(os.getpid(),),
        )
        try:
            futures = [None] * len(keys)
            for i in order:
                futures[i] = pool.submit(_train_cell, values, spec, *keys[i])
            with _stop_signals(signal.SIG_UNBLOCK):
                wait(futures, return_when=FIRST_EXCEPTION)
            for future in futures:
                if future.done() and future.exception() is not None:
                    raise future.exception()
            return [future.result() for future in futures]
        except BrokenProcessPool:
            raise WorkerLostError(
                "a grid worker process ended abruptly (killed by a signal or out of memory)"
            ) from None
        except BaseException:
            # ProcessPoolExecutor has no public way to stop a busy worker
            # before Python 3.14, so kill each one directly.
            for process in list(pool._processes.values()):
                process.kill()
            raise
        finally:
            pool.shutdown(wait=True, cancel_futures=True)


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
