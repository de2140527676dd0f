import csv
import faulthandler
import functools
import io
import multiprocessing
import os
import signal
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from ddoscast import blas, grid, lstm, pool
from ddoscast.blas import one_blas_thread
from ddoscast.errors import (
    DivergedNonFiniteError,
    EmptyGridError,
    InvalidConfigError,
    NonFiniteStateError,
    SchemaViolationError,
    SeriesTooShortForWindowError,
    WorkerLostError,
)
from ddoscast.grid import (
    GridCell,
    GridResult,
    GridSpec,
    best_config,
    cell_seed,
    grid_to_csv,
    render_grid_table,
    run_grid,
)
from ddoscast.lstm import TrainConfig, init_model, mse, predict_batch, predict_series, train
from ddoscast.windowing import build_windowed

from conftest import openblas_thread_counts


def tiny_config(epochs=2):
    return TrainConfig(window_size=3, hidden_size=2, epochs=epochs, batch_size=16, seed=0)


def tiny_series(n=120):
    rng = np.random.default_rng(1)
    return 5 + np.sin(np.arange(n) / 4.0) + rng.normal(0, 0.2, n)


def strip_wall(result: GridResult):
    return [(c.window, c.hidden, c.train_mse, c.test_mse, c.seed) for c in result.cells]


class TestRunGrid:
    def test_default_spec_is_twelve_cells(self):
        spec = GridSpec()
        assert len(spec.window_sizes) * len(spec.hidden_sizes) == 12

    def test_single_cell(self):
        spec = GridSpec(window_sizes=(3,), hidden_sizes=(2,), base_config=tiny_config())
        result = run_grid(tiny_series(), spec)
        assert len(result.cells) == 1
        assert result.cells[0].window == 3 and result.cells[0].hidden == 2

    def test_deterministic_per_master_seed(self):
        spec = GridSpec(
            window_sizes=(3, 4), hidden_sizes=(2,), base_config=tiny_config(), master_seed=5
        )
        a = run_grid(tiny_series(), spec)
        b = run_grid(tiny_series(), spec)
        assert strip_wall(a) == strip_wall(b)

    def test_cell_independence_under_reshaping(self):
        full = GridSpec(
            window_sizes=(3, 4), hidden_sizes=(2, 3), base_config=tiny_config(), master_seed=9
        )
        sub = GridSpec(
            window_sizes=(4,), hidden_sizes=(3,), base_config=tiny_config(), master_seed=9
        )
        series = tiny_series()
        full_cells = {(c.window, c.hidden): c for c in run_grid(series, full).cells}
        sub_cell = run_grid(series, sub).cells[0]
        kept = full_cells[(4, 3)]
        assert (kept.train_mse, kept.test_mse, kept.seed) == (
            sub_cell.train_mse,
            sub_cell.test_mse,
            sub_cell.seed,
        )

    def test_series_too_short_names_window(self):
        spec = GridSpec(window_sizes=(3, 50), hidden_sizes=(2,), base_config=tiny_config())
        with pytest.raises(SeriesTooShortForWindowError) as err:
            run_grid(tiny_series(60), spec)
        assert err.value.window == 50

    @pytest.mark.parametrize(
        "windows, hiddens",
        [((), (2,)), ((3,), ()), ((3, 0), (2,)), ((3,), (2, -1)), ((8, 8), (4,)), ((3,), (2, 5, 2))],
    )
    def test_spec_rejects_empty_or_non_positive_sizes(self, windows, hiddens):
        with pytest.raises(InvalidConfigError):
            GridSpec(window_sizes=windows, hidden_sizes=hiddens, base_config=tiny_config())

    def test_cell_seed_is_stable_hash(self):
        assert cell_seed(0, 24, 64) == cell_seed(0, 24, 64)
        assert cell_seed(0, 24, 64) != cell_seed(1, 24, 64)
        assert cell_seed(0, 24, 64) != cell_seed(0, 32, 64)


class TestCellScoring:
    SPEC = GridSpec(
        window_sizes=(3, 6), hidden_sizes=(2, 5), base_config=tiny_config(epochs=3), master_seed=4
    )

    def test_cells_match_train_and_predict_series_bit_for_bit(self):
        series = tiny_series(200)
        for cell in run_grid(series, self.SPEC).cells:
            dataset = build_windowed(series, cell.window, self.SPEC.norm_source)
            config = replace(
                self.SPEC.base_config,
                window_size=cell.window, hidden_size=cell.hidden, seed=cell.seed,
            )
            # a cell's worker runs one BLAS thread
            with one_blas_thread():
                params, history = train(init_model(cell.hidden, cell.seed), dataset, config)
            assert cell.seed == cell_seed(4, cell.window, cell.hidden)
            assert cell.train_mse == history.train_mse[-1]
            assert cell.test_mse == mse(*predict_series(params, dataset, "test"))

    def test_one_prediction_of_the_train_split_and_one_of_the_test_split(self, monkeypatch):
        series = tiny_series(200)
        dataset = build_windowed(series, 3, self.SPEC.norm_source)
        predicted = []

        def counted(params, x):
            predicted.append(x)
            return predict_batch(params, x)

        monkeypatch.setattr(lstm, "predict_batch", counted)
        grid._train_cell(series, self.SPEC, 3, 2)
        assert len(predicted) == 2
        assert np.array_equal(predicted[0], dataset.train.x)
        assert np.array_equal(predicted[1], dataset.test.x)

    @pytest.mark.parametrize("split, outcome", [
        ("train", "overflow"), ("train", "inf mse"), ("test", "overflow"),
    ])
    def test_non_finite_scoring_is_divergence(self, monkeypatch, split, outcome):
        series = tiny_series()
        spec = GridSpec(window_sizes=(3,), hidden_sizes=(2,), base_config=tiny_config())
        n_windows = len(build_windowed(series, 3, spec.norm_source).split(split))

        def planted(params, x):
            if len(x) != n_windows:
                return predict_batch(params, x)
            if outcome == "overflow":
                raise NonFiniteStateError("LSTM state overflowed during forward")
            return np.full(len(x), 1e200)  # finite, but its squared error overflows

        # forked workers inherit the patch
        monkeypatch.setattr(lstm, "predict_batch", planted)
        with pytest.raises(DivergedNonFiniteError) as err:
            run_grid(series, spec)
        assert err.value.exit_code == 5

    def test_validation_split_is_never_predicted(self, monkeypatch):
        series = tiny_series()
        spec = GridSpec(window_sizes=(3,), hidden_sizes=(2,), base_config=tiny_config())
        n_windows = len(build_windowed(series, 3, spec.norm_source).validation)

        def planted(params, x):
            if len(x) == n_windows:
                raise NonFiniteStateError("LSTM state overflowed during forward")
            return predict_batch(params, x)

        monkeypatch.setattr(lstm, "predict_batch", planted)
        assert len(run_grid(series, spec).cells) == 1


# --- the worker pool ----------------------------------------------------------
#
# Stand-ins for grid._train_cell live at module level: the pool pickles the
# function it runs by name, and forked workers find this module imported.

_REAL_TRAIN_CELL = grid._train_cell


def _delayed_cell(delays, values, spec, window, hidden):
    time.sleep(delays[(window, hidden)])
    return _REAL_TRAIN_CELL(values, spec, window, hidden)


def _failing_cell(values, spec, window, hidden):
    if (window, hidden) == (5, 4):
        raise SchemaViolationError(7, "planted failure")
    time.sleep(60)


def _killed_cell(values, spec, window, hidden):
    if (window, hidden) == (5, 4):
        os.kill(os.getpid(), signal.SIGKILL)
    time.sleep(60)


def _interrupting_call(delay):
    time.sleep(delay)
    os.kill(os.getppid(), signal.SIGINT)
    time.sleep(60)


POOL_SPEC = GridSpec(
    window_sizes=(3, 5), hidden_sizes=(2, 4), base_config=tiny_config(), master_seed=3
)


def each_cell_alone(series, spec):
    """Every cell of ``spec`` run as a 1-cell grid of its own, in spec order."""
    return [
        run_grid(series, replace(spec, window_sizes=(w,), hidden_sizes=(h,))).cells[0]
        for w in spec.window_sizes
        for h in spec.hidden_sizes
    ]


class TestPool:
    @pytest.fixture(autouse=True)
    def hang_guard(self):
        # A pool that hangs ends the test run with every thread's traceback.
        faulthandler.dump_traceback_later(120, exit=True)
        yield
        faulthandler.cancel_dump_traceback_later()

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_same_cells_as_each_cell_alone_for_any_worker_count(self, monkeypatch, workers):
        series = tiny_series()
        alone = strip_wall(GridResult(each_cell_alone(series, POOL_SPEC)))
        monkeypatch.setattr(pool, "worker_count", lambda tasks: workers)
        assert strip_wall(run_grid(series, POOL_SPEC)) == alone

    @pytest.mark.parametrize("slow", ["first", "last"])
    def test_same_cells_whatever_the_completion_order(self, monkeypatch, slow):
        series = tiny_series()
        alone = strip_wall(GridResult(each_cell_alone(series, POOL_SPEC)))
        keys = [(w, h) for w in POOL_SPEC.window_sizes for h in POOL_SPEC.hidden_sizes]
        if slow == "last":
            keys.reverse()
        delays = {key: 0.15 * (len(keys) - rank) for rank, key in enumerate(keys)}
        monkeypatch.setattr(grid, "_train_cell", functools.partial(_delayed_cell, delays))
        monkeypatch.setattr(pool, "worker_count", lambda tasks: 2)
        assert strip_wall(run_grid(series, POOL_SPEC)) == alone

    def test_cells_come_back_in_spec_order(self, monkeypatch):
        monkeypatch.setattr(pool, "worker_count", lambda tasks: 2)
        spec = GridSpec(window_sizes=(5, 3, 4), hidden_sizes=(3, 2), base_config=tiny_config(1))
        cells = run_grid(tiny_series(), spec).cells
        assert [(c.window, c.hidden) for c in cells] == [
            (5, 3), (5, 2), (3, 3), (3, 2), (4, 3), (4, 2)
        ]

    def test_failing_cell_stops_the_grid_with_its_error(self, monkeypatch):
        monkeypatch.setattr(grid, "_train_cell", _failing_cell)
        monkeypatch.setattr(pool, "worker_count", lambda tasks: 2)
        started = time.monotonic()
        with pytest.raises(SchemaViolationError) as err:
            run_grid(tiny_series(), POOL_SPEC)
        assert time.monotonic() - started < 30  # the sleeping cells were stopped
        assert (err.value.location, err.value.reason) == (7, "planted failure")
        assert err.value.exit_code == 2

    def test_killed_worker_raises_worker_lost(self, monkeypatch):
        monkeypatch.setattr(grid, "_train_cell", _killed_cell)
        monkeypatch.setattr(pool, "worker_count", lambda tasks: 2)
        started = time.monotonic()
        with pytest.raises(WorkerLostError) as err:
            run_grid(tiny_series(), POOL_SPEC)
        assert time.monotonic() - started < 30
        assert err.value.exit_code == 8

    def test_sigterm_handler_restored(self):
        spec = GridSpec(window_sizes=(3,), hidden_sizes=(2,), base_config=tiny_config(1))
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL
        run_grid(tiny_series(), spec)
        assert signal.getsignal(signal.SIGTERM) is signal.SIG_DFL

        def own_handler(signum, frame):
            pass

        previous = signal.signal(signal.SIGTERM, own_handler)
        try:
            run_grid(tiny_series(), spec)
            assert signal.getsignal(signal.SIGTERM) is own_handler
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_a_stop_signal_is_taken_only_where_run_pool_lets_it_in(self, monkeypatch):
        # Not inside the executor's waits and locks: a handler that raises
        # there can leave a lock held, and a signal that comes just before a
        # wait starts goes unseen until the workers finish.
        monkeypatch.setattr(pool, "worker_count", lambda tasks: 2)
        taken_in = []

        def interrupt(signum, frame):
            while frame.f_code.co_name != "run_pool":  # the calls that run_pool is in
                taken_in.append((os.path.basename(frame.f_code.co_filename), frame.f_code.co_name))
                frame = frame.f_back
            raise KeyboardInterrupt

        previous = signal.signal(signal.SIGINT, interrupt)
        started = time.monotonic()
        try:
            with pytest.raises(KeyboardInterrupt):
                pool.run_pool(_interrupting_call, [(0.5,), (60,)], (), "a test worker")
        finally:
            signal.signal(signal.SIGINT, previous)
        assert taken_in == [("signal.py", "pthread_sigmask"), ("__main__.py", "stop_signals"),
                            ("contextlib.py", "__enter__")]
        assert time.monotonic() - started < 30

    def test_worker_count_is_one_per_cpu_up_to_the_cell_count(self, monkeypatch):
        cpus = len(os.sched_getaffinity(0))
        monkeypatch.setattr(blas, "openblas_threads", lambda: (("a getter", "a setter"),))
        assert pool.worker_count(1) == 1
        assert pool.worker_count(1000) == cpus
        monkeypatch.setattr(blas, "openblas_threads", lambda: ())
        assert pool.worker_count(1000) == 1

    def test_worker_count_without_sched_getaffinity_counts_the_cpus(self, monkeypatch):
        monkeypatch.setattr(blas, "openblas_threads", lambda: (("a getter", "a setter"),))
        monkeypatch.delattr(os, "sched_getaffinity")
        assert pool.worker_count(1000) == os.cpu_count()
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pool.worker_count(1000) == 1

    def test_workers_run_one_blas_thread_and_the_parent_keeps_its_own(self):
        if not blas.openblas_threads():
            pytest.skip("no OpenBLAS thread setter in this numpy build")
        before = openblas_thread_counts()
        context = multiprocessing.get_context("fork")
        with ProcessPoolExecutor(
            1, mp_context=context, initializer=pool._init_worker, initargs=(os.getpid(),)
        ) as executor:
            in_worker = executor.submit(openblas_thread_counts).result(timeout=60)
        assert in_worker == [1] * len(before)
        assert openblas_thread_counts() == before

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="prctl is Linux only")
    def test_worker_forked_after_its_owner_died_kills_itself(self):
        # The owner pid a worker is handed is not its parent's: as if the
        # owner had died between the fork and the worker's prctl call.
        worker = multiprocessing.get_context("fork").Process(
            target=pool._init_worker, args=(-1,)
        )
        worker.start()
        worker.join(timeout=60)
        assert worker.exitcode == -signal.SIGKILL


def planted_result():
    cells = [
        GridCell(window=8, hidden=32, train_mse=1.0, test_mse=0.70, wall_ms=1.0, seed=1),
        GridCell(window=24, hidden=64, train_mse=1.0, test_mse=0.40, wall_ms=1.0, seed=2),
        GridCell(window=32, hidden=128, train_mse=1.0, test_mse=0.55, wall_ms=1.0, seed=3),
    ]
    return GridResult(cells=cells)


class TestBestConfig:
    def test_single_cell(self):
        result = GridResult(cells=[GridCell(8, 32, 1.0, 0.5, 1.0, 7)])
        assert best_config(result) == (8, 32)

    def test_planted_minimum(self):
        assert best_config(planted_result()) == (24, 64)

    def test_tie_prefers_smaller_hidden(self):
        cells = [
            GridCell(window=8, hidden=64, train_mse=1.0, test_mse=0.5, wall_ms=1.0, seed=1),
            GridCell(window=8, hidden=32, train_mse=1.0, test_mse=0.5, wall_ms=1.0, seed=2),
        ]
        assert best_config(GridResult(cells=cells)) == (8, 32)

    def test_tie_then_smaller_window(self):
        cells = [
            GridCell(window=16, hidden=32, train_mse=1.0, test_mse=0.5, wall_ms=1.0, seed=1),
            GridCell(window=8, hidden=32, train_mse=1.0, test_mse=0.5, wall_ms=1.0, seed=2),
        ]
        assert best_config(GridResult(cells=cells)) == (8, 32)

    def test_order_invariance(self):
        result = planted_result()
        reversed_result = GridResult(cells=list(reversed(result.cells)))
        assert best_config(result) == best_config(reversed_result)

    def test_empty_grid(self):
        # a GridResult always has a cell, so best_config and both renderings have one
        with pytest.raises(EmptyGridError):
            GridResult(cells=[])


class TestRendering:
    def full_result(self):
        cells = [
            GridCell(w, h, train_mse=w / 10.0, test_mse=h / 100.0, wall_ms=1.0, seed=w + h)
            for w in (8, 16, 24, 32)
            for h in (32, 64, 128)
        ]
        return GridResult(cells=cells)

    def test_table_shape_twelve_cells(self):
        lines = render_grid_table(self.full_result()).strip().split("\n")
        assert len(lines) == 2 + 4  # two header rows, four window rows
        for line in lines[2:]:
            assert len(line.split()) == 1 + 6  # window + 3 hidden sizes * 2 mse

    def test_table_shape_single_cell(self):
        result = GridResult(cells=[GridCell(8, 32, 1.25, 0.5, 1.0, 7)])
        lines = render_grid_table(result).strip().split("\n")
        assert len(lines) == 3
        assert lines[2].split() == ["8", "1.2500", "0.5000"]

    def test_csv_round_trip(self):
        result = self.full_result()
        reader = csv.DictReader(io.StringIO(grid_to_csv(result)))
        parsed = {
            (int(row["window"]), int(row["hidden"])): (
                float(row["train_mse"]),
                float(row["test_mse"]),
                int(row["seed"]),
            )
            for row in reader
        }
        assert len(parsed) == 12
        for cell in result.cells:
            train, test, seed = parsed[(cell.window, cell.hidden)]
            assert (train, test, seed) == (cell.train_mse, cell.test_mse, cell.seed)

    def test_empty_errors(self):
        # the empty grid is refused when the GridResult is built, before either rendering
        with pytest.raises(EmptyGridError):
            render_grid_table(GridResult(cells=[]))
        with pytest.raises(EmptyGridError):
            grid_to_csv(GridResult(cells=[]))
