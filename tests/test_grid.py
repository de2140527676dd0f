import csv
import io

import numpy as np
import pytest

from ddoscast.errors import EmptyGridError, InvalidConfigError, SeriesTooShortForWindowError
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
from ddoscast.lstm import TrainConfig


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
        "windows, hiddens", [((), (2,)), ((3,), ()), ((3, 0), (2,)), ((3,), (2, -1))]
    )
    def test_spec_rejects_empty_or_non_positive_sizes(self, windows, hiddens):
        with pytest.raises(InvalidConfigError):
            GridSpec(window_sizes=windows, hidden_sizes=hiddens, base_config=tiny_config())

    def test_cell_seed_is_stable_hash(self):
        assert cell_seed(0, 24, 64) == cell_seed(0, 24, 64)
        assert cell_seed(0, 24, 64) != cell_seed(1, 24, 64)
        assert cell_seed(0, 24, 64) != cell_seed(0, 32, 64)


def planted_result():
    cells = [
        GridCell(window=8, hidden=32, train_mse=1.0, test_mse=0.70, wall_ms=1.0, seed=1),
        GridCell(window=24, hidden=64, train_mse=1.0, test_mse=0.40, wall_ms=1.0, seed=2),
        GridCell(window=32, hidden=128, train_mse=1.0, test_mse=0.55, wall_ms=1.0, seed=3),
    ]
    return GridResult(cells=cells, master_seed=0)


class TestBestConfig:
    def test_single_cell(self):
        result = GridResult(
            cells=[GridCell(8, 32, 1.0, 0.5, 1.0, 7)], master_seed=0
        )
        assert best_config(result) == (8, 32)

    def test_planted_minimum(self):
        assert best_config(planted_result()) == (24, 64)

    def test_tie_prefers_smaller_hidden(self):
        cells = [
            GridCell(window=8, hidden=64, train_mse=1.0, test_mse=0.5, wall_ms=1.0, seed=1),
            GridCell(window=8, hidden=32, train_mse=1.0, test_mse=0.5, wall_ms=1.0, seed=2),
        ]
        assert best_config(GridResult(cells=cells, master_seed=0)) == (8, 32)

    def test_tie_then_smaller_window(self):
        cells = [
            GridCell(window=16, hidden=32, train_mse=1.0, test_mse=0.5, wall_ms=1.0, seed=1),
            GridCell(window=8, hidden=32, train_mse=1.0, test_mse=0.5, wall_ms=1.0, seed=2),
        ]
        assert best_config(GridResult(cells=cells, master_seed=0)) == (8, 32)

    def test_order_invariance(self):
        result = planted_result()
        reversed_result = GridResult(cells=list(reversed(result.cells)), master_seed=0)
        assert best_config(result) == best_config(reversed_result)

    def test_empty_grid(self):
        with pytest.raises(EmptyGridError):
            best_config(GridResult(cells=[], master_seed=0))


class TestRendering:
    def full_result(self):
        cells = [
            GridCell(w, h, train_mse=w / 10.0, test_mse=h / 100.0, wall_ms=1.0, seed=w + h)
            for w in (8, 16, 24, 32)
            for h in (32, 64, 128)
        ]
        return GridResult(cells=cells, master_seed=0)

    def test_table_shape_twelve_cells(self):
        lines = render_grid_table(self.full_result()).strip().split("\n")
        assert len(lines) == 2 + 4  # two header rows, four window rows
        for line in lines[2:]:
            assert len(line.split()) == 1 + 6  # window + 3 hidden sizes * 2 mse

    def test_table_shape_single_cell(self):
        result = GridResult(cells=[GridCell(8, 32, 1.25, 0.5, 1.0, 7)], master_seed=0)
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
        with pytest.raises(EmptyGridError):
            render_grid_table(GridResult(cells=[], master_seed=0))
        with pytest.raises(EmptyGridError):
            grid_to_csv(GridResult(cells=[], master_seed=0))
