"""Sweeping window and hidden sizes
===================================

One model per (window, hidden) cell, each with a seed derived from the
master seed, so any sub-grid reproduces the matching cells of the full
grid. The demo uses a reduced grid and few epochs; the full sweep is
windows {8,16,24,32} x hidden {32,64,128} at 100 epochs.
"""

from ddoscast.grid import GridSpec, best_config, render_grid_table, run_grid
from ddoscast.ingest import Subclass, SyntheticSpec, generate_synthetic
from ddoscast.lstm import TrainConfig
from ddoscast.preprocess import Granularity, Metric, aggregate, enrich_all, series_for

records = enrich_all(generate_synthetic(SyntheticSpec(record_count=6000, seed=5)))
series = series_for(
    aggregate(records, Granularity.DAILY), Subclass.TOTAL_TRAFFIC, Metric.COUNT
)

spec = GridSpec(
    window_sizes=(8, 16),
    hidden_sizes=(8, 16, 32),
    base_config=TrainConfig(window_size=8, hidden_size=8, epochs=15),
    master_seed=0,
)
result = run_grid(series, spec)

print(render_grid_table(result))
window, hidden = best_config(result)
print(f"best cell by test MSE (ties prefer the cheaper model): "
      f"window={window} hidden={hidden}")
