"""Training the LSTM forecaster on a daily attack-count series
==============================================================

End-to-end library usage: records -> daily per-subclass series ->
normalized sliding windows -> train -> predicted-vs-actual chart.

The demo keeps the model small (H=16, 25 epochs) so it finishes in a few
seconds; the production defaults are window 24, 64 hidden units and 100
epochs.
"""

from pathlib import Path

from ddoscast.chart import render_line_chart
from ddoscast.ingest import Subclass, SyntheticSpec, generate_synthetic
from ddoscast.lstm import TrainConfig, init_model, mse, predict_series, train
from ddoscast.preprocess import Granularity, Metric, aggregate, enrich_all, series_for
from ddoscast.windowing import build_windowed

# 1. Records to a dense daily series (attack-free days become 0.0).
records = enrich_all(generate_synthetic(SyntheticSpec(record_count=6000, seed=5)))
table = aggregate(records, Granularity.DAILY)
series = series_for(table, Subclass.TOTAL_TRAFFIC, Metric.COUNT)
print(f"daily series: {len(series.periods)} days, "
      f"{series.periods[0]} .. {series.periods[-1]}")

# 2. Normalize by the sample standard deviation, split 50/20/30 in time
#    order, and window each split separately.
window = 16
dataset = build_windowed(series.values, window)
print(f"sigma={dataset.normalization.sigma:.3f}  "
      f"samples: train={len(dataset.train)} val={len(dataset.validation)} "
      f"test={len(dataset.test)}")

# 3. Train. Everything is seeded, so reruns reproduce the history exactly.
config = TrainConfig(window_size=window, hidden_size=16, epochs=25, seed=1)
params, history = train(init_model(16, seed=1), dataset, config)
print(f"train MSE: epoch 1 = {history.train_mse[0]:.4f}, "
      f"epoch {len(history.train_mse)} = {history.train_mse[-1]:.4f}")

# 4. One-step-ahead predictions over the held-out test split, compared
#    against a naive previous-value baseline.
targets, predictions = predict_series(params, dataset, "test")
baseline = mse(dataset.test.y, dataset.test.x[:, -1])
print(f"test MSE: model = {mse(targets, predictions):.4f}, "
      f"previous-value baseline = {baseline:.4f}")

# 5. Chart the denormalized comparison.
targets_raw, predictions_raw = predict_series(params, dataset, "test", denormalized=True)
periods = list(series.periods[-targets_raw.size:])  # the test targets end the series
svg = render_line_chart(
    [targets_raw.tolist(), predictions_raw.tolist()],
    ["actual", "predicted"],
    "TotalTraffic daily count: predicted vs actual (test split)",
    x_labels=periods,
)
out = Path("out/demo-forecast.svg")
out.parent.mkdir(exist_ok=True)
out.write_bytes(svg)
print(f"wrote {out}")
