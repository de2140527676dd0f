"""Acceptance gate: one test per release criterion, stated tolerances pinned.

Each test prints a single PASS line when its criterion holds. Criterion 8
(real-export reproduction) only runs when the environment variable
DDOSCAST_REAL_DATA points at the real attacks_v2.json download; it is
skipped otherwise.
"""

import os
import statistics

import numpy as np
import pytest

from conftest import as_ndjson
from ddoscast.analytics import GrowthDimension, global_stats, rank_subclasses, yoy_growth
from ddoscast.cli import main
from ddoscast.ingest import (
    AttackClass,
    AttackRecord,
    Subclass,
    SyntheticSpec,
    generate_synthetic,
    parse_records,
)
from ddoscast.lstm import TrainConfig, init_model, mse, predict_series, train
from ddoscast.preprocess import Granularity, Metric, aggregate, enrich_all
from ddoscast.windowing import build_windowed, make_windows, split, std_dev
from test_lstm import finite_difference_check
from test_preprocess import brute_force_cells


def ok(n: int, name: str):
    print(f"criterion {n} ({name}): PASS", flush=True)


def test_criterion_1_stddev_exactness():
    assert abs(std_dev([1, 2, 3]) - 1.0) < 1e-12

    rng = np.random.default_rng(1001)
    values = rng.normal(250.0, 40.0, size=1000)
    mu = sum(values) / len(values)            # independent two-pass oracle
    oracle = (sum((v - mu) ** 2 for v in values) / (len(values) - 1)) ** 0.5
    assert abs(std_dev(values) - oracle) / oracle < 1e-12
    ok(1, "normalization std-dev exactness")


def test_criterion_2_mse_exactness():
    assert abs(mse([1.0, 2.0], [1.0, 3.0]) - 0.5) < 1e-15

    rng = np.random.default_rng(1002)
    y = rng.normal(size=100)
    yhat = rng.normal(size=100)
    loop = sum((a - b) ** 2 for a, b in zip(y, yhat)) / 100.0
    assert abs(mse(y, yhat) - loop) / loop < 1e-12
    ok(2, "mse exactness")


def test_criterion_3_gradient_suite():
    combos = [(h, w) for h in (2, 4, 8) for w in (3, 8)]
    worst_overall = 0.0
    for k in range(20):
        hidden, window = combos[k % len(combos)]
        rng = np.random.default_rng(3000 + k)
        params = init_model(hidden, seed=3000 + k)
        batch = 1 + k % 4
        x = rng.normal(0.0, 1.5, size=(batch, window))
        y = rng.normal(0.0, 1.0, size=batch)
        worst = finite_difference_check(params, x, y, step=1e-5, floor=1e-8)
        worst_overall = max(worst_overall, worst)
        assert worst < 1e-5, f"instance {k} (H={hidden}, W={window}): rel err {worst}"
    print(f"  gradient suite worst relative error: {worst_overall:.3e}")
    ok(3, "BPTT gradients vs central differences")


def _sine_counts_records(n_days=1000, seed=42):
    """Records file content whose daily TotalTraffic count is the sine task."""
    rng = np.random.default_rng(seed)
    t = np.arange(n_days)
    series = 50 + 30 * np.sin(2 * np.pi * t / 30) + rng.normal(0, 2, size=n_days)
    counts = np.maximum(0, np.round(series)).astype(int)
    base = 1546300800  # 2019-01-01T00:00:00Z
    objs = []
    for day, count in enumerate(counts):
        day_start = base + day * 86400
        for i in range(count):
            start = day_start + (i * 977) % 86000
            objs.append(
                {
                    "attack_class": "Misuse",
                    "subclass": "Total Traffic",
                    "max_bps": 10**9,
                    "start": start,
                    "stop": start + 300,
                }
            )
    return as_ndjson(*objs)


def test_criterion_4_cli_train_determinism(tmp_path):
    records = tmp_path / "sine.ndjson"
    records.write_bytes(_sine_counts_records())

    outputs = []
    for sub in ("one", "two"):
        code = main(
            ["train", str(records), "--window", "24", "--hidden", "64",
             "--epochs", "100", "--seed", "11", "--out", str(tmp_path / sub)]
        )
        assert code == 0
        outdir = tmp_path / sub / "train-11"
        outputs.append(
            (
                (outdir / "history.csv").read_bytes(),
                (outdir / "checkpoint.json").read_bytes(),
            )
        )
    assert outputs[0][0] == outputs[1][0], "history CSVs differ between runs"
    assert outputs[0][1] == outputs[1][1], "checkpoints differ between runs"
    ok(4, "cmd_train byte-identical reruns")


def test_criterion_5_learning_sanity():
    rng = np.random.default_rng(42)
    t = np.arange(1000)
    series = 50 + 30 * np.sin(2 * np.pi * t / 30) + rng.normal(0, 2, size=1000)

    dataset = build_windowed(series, 24)
    config = TrainConfig(window_size=24, hidden_size=64, learning_rate=0.0002,
                         epochs=100, seed=7)
    params, history = train(init_model(64, seed=7), dataset, config)

    first10 = statistics.mean(history.train_mse[:10])
    last10 = statistics.mean(history.train_mse[-10:])
    assert last10 < 0.5 * first10, f"no learning: first10={first10} last10={last10}"

    targets, preds = predict_series(params, dataset, "test")
    model_mse = mse(targets, preds)
    persistence_mse = mse(dataset.test.y, dataset.test.x[:, -1])
    assert model_mse < persistence_mse, (
        f"model {model_mse} not better than previous-value baseline {persistence_mse}"
    )
    print(
        f"  learning sanity: first10={first10:.4f} last10={last10:.4f} "
        f"model={model_mse:.4f} persistence={persistence_mse:.4f}"
    )
    ok(5, "learning sanity on noisy sine")


def test_criterion_6_aggregation_oracle():
    for seed in range(5):
        records = enrich_all(generate_synthetic(SyntheticSpec(record_count=1000, seed=seed)))
        for granularity in Granularity:
            table = aggregate(records, granularity)
            oracle = brute_force_cells(records, granularity)
            assert set(table.rows) == set(oracle)
            for key, stats in table.rows.items():
                count, dur, gbps, n = oracle[key]
                assert stats.count_sum == count
                assert stats.n == n
                assert stats.duration_mean == pytest.approx(dur, rel=1e-9)
                assert stats.gbps_mean == pytest.approx(gbps, rel=1e-9)
            total = sum(s.count_sum for s in table.rows.values())
            assert total == len(records)
    ok(6, "aggregation matches brute-force group-by")


def test_criterion_7_growth_arithmetic():
    def rec(year, i):
        start = int(np.datetime64(f"{year}-03-01T00:00:00").astype(int)) + i
        return AttackRecord(
            attack_class=AttackClass.MISUSE,
            subclass=Subclass.TOTAL_TRAFFIC,
            max_bps=10**9,
            start=start,
            stop=start + 60,
        )

    records = enrich_all(
        [rec(2019, i) for i in range(277)] + [rec(2020, i) for i in range(538)]
    )
    report = yoy_growth(records, 2019, 2020, GrowthDimension.SUBCLASS_COUNTS)
    cell = {c.label: c for c in report.cells}["TotalTraffic"]
    assert (cell.value_a, cell.value_b) == (277, 538)
    assert cell.growth_pct == pytest.approx(94.22, abs=0.005)
    ok(7, "growth percentage arithmetic")


REAL_DATA = os.environ.get("DDOSCAST_REAL_DATA", "")

EXPECTED_SUBCLASS_COUNTS = {
    Subclass.TOTAL_TRAFFIC: 62_589,
    Subclass.UDP_MISUSE: 50_201,
    Subclass.IP_FRAGMENT: 30_822,
    Subclass.TCP_SYN: 17_585,
    Subclass.ICMP: 10_742,
    Subclass.BANDWIDTH: 7_121,
    Subclass.PROTOCOL: 7_058,
    Subclass.TCP_RST: 4_511,
    Subclass.DNS_MISUSE: 1_896,
}


@pytest.mark.skipif(
    not (REAL_DATA and os.path.exists(REAL_DATA)),
    reason="set DDOSCAST_REAL_DATA to the downloaded attacks_v2.json to enable",
)
def test_criterion_8_real_export_reproduction():
    raw = open(REAL_DATA, "rb").read()
    records, report = parse_records(raw)
    enriched = enrich_all(records)
    stats = global_stats(enriched)
    assert stats.record_count == 192_525
    assert stats.total_duration_s == 825_549_256
    assert stats.max_throughput_gbps == pytest.approx(1460.0)
    assert stats.longest_attack_s == 604_944

    ranking = dict(rank_subclasses(enriched, Metric.COUNT))
    for subclass, expected in EXPECTED_SUBCLASS_COUNTS.items():
        assert ranking[subclass] == expected, subclass
    ok(8, "real-export totals and subclass counts")


def test_criterion_9_windowing_counts():
    rng = np.random.default_rng(909)
    for _ in range(100):
        length = int(rng.integers(10, 400))
        window = int(rng.integers(1, 40))
        values = rng.normal(0, 3, size=length)
        parts = split(values)
        for part in (parts.train, parts.validation, parts.test):
            ws = make_windows(part, window)
            assert len(ws) == max(0, part.size - window)
            for i in range(len(ws) - 1):
                assert np.array_equal(
                    ws.x[i + 1], np.append(ws.x[i][1:], ws.y[i])
                ), "shift consistency violated"
    ok(9, "windowing counts and shift consistency")


def test_criterion_10_end_to_end_cli(tmp_path):
    out = str(tmp_path / "out")

    assert main(["ingest", "--synthetic", "--count", "1200", "--seed", "11",
                 "--out", out]) == 0
    records = f"{out}/ingest-11/records.ndjson"
    for name in ("records.ndjson", "parse_report.json", "manifest.json"):
        assert os.path.exists(f"{out}/ingest-11/{name}"), name

    assert main(["analyze", records, "--seed", "11", "--out", out]) == 0
    for name in ("stats.csv", "histogram.csv", "growth.csv", "ranking.csv", "manifest.json"):
        assert os.path.exists(f"{out}/analyze-11/{name}"), name

    assert main(["train", records, "--epochs", "10", "--seed", "11", "--out", out]) == 0
    for name in ("checkpoint.json", "history.csv", "manifest.json"):
        assert os.path.exists(f"{out}/train-11/{name}"), name
    history = open(f"{out}/train-11/history.csv").read().strip().split("\n")
    assert len(history) == 1 + 10

    assert main(["grid", records, "--windows", "8,16", "--hiddens", "4,8",
                 "--epochs", "10", "--seed", "11", "--out", out]) == 0
    for name in ("grid.csv", "grid_table.txt", "manifest.json"):
        assert os.path.exists(f"{out}/grid-11/{name}"), name
    grid_rows = open(f"{out}/grid-11/grid.csv").read().strip().split("\n")
    assert len(grid_rows) == 1 + 4

    assert main(["forecast", f"{out}/train-11/checkpoint.json", records,
                 "--seed", "11", "--out", out]) == 0
    for name in ("forecast.csv", "forecast.svg", "manifest.json"):
        assert os.path.exists(f"{out}/forecast-11/{name}"), name
    svg = open(f"{out}/forecast-11/forecast.svg").read()
    assert svg.count("<polyline") == 2

    ok(10, "end-to-end CLI pipeline")
