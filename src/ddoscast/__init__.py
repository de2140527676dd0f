"""ddoscast: DDoS attack-record ETL, trend statistics, and LSTM forecasting.

The pipeline: ``ingest`` parses (or synthesizes) attack records,
``preprocess`` derives per-record features into one columnar
``RecordTable`` and buckets them into per-subclass time series,
``analytics`` reproduces the descriptive statistics, ``windowing`` turns a
daily series into normalized sliding windows, ``lstm`` trains the
from-scratch forecaster, ``grid`` sweeps the hyperparameters and ``chart``
renders SVG comparisons. ``cli`` ties the stages together behind the
``ddoscast`` command.
"""

__version__ = "0.1.0"

from .errors import DdoscastError
from .ingest import (
    AttackClass,
    AttackRecord,
    ParseReport,
    RecordColumns,
    Subclass,
    SyntheticSpec,
    generate_synthetic,
    parse_records,
    records_to_json,
    records_to_ndjson,
)
from .preprocess import (
    AggregateTable,
    EnrichedRecord,
    Granularity,
    Metric,
    RecordTable,
    TimeSeries,
    aggregate,
    enrich,
    enrich_all,
    series_for,
)
from .analytics import (
    GlobalStats,
    GrowthDimension,
    Histogram,
    global_stats,
    histogram_duration,
    histogram_throughput,
    rank_subclasses,
    yoy_growth,
)
from .windowing import (
    NormSource,
    NormalizationStats,
    WindowedDataset,
    build_windowed,
    make_windows,
    normalize,
    split,
    std_dev,
)
from .lstm import (
    LstmParams,
    TrainConfig,
    TrainHistory,
    backward,
    init_model,
    load_checkpoint,
    mse,
    predict_series,
    rmsprop_update,
    save_checkpoint,
    train,
)
from .grid import GridSpec, GridResult, best_config, render_grid_table, run_grid
from .chart import render_line_chart

__all__ = [
    "__version__",
    "DdoscastError",
    "AttackClass",
    "AttackRecord",
    "ParseReport",
    "RecordColumns",
    "Subclass",
    "SyntheticSpec",
    "generate_synthetic",
    "parse_records",
    "records_to_json",
    "records_to_ndjson",
    "AggregateTable",
    "EnrichedRecord",
    "Granularity",
    "Metric",
    "RecordTable",
    "TimeSeries",
    "aggregate",
    "enrich",
    "enrich_all",
    "series_for",
    "GlobalStats",
    "GrowthDimension",
    "Histogram",
    "global_stats",
    "histogram_duration",
    "histogram_throughput",
    "rank_subclasses",
    "yoy_growth",
    "NormSource",
    "NormalizationStats",
    "WindowedDataset",
    "build_windowed",
    "make_windows",
    "normalize",
    "split",
    "std_dev",
    "LstmParams",
    "TrainConfig",
    "TrainHistory",
    "backward",
    "init_model",
    "load_checkpoint",
    "mse",
    "predict_series",
    "rmsprop_update",
    "save_checkpoint",
    "train",
    "GridSpec",
    "GridResult",
    "best_config",
    "render_grid_table",
    "run_grid",
    "render_line_chart",
]
