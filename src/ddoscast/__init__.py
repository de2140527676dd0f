"""ddoscast: DDoS attack-record ETL, trend statistics, and LSTM forecasting.

The pipeline: ``ingest`` parses (or synthesizes) attack records,
``preprocess`` derives per-record features into one columnar
``RecordTable`` and buckets them into per-subclass time series,
``analytics`` reproduces the descriptive statistics, ``windowing`` turns a
daily series into normalized sliding windows, ``lstm`` trains the
from-scratch forecaster, ``grid`` sweeps the hyperparameters and ``chart``
renders SVG comparisons. ``cli`` ties the stages together behind the
``ddoscast`` command. Import each name from the module that defines it;
the package itself holds only ``__version__``, so importing it loads nothing
else.
"""

__version__ = "0.1.0"
