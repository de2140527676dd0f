"""Descriptive statistics over a RecordTable of enriched attack records.

Global totals, fixed-bin histograms of duration and peak throughput
(optionally sliced per year), year-on-year growth, and subclass rankings,
each computed as array reductions over the table's columns. Year
attribution always uses the attack's UTC start year.
"""

from __future__ import annotations

import csv
import datetime as dt
import enum
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDatasetError, YearAbsentError
from .ingest import Subclass
from .preprocess import SUBCLASSES, Metric, RecordTable, utc

SECONDS_PER_YEAR = 31_536_000  # 365-day year

# Half-open [lo, hi) bins partitioning each value domain.
DURATION_BINS_MIN = ((0.0, 15.0), (15.0, 30.0), (30.0, 60.0), (60.0, 1440.0), (1440.0, math.inf))
THROUGHPUT_BINS_GBPS = ((0.0, 10.0), (10.0, 100.0), (100.0, 1000.0), (1000.0, math.inf))


@dataclass(frozen=True)
class GlobalStats:
    record_count: int
    total_duration_s: int
    total_duration_years: float
    max_throughput_gbps: float
    longest_attack_s: int
    date_min: dt.date
    date_max: dt.date


@dataclass
class Histogram:
    metric: str
    bins: tuple[tuple[float, float], ...]
    counts: list[int]
    by_year: dict[int, list[int]] | None = None

    def bin_label(self, index: int) -> str:
        lo, hi = self.bins[index]
        return f"[{lo:g},{hi:g})"  # format(math.inf, "g") is "inf"


@dataclass(frozen=True)
class GrowthCell:
    label: str
    value_a: float
    value_b: float
    growth_pct: float | None  # None when value_a == 0 (undefined, not inf)


@dataclass
class GrowthReport:
    dimension: str
    year_a: int
    year_b: int
    cells: list[GrowthCell]


class GrowthDimension(enum.Enum):
    DURATION_BINS = "duration_bins"
    THROUGHPUT_BINS = "throughput_bins"
    SUBCLASS_COUNTS = "subclass_counts"


def global_stats(records: RecordTable) -> GlobalStats:
    """Totals and extrema as reductions over the columns."""
    if not records:
        raise EmptyDatasetError("global_stats needs at least one record")
    seconds = records.stop - records.start
    # object dtype adds Python ints, so the total is exact at any record count
    total_s = int(seconds.sum(dtype=object))
    return GlobalStats(
        record_count=len(records),
        total_duration_s=total_s,
        total_duration_years=total_s / SECONDS_PER_YEAR,
        max_throughput_gbps=float(records.max_gbps.max()),
        longest_attack_s=int(seconds.max()),
        date_min=utc(records.start.min()).date(),
        date_max=utc(records.start.max()).date(),
    )


def _counts_by_year(years: np.ndarray, index: np.ndarray, size: int) -> dict[int, list[int]]:
    """Per-year counts of ``index`` values in [0, size), ascending years present."""
    present, year_index = np.unique(years, return_inverse=True)
    counts = np.bincount(year_index * size + index, minlength=present.size * size)
    return dict(zip(present.tolist(), counts.reshape(present.size, size).tolist()))


def _histogram(records: RecordTable, values, bins, metric: str, per_year: bool) -> Histogram:
    if not records:
        raise EmptyDatasetError(f"{metric} histogram needs at least one record")
    lows = np.array([lo for lo, _ in bins])
    # bincount rejects the -1 a negative value would get
    index = np.searchsorted(lows, values, side="right") - 1
    return Histogram(
        metric=metric,
        bins=bins,
        counts=np.bincount(index, minlength=len(bins)).tolist(),
        by_year=_counts_by_year(records.start_years(), index, len(bins)) if per_year else None,
    )


def histogram_duration(records: RecordTable, per_year: bool = False) -> Histogram:
    return _histogram(records, records.duration_min, DURATION_BINS_MIN, "duration_min", per_year)


def histogram_throughput(records: RecordTable, per_year: bool = False) -> Histogram:
    return _histogram(records, records.max_gbps, THROUGHPUT_BINS_GBPS, "max_gbps", per_year)


def growth_pct(value_a: float, value_b: float) -> float | None:
    """Percent change from a to b; undefined (None) over a zero baseline."""
    if value_a == 0:
        return None
    return 100.0 * (value_b - value_a) / value_a


def yoy_growth(
    records: RecordTable, year_a: int, year_b: int, dimension: GrowthDimension
) -> GrowthReport:
    """Compare per-cell values between two years present in the data."""
    years = records.start_years()
    for year in (year_a, year_b):
        if not np.any(years == year):
            raise YearAbsentError(f"no records in year {year}")

    if dimension is GrowthDimension.SUBCLASS_COUNTS:
        by_year = _counts_by_year(years, records.subclass, len(SUBCLASSES))
        labels = [sub.value for sub in SUBCLASSES]
        order = sorted(range(len(labels)), key=labels.__getitem__)
    else:
        histogram = (
            histogram_duration if dimension is GrowthDimension.DURATION_BINS
            else histogram_throughput
        )
        hist = histogram(records, per_year=True)
        by_year = hist.by_year
        labels = [hist.bin_label(i) for i in range(len(hist.bins))]
        order = range(len(labels))
    a, b = by_year[year_a], by_year[year_b]
    cells = [GrowthCell(labels[i], a[i], b[i], growth_pct(a[i], b[i])) for i in order]
    return GrowthReport(dimension=dimension.value, year_a=year_a, year_b=year_b, cells=cells)


def rank_subclasses(records: RecordTable, metric: Metric) -> list[tuple[Subclass, float]]:
    """Subclasses ordered by descending value, ties alphabetical.

    Count ranks by total count; duration/throughput rank by the subclass
    mean. Every enum member appears; subclasses absent from the data rank
    with value 0 at the tail.
    """
    if not records:
        raise EmptyDatasetError("rank_subclasses needs at least one record")
    n = np.bincount(records.subclass, minlength=len(SUBCLASSES))
    if metric is Metric.COUNT:
        values = n.astype(np.float64)
    else:
        weights = records.duration_min if metric is Metric.DURATION_MIN else records.max_gbps
        sums = np.bincount(records.subclass, weights=weights, minlength=len(SUBCLASSES))
        values = sums / np.maximum(n, 1)  # an absent subclass sums to 0.0
    ranking = zip(SUBCLASSES, values.tolist())
    return sorted(ranking, key=lambda item: (-item[1], item[0].value))


# --- CSV exports ----------------------------------------------------------


def stats_to_csv(stats: GlobalStats) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        [
            "record_count",
            "total_duration_s",
            "total_duration_years",
            "max_throughput_gbps",
            "longest_attack_s",
            "date_min",
            "date_max",
        ]
    )
    writer.writerow(
        [
            stats.record_count,
            stats.total_duration_s,
            repr(stats.total_duration_years),
            repr(stats.max_throughput_gbps),
            stats.longest_attack_s,
            stats.date_min.isoformat(),
            stats.date_max.isoformat(),
        ]
    )
    return buf.getvalue()


def histogram_to_csv(hist: Histogram) -> str:
    """Rows: metric, bin_lo, bin_hi, year ('all' for the overall counts), count."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["metric", "bin_lo", "bin_hi", "year", "count"])

    def write_rows(year_label, counts):
        for (lo, hi), count in zip(hist.bins, counts):
            writer.writerow([hist.metric, f"{lo:g}", f"{hi:g}", year_label, count])

    write_rows("all", hist.counts)
    if hist.by_year:
        for year, counts in hist.by_year.items():
            write_rows(year, counts)
    return buf.getvalue()


def growth_to_csv(report: GrowthReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["dimension", "cell", "value_a", "value_b", "growth_pct"])
    for cell in report.cells:
        pct = "n/a" if cell.growth_pct is None else repr(cell.growth_pct)
        writer.writerow([report.dimension, cell.label, cell.value_a, cell.value_b, pct])
    return buf.getvalue()


def ranking_to_csv(ranking: list[tuple[Subclass, float]]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["rank", "subclass", "value"])
    for pos, (sub, value) in enumerate(ranking, start=1):
        text = str(int(value)) if float(value).is_integer() else repr(value)
        writer.writerow([pos, sub.value, text])
    return buf.getvalue()
