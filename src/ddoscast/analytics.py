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
from dataclasses import astuple, dataclass, fields

import numpy as np

from .errors import EmptyDatasetError, YearAbsentError
from .ingest import SUBCLASSES, Subclass
from .preprocess import Metric, RecordTable, utc

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
    """One dimension's cells compared between two years; the years are the caller's."""

    dimension: str
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


def _counts_by_year(records: RecordTable, index: np.ndarray, size: int) -> dict[int, list[int]]:
    """Per-year counts of ``index`` values in [0, size), ascending years present."""
    present, year_index = records.year_groups()
    counts = np.bincount(year_index * size + index, minlength=len(present) * size)
    return dict(zip(present, counts.reshape(len(present), size).tolist()))


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
        by_year=_counts_by_year(records, index, len(bins)) if per_year else None,
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
    present = records.year_groups()[0]
    for year in (year_a, year_b):
        if year not in present:
            raise YearAbsentError(f"no records in year {year}")

    if dimension is GrowthDimension.SUBCLASS_COUNTS:
        by_year = _counts_by_year(records, records.subclass, len(SUBCLASSES))
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
    return GrowthReport(dimension=dimension.value, cells=cells)


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


def csv_text(header, rows) -> str:
    """CSV text of ``header`` and then ``rows``, the one writer of every CSV file.

    Fields are separated by ``,`` and quoted only where they must be, and
    each line ends in ``\n``. A float is written as ``str``, Python's
    shortest round-trip repr.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def stats_to_csv(stats: GlobalStats) -> str:
    """One row holding the fields of GlobalStats; dates as YYYY-MM-DD."""
    return csv_text([f.name for f in fields(GlobalStats)], [astuple(stats)])


def histogram_to_csv(*hists: Histogram) -> str:
    """Rows: metric, bin_lo, bin_hi, year ('all' for the overall counts), count.

    Each histogram is one block of rows under the one header.
    """
    rows = (
        [hist.metric, f"{lo:g}", f"{hi:g}", year, count]
        for hist in hists
        for year, counts in [("all", hist.counts), *(hist.by_year or {}).items()]
        for (lo, hi), count in zip(hist.bins, counts)
    )
    return csv_text(["metric", "bin_lo", "bin_hi", "year", "count"], rows)


def growth_to_csv(*reports: GrowthReport) -> str:
    """Each report is one block of rows under the one header."""
    rows = (
        [report.dimension, cell.label, cell.value_a, cell.value_b,
         "n/a" if cell.growth_pct is None else cell.growth_pct]
        for report in reports
        for cell in report.cells
    )
    return csv_text(["dimension", "cell", "value_a", "value_b", "growth_pct"], rows)


def ranking_to_csv(ranking: list[tuple[Subclass, float]]) -> str:
    """Values that are whole numbers are written as integers."""
    rows = (
        [pos, sub.value, int(value) if float(value).is_integer() else value]
        for pos, (sub, value) in enumerate(ranking, start=1)
    )
    return csv_text(["rank", "subclass", "value"], rows)
