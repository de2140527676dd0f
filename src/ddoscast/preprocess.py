"""Feature derivation and per-subclass time bucketing.

Records are enriched with duration in minutes and peak Gbps into one
columnar ``RecordTable``, then grouped into (period, subclass) cells at
daily, weekly (ISO-8601), monthly or yearly granularity. A period is an
int64, and its key ("2020-W05") is written only on output. The cells are
arrays of record counts and sums, one row per occupied period and one
column per subclass; ``series_for`` reads one subclass's column and places
it by period number. Bucketing uses the attack's start time only, in UTC.
Means are always taken over the underlying records of a cell, never over
finer-grained means.
"""

from __future__ import annotations

import datetime as dt
import enum
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import SubclassAbsentError
from .ingest import SUBCLASSES, RecordColumns, Subclass
from .settings import Metric

_UTC = dt.timezone.utc
_EPOCH = dt.date(1970, 1, 1)
SECONDS_PER_DAY = 86_400


class Granularity(enum.Enum):
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"
    YEARLY = "yearly"


def utc(seconds) -> dt.datetime:
    """Aware UTC datetime of integer Unix seconds."""
    return dt.datetime.fromtimestamp(int(seconds), tz=_UTC)


@dataclass(frozen=True)
class EnrichedRecord:
    """One row of a RecordTable, as Python values."""

    subclass: Subclass
    start_time: dt.datetime
    stop_time: dt.datetime
    duration_min: float
    max_gbps: float


@dataclass(frozen=True, eq=False)
class RecordTable:
    """Enriched records as parallel read-only columns, in input order.

    Built from the source columns: ``subclass`` (uint8 codes into
    ``SUBCLASSES``) and int64 ``start``/``stop`` (Unix seconds) and
    ``max_bps``. The constructor derives the float64 ``duration_min`` and
    ``max_gbps`` and makes every column read-only. Indexing gives
    ``EnrichedRecord`` rows built from the columns, and iteration uses
    indexing (an index past the end raises IndexError).

    duration_min is (stop - start) / 60; max_gbps divides by the decimal
    10^9 (bits-per-second convention, not 2^30). numpy converts the int64
    operands to float64 as Python does (exactly for stop - start, which stays
    below 2^53), so each value equals the Python float expression bit for bit.
    """

    subclass: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    max_bps: np.ndarray
    duration_min: np.ndarray = field(init=False)
    max_gbps: np.ndarray = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "duration_min", (self.stop - self.start) / 60)
        object.__setattr__(self, "max_gbps", self.max_bps / 1e9)
        for column in vars(self).values():
            column.flags.writeable = False

    def __len__(self) -> int:
        return self.start.size

    def __getitem__(self, index: int) -> EnrichedRecord:
        return EnrichedRecord(
            subclass=SUBCLASSES[self.subclass[index]],
            start_time=utc(self.start[index]),
            stop_time=utc(self.stop[index]),
            duration_min=float(self.duration_min[index]),
            max_gbps=float(self.max_gbps[index]),
        )

    @functools.cached_property
    def _start_years(self) -> np.ndarray:
        """UTC calendar year of each record's start, read-only."""
        years = self.start.astype("datetime64[s]").astype("datetime64[Y]").astype(np.int64) + 1970
        years.flags.writeable = False
        return years

    def year_groups(self) -> tuple[tuple[int, ...], np.ndarray]:
        """The start years present, ascending, and each record's index into them; computed once."""
        return self._year_groups

    @functools.cached_property
    def _year_groups(self) -> tuple[tuple[int, ...], np.ndarray]:
        present, index = np.unique(self._start_years, return_inverse=True)
        index.flags.writeable = False
        return tuple(present.tolist()), index


def enrich_all(records) -> RecordTable:
    """The RecordTable of parsed ``RecordColumns`` or any sequence of raw records."""
    cols = RecordColumns.of(records)
    return RecordTable(cols.subclass, cols.start, cols.stop, cols.max_bps)


# --- periods --------------------------------------------------------------
#
# A period is an int64 counted from the one holding 1970-01-01: a day, an
# ISO week (Monday to Sunday), a month or a year. Keys are written only on
# output, in the canonical formats 2020-01-03 / 2020-W05 / 2020-01 / 2020; a
# week belongs to its ISO year.


def _periods(days: np.ndarray, granularity: Granularity) -> np.ndarray:
    """The period of each UTC day number (days since 1970-01-01)."""
    if granularity is Granularity.DAILY:
        return days
    if granularity is Granularity.WEEKLY:
        return (days + 3) // 7  # 1970-01-01 was a Thursday, three days after a Monday
    unit = "M" if granularity is Granularity.MONTHLY else "Y"
    return days.astype("datetime64[D]").astype(f"datetime64[{unit}]").astype(np.int64)


def _keys(periods: np.ndarray, granularity: Granularity) -> list[str]:
    """The key of each period."""
    if granularity is Granularity.WEEKLY:
        mondays = (_EPOCH + dt.timedelta(days=7 * week - 3) for week in periods.tolist())
        return [f"{year}-W{week:02d}" for year, week, _ in map(dt.date.isocalendar, mondays)]
    unit = {Granularity.DAILY: "D", Granularity.MONTHLY: "M", Granularity.YEARLY: "Y"}[granularity]
    return np.datetime_as_string(periods.astype(f"datetime64[{unit}]")).tolist()


# --- aggregation ----------------------------------------------------------


@dataclass(frozen=True)
class CellStats:
    count_sum: float
    duration_mean: float
    gbps_mean: float
    n: int


@dataclass(frozen=True, eq=False)
class AggregateTable:
    """Per-(period, subclass) sums as arrays.

    ``ids`` are the occupied periods, as ascending int64s. ``n``,
    ``duration_sum`` and ``gbps_sum`` have one row per period and one column
    per subclass code: the cell's record count and the sums of its records'
    duration_min and max_gbps.
    """

    granularity: Granularity
    ids: np.ndarray
    n: np.ndarray
    duration_sum: np.ndarray
    gbps_sum: np.ndarray

    @property
    def rows(self) -> dict[tuple[str, Subclass], CellStats]:
        """{(key, subclass): CellStats} of every cell with records, built on each read."""
        at, keys = np.nonzero(self.n), self.periods()
        return {
            (keys[row], SUBCLASSES[code]): CellStats(float(n), duration / n, gbps / n, n)
            for row, code, n, duration, gbps in zip(
                *(index.tolist() for index in at),
                self.n[at].tolist(), self.duration_sum[at].tolist(), self.gbps_sum[at].tolist(),
            )
        }

    def periods(self) -> list[str]:
        """Occupied period keys in chronological order."""
        return _keys(self.ids, self.granularity)


def aggregate(records: RecordTable, granularity: Granularity) -> AggregateTable:
    """Group enriched records into (period, subclass) cells.

    ``np.bincount`` adds the weights in input order, so each sum equals the
    sequential Python sum.
    """
    days = records.start // SECONDS_PER_DAY
    ids, row = np.unique(_periods(days, granularity), return_inverse=True)
    width = len(SUBCLASSES)
    cells = row * width + records.subclass
    size = ids.size * width
    n, duration_sum, gbps_sum = (
        np.bincount(cells, weights, minlength=size).reshape(-1, width)
        for weights in (None, records.duration_min, records.max_gbps)
    )
    return AggregateTable(granularity, ids, n, duration_sum, gbps_sum)


@dataclass
class TimeSeries:
    subclass: Subclass
    metric: Metric
    granularity: Granularity
    periods: tuple[str, ...]
    values: np.ndarray


def series_for(table: AggregateTable, subclass: Subclass, metric: Metric) -> TimeSeries:
    """Extract one subclass/metric series from the table.

    The series spans the table's full period range (all subclasses), so
    series extracted for different subclasses align. Periods in which the
    subclass saw no attacks get 0.0 for every metric. A count is the cell's
    record count as a float; duration and throughput are arithmetic means
    over the cell's records.
    """
    ids = table.ids
    if not ids.size:
        raise SubclassAbsentError(f"empty table has no {subclass.value} series")
    code = SUBCLASSES.index(subclass)
    n = table.n[:, code]
    if not n.any():
        raise SubclassAbsentError(f"subclass {subclass.value} never occurs in table")
    if metric is Metric.COUNT:
        column = n.astype(np.float64)
    else:
        sums = table.duration_sum if metric is Metric.DURATION_MIN else table.gbps_sum
        column = np.divide(sums[:, code], n, out=np.zeros(n.size), where=n > 0)

    values = np.zeros(ids[-1] - ids[0] + 1, dtype=np.float64)
    values[ids - ids[0]] = column
    return TimeSeries(
        subclass=subclass,
        metric=metric,
        granularity=table.granularity,
        periods=tuple(_keys(np.arange(ids[0], ids[-1] + 1), table.granularity)),
        values=values,
    )
