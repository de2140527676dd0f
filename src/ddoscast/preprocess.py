"""Feature derivation and per-subclass time bucketing.

Records are enriched with duration in minutes and peak Gbps into one
columnar ``RecordTable``, then grouped into (period, subclass) cells at
daily, weekly (ISO-8601), monthly or yearly granularity. Bucketing uses the
attack's start time only, in UTC. Means are always taken over the underlying
records of a cell, never over finer-grained means.
"""

from __future__ import annotations

import datetime as dt
import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import SubclassAbsentError
from .ingest import SUBCLASSES, AttackRecord, RecordColumns, Subclass

_UTC = dt.timezone.utc
_EPOCH = dt.date(1970, 1, 1)
SECONDS_PER_DAY = 86_400


class Granularity(enum.Enum):
    DAILY = "daily"
    WEEKLY = "weekly"
    MONTHLY = "monthly"
    YEARLY = "yearly"


class Metric(enum.Enum):
    COUNT = "count"
    DURATION_MIN = "duration_min"
    MAX_GBPS = "max_gbps"


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

    @property
    def duration_s(self) -> int:
        """Exact attack duration in whole seconds."""
        return int((self.stop_time - self.start_time).total_seconds())


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

    def start_years(self) -> np.ndarray:
        """UTC calendar year of each record's start."""
        return self.start.astype("datetime64[s]").astype("datetime64[Y]").astype(np.int64) + 1970


def enrich_all(records) -> RecordTable:
    """The RecordTable of parsed ``RecordColumns`` or any sequence of raw records."""
    cols = RecordColumns.of(records)
    return RecordTable(cols.subclass, cols.start, cols.stop, cols.max_bps)


def enrich(record: AttackRecord) -> EnrichedRecord:
    """Derive the engineered fields from one raw record."""
    return enrich_all([record])[0]


# --- period keys ----------------------------------------------------------
#
# Canonical key formats: 2020-01-03 / 2020-W05 / 2020-01 / 2020. Keys of one
# granularity sort chronologically as plain strings (weeks are zero-padded
# and belong to their ISO year).


def period_key(t: dt.datetime, granularity: Granularity) -> str:
    d = t.date()
    if granularity is Granularity.DAILY:
        return d.isoformat()
    if granularity is Granularity.WEEKLY:
        iso = d.isocalendar()
        return f"{iso[0]}-W{iso[1]:02d}"
    if granularity is Granularity.MONTHLY:
        return f"{d.year:04d}-{d.month:02d}"
    return f"{d.year:04d}"


def _key_to_anchor(key: str, granularity: Granularity) -> dt.date:
    """First calendar day of the period named by the key."""
    if granularity is Granularity.DAILY:
        return dt.date.fromisoformat(key)
    if granularity is Granularity.WEEKLY:
        year, week = key.split("-W")
        return dt.date.fromisocalendar(int(year), int(week), 1)
    if granularity is Granularity.MONTHLY:
        year, month = key.split("-")
        return dt.date(int(year), int(month), 1)
    return dt.date(int(key), 1, 1)


def _day_key(day: int, granularity: Granularity) -> str:
    """Period key of the UTC day ``day`` days after 1970-01-01."""
    return period_key(utc(day * SECONDS_PER_DAY), granularity)


def period_range(first: str, last: str, granularity: Granularity) -> list[str]:
    """All period keys from first to last inclusive, no gaps."""
    lo, hi = ((_key_to_anchor(key, granularity) - _EPOCH).days for key in (first, last))
    return list(dict.fromkeys(_day_key(day, granularity) for day in range(lo, hi + 1)))


# --- aggregation ----------------------------------------------------------


@dataclass(frozen=True)
class CellStats:
    count_sum: float
    duration_mean: float
    gbps_mean: float
    n: int


@dataclass
class AggregateTable:
    granularity: Granularity
    rows: dict[tuple[str, Subclass], CellStats]

    def periods(self) -> list[str]:
        """Occupied period keys in chronological order."""
        return sorted({key for key, _ in self.rows})


def aggregate(records: RecordTable, granularity: Granularity) -> AggregateTable:
    """Group enriched records into (period, subclass) cells.

    count_sum is the cell's record count as a float; duration and throughput
    are arithmetic means over the cell's records. ``np.bincount`` adds the
    weights in input order, so each sum equals the sequential Python sum.
    """
    days, day_index = np.unique(records.start // SECONDS_PER_DAY, return_inverse=True)
    key_ids: dict[str, int] = {}
    key_of_day = np.array(
        [key_ids.setdefault(_day_key(day, granularity), len(key_ids)) for day in days.tolist()],
        dtype=np.int64,
    )
    keys = list(key_ids)
    width = len(SUBCLASSES)
    cells = key_of_day[day_index] * width + records.subclass
    size = len(keys) * width
    n = np.bincount(cells, minlength=size)
    duration = np.bincount(cells, weights=records.duration_min, minlength=size)
    gbps = np.bincount(cells, weights=records.max_gbps, minlength=size)
    rows = {
        (keys[cell // width], SUBCLASSES[cell % width]): CellStats(
            count_sum=float(n[cell]),
            duration_mean=float(duration[cell] / n[cell]),
            gbps_mean=float(gbps[cell] / n[cell]),
            n=int(n[cell]),
        )
        for cell in np.flatnonzero(n).tolist()
    }
    return AggregateTable(granularity=granularity, rows=rows)


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
    subclass saw no attacks get 0.0 for every metric.
    """
    occupied = table.periods()
    if not occupied:
        raise SubclassAbsentError(f"empty table has no {subclass.value} series")
    mine = {key: stats for (key, sub), stats in table.rows.items() if sub is subclass}
    if not mine:
        raise SubclassAbsentError(f"subclass {subclass.value} never occurs in table")

    keys = period_range(occupied[0], occupied[-1], table.granularity)

    values = np.zeros(len(keys), dtype=np.float64)
    for idx, key in enumerate(keys):
        stats = mine.get(key)
        if stats is None:
            continue
        if metric is Metric.COUNT:
            values[idx] = stats.count_sum
        elif metric is Metric.DURATION_MIN:
            values[idx] = stats.duration_mean
        else:
            values[idx] = stats.gbps_mean
    return TimeSeries(
        subclass=subclass,
        metric=metric,
        granularity=table.granularity,
        periods=tuple(keys),
        values=values,
    )
