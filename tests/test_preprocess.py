import datetime as dt
import statistics

import numpy as np
import pytest

from ddoscast.errors import SubclassAbsentError
from ddoscast.ingest import AttackClass, AttackRecord, Subclass
from ddoscast.preprocess import (
    SUBCLASSES,
    CellStats,
    Granularity,
    Metric,
    aggregate,
    enrich_all,
    series_for,
)

UTC = dt.timezone.utc


def make_record(start, stop, subclass=Subclass.TOTAL_TRAFFIC, max_bps=10**9):
    return AttackRecord(
        attack_class=AttackClass.MISUSE,
        subclass=subclass,
        max_bps=max_bps,
        start=start,
        stop=stop,
    )


def epoch(*args):
    return int(dt.datetime(*args, tzinfo=UTC).timestamp())


def calendar_key(day: dt.date, granularity: Granularity) -> str:
    """The key of the period holding ``day``, from ``datetime`` alone, not ``preprocess``."""
    if granularity is Granularity.DAILY:
        return day.isoformat()
    if granularity is Granularity.WEEKLY:
        year, week, _ = day.isocalendar()
        return f"{year}-W{week:02d}"
    if granularity is Granularity.MONTHLY:
        return f"{day.year}-{day.month:02d}"
    return str(day.year)


def keys_at(t: dt.datetime) -> tuple[str, ...]:
    """The period key, at each granularity, that ``aggregate`` gives one record starting at ``t``."""
    records = enrich_all([make_record(int(t.timestamp()), int(t.timestamp()))])
    return tuple(key for granularity in Granularity
                 for key in aggregate(records, granularity).periods())


class TestEnrich:
    def test_week_long_attack_duration(self):
        # 604,944 s is the longest attack in the real export (7 days)
        rec = enrich_all([make_record(start=0, stop=604_944)])[0]
        assert rec.duration_min == 10_082.4
        assert rec.stop_time - rec.start_time == dt.timedelta(seconds=604_944)

    def test_terabit_throughput_converts_decimal(self):
        rec = enrich_all([make_record(start=0, stop=60, max_bps=1_460_000_000_000)])[0]
        assert rec.max_gbps == 1460.0

    def test_zero_duration(self):
        rec = enrich_all([make_record(start=1000, stop=1000)])[0]
        assert rec.duration_min == 0.0
        assert rec.stop_time == rec.start_time

    def test_utc_datetimes(self):
        rec = enrich_all([make_record(start=epoch(2020, 6, 1, 23, 30),
                                    stop=epoch(2020, 6, 2, 0, 30))])[0]
        assert rec.start_time == dt.datetime(2020, 6, 1, 23, 30, tzinfo=UTC)
        assert rec.stop_time == dt.datetime(2020, 6, 2, 0, 30, tzinfo=UTC)


class TestRecordTable:
    def test_columns_match_per_record_python_derivation(self, synthetic_1000):
        table = enrich_all(synthetic_1000)
        assert len(table) == len(synthetic_1000)
        assert table.subclass.dtype == np.uint8
        assert table.start.dtype == table.stop.dtype == np.int64
        assert table.duration_min.dtype == table.max_gbps.dtype == np.float64
        assert [SUBCLASSES[c] for c in table.subclass] == [r.subclass for r in synthetic_1000]
        assert table.start.tolist() == [r.start for r in synthetic_1000]
        assert table.stop.tolist() == [r.stop for r in synthetic_1000]
        # exact equality: each column value is the Python float expression
        assert table.duration_min.tolist() == [(r.stop - r.start) / 60 for r in synthetic_1000]
        assert table.max_gbps.tolist() == [r.max_bps / 1e9 for r in synthetic_1000]

    def test_row_view(self, synthetic_1000):
        table = enrich_all(synthetic_1000[:20])
        rows = list(table)
        assert len(rows) == 20
        assert rows[3] == table[3] == enrich_all([synthetic_1000[3]])[0]
        raw = synthetic_1000[3]
        assert rows[3].start_time == dt.datetime.fromtimestamp(raw.start, tz=UTC)
        assert rows[3].stop_time - rows[3].start_time == dt.timedelta(seconds=raw.stop - raw.start)
        assert type(rows[3].max_gbps) is float

    def test_columns_are_read_only(self, synthetic_1000):
        table = enrich_all(synthetic_1000[:5])
        with pytest.raises(ValueError):
            table.start[0] = 0

    def test_empty(self):
        table = enrich_all([])
        assert len(table) == 0 and list(table) == []

    def test_start_years_are_utc(self):
        table = enrich_all(
            [make_record(epoch(2019, 12, 31, 23, 59, 59), epoch(2020, 1, 1)),
             make_record(epoch(2020, 1, 1), epoch(2020, 1, 1))]
        )
        years, index = table.year_groups()
        assert [years[i] for i in index.tolist()] == [2019, 2020]


class TestPeriodKeys:
    def test_canonical_formats(self):
        t = dt.datetime(2020, 1, 3, 15, 0, tzinfo=UTC)
        assert keys_at(t) == ("2020-01-03", "2020-W01", "2020-01", "2020")

    def test_iso_week_year_boundary(self):
        # 2019-12-30 is a Monday that already belongs to ISO week 2020-W01
        t = dt.datetime(2019, 12, 30, tzinfo=UTC)
        assert keys_at(t)[1] == "2020-W01"

    @pytest.mark.parametrize(
        "day, keys",
        [
            (dt.date(1970, 1, 1), ("1970-01-01", "1970-W01", "1970-01", "1970")),
            (dt.date(2020, 12, 31), ("2020-12-31", "2020-W53", "2020-12", "2020")),
            (dt.date(9999, 12, 31), ("9999-12-31", "9999-W52", "9999-12", "9999")),
        ],
    )
    def test_first_last_and_week_53_days(self, day, keys):
        t = dt.datetime(day.year, day.month, day.day, 23, 59, 59, tzinfo=UTC)
        assert keys_at(t) == keys

    def test_matches_calendar_formats_every_day(self):
        day = dt.date(2019, 12, 20)
        while day <= dt.date(2021, 1, 12):
            iso = day.isocalendar()
            expected = (day.isoformat(), f"{iso[0]}-W{iso[1]:02d}",
                        f"{day.year:04d}-{day.month:02d}", f"{day.year:04d}")
            t = dt.datetime(day.year, day.month, day.day, tzinfo=UTC)
            assert keys_at(t) == expected
            day += dt.timedelta(days=1)

    def test_series_periods_are_contiguous(self):
        cases = [
            (Granularity.DAILY, (2020, 2, 27), (2020, 3, 2),
             ("2020-02-27", "2020-02-28", "2020-02-29", "2020-03-01", "2020-03-02")),
            (Granularity.WEEKLY, (2020, 12, 21), (2021, 1, 17),
             ("2020-W52", "2020-W53", "2021-W01", "2021-W02")),
            (Granularity.MONTHLY, (2019, 11, 30), (2020, 2, 1),
             ("2019-11", "2019-12", "2020-01", "2020-02")),
            (Granularity.YEARLY, (2019, 12, 31), (2021, 1, 1), ("2019", "2020", "2021")),
        ]
        for granularity, first, last, periods in cases:
            records = enrich_all([make_record(epoch(*day), epoch(*day) + 60) for day in (first, last)])
            series = series_for(aggregate(records, granularity), Subclass.TOTAL_TRAFFIC, Metric.COUNT)
            assert series.periods == periods
            assert series.values.tolist() == [1.0] + [0.0] * (len(periods) - 2) + [1.0]


class TestAggregate:
    def test_two_records_same_day(self):
        records = enrich_all(
            [
                make_record(epoch(2020, 1, 1, 3), epoch(2020, 1, 1, 3, 10)),
                make_record(epoch(2020, 1, 1, 9), epoch(2020, 1, 1, 9, 20)),
            ]
        )
        table = aggregate(records, Granularity.DAILY)
        cell = table.rows[("2020-01-01", Subclass.TOTAL_TRAFFIC)]
        assert cell.count_sum == 2.0
        assert cell.duration_mean == 15.0
        assert cell.n == 2

    def test_empty_input(self):
        table = aggregate(enrich_all([]), Granularity.DAILY)
        assert table.rows == {}

    def test_monthly_mean_is_record_weighted_not_mean_of_daily_means(self):
        # 2 records on day one (10, 20 min), 1 on day two (60 min):
        # monthly mean must be 30.0; a mean of daily means would say 37.5
        records = enrich_all(
            [
                make_record(epoch(2020, 1, 1), epoch(2020, 1, 1) + 600),
                make_record(epoch(2020, 1, 1), epoch(2020, 1, 1) + 1200),
                make_record(epoch(2020, 1, 2), epoch(2020, 1, 2) + 3600),
            ]
        )
        monthly = aggregate(records, Granularity.MONTHLY)
        cell = monthly.rows[("2020-01", Subclass.TOTAL_TRAFFIC)]
        assert cell.duration_mean == 30.0

        daily = aggregate(records, Granularity.DAILY)
        daily_means = [
            stats.duration_mean
            for (key, _), stats in sorted(daily.rows.items())
        ]
        assert statistics.mean(daily_means) == 37.5

    def test_bucketing_uses_start_day(self):
        # attack spanning midnight counts in its start day
        records = enrich_all(
            [make_record(epoch(2020, 1, 1, 23, 50), epoch(2020, 1, 2, 0, 30))]
        )
        table = aggregate(records, Granularity.DAILY)
        assert ("2020-01-01", Subclass.TOTAL_TRAFFIC) in table.rows
        assert ("2020-01-02", Subclass.TOTAL_TRAFFIC) not in table.rows


def sequential_cells(records, granularity):
    """Loop reference: per-cell sums added one record at a time, in input order."""
    sums = {}
    for rec in records:
        cell = (calendar_key(rec.start_time.date(), granularity), rec.subclass)
        acc = sums.setdefault(cell, [0.0, 0.0, 0])
        acc[0] += rec.duration_min
        acc[1] += rec.max_gbps
        acc[2] += 1
    return {
        cell: CellStats(float(n), duration / n, gbps / n, n)
        for cell, (duration, gbps, n) in sums.items()
    }


@pytest.mark.parametrize("granularity", list(Granularity))
def test_aggregate_equals_sequential_loop_exactly(granularity, synthetic_1000):
    # bincount adds weights in input order, so every mean matches to the bit
    records = enrich_all(synthetic_1000)
    assert aggregate(records, granularity).rows == sequential_cells(records, granularity)


def year_end_records():
    """Hand-made records with empty days, across ISO week 2020-W53 into 2021."""
    spans = [
        (epoch(2020, 12, 24, 23, 59), 7, Subclass.TOTAL_TRAFFIC, 3 * 10**9 + 1),
        (epoch(2020, 12, 28, 1), 3_601, Subclass.TOTAL_TRAFFIC, 10**9),
        (epoch(2020, 12, 28, 2), 13, Subclass.ICMP, 7_777_777_777),
        (epoch(2020, 12, 28, 23, 59, 59), 100, Subclass.TOTAL_TRAFFIC, 1),
        (epoch(2020, 12, 31, 12), 59, Subclass.ICMP, 123_456_789_012),
        (epoch(2021, 1, 1), 1, Subclass.TOTAL_TRAFFIC, 2 * 10**9),
        (epoch(2021, 1, 3, 23), 86_400, Subclass.DNS_MISUSE, 999),
        (epoch(2021, 1, 4), 61, Subclass.TOTAL_TRAFFIC, 10**12),
        (epoch(2021, 1, 19, 6), 1_000, Subclass.ICMP, 5),
    ]
    return [make_record(start, start + length, sub, max_bps)
            for start, length, sub, max_bps in spans]


def sequential_series(records, granularity, subclass, metric):
    """Loop reference: every period from the first record's day to the last, 0.0 in a gap."""
    cells = sequential_cells(records, granularity)
    days = [rec.start_time.date() for rec in records]
    day, periods = min(days), {}
    while day <= max(days):
        periods.setdefault(calendar_key(day, granularity))
        day += dt.timedelta(days=1)
    field = {Metric.COUNT: "count_sum", Metric.DURATION_MIN: "duration_mean",
             Metric.MAX_GBPS: "gbps_mean"}[metric]
    values = [getattr(cells[key, subclass], field) if (key, subclass) in cells else 0.0
              for key in periods]
    return tuple(periods), np.array(values, dtype=np.float64)


@pytest.mark.parametrize("granularity", list(Granularity))
@pytest.mark.parametrize("record_set", ["synthetic_1000", "year_end"])
def test_series_for_equals_sequential_series_exactly(granularity, record_set, synthetic_1000):
    records = enrich_all(synthetic_1000 if record_set == "synthetic_1000" else year_end_records())
    table = aggregate(records, granularity)
    assert len(table.rows) == len(sequential_cells(records, granularity))
    present = {rec.subclass for rec in records}
    assert len(present) >= 3
    for subclass in present:
        for metric in Metric:
            series = series_for(table, subclass, metric)
            periods, values = sequential_series(records, granularity, subclass, metric)
            assert series.periods == periods
            assert series.values.tobytes() == values.tobytes()


def test_year_end_records_cross_iso_week_53():
    records = enrich_all(year_end_records())
    series = series_for(aggregate(records, Granularity.WEEKLY), Subclass.ICMP, Metric.COUNT)
    assert series.periods == ("2020-W52", "2020-W53", "2021-W01", "2021-W02", "2021-W03")
    assert series.values.tolist() == [0.0, 2.0, 0.0, 0.0, 1.0]


def brute_force_cells(records, granularity):
    """Independent oracle: collect values per cell, then statistics.mean.

    Each cell is keyed by ``calendar_key``, so the oracle shares no code
    with the period arithmetic of ``preprocess``.
    """
    groups = {}
    for rec in records:
        key = (calendar_key(rec.start_time.date(), granularity), rec.subclass)
        groups.setdefault(key, []).append(rec)
    out = {}
    for key, members in groups.items():
        out[key] = (
            float(len(members)),
            statistics.mean(m.duration_min for m in members),
            statistics.mean(m.max_gbps for m in members),
            len(members),
        )
    return out


class TestAggregateOracle:
    @pytest.mark.parametrize("granularity", list(Granularity))
    def test_matches_brute_force(self, granularity, synthetic_1000):
        records = enrich_all(synthetic_1000)
        table = aggregate(records, granularity)
        oracle = brute_force_cells(records, granularity)
        assert set(table.rows) == set(oracle)
        for key, stats in table.rows.items():
            count, dur, gbps, n = oracle[key]
            assert stats.count_sum == count
            assert stats.n == n
            assert stats.duration_mean == pytest.approx(dur, rel=1e-9)
            assert stats.gbps_mean == pytest.approx(gbps, rel=1e-9)

    def test_count_conservation(self, synthetic_1000):
        records = enrich_all(synthetic_1000)
        for granularity in Granularity:
            table = aggregate(records, granularity)
            total = sum(stats.count_sum for stats in table.rows.values())
            assert total == len(records)

    def test_yearly_equals_sum_of_daily(self, synthetic_1000):
        records = enrich_all(synthetic_1000)
        daily = aggregate(records, Granularity.DAILY)
        yearly = aggregate(records, Granularity.YEARLY)
        for (year_key, sub), stats in yearly.rows.items():
            daily_total = sum(
                s.count_sum
                for (day_key, day_sub), s in daily.rows.items()
                if day_sub is sub and day_key.startswith(year_key)
            )
            assert stats.count_sum == daily_total


class TestSeriesFor:
    def table_with_gap(self):
        records = enrich_all(
            [make_record(epoch(2020, 1, 1) + i, epoch(2020, 1, 1) + i + 60) for i in range(5)]
            + [make_record(epoch(2020, 1, 3) + i, epoch(2020, 1, 3) + i + 60) for i in range(7)]
        )
        return aggregate(records, Granularity.DAILY)

    def test_gap_fill_with_zero(self):
        series = series_for(self.table_with_gap(), Subclass.TOTAL_TRAFFIC, Metric.COUNT)
        assert series.periods == ("2020-01-01", "2020-01-02", "2020-01-03")
        assert series.values.tolist() == [5.0, 0.0, 7.0]

    def test_gap_fill_applies_to_means_too(self):
        series = series_for(self.table_with_gap(), Subclass.TOTAL_TRAFFIC, Metric.DURATION_MIN)
        assert series.values[1] == 0.0
        assert series.values[0] == 1.0  # 60 s attacks

    def test_single_period_table(self):
        records = enrich_all([make_record(epoch(2020, 5, 5), epoch(2020, 5, 5) + 60)])
        table = aggregate(records, Granularity.DAILY)
        series = series_for(table, Subclass.TOTAL_TRAFFIC, Metric.COUNT)
        assert series.values.tolist() == [1.0]

    def test_subclass_absent(self):
        with pytest.raises(SubclassAbsentError):
            series_for(self.table_with_gap(), Subclass.ICMP, Metric.COUNT)

    def test_length_spans_first_to_last_occupied(self, synthetic_1000):
        records = enrich_all(synthetic_1000)
        table = aggregate(records, Granularity.DAILY)
        occupied = table.periods()
        first, last = dt.date.fromisoformat(occupied[0]), dt.date.fromisoformat(occupied[-1])
        expected_len = (last - first).days + 1
        series = series_for(table, records[0].subclass, Metric.COUNT)
        assert len(series.periods) == expected_len
        assert np.isfinite(series.values).all()
