import datetime as dt
import random

import pytest

from ddoscast.analytics import (
    DURATION_BINS_MIN,
    THROUGHPUT_BINS_GBPS,
    GrowthDimension,
    csv_text,
    global_stats,
    growth_pct,
    growth_to_csv,
    histogram_duration,
    histogram_throughput,
    histogram_to_csv,
    rank_subclasses,
    ranking_to_csv,
    stats_to_csv,
    yoy_growth,
)
from ddoscast.errors import EmptyDatasetError, YearAbsentError
from ddoscast.ingest import Subclass
from ddoscast.preprocess import Metric, enrich_all
from test_preprocess import epoch, make_record


def enriched(*records):
    return enrich_all(list(records))


class TestGlobalStats:
    def test_single_record(self):
        stats = global_stats(enriched(make_record(epoch(2020, 1, 1), epoch(2020, 1, 1) + 60)))
        assert stats.record_count == 1
        assert stats.total_duration_s == 60
        assert stats.longest_attack_s == 60
        assert stats.max_throughput_gbps == 1.0
        assert stats.date_min == stats.date_max == dt.date(2020, 1, 1)

    def test_years_use_365_days(self):
        stats = global_stats(enriched(make_record(0, 31_536_000)))
        assert stats.total_duration_years == 1.0

    def test_against_scan_oracle(self, synthetic_1000):
        records = enrich_all(synthetic_1000[:100])
        stats = global_stats(records)
        # independent linear scan
        durations = [r.duration_s for r in records]
        assert stats.total_duration_s == sum(durations)
        assert stats.longest_attack_s == max(durations)
        assert stats.max_throughput_gbps == max(r.max_gbps for r in records)
        assert stats.date_min == min(r.start_time.date() for r in records)
        assert stats.date_max == max(r.start_time.date() for r in records)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            global_stats(enriched())


class TestHistograms:
    def test_duration_bin_membership(self):
        hist = histogram_duration(enriched(make_record(0, 20 * 60)))
        assert hist.counts == [0, 1, 0, 0, 0]

    def test_duration_half_open_edges(self):
        hist = histogram_duration(enriched(make_record(0, 30 * 60)))
        assert hist.counts == [0, 0, 1, 0, 0]  # exactly 30 min lands in [30,60)

    def test_throughput_terabit_bin(self):
        hist = histogram_throughput(enriched(make_record(0, 60, max_bps=1_460_000_000_000)))
        assert hist.counts == [0, 0, 0, 1]

    def test_throughput_edge(self):
        hist = histogram_throughput(enriched(make_record(0, 60, max_bps=10 * 10**9)))
        assert hist.counts == [0, 1, 0, 0]

    def test_counts_match_per_record_predicate_oracle(self, synthetic_1000):
        records = enrich_all(synthetic_1000)
        for hist, bins, value_of in (
            (histogram_duration(records, per_year=True), DURATION_BINS_MIN,
             lambda r: r.duration_min),
            (histogram_throughput(records, per_year=True), THROUGHPUT_BINS_GBPS,
             lambda r: r.max_gbps),
        ):
            for idx, (lo, hi) in enumerate(bins):
                expected = sum(1 for r in records if lo <= value_of(r) < hi)
                assert hist.counts[idx] == expected
            # partition property, overall and per year
            assert sum(hist.counts) == len(records)
            per_year_total = sum(sum(c) for c in hist.by_year.values())
            assert per_year_total == len(records)

    def test_empty_dataset(self):
        with pytest.raises(EmptyDatasetError):
            histogram_duration(enriched())


class TestGrowth:
    def test_growth_277_to_538(self):
        pct = growth_pct(277, 538)
        assert pct == pytest.approx(94.22, abs=0.005)

    def test_flat_and_halved(self):
        assert growth_pct(100, 100) == 0.0
        assert growth_pct(200, 100) == -50.0

    def test_zero_baseline_undefined(self):
        assert growth_pct(0, 10) is None

    def test_reciprocal_property(self):
        rng = random.Random(4)
        for _ in range(200):
            a = rng.uniform(0.1, 1e6)
            b = rng.uniform(0.1, 1e6)
            g1 = growth_pct(a, b)
            g2 = growth_pct(b, a)
            assert (1 + g1 / 100) * (1 + g2 / 100) == pytest.approx(1.0, abs=1e-9)

    def test_yoy_subclass_counts(self):
        records = enriched(
            *[make_record(epoch(2019, 3, 1) + i, epoch(2019, 3, 1) + i + 60) for i in range(4)],
            *[make_record(epoch(2020, 3, 1) + i, epoch(2020, 3, 1) + i + 60) for i in range(6)],
            make_record(epoch(2019, 5, 1), epoch(2019, 5, 1) + 60, subclass=Subclass.ICMP),
        )
        report = yoy_growth(records, 2019, 2020, GrowthDimension.SUBCLASS_COUNTS)
        cells = {c.label: c for c in report.cells}
        tt = cells["TotalTraffic"]
        assert (tt.value_a, tt.value_b) == (4, 6)
        assert tt.growth_pct == pytest.approx(50.0)
        icmp = cells["ICMP"]
        assert icmp.value_b == 0 and icmp.growth_pct == -100.0
        assert cells["Bandwidth"].growth_pct is None  # zero baseline

    def test_yoy_duration_bins(self):
        records = enriched(
            make_record(epoch(2019, 1, 1), epoch(2019, 1, 1) + 20 * 60),
            make_record(epoch(2020, 1, 1), epoch(2020, 1, 1) + 20 * 60),
            make_record(epoch(2020, 1, 2), epoch(2020, 1, 2) + 20 * 60),
        )
        report = yoy_growth(records, 2019, 2020, GrowthDimension.DURATION_BINS)
        cell = {c.label: c for c in report.cells}["[15,30)"]
        assert (cell.value_a, cell.value_b) == (1, 2)
        assert cell.growth_pct == pytest.approx(100.0)

    def test_year_absent(self):
        records = enriched(make_record(epoch(2020, 1, 1), epoch(2020, 1, 1) + 60))
        with pytest.raises(YearAbsentError):
            yoy_growth(records, 2019, 2020, GrowthDimension.SUBCLASS_COUNTS)


class TestRanking:
    def test_single_subclass_dataset(self):
        records = enriched(
            make_record(epoch(2020, 1, 1), epoch(2020, 1, 1) + 60, subclass=Subclass.ICMP)
        )
        ranking = rank_subclasses(records, Metric.COUNT)
        assert ranking[0] == (Subclass.ICMP, 1.0)
        assert all(value == 0.0 for _, value in ranking[1:])
        assert len(ranking) == len(Subclass)

    def test_planted_counts_match_sort_oracle(self, synthetic_1000):
        records = enrich_all(synthetic_1000)
        ranking = rank_subclasses(records, Metric.COUNT)
        # count-then-sort oracle
        counts = {sub: 0 for sub in Subclass}
        for rec in records:
            counts[rec.subclass] += 1
        expected = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].value))
        assert [(s, v) for s, v in ranking] == [(s, float(v)) for s, v in expected]

    def test_ranking_is_permutation_of_enum(self, synthetic_1000):
        records = enrich_all(synthetic_1000[:50])
        for metric in Metric:
            ranking = rank_subclasses(records, metric)
            assert {sub for sub, _ in ranking} == set(Subclass)
            assert all(value >= 0 for _, value in ranking)

    def test_tie_break_alphabetical(self):
        records = enriched(
            make_record(epoch(2020, 1, 1), epoch(2020, 1, 1) + 60, subclass=Subclass.ICMP),
            make_record(epoch(2020, 1, 2), epoch(2020, 1, 2) + 60, subclass=Subclass.BANDWIDTH),
        )
        ranking = rank_subclasses(records, Metric.COUNT)
        assert [sub for sub, _ in ranking[:2]] == [Subclass.BANDWIDTH, Subclass.ICMP]

    def test_mean_metrics_equal_sequential_loop_exactly(self, synthetic_1000):
        records = enrich_all(synthetic_1000)
        for metric, value_of in ((Metric.DURATION_MIN, lambda r: r.duration_min),
                                 (Metric.MAX_GBPS, lambda r: r.max_gbps)):
            sums = {sub: [0.0, 0] for sub in Subclass}
            for rec in records:
                sums[rec.subclass][0] += value_of(rec)
                sums[rec.subclass][1] += 1
            expected = {sub: total / n if n else 0.0 for sub, (total, n) in sums.items()}
            assert dict(rank_subclasses(records, metric)) == expected

    def test_mean_metrics(self):
        records = enriched(
            make_record(epoch(2020, 1, 1), epoch(2020, 1, 1) + 600, subclass=Subclass.ICMP),
            make_record(epoch(2020, 1, 2), epoch(2020, 1, 2) + 1200, subclass=Subclass.ICMP),
        )
        ranking = rank_subclasses(records, Metric.DURATION_MIN)
        assert ranking[0] == (Subclass.ICMP, 15.0)


class TestCsvExports:
    def test_stats_csv(self):
        text = stats_to_csv(global_stats(enriched(make_record(0, 60))))
        lines = text.strip().split("\n")
        assert lines[0].startswith("record_count,total_duration_s")
        assert lines[1].split(",")[0] == "1"

    def test_histogram_csv_has_all_and_yearly_rows(self, synthetic_1000):
        records = enrich_all(synthetic_1000[:100])
        hist = histogram_duration(records, per_year=True)
        lines = histogram_to_csv(hist).strip().split("\n")
        n_years = len(hist.by_year)
        assert len(lines) == 1 + 5 * (1 + n_years)
        assert lines[1].split(",")[3] == "all"

    def test_growth_csv_undefined_as_na(self):
        records = enriched(
            make_record(epoch(2019, 1, 1), epoch(2019, 1, 1) + 60),
            make_record(epoch(2020, 1, 1), epoch(2020, 1, 1) + 60),
        )
        report = yoy_growth(records, 2019, 2020, GrowthDimension.SUBCLASS_COUNTS)
        text = growth_to_csv(report)
        assert ",n/a" in text

    def test_ranking_csv_integer_counts(self):
        records = enriched(make_record(0, 60))
        text = ranking_to_csv(rank_subclasses(records, Metric.COUNT))
        assert text.strip().split("\n")[1] == "1,TotalTraffic,1"

    def test_csv_text_quotes_only_where_needed(self):
        text = csv_text(["a", "b"], [["[0,15)", 0.1], ['say "hi"', 1e-300]])
        assert text == 'a,b\n"[0,15)",0.1\n"say ""hi""",1e-300\n'

    def test_several_blocks_share_one_header(self, synthetic_1000):
        records = enrich_all(synthetic_1000[:100])
        dur, thr = histogram_duration(records), histogram_throughput(records)
        assert histogram_to_csv(dur, thr) == (
            histogram_to_csv(dur) + histogram_to_csv(thr).split("\n", 1)[1])
        years = sorted(set(records.start_years().tolist()))
        reports = [yoy_growth(records, years[0], years[-1], dim) for dim in GrowthDimension]
        lines = growth_to_csv(*reports).split("\n")
        assert lines[0] == "dimension,cell,value_a,value_b,growth_pct"
        assert lines.count(lines[0]) == 1
        assert len(lines) == 1 + sum(len(r.cells) for r in reports) + 1  # the final newline
