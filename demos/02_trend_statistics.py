"""Descriptive statistics over an attack-record set
====================================================

Global totals, duration/throughput histograms, subclass rankings, and
year-on-year growth, all computed from one columnar table of enriched
records (duration in minutes, peak Gbps).
"""

from ddoscast.analytics import (
    GrowthDimension,
    global_stats,
    histogram_duration,
    histogram_throughput,
    rank_subclasses,
    yoy_growth,
)
from ddoscast.ingest import SyntheticSpec, generate_synthetic
from ddoscast.preprocess import Metric, enrich_all

records = enrich_all(generate_synthetic(SyntheticSpec(record_count=4000, seed=3)))

# 1. One-scan totals.
stats = global_stats(records)
print(f"records:        {stats.record_count}")
print(f"total duration: {stats.total_duration_s} s ({stats.total_duration_years:.2f} years)")
print(f"peak rate:      {stats.max_throughput_gbps:.1f} Gbps")
print(f"longest attack: {stats.longest_attack_s} s")
print(f"span:           {stats.date_min} .. {stats.date_max}")

# 2. Fixed-bin histograms. Bins are half-open, so every record lands in
#    exactly one bin and the counts always sum to the record count.
print("\nduration histogram (minutes):")
hist = histogram_duration(records)
for idx, count in enumerate(hist.counts):
    print(f"  {hist.bin_label(idx):>12}  {count}")

print("throughput histogram (Gbps):")
hist = histogram_throughput(records)
for idx, count in enumerate(hist.counts):
    print(f"  {hist.bin_label(idx):>12}  {count}")

# 3. Which subclasses dominate?
print("\ntop five subclasses by count:")
for rank, (subclass, value) in enumerate(rank_subclasses(records, Metric.COUNT)[:5], 1):
    print(f"  {rank}. {subclass.value:<14} {int(value)}")

# 4. Year-on-year growth per subclass. Cells with a zero baseline are
#    undefined rather than infinite.
print("\n2019 -> 2020 growth by subclass:")
report = yoy_growth(records, 2019, 2020, GrowthDimension.SUBCLASS_COUNTS)
for cell in report.cells:
    pct = "n/a" if cell.growth_pct is None else f"{cell.growth_pct:+.2f}%"
    print(f"  {cell.label:<14} {int(cell.value_a):>5} -> {int(cell.value_b):>5}  {pct}")
