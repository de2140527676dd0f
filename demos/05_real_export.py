"""Analyzing the real attack-map export
=======================================

The live site behind digitalattackmap.com serves its full history as a
single JSON file (attacks_v2.json, ~163 MB). Download it in a browser via
the network inspector, then point DDOSCAST_REAL_DATA at it:

    DDOSCAST_REAL_DATA=/path/to/attacks_v2.json python demos/05_real_export.py

Without the file this demo prints the instructions above and exits.
"""

import os
import sys
from pathlib import Path

from ddoscast.analytics import global_stats, histogram_throughput, rank_subclasses
from ddoscast.ingest import parse_records
from ddoscast.preprocess import Metric, enrich_all

path = os.environ.get("DDOSCAST_REAL_DATA", "")
if not path or not os.path.exists(path):
    print(__doc__)
    sys.exit(0)

print(f"parsing {path} ...")
records, report = parse_records(Path(path).read_bytes())
print(f"accepted={report.accepted} rejected={report.rejected}")

enriched = enrich_all(records)
stats = global_stats(enriched)
print(f"\nrecords:        {stats.record_count}")
print(f"total duration: {stats.total_duration_s} s ({stats.total_duration_years:.2f} years)")
print(f"peak rate:      {stats.max_throughput_gbps:.0f} Gbps")
print(f"longest attack: {stats.longest_attack_s} s")
print(f"span:           {stats.date_min} .. {stats.date_max}")

print("\nall-time subclass ranking by count:")
for rank, (subclass, value) in enumerate(rank_subclasses(enriched, Metric.COUNT), 1):
    print(f"  {rank:>2}. {subclass.value:<14} {int(value)}")

print("\nterabit-class attacks per year:")
hist = histogram_throughput(enriched, per_year=True)
for year, counts in hist.by_year.items():
    print(f"  {year}: {counts[-1]}")
