"""Generating and parsing attack records
========================================

The library reads the attack-map export format: JSON arrays or NDJSON of
objects with attack_class, subclass, max_bps, start, stop and optional
country/port lists. This demo builds a deterministic synthetic record set,
writes it out, reads it back, and pokes at the lenient parser.
"""

import datetime as dt
from collections import Counter

from ddoscast.ingest import (
    SyntheticSpec,
    generate_synthetic,
    parse_records,
    records_to_ndjson,
)

# 1. A seeded specification: same seed, same records, on any machine.
#    Every subclass is equally likely.
spec = SyntheticSpec(
    record_count=500,
    start_date=dt.date(2019, 1, 1),
    end_date=dt.date(2020, 12, 31),
    seed=7,
)
records = generate_synthetic(spec)
print(f"generated {len(records)} records")
print("first record:", next(iter(records)))
print("subclass mix:")
for subclass, count in sorted(Counter(r.subclass for r in records).items(),
                              key=lambda item: item[0].value):
    print(f"  {subclass.value:<14} {count}")

# 2. Round trip: serialize to NDJSON and parse it back.
text = records_to_ndjson(records)
parsed, report = parse_records(text)
print(f"round trip: accepted={report.accepted} rejected={report.rejected}")
assert list(parsed) == list(records)

# 3. The parser is lenient by default: broken entries are reported, not fatal.
broken = text + '{"subclass": "Quantum Flood", "oops": true}\n'
parsed, report = parse_records(broken)
print(f"with one broken line: accepted={report.accepted} rejected={report.rejected}")
for location, reason in report.rejection_reasons:
    print(f"  line {location}: {reason}")

# 4. Strict mode turns the first bad entry into an exception instead.
try:
    parse_records(broken, strict=True)
except Exception as exc:
    print(f"strict mode raised: {type(exc).__name__}: {exc}")
