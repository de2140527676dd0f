"""Regenerate reference.json: train-ref and grid-default outputs at the reference seed.

    python3 bench/make_reference.py

Run it only when a change is meant to alter training results, and say so in
the change; the checks compare later runs against this file.
"""

from __future__ import annotations

import json
import sys

from workloads import REFERENCE_PATH, ROOT, SRC, Facts, GridDefault, TrainRef, read_rows

SEED = 0


def main() -> int:
    sys.path.insert(0, str(SRC))
    doc = {"seed": SEED, "workloads": {}}
    for cls, csv_name, key, columns in (
        (TrainRef, "history.csv", "history", ("train_mse", "val_mse")),
        (GridDefault, "grid.csv", "cells", ("train_mse", "test_mse")),
    ):
        workload = cls(ROOT / ".bench_work" / "reference" / cls.name, SEED)
        workload.facts = Facts.of(workload.setup())
        if any(c.code != 0 for c in workload.run_op()):
            print(f"error: {cls.name} failed; see {workload.log}", file=sys.stderr)
            return 1
        command = workload.commands()[0][0]
        rows = read_rows(workload.out / f"{command}-{SEED}" / csv_name)
        doc["workloads"][cls.name] = {key: [[float(r[c]) for c in columns] for r in rows]}
    REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
