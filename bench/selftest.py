"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs each workload at a small size through the real CLI, asserts that the
checks pass on the untouched outputs, then corrupts the outputs and asserts
that every corruption is reported as a failed operation: a truncated
stats.csv, a wrong record count, a NaN in history.csv, a missing grid row,
and a history that drifts from the reference by more than the tolerance
(while last-bit drift is accepted). Exits 0 when every case behaves.
"""

from __future__ import annotations

import json
import shutil
import sys

from workloads import (
    REFERENCE_PATH, REFERENCE_RTOL, ROOT, SRC, ExportEtl, Facts, GridDefault, TrainRef,
    synthetic,
)

SEED = 7  # not the reference seed, so the small runs skip the reference comparison


class SmallEtl(ExportEtl):
    records = 3_000


class SmallTrain(TrainRef):
    records = 3_000
    epochs = 2


class SmallGrid(GridDefault):
    records = 3_000
    epochs = 1


def _run(workload) -> str:
    workload.facts = Facts.of(workload.setup())
    commands = workload.run_op()
    failed = [c for c in commands if c.code != 0]
    if failed:
        return f"{failed[0].name} exited {failed[0].code}"
    return "; ".join(workload.check().errors)


def _edit(path, edit) -> None:
    path.write_text(edit(path.read_text()))


def main() -> int:
    sys.path.insert(0, str(SRC))
    work = ROOT / ".bench_work" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    results = []

    def expect(name: str, errors: list[str] | str, should_fail: bool) -> None:
        text = errors if isinstance(errors, str) else "; ".join(errors)
        ok = bool(text) == should_fail
        results.append(ok)
        verdict = "caught" if text else "accepted"
        detail = f": {text[:160]}" if text else ""
        print(f"{'PASS' if ok else 'FAIL'} {name}: {verdict}{detail}")

    etl = SmallEtl(work / "etl", SEED)
    expect("export-etl clean outputs", _run(etl), should_fail=False)
    stats = etl.out / f"analyze-{SEED}" / "stats.csv"
    original = stats.read_text()
    stats.write_text(original[: len(original) // 2])
    expect("export-etl truncated stats.csv", etl.check().errors, should_fail=True)
    stats.write_text(original.replace(f"\n{etl.facts.record_count},",
                                      f"\n{etl.facts.record_count + 1},"))
    expect("export-etl wrong record_count", etl.check().errors, should_fail=True)

    train = SmallTrain(work / "train", SEED)
    expect("train-ref clean outputs", _run(train), should_fail=False)
    history = train.out / f"train-{SEED}" / "history.csv"
    _edit(history, lambda text: text.rstrip("\n").rsplit(",", 1)[0] + ",nan\n")
    expect("train-ref NaN in history.csv", train.check().errors, should_fail=True)

    grid = SmallGrid(work / "grid", SEED)
    expect("grid-default clean outputs", _run(grid), should_fail=False)
    _edit(grid.out / f"grid-{SEED}" / "grid.csv",
          lambda text: text.rstrip("\n").rsplit("\n", 1)[0] + "\n")
    expect("grid-default missing grid row", grid.check().errors, should_fail=True)

    # Reference comparison: history written from the reference values, then
    # nudged by last-bit drift (accepted) and by a real error (caught).
    reference = json.loads(REFERENCE_PATH.read_text())
    ref = TrainRef(work / "ref", reference["seed"])
    ref.facts = Facts.of(synthetic(ref.seed, ref.records))
    rows = reference["workloads"]["train-ref"]["history"]
    path = ref.out / f"train-{ref.seed}" / "history.csv"
    path.parent.mkdir(parents=True)
    (path.parent / "checkpoint.json").write_text("{}")
    for name, factor, should_fail in (
        ("reference history, exact", 1.0, False),
        ("reference history, last-bit drift", 1.0 + 4e-16, False),
        ("reference history, off by 100x the tolerance", 1.0 + 100 * REFERENCE_RTOL, True),
    ):
        lines = ["epoch,train_mse,val_mse"] + [
            f"{e},{tr!r},{va * factor!r}" for e, (tr, va) in enumerate(rows, start=1)
        ]
        path.write_text("\n".join(lines) + "\n")
        expect(name, ref.check().errors, should_fail)

    print(f"self-test: {sum(results)}/{len(results)} cases behaved")
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
