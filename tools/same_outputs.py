"""Check that two source trees give the same CLI outputs on one seeded export.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC [--records N]

PARENT_SRC and CHANGE_SRC are directories that hold a ``ddoscast``
package (a checkout's ``src``). PARENT_SRC's ``generate_synthetic`` and
``records_to_json`` write one JSON-array export of N records (seed 0,
2013-06-01..2020-12-31), with three malformed entries in front: a
non-object, a record without ``stop`` and one that stops before it starts.
The same entries are also written as a non-canonical export: compact
separators, keys unsorted, squashed subclass names ("UDPMisuse") and every
absent optional member as ``null``, so no record is in the form ingest
writes. The export's records are also written as the records.ndjson ingest
writes, with no records.cols beside it. Each tree then runs, each command
in a fresh ``python -m ddoscast.cli`` process with that tree first on
PYTHONPATH:

    ingest, analyze, train --epochs 3, forecast,
    grid --epochs 1 --windows 8,24 --hiddens 16,32,
    ingest of the first ingest's records.ndjson, into ndjson/,
    train --window 8 --hidden 8 --epochs 2, forecast of that checkpoint
    and grid --windows 4,8 --hiddens 4 --epochs 1, into options/,
    ingest of the non-canonical export, into noncanonical/,
    analyze and train --epochs 3 of the export itself, into export/,
    analyze of the records.ndjson that has no records.cols, into bare/

The NDJSON ingest parses in one part, in its own process. The last three
commands read a file that has no sidecar, as ingest reads an export: on
the pool, for an export large enough to cut. The options/ runs give every
series and fitting option a value other than its default
(--subclass ICMP --metric max_gbps --norm-source train_only
--learning-rate 0.001 --batch-size 16; forecast reads them from the
checkpoint), so a value dropped on its way to the model changes a file.
Every output file but ``manifest.json`` is compared byte for byte, and
``grid.csv`` without its ``wall_ms`` column. One verdict is printed per
file, 35 in all. The exit code is 0 only if every command exited 0 in both
trees and every file is the same.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

_EXPORT = """
import datetime as dt, json, sys
from ddoscast.ingest import SyntheticSpec, generate_synthetic, records_to_json, records_to_ndjson
spec = SyntheticSpec(record_count=int(sys.argv[2]), start_date=dt.date(2013, 6, 1),
                     end_date=dt.date(2020, 12, 31), seed=0)
malformed = ["not an object",
             {"attack_class": "Misuse", "subclass": "ICMP", "max_bps": 1, "start": 1},
             {"attack_class": "Misuse", "subclass": "ICMP", "max_bps": 1, "start": 9, "stop": 2}]
records = generate_synthetic(spec)
text = records_to_json(records)
with open(sys.argv[1], "w") as fh:
    fh.write("[" + ", ".join(map(json.dumps, malformed)) + ", " + text[1:])
noncanonical = [{"subclass": r.subclass.value, "attack_class": r.attack_class.value,
                 "start": r.start, "stop": r.stop, "max_bps": r.max_bps, "dst_cc": r.dst_cc,
                 "src_cc": r.src_cc, "dst_ports": r.dst_ports, "src_ports": r.src_ports}
                for r in records]
with open(sys.argv[3], "w") as fh:
    json.dump(malformed + noncanonical, fh, separators=(",", ":"))
with open(sys.argv[4], "w") as fh:
    fh.write(records_to_ndjson(records))
"""


_OPTIONS = ["--subclass", "ICMP", "--metric", "max_gbps", "--norm-source", "train_only",
            "--learning-rate", "0.001", "--batch-size", "16"]


def _commands(export: Path, noncanonical: Path, bare: Path, out: Path) -> list[list[str]]:
    records = str(out / "ingest-0" / "records.ndjson")
    common = ["--out", str(out), "--seed", "0"]
    in_options = ["--out", str(out / "options"), "--seed", "0"]
    return [
        ["ingest", str(export), *common],
        ["analyze", records, *common],
        ["train", records, "--epochs", "3", *common],
        ["forecast", str(out / "train-0" / "checkpoint.json"), records, *common],
        ["grid", records, "--epochs", "1", "--windows", "8,24", "--hiddens", "16,32", *common],
        ["ingest", records, "--out", str(out / "ndjson"), "--seed", "0"],
        ["train", records, "--window", "8", "--hidden", "8", "--epochs", "2", *_OPTIONS,
         *in_options],
        ["forecast", str(out / "options" / "train-0" / "checkpoint.json"), records, *in_options],
        ["grid", records, "--windows", "4,8", "--hiddens", "4", "--epochs", "1", *_OPTIONS,
         *in_options],
        ["ingest", str(noncanonical), "--out", str(out / "noncanonical"), "--seed", "0"],
        ["analyze", str(export), "--out", str(out / "export"), "--seed", "0"],
        ["train", str(export), "--epochs", "3", "--out", str(out / "export"), "--seed", "0"],
        ["analyze", str(bare), "--out", str(out / "bare"), "--seed", "0"],
    ]


def _run(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def _without_wall_ms(data: bytes) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(data.decode())))
    keep = [i for i, name in enumerate(rows[0] if rows else []) if name != "wall_ms"]
    return [[row[i] for i in keep] for row in rows]


def _outputs(root: Path) -> dict[str, Path]:
    return {str(path.relative_to(root)): path for path in root.rglob("*")
            if path.is_file() and path.name != "manifest.json"}


def compare(parent: Path, change: Path) -> list[tuple[str, str]]:
    """(relative path, "same", "different" or "only in parent/change") of each output file."""
    trees = [_outputs(parent), _outputs(change)]
    verdicts = []
    for name in sorted(set(trees[0]) | set(trees[1])):
        if name not in trees[1] or name not in trees[0]:
            verdicts.append((name, "only in " + ("parent" if name in trees[0] else "change")))
            continue
        a, b = (tree[name].read_bytes() for tree in trees)
        same = _without_wall_ms(a) == _without_wall_ms(b) if name.endswith("grid.csv") else a == b
        verdicts.append((name, "same" if same else "different"))
    return verdicts


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_src", type=Path)
    parser.add_argument("change_src", type=Path)
    parser.add_argument("--records", type=int, default=192_525, help="records in the export")
    args = parser.parse_args(argv)
    if args.records < 1:
        parser.error("--records must be >= 1")
    ok = True
    with tempfile.TemporaryDirectory(prefix="same-outputs-") as tmp:
        root = Path(tmp)
        export, noncanonical = root / "export.json", root / "noncanonical.json"
        bare = root / "records.ndjson"  # with no records.cols beside it
        made = _run(args.parent_src.resolve(), ["-c", _EXPORT, str(export), str(args.records),
                                                str(noncanonical), str(bare)])
        if made.returncode != 0:
            print(f"export: exited {made.returncode}\n{made.stderr}", end="")
            return 1
        outs = {}
        for side, src in (("parent", args.parent_src), ("change", args.change_src)):
            outs[side] = root / side
            for command in _commands(export, noncanonical, bare, outs[side]):
                done = _run(src.resolve(), ["-m", "ddoscast.cli", *command])
                if done.returncode != 0:
                    print(f"{side} {command[0]}: exited {done.returncode}: {done.stderr.strip()}")
                    ok = False
                    break
        for name, verdict in compare(outs["parent"], outs["change"]):
            print(f"{verdict:>16}  {name}")
            ok = ok and verdict == "same"
    print("all outputs are the same" if ok else "the outputs differ or a command failed")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
