"""Mutations of a small records file, read by the ``analyze`` and ``train`` commands.

``ingest --synthetic`` writes a ``records.ndjson`` and its ``records.cols``.
Each example mutates one of them in one of three ways:
  - the NDJSON, with the old ``records.cols`` beside it;
  - the ``records.cols`` body, re-stamped for the unchanged NDJSON, so the
    mutated columns pass the stamp and reach the range checks;
  - the ``records.cols`` body under its old stamp, or the whole file cut
    short or extended.
The mutant is then read by in-process ``analyze`` or ``train --epochs 1
--window 2 --hidden 2``. Whatever the bytes, the exit code is one that
README documents, and a failure prints one ``error:`` line, no traceback
and leaves no run directory. A success never reads a changed NDJSON, or a
``records.cols`` that no longer fits its stamp, through the sidecar: its
manifest says ``read_from`` "parse".
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate_bytes, quiet_main, readme_exit_codes
from ddoscast.cli import sha256_hex
from ddoscast.records import _HEADER_BYTES, _SIDECAR_MAGIC, SIDECAR_NAME, _stamp

DOCUMENTED = readme_exit_codes()
COMMANDS = {
    "analyze": [],
    "train": ["--epochs", 1, "--window", 2, "--hidden", 2],
}
_JSON_TOKENS = [b"\n", b",", b"{", b"}", b'"', b":", b"-", b"0", b"null", b"1e999", b"9" * 40,
                b"\xef\xbb\xbf"]
# a whole record's width (3 int64 and a code), and bytes that set a value's high bits
_BODY_TOKENS = [bytes(25), b"\xff" * 8, b"\x7f"]


@pytest.fixture(scope="module")
def records(tmp_path_factory) -> tuple[bytes, bytes]:
    """(records.ndjson, records.cols) of 200 synthetic records over 91 days."""
    out = tmp_path_factory.mktemp("records")
    assert quiet_main(["ingest", "--synthetic", "--count", 200, "--start-date", "2020-01-01",
                       "--end-date", "2020-03-31", "--out", out])[0] == 0
    run_dir = out / "ingest-0"
    return (run_dir / "records.ndjson").read_bytes(), (run_dir / SIDECAR_NAME).read_bytes()


def ndjson_mutant(draw, ndjson: bytes, cols: bytes) -> tuple[bytes, bytes]:
    return mutate_bytes(draw, ndjson, _JSON_TOKENS), cols


def restamped_body_mutant(draw, ndjson: bytes, cols: bytes) -> tuple[bytes, bytes]:
    body = mutate_bytes(draw, cols[_HEADER_BYTES:], _BODY_TOKENS)
    return ndjson, _SIDECAR_MAGIC + _stamp(sha256_hex(ndjson), body) + body


def stale_mutant(draw, ndjson: bytes, cols: bytes) -> tuple[bytes, bytes]:
    kind = draw(st.sampled_from(["body", "cut", "extend"]))
    if kind == "body":
        cols = cols[:_HEADER_BYTES] + mutate_bytes(draw, cols[_HEADER_BYTES:], _BODY_TOKENS)
    elif kind == "cut":
        cols = cols[:draw(st.integers(0, len(cols) - 1))]
    else:
        cols += draw(st.binary(min_size=1, max_size=60))
    return ndjson, cols


# 3 x 200 examples took 5.4-5.8 s in all (two runs) on a 2-CPU Intel Xeon.
@pytest.mark.parametrize("mutate", [ndjson_mutant, restamped_body_mutant, stale_mutant])
@given(data=st.data(), command=st.sampled_from(sorted(COMMANDS)))
@settings(max_examples=200, deadline=None)
def test_a_mutated_records_file_is_read_or_fails_with_one_error_line(records, mutate, data,
                                                                      command):
    ndjson, cols = mutate(data.draw, *records)
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "records.ndjson", Path(tmp) / "o"
        source.write_bytes(ndjson)
        source.with_name(SIDECAR_NAME).write_bytes(cols)
        code, message = quiet_main([command, source, *COMMANDS[command], "--out", out])
        assert code in DOCUMENTED
        run_dir = out / f"{command}-0"
        if code != 0:
            assert message.startswith("error: ") and message.count("\n") == 1, message
            assert "Traceback" not in message
            assert not run_dir.exists()
            return
        [entry] = json.loads((run_dir / "manifest.json").read_text())["inputs"]
        stale = mutate is stale_mutant and cols != records[1]
        if ndjson != records[0] or stale:
            assert entry["read_from"] == "parse"
