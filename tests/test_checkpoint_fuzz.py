"""Mutations of a small checkpoint, run through the ``forecast`` command.

A W=2, H=2 ``checkpoint.json`` as ``train`` writes it has bytes flipped,
cut and inserted, or one character swapped for another of its class (a
digit for a digit, a base64 character for a base64 character), so that
many mutants still parse and reach the model and the chart. Each mutant is
forecast in this process. Whatever the bytes, the exit code is one that
README documents; a failure prints one ``error:`` line, no traceback and
leaves no run directory; a success leaves a manifest, a ``forecast.csv`` of
finite values and a ``forecast.svg`` with one polyline per series.
"""

import csv
import math
import re
import string
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import mutate_bytes, quiet_main, readme_exit_codes

DOCUMENTED = readme_exit_codes()
_TOKENS = [b'"', b",", b":", b"{", b"}", b"[", b"]", b"0", b"-", b".", b"e", b"=", b"\\",
           b"null", b"true", b"NaN", b"Infinity", b"1e999"]
_CLASSES = [string.digits, string.ascii_letters + string.digits + "+/"]


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """(checkpoint bytes, records file) of a 1-epoch W=2, H=2 train on 300 synthetic records."""
    out = tmp_path_factory.mktemp("trained")
    assert quiet_main(["ingest", "--synthetic", "--count", 300, "--out", out])[0] == 0
    records = out / "ingest-0" / "records.ndjson"
    assert quiet_main(["train", records, "--window", 2, "--hidden", 2, "--epochs", 1,
                       "--out", out])[0] == 0
    return (out / "train-0" / "checkpoint.json").read_bytes(), records


def swap_character(draw, data: bytes) -> bytes:
    """``data`` with one digit, or one base64 character, replaced by another of its class."""
    chars = draw(st.sampled_from(_CLASSES))
    at = draw(st.sampled_from([i for i, byte in enumerate(data) if chr(byte) in chars]))
    new = draw(st.sampled_from([c for c in chars if c != chr(data[at])]))
    return data[:at] + new.encode() + data[at + 1:]


def flip_cut_insert(draw, data: bytes) -> bytes:
    return mutate_bytes(draw, data, _TOKENS)


# 2 x 200 examples took 2.6-3.5 s in all on a 2-CPU Intel Xeon.
@pytest.mark.parametrize("mutate", [flip_cut_insert, swap_character])
@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_a_mutated_checkpoint_forecasts_or_fails_with_one_error_line(trained, mutate, data):
    checkpoint, records = trained
    checkpoint = mutate(data.draw, checkpoint)
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "checkpoint.json", Path(tmp) / "o"
        source.write_bytes(checkpoint)
        code, message = quiet_main(["forecast", source, records, "--out", out])
        assert code in DOCUMENTED
        run_dir = out / "forecast-0"
        if code != 0:
            assert message.startswith("error: ") and message.count("\n") == 1, message
            assert "Traceback" not in message
            assert not run_dir.exists()
            return
        assert (run_dir / "manifest.json").is_file()
        with open(run_dir / "forecast.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["period", "actual", "predicted"] and rows
        assert all(math.isfinite(float(value)) for row in rows for value in row[1:])
        svg = (run_dir / "forecast.svg").read_text()
        assert len(re.findall(r"<polyline ", svg)) == 2
        assert "nan" not in svg and "inf" not in svg
