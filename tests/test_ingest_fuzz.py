"""Byte mutations of small exports, run through the ``ingest`` command.

Four seed exports (an array, NDJSON with CRLF line ends and blank lines, a
wrapper object and a lone object spread over several lines) have bytes
flipped, cut and inserted, and each mutant is ingested in this process,
leniently and with ``--strict``. Whatever the bytes, the exit code is one
that README documents; a failure prints one ``error:`` line and no
traceback; a success leaves a run directory with a manifest and the parse
report that the per-entry oracle gives; and the oracle fails exactly when
the command does.
"""

import contextlib
import dataclasses
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import readme_exit_codes, record_obj
from parse_oracle import oracle_parse
from ddoscast.cli import main
from ddoscast.errors import DdoscastError

DOCUMENTED = readme_exit_codes()
_RECORDS = [
    record_obj(dst_cc=["US"], src_ports=[80, 443]),
    record_obj(subclass="TCP SYN", start=1577840400, stop=1577841000, src_cc=["DE", "FR"]),
    record_obj(start=9, stop=1),
    record_obj(attack_class="Detector", subclass="ICMP", max_bps=12345.0),
]
SEEDS = [
    json.dumps(_RECORDS).encode(),
    ("\r\n".join(json.dumps(r) for r in _RECORDS[:2]) + "\r\n\r\n  \r\n"
     + "\r\n".join(json.dumps(r) for r in _RECORDS[2:]) + "\r\n").encode(),
    json.dumps({"attacks": [r for r in _RECORDS if r["stop"] > 9]}).encode(),  # strict passes
    ("\n\n" + json.dumps(_RECORDS[1], indent=1) + "\n").encode(),
]
# Bytes with a meaning in these formats, besides arbitrary ones.
_TOKENS = [b"\n", b"\r\n", b",", b", ", b"{", b"}", b"[", b"]", b'"', b":", b"\\", b"\xef\xbb\xbf",
           b"\xff", b"\xc3", b"9" * 40, b'{"a": 1}']


@st.composite
def mutated_exports(draw) -> bytes:
    data = bytearray(draw(st.sampled_from(SEEDS)))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["flip", "cut", "insert"]))
        at = draw(st.integers(0, len(data)))
        if kind == "flip" and at < len(data):
            data[at] ^= draw(st.integers(1, 255))
        elif kind == "cut":
            del data[at:at + draw(st.integers(1, 24))]
        elif kind == "insert":
            data[at:at] = draw(st.sampled_from(_TOKENS) | st.binary(min_size=1, max_size=8))
    return bytes(data)


def oracle_report(export: bytes, strict: bool):
    """The per-entry oracle's report as JSON values, or None where it fails."""
    try:
        return json.loads(json.dumps(dataclasses.asdict(oracle_parse(export, strict)[1])))
    except (DdoscastError, UnicodeDecodeError):
        return None


@given(mutated_exports(), st.booleans())
@settings(max_examples=400, deadline=None)
def test_a_mutated_export_ingests_or_fails_with_one_error_line(export, strict):
    with tempfile.TemporaryDirectory() as tmp:
        source, out = Path(tmp) / "export.json", Path(tmp) / "o"
        source.write_bytes(export)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["ingest", str(source), "--out", str(out),
                         *(["--strict"] if strict else [])])
        assert code in DOCUMENTED
        expected = oracle_report(export, strict)
        if code != 0:
            message = err.getvalue()
            assert message.startswith("error: ") and message.count("\n") == 1, message
            assert "Traceback" not in message
            assert expected is None
            return
        run_dir = out / "ingest-0"
        assert run_dir.is_dir() and not run_dir.is_symlink()
        assert (run_dir / "manifest.json").is_file()
        assert json.loads((run_dir / "parse_report.json").read_text()) == expected
