"""The records file: what ``ingest`` writes and every other command reads.

A records file is ``records.ndjson``, one export-format object per accepted
record, with ``records.cols`` beside it: the records' four source columns in
one fixed layout of n records,
  bytes 0-31   _SIDECAR_MAGIC, the format and its version
  bytes 32-63  the stamp: SHA-256 of the NDJSON's SHA-256 digest, then the body
  body         little-endian int64 start, stop and max_bps (8n bytes each),
               then the uint8 subclass codes (n bytes)
Reading a records file uses them only when the length, magic and stamp fit
and every value is in range; otherwise it parses the file. The stamp covers
the body, so a changed byte anywhere is a stale sidecar. The sidecar is a
cache: deleting it changes nothing but speed.

``ingest_export`` makes both files from an export. A JSON array is cut into
one part per worker, each cut at the first "}, {" (any JSON whitespace
around the comma) at or after the part's share of the text. A part decodes
as an array of its own: the first is the text up to its cut's "}" plus "]",
the next "[" plus the text from the cut's "{". A cut inside a string leaves
the part before it with an unterminated string, and a cut inside a nested
value leaves it with more than one container open, so when every part
decodes, every cut fell between two top-level elements and the parts'
elements are exactly the array's. Each ``pool`` worker reads its own part
in one pass: ``ingest._checked_rows`` decodes and checks it leniently, and
each accepted row goes straight to its NDJSON line (``ingest._record_lines``)
and to the four ``records.cols`` columns. A part builds no
``RecordColumns``. Any other input is read in one part, in this process, by
the same function.

This is a module of its own so that importing ``ingest`` to parse or
generate records loads no process pool.
"""

from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

from . import pool
from .errors import EmptyDatasetError, NotJsonError
from .ingest import (
    SUBCLASSES,
    ParseReport,
    _checked_rows,
    _record_lines,
    columns_in_bounds,
    parse_records,
)
from .preprocess import RecordTable, enrich_all

SIDECAR_NAME = "records.cols"
_SIDECAR_MAGIC = b"ddoscast records.cols 1".ljust(31) + b"\n"
_HEADER_BYTES = 64
_BYTES_PER_RECORD = 3 * 8 + 1


def _stamp(digest: str, body) -> bytes:
    """The stamp of ``body`` for the records file whose SHA-256 is ``digest``."""
    stamp = hashlib.sha256(bytes.fromhex(digest))
    stamp.update(body)
    return stamp.digest()


def _sidecar_bytes(records, digest: str) -> bytes:
    """The records.cols of ``records``, stamped for the NDJSON whose SHA-256 is ``digest``."""
    body = b"".join([np.asarray(records.start, "<i8").tobytes(),
                     np.asarray(records.stop, "<i8").tobytes(),
                     np.asarray(records.max_bps, "<i8").tobytes(),
                     np.asarray(records.subclass, np.uint8).tobytes()])
    return _SIDECAR_MAGIC + _stamp(digest, body) + body


def _load_sidecar(path: Path, digest: str) -> RecordTable | None:
    """The table cached in ``path`` for records whose bytes hash to ``digest``, or None."""
    try:
        raw = path.read_bytes()
    except OSError:
        return None
    n, extra = divmod(len(raw) - _HEADER_BYTES, _BYTES_PER_RECORD)
    if (n < 0 or extra or raw[:32] != _SIDECAR_MAGIC
            or raw[32:_HEADER_BYTES] != _stamp(digest, memoryview(raw)[_HEADER_BYTES:])):
        return None
    start, stop, max_bps = np.frombuffer(raw, "<i8", 3 * n, _HEADER_BYTES).reshape(3, n)
    codes = np.frombuffer(raw, np.uint8, n, _HEADER_BYTES + 24 * n)
    if not (np.all(codes < len(SUBCLASSES)) and columns_in_bounds(start, stop, max_bps)):
        return None
    return RecordTable(codes, start, stop, max_bps)


def records_files(chunks: list[bytes], table: RecordTable) -> dict:
    """The records file whose NDJSON is the byte ``chunks`` of the records in ``table``."""
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return {"records.ndjson": chunks, SIDECAR_NAME: _sidecar_bytes(table, digest.hexdigest())}


def read_records(path: str, raw: bytes, digest: str) -> tuple[RecordTable, dict]:
    """The table of the records file ``path``, whose bytes ``raw`` hash to ``digest``.

    Returns it with what it was read from, as manifest fields: the sidecar
    beside ``path`` when that fits ``raw``, and otherwise "parse", with the
    lenient parse's accepted and rejected counts.
    """
    if not raw or raw.isspace():
        raise EmptyDatasetError(f"records file {path} is empty")
    table = _load_sidecar(Path(path).with_name(SIDECAR_NAME), digest)
    source = {"read_from": SIDECAR_NAME}
    if table is None:
        records, report = parse_records(raw)
        table = enrich_all(records)
        source = {"read_from": "parse", "accepted": report.accepted, "rejected": report.rejected}
    if not table:
        raise EmptyDatasetError(f"no valid records in {path}")
    return table, source


# str.isspace() is true of exactly the characters \s matches in a str
# pattern, so this matches where text.strip() starts with "[".
_ARRAY = re.compile(r"\s*\[")
_CUT = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")


def _part_bounds(text: str, parts: int) -> list[tuple[int, int]]:
    """(start, stop) of each part of the array ``text``, cut at most ``parts - 1`` times."""
    bounds, start = [], 0
    for k in range(1, parts):
        cut = _CUT.search(text, max(start, len(text) * k // parts))
        if cut is None:
            break
        bounds.append((start, cut.start() + 1))
        start = cut.end() - 1
    bounds.append((start, len(text)))
    return bounds


def _ingest_part(text: str, start: int, stop: int):
    """Check and serialize each entry of the part ``text[start:stop]`` of ``text``, in one pass.

    Returns (NDJSON bytes, source columns, rejections): the columns are
    subclass, start, stop and max_bps, and the rejections are located within
    the part. Raises NotJsonError when the part does not decode.
    """
    kept, rejections = [], []  # kept: each accepted row's subclass, max_bps, start and stop, flat

    def noted(rows):
        for row in rows:
            kept.extend(row[1:5])
            yield row

    # The part's text is not kept in a variable, so it is freed with the decoded entries.
    head, tail = "[" if start else "", "]" if stop < len(text) else ""
    rows = _checked_rows(head + text[start:stop] + tail, rejections)
    ndjson = "".join(_record_lines(noted(rows), "\n")).encode()
    subclass, max_bps, begin, end = np.array(kept, np.int64).reshape(-1, 4).T
    return ndjson, (subclass.astype(np.uint8), begin, end, max_bps), rejections


def ingest_export(text: str):
    """The records file of an export's decoded ``text``, and its lenient ParseReport.

    Returns ({"records.ndjson": chunks, "records.cols": bytes}, report): the
    NDJSON as a list of byte chunks whose concatenation is
    ``records_to_ndjson(records).encode()``, with records and report as
    ``parse_records`` would give them, and raises what it raises.

    A JSON array is cut into one part per ``pool`` worker, and each worker
    checks and serializes its own part. Rejection locations of a part are
    shifted by the entries (accepted + rejected) of the parts before it. A
    part that fails to decode raises NotJsonError through ``run_pool``,
    which stops the other workers, and the whole text is then read in one
    part, so a broken document raises the same NotJsonError as
    ``parse_records``. Any other input, and any input on one worker, is read
    in one part.
    """
    if _ARRAY.match(text):
        bounds = _part_bounds(text, pool.worker_count())
        if len(bounds) > 1:
            try:
                parts = pool.run_pool(_ingest_part, bounds, (text,), "an ingest worker")
            except NotJsonError:
                pass
            else:
                return _merge_parts(parts)
    return _merge_parts([_ingest_part(text, 0, len(text))])


def _merge_parts(parts: list):
    """``ingest_export``'s result from its parts' results."""
    chunks, columns, rejections, offset = [], [], [], 0
    for chunk, part_columns, part_rejections in parts:
        chunks.append(chunk)
        columns.append(part_columns)
        rejections += [(offset + location, reason) for location, reason in part_rejections]
        offset += len(part_columns[0]) + len(part_rejections)  # the part's entries
    table = RecordTable(*map(np.concatenate, zip(*columns)))
    return records_files(chunks, table), ParseReport(len(table), len(rejections), rejections)
