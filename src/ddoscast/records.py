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
elements are exactly the array's. Each ``pool`` worker decodes, checks and
serializes its own part with ``ingest``'s functions; any other input is read
in one part, in this process, by the same function.

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
    _check_entries,
    _cycle_collector_paused,
    _detect_entries,
    _text_of,
    _violation,
    columns_in_bounds,
    parse_records,
    records_to_ndjson,
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


def read_records(path: str, raw: bytes, digest: str) -> tuple[RecordTable, str]:
    """The table of the records file ``path``, whose bytes ``raw`` hash to ``digest``.

    Returns it with what it was read from: the sidecar beside ``path``
    when that fits ``raw``, and otherwise "parse".
    """
    if not raw or raw.isspace():
        raise EmptyDatasetError(f"records file {path} is empty")
    table = _load_sidecar(Path(path).with_name(SIDECAR_NAME), digest)
    read_from = SIDECAR_NAME
    if table is None:
        table, read_from = enrich_all(parse_records(raw)[0]), "parse"
    if not table:
        raise EmptyDatasetError(f"no valid records in {path}")
    return table, read_from


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


def _ingest_part(text: str, strict: bool, start: int, stop: int):
    """Decode, check and serialize the part ``text[start:stop]`` of the array ``text``.

    A part that is all of ``text`` is read as ``ingest._detect_entries``
    reads any export. Returns (NDJSON bytes, source columns, entry count,
    rejections, violation) as ``_check_entries`` gives them, located within
    the part; the columns are subclass, start, stop and max_bps, and a part
    with a violation has no bytes or columns. Raises NotJsonError when the
    part does not decode.
    """
    part = ("[" if start else "") + text[start:stop] + ("]" if stop < len(text) else "")
    with _cycle_collector_paused():
        entries = _detect_entries(part)
        del part
        count = len(entries)
        records, rejections, violation = _check_entries(entries, strict)
    if violation is not None:
        return None, None, count, None, violation
    columns = (records.subclass, records.start, records.stop, records.max_bps)
    return records_to_ndjson(records).encode(), columns, count, rejections, None


def ingest_export(raw: bytes | str, strict: bool = False):
    """The records file of an export, and its ParseReport.

    Returns ({"records.ndjson": chunks, "records.cols": bytes}, report): the
    NDJSON as a list of byte chunks whose concatenation is
    ``records_to_ndjson(records).encode()``, with records and report as
    ``parse_records`` would give them, and raises what it raises.

    A JSON array is cut into one part per ``pool`` worker, and each worker
    decodes, checks and serializes its own part of the decoded text.
    Rejection locations of a part are shifted by the entries of the parts
    before it, and in strict mode the first violation in input order is
    raised once every part has decoded. A part that fails to decode raises
    NotJsonError through ``run_pool``, which stops the other workers, and
    the whole text is then read in one part, so a broken document raises
    the same NotJsonError as ``parse_records``. Any other input, and any
    input on one worker, is read in one part.
    """
    text = _text_of(raw)
    if _ARRAY.match(text):
        bounds = _part_bounds(text, pool.worker_count())
        if len(bounds) > 1:
            try:
                parts = pool.run_pool(_ingest_part, bounds, (text, strict), "an ingest worker")
            except NotJsonError:
                pass
            else:
                return _merge_parts(parts)
    return _merge_parts([_ingest_part(text, strict, 0, len(text))])


def _merge_parts(parts: list):
    """``ingest_export``'s result from its parts' results, or the first violation raised."""
    chunks, columns, rejections, offset = [], [], [], 0
    for chunk, part_columns, count, part_rejections, violation in parts:
        if violation is not None:
            location, reason = violation
            raise _violation(offset + location, reason)
        chunks.append(chunk)
        columns.append(part_columns)
        rejections += [(offset + location, reason) for location, reason in part_rejections]
        offset += count
    table = RecordTable(*map(np.concatenate, zip(*columns)))
    return records_files(chunks, table), ParseReport(len(table), len(rejections), rejections)
