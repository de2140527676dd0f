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

``ingest_export`` makes both files from an export: ``ingest.export_parts``
cuts it into one part per worker, and each ``pool`` worker reads its own
part with ``ingest.ingest_part``. An export that is not cut is read in one
part, in this process, by the same function. How an export is cut and read
is ``ingest``'s alone; this module runs the parts and merges their results.

This is a module of its own so that importing ``ingest`` to parse or
generate records loads no process pool.
"""

from __future__ import annotations

import contextlib
import hashlib
from pathlib import Path

import numpy as np

from . import pool
from .errors import EmptyDatasetError, NotJsonError
from .ingest import (
    SUBCLASSES,
    ParseReport,
    columns_in_bounds,
    export_parts,
    ingest_part,
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


def records_files(chunks: list[bytes], records) -> dict:
    """The records file whose NDJSON is the byte ``chunks`` of ``records``.

    ``records`` is any columns of them with ``subclass``, ``start``, ``stop``
    and ``max_bps``: a ``RecordTable`` or ``ingest.RecordColumns``.
    """
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return {"records.ndjson": chunks, SIDECAR_NAME: _sidecar_bytes(records, digest.hexdigest())}


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


def ingest_export(text: str):
    """The records file of an export's decoded ``text``, and its lenient ParseReport.

    Returns ({"records.ndjson": chunks, "records.cols": bytes}, report): the
    NDJSON as a list of byte chunks whose concatenation is
    ``records_to_ndjson(records).encode()``, with records and report as
    ``parse_records`` would give them, and raises what it raises.

    ``export_parts`` cuts a JSON array into one part per ``pool`` worker,
    and each worker checks and serializes its own part (``ingest_part``).
    Rejection locations of a part are shifted by the entries (accepted +
    rejected) of the parts before it. A part that fails to decode raises
    NotJsonError through ``run_pool``, which stops the other workers, and
    the whole text is then read in one part, so a broken document raises
    the same NotJsonError as ``parse_records``. Any other input, and any
    input on one worker, is read in one part.
    """
    bounds = export_parts(text, pool.worker_count())
    if len(bounds) > 1:
        with contextlib.suppress(NotJsonError):
            return _merge_parts(pool.run_pool(ingest_part, bounds, (text,), "an ingest worker"))
    return _merge_parts([ingest_part(text, 0, len(text))])


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
