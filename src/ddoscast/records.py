"""The records file: what ``ingest`` writes and every other command reads.

A records file is ``records.ndjson``, one export-format object per accepted
record, with ``records.cols`` beside it: the records' four source columns in
one fixed layout of n records,
  bytes 0-31   _SIDECAR_MAGIC, the format and its version
  bytes 32-63  the stamp: SHA-256 of the NDJSON's SHA-256 digest, then the body
  body         little-endian int64 start, stop and max_bps (8n bytes each),
               then the uint8 subclass codes (n bytes)
Reading a records file uses them only when the length, magic and stamp fit
and every value is in range; otherwise it reads the file as an export. The
stamp covers the body, so a changed byte anywhere is a stale sidecar. The
sidecar is a cache: deleting it changes nothing but speed.

An export is read one way: ``ingest.export_parts`` cuts a large one into
one part per worker, each ``pool`` worker reads its own part with
``ingest.ingest_part``, and ``_merge_parts`` joins the parts' NDJSON
chunks, columns and rejections. An export that is not cut is read in one
part, in this process, by the same function. ``ingest_export`` writes the
records file of the merged parts, and ``read_records`` views their columns
when a records file has no sidecar that fits. How an export is cut and read
is ``ingest``'s alone; this module runs the parts and merges their results.

This is a module of its own so that importing ``ingest`` to parse or
generate records loads no process pool. Writing a records file loads
neither numpy nor the pool unless the export is large enough to cut; only
reading one (``read_records``) builds a numpy ``RecordTable``.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import sys
from pathlib import Path

from .errors import EmptyDatasetError, NotJsonError
from .ingest import (
    SUBCLASSES,
    ParseReport,
    columns_in_bounds,
    export_parts,
    ingest_part,
    text_of,
)

SIDECAR_NAME = "records.cols"
_SIDECAR_MAGIC = b"ddoscast records.cols 1".ljust(31) + b"\n"
_HEADER_BYTES = 64
_BYTES_PER_RECORD = 3 * 8 + 1
# The fewest characters of export a worker is started for. A second worker
# pays only once its part outweighs the fork and the return of its result:
# in fresh runs on 2 CPUs, from between 15 and 29 MB for exports in
# ``_record_lines``' form, and from below 5.5 MB for compact ones, whose
# parts are decoded whole. A cut from 12 MB sits between the two.
_PART_MIN_CHARS = 6_000_000


def _stamp(digest: str, body) -> bytes:
    """The stamp of ``body`` for the records file whose SHA-256 is ``digest``."""
    stamp = hashlib.sha256(bytes.fromhex(digest))
    stamp.update(body)
    return stamp.digest()


def _little_endian(column):
    """The bytes of ``column``, any C-contiguous buffer of int64 or uint8 values, little-endian.

    A numpy array and an ``array.array`` alike: the bytes are read through
    the buffer protocol, and swapped only on a big-endian host.
    """
    data = memoryview(column)
    if sys.byteorder == "little" or data.itemsize == 1:
        return data.cast("B")
    swapped = array.array("q", data.tobytes())
    swapped.byteswap()
    return swapped


def _sidecar_bytes(columns, digest: str) -> bytes:
    """The records.cols of ``columns``, stamped for the NDJSON whose SHA-256 is ``digest``.

    ``columns`` are the records' subclass, start, stop and max_bps, as
    ``records_files`` takes them.
    """
    body = b"".join(map(_little_endian, [*columns[1:], columns[0]]))  # start, stop, max_bps, codes
    return _SIDECAR_MAGIC + _stamp(digest, body) + body


def _load_sidecar(path: Path, digest: str):
    """The ``RecordTable`` cached in ``path`` for records whose bytes hash to ``digest``, or None."""
    import numpy as np

    from .preprocess import RecordTable

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


def records_files(chunks: list[bytes], columns) -> dict:
    """The records file whose NDJSON is the byte ``chunks`` of records with ``columns``.

    ``columns`` are the records' subclass codes (uint8) and start, stop and
    max_bps (int64), in the host's byte order and in ``RecordTable``'s
    argument order: numpy arrays, or ``ingest_part``'s ``array.array``s.
    """
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return {"records.ndjson": chunks, SIDECAR_NAME: _sidecar_bytes(columns, digest.hexdigest())}


def read_records(path: str, raw: bytes, digest: str):
    """The ``RecordTable`` of the records file ``path``, whose bytes ``raw`` hash to ``digest``.

    Returns it with what it was read from, as manifest fields: the sidecar
    beside ``path`` when that fits ``raw``, and otherwise "parse", with the
    lenient read's accepted and rejected counts. Without a sidecar that fits,
    the file is read as ``ingest_export`` reads an export, in parts on the
    pool from two ``_PART_MIN_CHARS``, and the table views the merged
    columns; the NDJSON chunks it writes on the way are dropped.
    """
    import numpy as np

    from .preprocess import RecordTable

    if not raw or raw.isspace():
        raise EmptyDatasetError(f"records file {path} is empty")
    table = _load_sidecar(Path(path).with_name(SIDECAR_NAME), digest)
    source = {"read_from": SIDECAR_NAME}
    if table is None:
        columns, report = _merge_parts(_read_parts(text_of(raw)))[1:]  # drops the chunks
        table = RecordTable(*(np.frombuffer(column, column.typecode) for column in columns))
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
    """
    chunks, columns, report = _merge_parts(_read_parts(text))
    return records_files(chunks, columns), report


def _read_parts(text: str) -> list:
    """The ``ingest_part`` results of the export ``text``, in order.

    A JSON array of at least two ``_PART_MIN_CHARS`` is cut by
    ``export_parts`` into one part per ``pool`` worker, each of at least
    that many characters, and each worker checks and serializes its own
    part. A part that fails to decode raises NotJsonError through
    ``run_pool``, which stops the other workers, and the whole text is then
    read in one part, so a broken document raises the same NotJsonError as
    ``parse_records``. Any other input, and any input on one worker, is
    read in one part, in this process, without loading the pool.
    """
    if len(text) >= 2 * _PART_MIN_CHARS:
        from . import pool

        bounds = export_parts(text, min(pool.worker_count(), len(text) // _PART_MIN_CHARS))
        if len(bounds) > 1:
            with contextlib.suppress(NotJsonError):
                return pool.run_pool(ingest_part, bounds, (text,), "an ingest worker")
    return [ingest_part(text, 0, len(text))]


def _merge_parts(parts: list):
    """(NDJSON chunks, columns, ParseReport) of the export whose parts gave ``parts``.

    The columns are ``array.array``s of subclass codes, start, stop and
    max_bps, in ``RecordTable``'s argument order. Rejection locations of a
    part are shifted by the entries (accepted + rejected) of the parts
    before it.
    """
    chunks, rejections, offset = [], [], 0
    columns = (array.array("B"), array.array("q"), array.array("q"), array.array("q"))
    for part_chunks, part_columns, part_rejections in parts:
        chunks += part_chunks
        for column, part_column in zip(columns, part_columns):
            column += part_column
        rejections += [(offset + location, reason) for location, reason in part_rejections]
        offset += len(part_columns[0]) + len(part_rejections)  # the part's entries
    return chunks, columns, ParseReport(len(columns[0]), len(rejections), rejections)
