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

An export is read one way, by ``ingest.read_export``, which gives its
NDJSON chunks, columns and report: ``ingest`` writes the records file of
them with ``records_files``, and ``read_records`` views the columns when a
records file has no sidecar that fits. How an export is cut and read is
``ingest``'s alone; this module only writes the records file and reads it
back.

Writing a records file loads no numpy; only reading one
(``read_records``) builds a numpy ``RecordTable``.
"""

from __future__ import annotations

import array
import hashlib
import re
import sys
from pathlib import Path

from .errors import EmptyDatasetError
from .ingest import SUBCLASSES, columns_in_bounds, read_export, text_of

SIDECAR_NAME = "records.cols"
_SIDECAR_MAGIC = b"ddoscast records.cols 1".ljust(31) + b"\n"
_HEADER_BYTES = 64
_BYTES_PER_RECORD = 3 * 8 + 1
# A file of nothing but whitespace after an optional UTF-8 byte-order mark.
# The match stops at the first other byte, so no file is decoded or copied.
_BLANK = re.compile(rb"(?:\xef\xbb\xbf)?\s*\Z")


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
    """The columns cached in ``path`` for records whose bytes hash to ``digest``, or None.

    The columns are read-only views of the file's bytes: the subclass codes
    and start, stop and max_bps, in ``RecordTable``'s argument order.
    """
    import numpy as np

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
    return codes, start, stop, max_bps


def records_files(chunks: list[bytes], columns) -> dict:
    """The records file whose NDJSON is the byte ``chunks`` of records with ``columns``.

    ``columns`` are the records' subclass codes (uint8) and start, stop and
    max_bps (int64), in the host's byte order and in ``RecordTable``'s
    argument order: numpy arrays, or ``ingest.read_export``'s
    ``array.array``s.
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
    the file is read as ``ingest`` reads an export, by
    ``ingest.read_export``; the NDJSON chunks it writes on the way are
    dropped. Either way the table views the columns read, without a copy. A
    file of nothing but whitespace, after a byte-order mark or not, is empty.
    """
    import numpy as np

    from .preprocess import RecordTable

    if _BLANK.match(raw):
        raise EmptyDatasetError(f"records file {path} is empty")
    columns = _load_sidecar(Path(path).with_name(SIDECAR_NAME), digest)
    source = {"read_from": SIDECAR_NAME}
    if columns is None:
        columns, report = read_export(text_of(raw))[1:]  # drops the chunks
        source = {"read_from": "parse", "accepted": report.accepted, "rejected": report.rejected}
    table = RecordTable(*map(np.asarray, columns))  # an ``array.array`` is viewed, not copied
    if not table:
        raise EmptyDatasetError(f"no valid records in {path}")
    return table, source
