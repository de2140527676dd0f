"""The ``ingest`` command's reading of an export: a JSON array on every CPU.

A JSON array is cut into one part per worker, each cut at the first "}, {"
(any JSON whitespace around the comma) at or after the part's share of the
text. A part decodes as an array of its own: the first is the text up to
its cut's "}" plus "]", the next "[" plus the text from the cut's "{". A
cut inside a string leaves the part before it with an unterminated string,
and a cut inside a nested value leaves it with more than one container
open, so when every part decodes, every cut fell between two top-level
elements and the parts' elements are exactly the array's. Each ``pool``
worker decodes, checks and serializes its own part with ``ingest``'s
functions; any other input is parsed by ``ingest.parse_records`` alone.

This is a module of its own so that importing ``ingest`` to parse or
generate records loads no process pool.
"""

from __future__ import annotations

import json
import re
from typing import NamedTuple

import numpy as np

from . import pool
from .ingest import (
    _DECODE_ERRORS,
    ParseReport,
    RecordColumns,
    _check_entries,
    _cycle_collector_paused,
    _text_of,
    _violation,
    parse_records,
    records_to_ndjson,
)

_CUT = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")


class SourceColumns(NamedTuple):
    """The columns an ingest keeps of its accepted records beside their NDJSON, in input order."""

    subclass: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    max_bps: np.ndarray

    @classmethod
    def of(cls, records: RecordColumns) -> "SourceColumns":
        return cls(*(getattr(records, name) for name in cls._fields))


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

    Returns None when the part does not decode as an array, and otherwise
    (NDJSON bytes, SourceColumns, entry count, rejections, violation) as
    ``_check_entries`` gives them, located within the part; a part with a
    violation has no bytes or columns.
    """
    part = ("[" if start else "") + text[start:stop] + ("]" if stop < len(text) else "")
    with _cycle_collector_paused():
        try:
            doc = json.loads(part)
        except _DECODE_ERRORS:
            return None
        del part
        entries = [(entry, i, None) for i, entry in enumerate(doc)]
        del doc  # so that checking frees each entry
        count = len(entries)
        records, rejections, violation = _check_entries(entries, strict)
    if violation is not None:
        return None, None, count, None, violation
    return (records_to_ndjson(records).encode(), SourceColumns.of(records), count, rejections,
            None)


def ingest_export(raw: bytes | str, strict: bool = False):
    """Parse an export and serialize its accepted records as NDJSON.

    Returns (chunks, columns, report): the NDJSON as a list of byte chunks
    whose concatenation is ``records_to_ndjson(records).encode()``, the
    records' ``SourceColumns`` and the ``ParseReport``, all as
    ``parse_records`` would give them, and raises what it raises.

    A JSON array is cut into one part per ``pool`` worker, and each worker
    decodes, checks and serializes its own part. Rejection locations of a
    part are shifted by the entries of the parts before it, and in strict
    mode the first violation in input order is raised once every part has
    decoded. When any part fails to decode, the whole text is parsed in one
    part, so a broken document raises the same NotJsonError as
    ``parse_records``. Any other input, and any input on one worker, is
    parsed in one part.
    """
    text = _text_of(raw)
    stripped = text.strip()
    if stripped[:1] == "[":
        bounds = _part_bounds(stripped, pool.worker_count())
        if len(bounds) > 1:
            parts = pool.run_pool(_ingest_part, bounds, (stripped, strict), "an ingest worker")
            if None not in parts:
                return _merge_parts(parts)
    records, report = parse_records(text, strict)
    return [records_to_ndjson(records).encode()], SourceColumns.of(records), report


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
    merged = SourceColumns(*map(np.concatenate, zip(*columns)))
    return chunks, merged, ParseReport(merged.start.size, len(rejections), rejections)
