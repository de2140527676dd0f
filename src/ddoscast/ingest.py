"""Parsing and synthesis of DDoS attack records.

The on-disk format is the attack-map export: a JSON array of objects (or
NDJSON, one object per line) with fields ``attack_class``, ``dst_cc``,
``dst_ports``, ``max_bps``, ``src_cc``, ``src_ports``, ``start``, ``stop``
and ``subclass``. Timestamps are integer Unix seconds. Subclass strings
appear both with and without spaces in the wild ("TCP SYN" / "TCPSYN");
spaces are stripped before enum mapping so both spellings parse.

This module alone decides the input format: ``_detect_entries`` yields the
decoded entries one at a time, and ``_export_parts`` asks the same
``_FIRST`` whether the text is an array to cut. Every path checks a
decoded entry with ``_check_entry``, which gives its row of column values,
and writes records with one row writer, ``_record_lines``. The one loop
over decoded input, ``_checked_rows``, yields the rows of the entries it
accepts, and ``parse_records`` gathers them into ``RecordColumns``; the
serializers feed the writer the rows of a ``RecordColumns``; an export
part (``_ingest_part``) feeds it its checked rows themselves.

``_export_parts`` cuts a JSON array at the first "}, {" (any JSON
whitespace around the comma) at or after each part's share of the text. A
part decodes as an array of its own: the first is the text up to its cut's
"}" plus "]", the next "[" plus the text from the cut's "{". A cut inside a
string leaves the part before it with an unterminated string, and a cut
inside a nested value leaves it with more than one container open, so when
every part decodes, every cut fell between two top-level elements and the
parts' elements are exactly the array's. ``_ingest_part`` reads one part in
one pass: each accepted row goes straight to its NDJSON line and to the
four ``records.cols`` columns, and the part builds no ``RecordColumns``.
``read_export`` is the one reader of an export on the command line: it
decides whether to cut (``_PART_MIN_CHARS``), runs the parts, on the pool
or in one part, and merges them. Only it loads the pool, and only for an
export large enough to cut.

``_ingest_part`` walks an array part in place, element by element, and
takes a record in the form ``_record_lines`` writes with one match of
``_CANONICAL``: keys sorted, ", " and ": " separators, the wire subclass
name, max_bps below 10**18, start and stop of at most 12 digits, ports of
0 to 65535 and two-character country codes of printable ASCII other than
'"' and '\\', every number with no sign, fraction or leading zero. Once
start <= stop <= MAX_UNIX_SECONDS holds, the matched text is the record's
NDJSON line and its groups are its columns. Any other element is decoded
on its own (``json.JSONDecoder.raw_decode``) and checked and written as
every path does, at its own location, up to ``_MOST_UNMATCHED`` elements
a part: a part with more is in another form (compact separators, say),
and ``_read_part``, which decodes it whole, reads it faster. Any doubt
about the syntax sends the whole part to ``_read_part`` too: an element
that does not decode or runs past the part's end, or anything but JSON
whitespace, one comma and the brackets between and around the elements.
So a broken document raises the same NotJsonError, and NDJSON, wrapper
objects and lone objects are read as before. This is the speculative
parsing of Mison (Li et al., "Mison: A Fast JSON Parser for Data
Analytics", PVLDB 10(10), 2017): recognise the common form cheaply and
fall back to the full decoder wherever recognition fails.
"""

from __future__ import annotations

import array
import contextlib
import datetime as dt
import enum
import gc
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING

from .errors import (
    EmptyDateRangeError,
    InvalidConfigError,
    NotJsonError,
    SchemaViolationError,
    UnknownSubclassError,
)

if TYPE_CHECKING:
    import numpy as np


class AttackClass(enum.Enum):
    MISUSE = "Misuse"
    DETECTOR = "Detector"


class Subclass(enum.Enum):
    TCP_SYN = "TCPSYN"
    TCP_RST = "TCPRST"
    TCP_ACK = "TCPACK"
    PROTOCOL = "Protocol"
    UDP_MISUSE = "UDPMisuse"
    ICMP = "ICMP"
    BANDWIDTH = "Bandwidth"
    TOTAL_TRAFFIC = "TotalTraffic"
    IP_FRAGMENT = "IPFragment"
    DNS_MISUSE = "DNSMisuse"


# Spelling used when writing records back out, matching the export schema.
WIRE_NAMES = {
    Subclass.TCP_SYN: "TCPSYN",
    Subclass.TCP_RST: "TCPRST",
    Subclass.TCP_ACK: "TCPACK",
    Subclass.PROTOCOL: "Protocol",
    Subclass.UDP_MISUSE: "UDP Misuse",
    Subclass.ICMP: "ICMP",
    Subclass.BANDWIDTH: "Bandwidth",
    Subclass.TOTAL_TRAFFIC: "Total Traffic",
    Subclass.IP_FRAGMENT: "IP Fragment",
    Subclass.DNS_MISUSE: "DNS Misuse",
}

# Subclass and attack-class codes index these tuples (declaration order).
SUBCLASSES = tuple(Subclass)
ATTACK_CLASSES = tuple(AttackClass)
_SUBCLASS_CODE = {sub.value: code for code, sub in enumerate(SUBCLASSES)}
_ATTACK_CLASS_CODE = {cls.value: code for code, cls in enumerate(ATTACK_CLASSES)}

_REQUIRED_FIELDS = ("attack_class", "subclass", "max_bps", "start", "stop")

# 9999-12-31T23:59:59Z, the last second a datetime can hold
MAX_UNIX_SECONDS = 253402300799
# max_bps must fit a signed 64-bit integer
MAX_BPS_EXCLUSIVE = 2**63


def columns_in_bounds(start: np.ndarray, stop: np.ndarray, max_bps: np.ndarray) -> bool:
    """Whether every record obeys 0 <= start <= stop <= MAX_UNIX_SECONDS and max_bps >= 0.

    These are the bounds parsing enforces; int64 columns already hold
    max_bps below MAX_BPS_EXCLUSIVE.
    """
    return bool((start >= 0).all() and (start <= stop).all() and (stop <= MAX_UNIX_SECONDS).all()
                and (max_bps >= 0).all())


@dataclass(frozen=True)
class AttackRecord:
    """One raw attack event as found in the export."""

    attack_class: AttackClass
    subclass: Subclass
    max_bps: int
    start: int
    stop: int
    dst_cc: tuple[str, ...] | None = None
    src_cc: tuple[str, ...] | None = None
    dst_ports: tuple[int, ...] | None = None
    src_ports: tuple[int, ...] | None = None


# dtypes of the array columns of RecordColumns, in field order: uint8 and int64
_DTYPES = ("u1", "u1", "i8", "i8", "i8")


@dataclass(frozen=True, eq=False)
class RecordColumns:
    """Records as parallel columns: what parsing and ``generate_synthetic`` return.

    ``attack_class`` and ``subclass`` hold uint8 codes into
    ``ATTACK_CLASSES`` and ``SUBCLASSES``; ``max_bps``, ``start`` and
    ``stop`` are int64; the optional country and port lists hold one tuple
    (or None) per record. The arrays are read-only. Iterating the columns
    gives their ``AttackRecord`` rows, in order; ``rows`` gives each
    record's column values, codes in place of the enums.
    """

    attack_class: np.ndarray
    subclass: np.ndarray
    max_bps: np.ndarray
    start: np.ndarray
    stop: np.ndarray
    dst_cc: tuple
    src_cc: tuple
    dst_ports: tuple
    src_ports: tuple

    @classmethod
    def from_lists(cls, columns) -> "RecordColumns":
        """Columns from one sequence per field, in field order, codes in place of the enums."""
        import numpy as np

        arrays = [np.array(values, dtype) for values, dtype in zip(columns, _DTYPES)]
        for array in arrays:
            array.flags.writeable = False
        return cls(*arrays, *map(tuple, columns[5:]))

    @classmethod
    def of(cls, records) -> "RecordColumns":
        """Columns of AttackRecords from any iterable; columns are returned as they are."""
        if isinstance(records, cls):
            return records
        records = list(records)  # iterated once per field below
        return cls.from_lists([
            [_ATTACK_CLASS_CODE[r.attack_class.value] for r in records],
            [_SUBCLASS_CODE[r.subclass.value] for r in records],
            *([getattr(r, name) for r in records] for name in _FIELDS[2:]),
        ])

    def __len__(self) -> int:
        return self.start.size

    def rows(self):
        """Each record's row of column values, as ``_check_entry`` gives it.

        One pass over whole columns, not nine numpy reads per row.
        """
        return zip(self.attack_class.tolist(), self.subclass.tolist(), self.max_bps.tolist(),
                   self.start.tolist(), self.stop.tolist(),
                   self.dst_cc, self.src_cc, self.dst_ports, self.src_ports)

    def __iter__(self):
        # Each record's values go into its __dict__ in one update, not through the nine
        # object.__setattr__ calls of a frozen dataclass's __init__: the record compares,
        # hashes and refuses assignment as a constructed one does.
        new = object.__new__
        for values in zip(map(ATTACK_CLASSES.__getitem__, self.attack_class.tolist()),
                          map(SUBCLASSES.__getitem__, self.subclass.tolist()),
                          self.max_bps.tolist(), self.start.tolist(), self.stop.tolist(),
                          self.dst_cc, self.src_cc, self.dst_ports, self.src_ports):
            record = new(AttackRecord)
            record.__dict__.update(zip(_FIELDS, values))
            yield record


_FIELDS = tuple(f.name for f in fields(RecordColumns))  # AttackRecord's, in the same order


@dataclass
class ParseReport:
    """Outcome of a lenient parse: accepted + rejected = the entries seen.

    That holds for every report, an unparseable NDJSON line being a rejected
    entry, and ``read_export`` shifts each part's rejection locations by it.
    """

    accepted: int = 0
    rejected: int = 0
    rejection_reasons: list[tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a deterministic synthetic record set.

    ``start_date``/``end_date`` are inclusive UTC dates; the range must not
    be empty or start before 1970-01-01. Every subclass is equally likely.
    """

    record_count: int
    start_date: dt.date = dt.date(2019, 1, 1)
    end_date: dt.date = dt.date(2020, 12, 31)
    seed: int = 0

    def __post_init__(self):
        if self.record_count < 1:
            raise InvalidConfigError(f"record_count must be >= 1, got {self.record_count}")
        if self.end_date < self.start_date:
            raise EmptyDateRangeError(
                f"end_date {self.end_date} before start_date {self.start_date}"
            )
        if self.start_date < _UNIX_EPOCH:
            raise InvalidConfigError(
                f"start_date {self.start_date} is before 1970-01-01, the first second a record "
                "can hold"
            )


def _as_int(value):
    """Accept JSON ints and integral floats, reject everything else."""
    if type(value) is int:  # the common case; bool is a subclass, not this type
        return value
    if isinstance(value, bool):
        return None
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _parse_cc_list(value):
    if not isinstance(value, list):
        return None, "not a list"
    for item in value:
        if not isinstance(item, str) or len(item) != 2:
            return None, f"bad country code {item!r}"
    return tuple(value), None


def _parse_port_list(value):
    if not isinstance(value, list):
        return None, "not a list"
    out = []
    for item in value:
        port = _as_int(item)
        if port is None or not 0 <= port <= 65535:
            return None, f"bad port {item!r}"
        out.append(port)
    return tuple(out), None


_OPTIONAL_FIELDS = (
    ("dst_cc", _parse_cc_list),
    ("src_cc", _parse_cc_list),
    ("dst_ports", _parse_port_list),
    ("src_ports", _parse_port_list),
)


def subclass_code(name: str) -> int | None:
    """The code of the subclass ``name`` spells, or None.

    A name spells a subclass when it is the subclass's value once its
    spaces are removed: "TotalTraffic", "Total Traffic", "TCP SYN".
    """
    return _SUBCLASS_CODE.get(name.replace(" ", ""))


def _check_entry(entry):
    """Validate one decoded entry into its row of column values.

    Returns (row, None) or (None, reason). A row is (attack class code,
    subclass code, max_bps, start, stop, dst_cc, src_cc, dst_ports,
    src_ports), the field order of ``RecordColumns``.
    """
    if not isinstance(entry, dict):
        return None, "entry is not a JSON object"
    for name in _REQUIRED_FIELDS:
        if name not in entry:
            return None, f"missing field {name!r}"

    raw_class = entry["attack_class"]
    class_code = _ATTACK_CLASS_CODE.get(raw_class) if isinstance(raw_class, str) else None
    if class_code is None:
        return None, f"unknown attack_class {raw_class!r}"

    raw_subclass = entry["subclass"]
    if not isinstance(raw_subclass, str):
        return None, f"subclass is not a string: {raw_subclass!r}"
    code = subclass_code(raw_subclass)
    if code is None:
        return None, f"unknown subclass {raw_subclass!r}"

    max_bps = _as_int(entry["max_bps"])
    if max_bps is None or max_bps < 0:
        return None, f"max_bps must be a non-negative integer, got {entry['max_bps']!r}"
    if max_bps >= MAX_BPS_EXCLUSIVE:
        return None, "max_bps out of range: must be below 2**63"
    start = _as_int(entry["start"])
    stop = _as_int(entry["stop"])
    if start is None or stop is None:
        return None, "start/stop must be integer Unix seconds"
    if stop < start:
        return None, "stop before start"
    if start < 0 or stop > MAX_UNIX_SECONDS:
        return None, (
            f"start/stop out of range: must lie in [0, {MAX_UNIX_SECONDS}] "
            "(1970-01-01 to 9999-12-31T23:59:59Z)"
        )

    row = [class_code, code, max_bps, start, stop]
    for name, parse in _OPTIONAL_FIELDS:
        value = entry.get(name)
        if value is not None:
            value, err = parse(value)
            if err:
                return None, f"{name}: {err}"
        row.append(value)
    return row, None


# json.loads raises JSONDecodeError (a ValueError) on bad syntax, a plain
# ValueError on an integer longer than sys.get_int_max_str_digits() and
# RecursionError on deeply nested arrays or objects.
_DECODE_ERRORS = (ValueError, RecursionError)


# str.isspace() is true of exactly the characters \s matches in a str
# pattern, so the group holds the first character text.strip() keeps, or "".
_FIRST = re.compile(r"\s*(\S?)")


def _detect_entries(text: str):
    """Yield (entry, location, reason) for each entry of ``text``, in input order.

    The input format is decided here; ``_export_parts`` only asks ``_FIRST``
    whether the text is an array to cut. Locations are array
    indices (0-based) for array input and line numbers (1-based) for NDJSON.
    A lone top-level object that is not a single-key array wrapper is one
    NDJSON line, located at the line where it starts. An NDJSON line that
    fails to parse comes as (None, location, message), and every other
    entry with reason None. No entry is kept once yielded: an array is
    decoded whole and popped, an NDJSON line decoded when the loop reaches
    it. Raises NotJsonError if no format fits: for an empty input or a
    broken array before the first entry, for NDJSON without one parseable
    line after the last.
    """
    first = _FIRST.match(text)[1]
    if not first:
        raise NotJsonError("empty input")

    if first in "[{":
        # An array, a wrapper around one, one object (perhaps spread over
        # several lines), or NDJSON.
        try:
            doc = json.loads(text.strip())
        except _DECODE_ERRORS as exc:
            if first == "[":
                raise NotJsonError(f"broken JSON array: {exc}") from exc
            doc = None
        if isinstance(doc, dict):
            values = list(doc.values())
            if not (len(doc) == 1 and isinstance(values[0], list)):
                yield doc, 1 + text.count("\n", 0, text.index("{")), None
                return
            doc = values[0]
        if doc is not None:
            doc.reverse()  # popped in input order, so each entry is freed once checked
            for location in range(len(doc)):
                yield doc.pop(), location, None
            return

    # NDJSON: one object per non-blank line. Lines end at "\n" only: JSON
    # strings may hold U+2028 and other characters str.splitlines() breaks
    # at, and a trailing "\r" is JSON whitespace.
    parsed_any = False
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except _DECODE_ERRORS as exc:
            yield None, lineno, f"unparseable line: {getattr(exc, 'msg', exc)}"
            continue
        parsed_any = True
        yield obj, lineno, None
    if not parsed_any:
        raise NotJsonError("input is neither a JSON array nor NDJSON")


@contextlib.contextmanager
def _cycle_collector_paused():
    """Pause the cyclic garbage collector, restoring its state on exit.

    Decoding and validating an export creates hundreds of thousands of
    containers and no reference cycles; left running, the collector would
    traverse all of them again and again for nothing to free.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def text_of(raw: bytes | str) -> str:
    """The text of ``raw``; a UTF-8 byte-order mark before it is dropped."""
    if isinstance(raw, str):
        return raw
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise NotJsonError(f"input is not UTF-8: {exc}") from exc


def _checked_rows(text: str, rejections: list):
    """Decode ``text`` and yield the row of each entry ``_check_entry`` accepts, in input order.

    The (location, reason) of each rejected entry is appended to
    ``rejections``. Raises NotJsonError as ``_detect_entries`` does. The
    cyclic collector stays paused until the last row is taken, so it
    skips what the caller builds from the rows too.
    """
    with _cycle_collector_paused():
        for entry, location, reason in _detect_entries(text):
            if reason is None:
                row, reason = _check_entry(entry)
                if row is not None:
                    yield row
                    continue
            rejections.append((location, reason))


def raise_first_rejection(report: ParseReport) -> None:
    """Strict mode's verdict on a lenient report: raise its first rejection, if any.

    The error is SchemaViolationError, or its UnknownSubclassError subtype
    for an unknown subclass, at the rejected entry's location.
    """
    if report.rejection_reasons:
        location, reason = report.rejection_reasons[0]
        if reason.startswith("unknown subclass"):
            raise UnknownSubclassError(location, reason)
        raise SchemaViolationError(location, reason)


def parse_records(raw: bytes | str, strict: bool = False):
    """Parse an export file into a ``RecordColumns`` of records plus a report.

    Lenient mode (default) skips malformed entries and logs (location,
    reason) pairs; strict mode then raises ``raise_first_rejection``'s
    error for the first of them. Input order is preserved for accepted
    records.
    """
    rejections = []
    rows = list(_checked_rows(text_of(raw), rejections))
    records = RecordColumns.from_lists(list(zip(*rows)) or [()] * len(_FIELDS))
    report = ParseReport(len(records), len(rejections), rejections)
    if strict:
        raise_first_rejection(report)
    return records, report


# Encodes the optional lists with json.dumps's defaults: ", " between items
# and ensure_ascii escaping.
_ENCODER = json.JSONEncoder()
# The fixed first and last members of each record's object, by code.
_CLASS_HEADS = [f'{{"attack_class": {_ENCODER.encode(c.value)}' for c in ATTACK_CLASSES]
_SUBCLASS_TAILS = [f', "subclass": {_ENCODER.encode(WIRE_NAMES[s])}}}' for s in SUBCLASSES]


class _CountryMembers(dict):
    """The ', "name": [...]' member text of each country list of one field, memoized.

    None has no member. One memo per field, so a text never carries another
    field's key. Memoizing on the value suits only strings: equal port
    tuples such as (1,), (True,) and (1.0,) hash alike but encode differently.
    """

    def __init__(self, name: str):
        self.prefix = f', "{name}": '

    def __missing__(self, countries) -> str:
        text = "" if countries is None else self.prefix + _ENCODER.encode(countries)
        self[countries] = text
        return text


def _port_member(name: str, ports) -> str:
    """The ', "name": [...]' member text of a port list, or "" for None.

    A tuple of plain ints is written without the encoder, as ``str`` writes
    an int as JSON does; any other tuple (a bool, a float, an int subclass)
    is encoded.
    """
    if ports is None:
        return ""
    if all(type(port) is int for port in ports):
        return f', "{name}": [{", ".join(map(str, ports))}]'
    return f', "{name}": {_ENCODER.encode(ports)}'


def _record_lines(rows, end: str = "") -> list[str]:
    """Each row's export-format object as JSON text, keys sorted, followed by ``end``.

    A row is ``_check_entry``'s. Every line equals
    ``json.dumps(wire_object, sort_keys=True) + end``: sorted, the optional
    members fall between the fixed ones.
    """
    dst, src = _CountryMembers("dst_cc"), _CountryMembers("src_cc")
    return [
        f'{_CLASS_HEADS[attack_class]}{dst[dst_cc]}{_port_member("dst_ports", dst_ports)}'
        f', "max_bps": {max_bps}{src[src_cc]}{_port_member("src_ports", src_ports)}'
        f', "start": {start}, "stop": {stop}{_SUBCLASS_TAILS[subclass]}{end}'
        for attack_class, subclass, max_bps, start, stop, dst_cc, src_cc, dst_ports, src_ports
        in rows
    ]


def records_to_json(records) -> str:
    """Serialize records to a JSON array in the export's own format."""
    return "[" + ", ".join(_record_lines(RecordColumns.of(records).rows())) + "]"


def records_to_ndjson(records) -> str:
    """Serialize records one-per-line; parse_records round-trips the result."""
    return "".join(_record_lines(RecordColumns.of(records).rows(), "\n"))


_CUT = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")


def _export_parts(text: str, parts: int) -> list[tuple[int, int]]:
    """(start, stop) of each part of the export ``text``, cut at most ``parts - 1`` times.

    Only a JSON array is cut; any other input is the one part
    ``[(0, len(text))]``.
    """
    if _FIRST.match(text)[1] != "[":
        return [(0, len(text))]
    bounds, start = [], 0
    for k in range(1, parts):
        cut = _CUT.search(text, max(start, len(text) * k // parts))
        if cut is None:
            break
        bounds.append((start, cut.start() + 1))
        start = cut.end() - 1
    bounds.append((start, len(text)))
    return bounds


def _listed(item: str) -> str:
    """A pattern for a JSON list of ``item``s as the encoder writes it: ", " between items."""
    return rf"\[(?:{item}(?:, {item})*)?\]"


def _alternatives(texts) -> str:
    return "(?:" + "|".join(map(re.escape, texts)) + ")"


# JSON's whitespace: \s and str.isspace() take more characters.
_JSON_SPACE = "[ \t\n\r]*"
# What stands between two elements: a comma with its whitespace.
_COMMA_TEXT = f"{_JSON_SPACE},{_JSON_SPACE}"
# A country code the encoder writes as itself: two printable ASCII characters, not '"' or '\'.
_COUNTRY_TEXT = r'"[ !#-\[\]-~]{2}"'
# A port, 0 to 65535, as str writes it; five digits first, the most of them.
# Digits are [0-9]: \d takes every Unicode digit.
_PORT_TEXT = ("(?:[1-5][0-9]{4}|6[0-4][0-9]{3}|65[0-4][0-9]{2}|655[0-2][0-9]|6553[0-5]"
              "|[1-9][0-9]{0,3}|0)")
# A canonical record: the exact text ``_record_lines`` writes for an accepted
# row, then a comma, if any. The groups are the line, max_bps (below 10**18,
# so below 2**63), start, stop, the line's tail (the subclass) and the comma.
# start <= stop <= MAX_UNIX_SECONDS is left to the caller.
_CANONICAL = re.compile(
    f"({_alternatives(_CLASS_HEADS)}"
    f'(?:, "dst_cc": {_listed(_COUNTRY_TEXT)})?(?:, "dst_ports": {_listed(_PORT_TEXT)})?'
    ', "max_bps": (0|[1-9][0-9]{0,17})'
    f'(?:, "src_cc": {_listed(_COUNTRY_TEXT)})?(?:, "src_ports": {_listed(_PORT_TEXT)})?'
    ', "start": (0|[1-9][0-9]{0,11}), "stop": (0|[1-9][0-9]{0,11})'
    f"({_alternatives(_SUBCLASS_TAILS)}))({_COMMA_TEXT})?"
)
_COMMA = re.compile(_COMMA_TEXT)
_OPEN = re.compile(_JSON_SPACE + r"\[" + _JSON_SPACE)
_CLOSE = re.compile(_JSON_SPACE + r"\]" + _JSON_SPACE)
_SUBCLASS_OF_TAIL = {tail: code for code, tail in enumerate(_SUBCLASS_TAILS)}
_decode_element = json.JSONDecoder().raw_decode
# A part with more elements the pattern does not take is written in another
# form (compact separators, say), and decoding it whole is faster.
_MOST_UNMATCHED = 16
# NDJSON lines per byte chunk of a part, so no part's NDJSON is ever one string.
_CHUNK_LINES = 8192


def _ingest_part(text: str, start: int, stop: int):
    """Check and serialize each entry of the part ``text[start:stop]`` of ``text``, in one pass.

    Returns (NDJSON chunks, source columns, rejections): the NDJSON is a list
    of byte chunks of ``_CHUNK_LINES`` lines, the last one shorter; the
    columns are ``array.array``s of subclass codes ("B") and of start, stop
    and max_bps ("q"), filled chunk by chunk; the rejections are located
    within the part. Raises NotJsonError when the part does not decode.

    An array part is walked in place, element by element. ``_CANONICAL``
    takes a record in the form ``_record_lines`` writes, and its text is its
    NDJSON line; any other element is decoded on its own and checked, up
    to ``_MOST_UNMATCHED`` of them. On one more, on any doubt about the
    syntax (an element that does not decode or runs past the part, anything
    but JSON whitespace around a comma or bracket), and for any input that
    is not an array, ``_read_part`` reads the part.
    """
    return _walk_part(text, start, stop) or _read_part(text, start, stop)


class _Part:
    """A part's result as it is written, or the parts' as they are merged.

    Its NDJSON chunks and source columns so far; the columns are in
    ``RecordTable``'s argument order: subclass, start, stop, max_bps.
    """

    def __init__(self):
        self.chunks = []
        self.columns = (array.array("B"), array.array("q"), array.array("q"), array.array("q"))

    def add(self, lines: list[str], kept: list[int]) -> None:
        """Add the chunk of NDJSON ``lines``, each without its newline.

        ``kept`` holds the chunk's records' subclass, max_bps, start and
        stop, flat.
        """
        if lines:
            lines.append("")  # the last line's newline
            self.chunks.append("\n".join(lines).encode())
        subclass, begin, end, max_bps = self.columns
        subclass.fromlist(kept[0::4])
        max_bps.fromlist(kept[1::4])
        begin.fromlist(kept[2::4])
        end.fromlist(kept[3::4])


def _walk_part(text: str, start: int, stop: int):
    """``_ingest_part``'s result for an array part, walked as it describes, or None."""
    pos = start
    if start == 0:
        opened = _OPEN.match(text, 0, stop)
        if opened is None:
            return None
        pos = opened.end()
    part, lines, kept, rejections = _Part(), [], [], []
    match, subclass_of = _CANONICAL.match, _SUBCLASS_OF_TAIL
    unmatched = 0
    for location in itertools.count():
        if len(lines) >= _CHUNK_LINES:
            part.add(lines, kept)
            lines, kept = [], []
        record = match(text, pos, stop)
        if record is not None:
            line, max_bps, begin, end, tail, comma = record.groups()
            begin, end = int(begin), int(end)
            if begin <= end <= MAX_UNIX_SECONDS:
                lines.append(line)
                kept += (subclass_of[tail], int(max_bps), begin, end)
                pos = record.end()
                if comma is None:
                    break
                continue
        unmatched += 1
        if unmatched > _MOST_UNMATCHED:
            return None
        try:
            entry, pos = _decode_element(text, pos)
        except _DECODE_ERRORS:
            return None
        row, reason = _check_entry(entry)
        if row is None:
            rejections.append((location, reason))
        else:
            lines += _record_lines([row])
            kept += row[1:5]
        comma = _COMMA.match(text, pos, stop)
        if comma is None:
            break
        pos = comma.end()
    # An element decoded past the part's end leaves pos beyond stop: no comma
    # matches there, and the part does not end.
    ends = _CLOSE.fullmatch(text, pos) if stop == len(text) else pos == stop
    if not ends:
        return None
    part.add(lines, kept)
    return part.chunks, part.columns, rejections


def _read_part(text: str, start: int, stop: int):
    """``_ingest_part``'s result from the part decoded whole by ``_checked_rows``.

    This reads every input ``_detect_entries`` reads, and raises its
    NotJsonError on a part that does not decode.
    """
    part, rejections = _Part(), []
    # The part's text is not kept in a variable, so it is freed with the decoded entries.
    head, tail = "[" if start else "", "]" if stop < len(text) else ""
    rows = _checked_rows(head + text[start:stop] + tail, rejections)
    while chunk := list(itertools.islice(rows, _CHUNK_LINES)):
        part.add(_record_lines(chunk), [value for row in chunk for value in row[1:5]])
    return part.chunks, part.columns, rejections


# The fewest characters of export a worker is started for. A second worker
# pays only once its part outweighs the fork and the return of its result:
# in fresh runs on 2 CPUs, from between 15 and 29 MB for exports in
# ``_record_lines``' form, and from below 5.5 MB for compact ones, whose
# parts are decoded whole. A cut from 12 MB sits between the two.
_PART_MIN_CHARS = 6_000_000


def read_export(text: str):
    """(NDJSON chunks, columns, ParseReport) of the export's decoded ``text``.

    The chunks are bytes whose concatenation is
    ``records_to_ndjson(records).encode()``; the columns are
    ``array.array``s of subclass codes, start, stop and max_bps, in
    ``RecordTable``'s argument order; records and report are those
    ``parse_records`` gives, and it raises what ``parse_records`` raises.

    A JSON array of at least two ``_PART_MIN_CHARS`` is cut by
    ``_export_parts`` into one part per ``pool`` worker, each of at least
    that many characters, and each worker reads its own part with
    ``_ingest_part``. A part that fails to decode raises NotJsonError
    through ``run_pool``, which stops the other workers, and the whole text
    is then read in one part, so a broken document raises the same error.
    Any other input, and any input on one worker, is read in one part, in
    this process, without loading the pool. The parts are merged in order,
    and the rejection locations of a part are shifted by the entries
    (accepted + rejected) of the parts before it.
    """
    parts = None
    if len(text) >= 2 * _PART_MIN_CHARS:
        from . import pool

        bounds = _export_parts(text, min(pool.worker_count(), len(text) // _PART_MIN_CHARS))
        if len(bounds) > 1:
            with contextlib.suppress(NotJsonError):
                parts = pool.run_pool(_ingest_part, bounds, (text,), "an ingest worker")
    merged, rejections, offset = _Part(), [], 0
    for chunks, columns, part_rejections in parts or [_ingest_part(text, 0, len(text))]:
        merged.chunks += chunks
        for column, part_column in zip(merged.columns, columns):
            column += part_column
        rejections += [(offset + location, reason) for location, reason in part_rejections]
        offset += len(columns[0]) + len(part_rejections)  # the part's entries
    accepted = len(merged.columns[0])
    return merged.chunks, merged.columns, ParseReport(accepted, len(rejections), rejections)


_COUNTRIES = ("US", "CN", "DE", "FR", "GB", "RU", "BR", "IN", "KR", "NL")
_UNIX_EPOCH = dt.date(1970, 1, 1)
_SECONDS_PER_DAY = 86400
# Duration (s) and throughput (bps) are log-normal with these parameters:
# mostly-minutes attacks in the single-digit-Gbps range with a heavy upper
# tail, which is the texture of the real export.
_DURATION_LOG_MEAN, _DURATION_LOG_SIGMA = 7.0, 1.5
_BPS_LOG_MEAN, _BPS_LOG_SIGMA = 22.0, 2.0


# Kinderman and Monahan's ratio-of-uniforms constant, as random.normalvariate computes it
_KM_MAGIC = 4 * math.exp(-0.5) / math.sqrt(2.0)
# Rank of each subclass code by subclass name: the records' second sort key.
_NAME_RANK = [sorted(sub.value for sub in SUBCLASSES).index(sub.value) for sub in SUBCLASSES]
_PORTS = 65536


def _lognormal(draw, mu: float, sigma: float) -> float:
    """``random.Random.lognormvariate(mu, sigma)`` of the generator whose ``random`` is ``draw``.

    The Kinderman-Monahan loop of ``normalvariate`` (ACM TOMS 3, 1977),
    taking the same uniforms from the stream and doing the same float
    operations, then ``exp``.
    """
    while True:
        u1 = draw()
        u2 = 1.0 - draw()
        z = _KM_MAGIC * (u1 - 0.5) / u2
        if z * z / 4.0 <= -math.log(u2):
            return math.exp(mu + z * sigma)


def generate_synthetic(spec: SyntheticSpec) -> RecordColumns:
    """Deterministic synthetic record set for a SyntheticSpec, as columns.

    Output is bit-identical for a fixed seed across runs and platforms
    (random.Random only). All timestamps fall inside the spec's date range.
    Records are sorted by start, then by subclass name, and a tie keeps
    draw order.

    Each field is appended straight to its own column, and one stable
    lexsort orders the columns. The draws are those of ``random.Random``'s
    ``choices``, ``randrange``, ``lognormvariate``, ``random``, ``choice``,
    ``sample`` and ``randint``, written out as the same calls to
    ``random()`` and ``getrandbits()`` that those methods make. The
    subclass code is ``int(random() * 10)``, the index ``choices`` with ten
    equal weights picks: it bisects their running total 1.0, 2.0, ..., 10.0
    at ``random() * 10.0``, and even the largest ``random()`` times 10
    rounds to below 10. A number below n is ``getrandbits(n.bit_length())``
    drawn again until it is below n.
    """
    misuse, detector = map(ATTACK_CLASSES.index, (AttackClass.MISUSE, AttackClass.DETECTOR))
    # Day arithmetic, not datetimes: end_date + 1 day overflows datetime at
    # 9999-12-31, whose last second is MAX_UNIX_SECONDS.
    epoch_lo = (spec.start_date - _UNIX_EPOCH).days * _SECONDS_PER_DAY
    epoch_hi = ((spec.end_date - _UNIX_EPOCH).days + 1) * _SECONDS_PER_DAY
    span = epoch_hi - epoch_lo
    span_bits, port_bits = span.bit_length(), _PORTS.bit_length()
    # sample(k <= 3) draws below 10, 9 and 8, all four bits, as choice draws below 10
    n_countries = len(_COUNTRIES)
    country_bits = n_countries.bit_length()
    lognormal, n_subclasses = _lognormal, len(SUBCLASSES)

    rng = random.Random(spec.seed)
    draw, bits = rng.random, rng.getrandbits
    # The five array columns take each value as it is drawn, so no int object outlives its draw.
    columns = [*(array.array(code) for code in "BBqqq"), [], [], [], []]
    (add_class, add_subclass, add_max_bps, add_start, add_stop,
     add_dst_cc, add_src_cc, add_dst_ports, add_src_ports) = (column.append for column in columns)
    with _cycle_collector_paused():
        for _ in range(spec.record_count):
            add_subclass(int(draw() * n_subclasses))
            offset = bits(span_bits)
            while offset >= span:
                offset = bits(span_bits)
            start = epoch_lo + offset
            add_start(start)
            add_stop(min(start + int(lognormal(draw, _DURATION_LOG_MEAN, _DURATION_LOG_SIGMA)),
                         epoch_hi - 1))
            add_max_bps(int(lognormal(draw, _BPS_LOG_MEAN, _BPS_LOG_SIGMA)))
            add_class(misuse if draw() < 0.8 else detector)
            if draw() < 0.5:
                j = bits(country_bits)
                while j >= n_countries:
                    j = bits(country_bits)
                add_dst_cc((_COUNTRIES[j],))
            else:
                add_dst_cc(None)
            if draw() < 0.5:
                k = bits(2)
                while k >= 3:
                    k = bits(2)
                k += 1  # randint(1, 3)
                pool, picked = list(_COUNTRIES), []  # sample's pool method
                for top in range(n_countries - 1, n_countries - 1 - k, -1):
                    j = bits(country_bits)
                    while j > top:
                        j = bits(country_bits)
                    picked.append(pool[j])
                    pool[j] = pool[top]
                add_src_cc(tuple(picked))
            else:
                add_src_cc(None)
            for add_ports in (add_dst_ports, add_src_ports):
                if draw() < 0.3:
                    port = bits(port_bits)
                    while port >= _PORTS:
                        port = bits(port_bits)
                    add_ports((port,))
                else:
                    add_ports(None)

    import numpy as np

    arrays = [np.array(values, dtype) for values, dtype in zip(columns, _DTYPES)]
    name_rank = np.array(_NAME_RANK, "u1")[arrays[1]]
    order = np.lexsort((name_rank, arrays[3]))  # stable: a tie keeps draw order
    positions = order.tolist()
    return RecordColumns.from_lists([*(column[order] for column in arrays),
                                     *(tuple(map(values.__getitem__, positions))
                                       for values in columns[5:])])
