"""Parsing and synthesis of DDoS attack records.

The on-disk format is the attack-map export: a JSON array of objects (or
NDJSON, one object per line) with fields ``attack_class``, ``dst_cc``,
``dst_ports``, ``max_bps``, ``src_cc``, ``src_ports``, ``start``, ``stop``
and ``subclass``. Timestamps are integer Unix seconds. Subclass strings
appear both with and without spaces in the wild ("TCP SYN" / "TCPSYN");
spaces are stripped before enum mapping so both spellings parse.

This module alone decides the input format: ``_detect_entries`` yields the
decoded entries one at a time, and ``records.ingest_export`` asks the same
``_FIRST`` whether the text is an array to cut. Every path checks entries
with one loop, ``_checked_rows``, which yields a row of column values per
accepted entry (``_check_entry``), and writes records with one row writer,
``_record_lines``. ``parse_records`` gathers the rows into
``RecordColumns``; the serializers feed the writer the rows of a
``RecordColumns``; an ingest part (``records._ingest_part``) feeds it the
checked rows themselves.
"""

from __future__ import annotations

import contextlib
import datetime as dt
import enum
import gc
import itertools
import json
import random
import re
from collections.abc import Sequence
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    AllZeroWeightsError,
    EmptyDateRangeError,
    InvalidConfigError,
    NotJsonError,
    SchemaViolationError,
    UnknownSubclassError,
)


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
# Both spellings of each subclass; any other spacing is squashed first.
_SUBCLASS_CODE = {
    name: code for code, sub in enumerate(SUBCLASSES) for name in (sub.value, WIRE_NAMES[sub])
}
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
    return bool(np.all(start >= 0) and np.all(start <= stop) and np.all(stop <= MAX_UNIX_SECONDS)
                and np.all(max_bps >= 0))


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


@dataclass(frozen=True, eq=False)
class RecordColumns(Sequence):
    """Records as parallel columns: what parsing and ``generate_synthetic`` return.

    ``attack_class`` and ``subclass`` hold uint8 codes into
    ``ATTACK_CLASSES`` and ``SUBCLASSES``; ``max_bps``, ``start`` and
    ``stop`` are int64; the optional country and port lists hold one tuple
    (or None) per record. The arrays are read-only. As a sequence the
    columns read as ``AttackRecord`` rows, and they compare equal to any
    sequence of the same records.
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
        """Columns from one list per field, in field order, codes in place of the enums."""
        arrays = [
            np.array(values, dtype)
            for values, dtype in zip(columns, (np.uint8, np.uint8, np.int64, np.int64, np.int64))
        ]
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

    def __getitem__(self, index: int) -> AttackRecord:
        return AttackRecord(
            attack_class=ATTACK_CLASSES[self.attack_class[index]],
            subclass=SUBCLASSES[self.subclass[index]],
            max_bps=int(self.max_bps[index]),
            start=int(self.start[index]),
            stop=int(self.stop[index]),
            dst_cc=self.dst_cc[index],
            src_cc=self.src_cc[index],
            dst_ports=self.dst_ports[index],
            src_ports=self.src_ports[index],
        )

    def rows(self):
        """Each record's row of column values, as ``_check_entry`` gives it.

        One pass over whole columns, not nine numpy reads per row.
        """
        return zip(self.attack_class.tolist(), self.subclass.tolist(), self.max_bps.tolist(),
                   self.start.tolist(), self.stop.tolist(),
                   self.dst_cc, self.src_cc, self.dst_ports, self.src_ports)

    def __iter__(self):
        return (AttackRecord(ATTACK_CLASSES[attack_class], SUBCLASSES[subclass], *rest)
                for attack_class, subclass, *rest in self.rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence) or isinstance(other, (str, bytes)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


_FIELDS = tuple(f.name for f in fields(RecordColumns))


@dataclass
class ParseReport:
    """Outcome of a lenient parse: accepted + rejected = the entries seen.

    That holds for every report, an unparseable NDJSON line being a rejected
    entry, and ``records.ingest_export`` shifts each part's rejection
    locations by it.
    """

    accepted: int = 0
    rejected: int = 0
    rejection_reasons: list[tuple[int, str]] = field(default_factory=list)


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a deterministic synthetic record set.

    ``start_date``/``end_date`` are inclusive UTC dates; the range must not
    be empty or start before 1970-01-01. Weights, when given, must be
    non-negative and not all zero.
    """

    record_count: int
    start_date: dt.date = dt.date(2019, 1, 1)
    end_date: dt.date = dt.date(2020, 12, 31)
    subclass_weights: dict[Subclass, float] | None = None
    seed: int = 0

    def __post_init__(self):
        if self.record_count < 1:
            raise InvalidConfigError(f"record_count must be >= 1, got {self.record_count}")
        if self.end_date < self.start_date:
            raise EmptyDateRangeError(
                f"end_date {self.end_date} before start_date {self.start_date}"
            )
        weights = self.subclass_weights
        if weights is not None and any(w < 0 for w in weights.values()):
            raise AllZeroWeightsError("negative subclass weight")
        if weights is not None and not any(weights.get(sub, 0.0) > 0 for sub in Subclass):
            raise AllZeroWeightsError("all subclass weights are zero")
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
    code = _SUBCLASS_CODE.get(raw_subclass)
    if code is None:
        code = _SUBCLASS_CODE.get(raw_subclass.replace(" ", ""))
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

    The input format is decided here; ``records.ingest_export`` only asks
    ``_FIRST`` whether the text is an array to cut. Locations are array
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


def _text_of(raw: bytes | str) -> str:
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
    rows = list(_checked_rows(_text_of(raw), rejections))
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


_COUNTRIES = ("US", "CN", "DE", "FR", "GB", "RU", "BR", "IN", "KR", "NL")
_UNIX_EPOCH = dt.date(1970, 1, 1)
_SECONDS_PER_DAY = 86400
# Duration (s) and throughput (bps) are log-normal with these parameters:
# mostly-minutes attacks in the single-digit-Gbps range with a heavy upper
# tail, which is the texture of the real export.
_DURATION_LOG_MEAN, _DURATION_LOG_SIGMA = 7.0, 1.5
_BPS_LOG_MEAN, _BPS_LOG_SIGMA = 22.0, 2.0


def generate_synthetic(spec: SyntheticSpec) -> RecordColumns:
    """Deterministic synthetic record set for a SyntheticSpec, as columns.

    Output is bit-identical for a fixed seed across runs and platforms
    (random.Random only). All timestamps fall inside the spec's date range.
    Records are sorted by start, then by subclass name, and a tie keeps
    draw order.
    """
    weights = spec.subclass_weights or {sub: 1.0 for sub in Subclass}  # the spec refuses {}
    population = [code for code, sub in enumerate(SUBCLASSES) if weights.get(sub, 0.0) > 0]
    # What random.choices builds from weights= on every call, so the draws are the same.
    cum_weights = list(itertools.accumulate(weights[SUBCLASSES[code]] for code in population))
    misuse, detector = map(ATTACK_CLASSES.index, (AttackClass.MISUSE, AttackClass.DETECTOR))
    names = [sub.value for sub in SUBCLASSES]
    # Day arithmetic, not datetimes: end_date + 1 day overflows datetime at
    # 9999-12-31, whose last second is MAX_UNIX_SECONDS.
    epoch_lo = (spec.start_date - _UNIX_EPOCH).days * _SECONDS_PER_DAY
    epoch_hi = ((spec.end_date - _UNIX_EPOCH).days + 1) * _SECONDS_PER_DAY

    rng = random.Random(spec.seed)
    rows = []
    for _ in range(spec.record_count):
        subclass = rng.choices(population, cum_weights=cum_weights)[0]
        start = rng.randrange(epoch_lo, epoch_hi)
        duration = int(rng.lognormvariate(_DURATION_LOG_MEAN, _DURATION_LOG_SIGMA))
        stop = min(start + duration, epoch_hi - 1)
        max_bps = int(rng.lognormvariate(_BPS_LOG_MEAN, _BPS_LOG_SIGMA))
        attack_class = misuse if rng.random() < 0.8 else detector
        dst_cc = (rng.choice(_COUNTRIES),) if rng.random() < 0.5 else None
        src_cc = tuple(rng.sample(_COUNTRIES, k=rng.randint(1, 3))) if rng.random() < 0.5 else None
        dst_ports = (rng.randint(0, 65535),) if rng.random() < 0.3 else None
        src_ports = (rng.randint(0, 65535),) if rng.random() < 0.3 else None
        rows.append((attack_class, subclass, max_bps, start, stop,
                     dst_cc, src_cc, dst_ports, src_ports))
    rows.sort(key=lambda row: (row[3], names[row[1]]))
    return RecordColumns.from_lists(list(zip(*rows)))
