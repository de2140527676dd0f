"""Parsing and synthesis of DDoS attack records.

The on-disk format is the attack-map export: a JSON array of objects (or
NDJSON, one object per line) with fields ``attack_class``, ``dst_cc``,
``dst_ports``, ``max_bps``, ``src_cc``, ``src_ports``, ``start``, ``stop``
and ``subclass``. Timestamps are integer Unix seconds. Subclass strings
appear both with and without spaces in the wild ("TCP SYN" / "TCPSYN");
spaces are stripped before enum mapping so both spellings parse.
"""

from __future__ import annotations

import datetime as dt
import enum
import json
import random
from dataclasses import dataclass, field

from .errors import (
    AllZeroWeightsError,
    EmptyDateRangeError,
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

_SUBCLASS_BY_SQUASHED = {v.value: v for v in Subclass}
_ATTACK_CLASS_BY_NAME = {v.value: v for v in AttackClass}

_REQUIRED_FIELDS = ("attack_class", "subclass", "max_bps", "start", "stop")

# 9999-12-31T23:59:59Z, the last second a datetime can hold
MAX_UNIX_SECONDS = 253402300799
# max_bps must fit a signed 64-bit integer
MAX_BPS_EXCLUSIVE = 2**63


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


@dataclass
class ParseReport:
    """Outcome of a lenient parse: accepted + rejected = raw entries seen."""

    accepted: int = 0
    rejected: int = 0
    rejection_reasons: list[tuple[int, str]] = field(default_factory=list)

    @property
    def total(self) -> int:
        return self.accepted + self.rejected


@dataclass(frozen=True)
class SyntheticSpec:
    """Parameters for a deterministic synthetic record set.

    ``start_date``/``end_date`` are inclusive UTC dates. Throughput and
    duration are log-normal; the defaults give mostly-minutes attacks in the
    single-digit-Gbps range with a heavy upper tail, which is the texture of
    the real export.
    """

    record_count: int
    start_date: dt.date = dt.date(2019, 1, 1)
    end_date: dt.date = dt.date(2020, 12, 31)
    subclass_weights: dict[Subclass, float] | None = None
    bps_log_mean: float = 22.0
    bps_log_sigma: float = 2.0
    duration_log_mean: float = 7.0
    duration_log_sigma: float = 1.5
    seed: int = 0


def _as_int(value):
    """Accept JSON ints and integral floats, reject everything else."""
    if isinstance(value, bool):
        return None
    if isinstance(value, int):
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    return None


def _parse_cc_list(value):
    if value is None:
        return None, None
    if not isinstance(value, list):
        return None, "not a list"
    out = []
    for item in value:
        if not isinstance(item, str) or len(item) != 2:
            return None, f"bad country code {item!r}"
        out.append(item)
    return tuple(out), None


def _parse_port_list(value):
    if value is None:
        return None, None
    if not isinstance(value, list):
        return None, "not a list"
    out = []
    for item in value:
        port = _as_int(item)
        if port is None or not 0 <= port <= 65535:
            return None, f"bad port {item!r}"
        out.append(port)
    return tuple(out), None


def _entry_to_record(entry) -> tuple[AttackRecord | None, str | None]:
    """Validate one raw entry. Returns (record, None) or (None, reason)."""
    if not isinstance(entry, dict):
        return None, "entry is not a JSON object"
    for name in _REQUIRED_FIELDS:
        if name not in entry:
            return None, f"missing field {name!r}"

    raw_class = entry["attack_class"]
    if not isinstance(raw_class, str) or raw_class not in _ATTACK_CLASS_BY_NAME:
        return None, f"unknown attack_class {raw_class!r}"
    attack_class = _ATTACK_CLASS_BY_NAME[raw_class]

    raw_subclass = entry["subclass"]
    if not isinstance(raw_subclass, str):
        return None, f"subclass is not a string: {raw_subclass!r}"
    squashed = raw_subclass.replace(" ", "")
    if squashed not in _SUBCLASS_BY_SQUASHED:
        return None, f"unknown subclass {raw_subclass!r}"
    subclass = _SUBCLASS_BY_SQUASHED[squashed]

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

    dst_cc, err = _parse_cc_list(entry.get("dst_cc"))
    if err:
        return None, f"dst_cc: {err}"
    src_cc, err = _parse_cc_list(entry.get("src_cc"))
    if err:
        return None, f"src_cc: {err}"
    dst_ports, err = _parse_port_list(entry.get("dst_ports"))
    if err:
        return None, f"dst_ports: {err}"
    src_ports, err = _parse_port_list(entry.get("src_ports"))
    if err:
        return None, f"src_ports: {err}"

    return AttackRecord(
        attack_class=attack_class,
        subclass=subclass,
        max_bps=max_bps,
        start=start,
        stop=stop,
        dst_cc=dst_cc,
        src_cc=src_cc,
        dst_ports=dst_ports,
        src_ports=src_ports,
    ), None


# json.loads raises JSONDecodeError (a ValueError) on bad syntax, a plain
# ValueError on an integer longer than sys.get_int_max_str_digits() and
# RecursionError on deeply nested arrays or objects.
_DECODE_ERRORS = (ValueError, RecursionError)


def _detect_entries(text: str):
    """Return (entries, locations). Raises NotJsonError if no format fits.

    Locations are array indices (0-based) for array input and line numbers
    (1-based) for NDJSON. NDJSON lines that fail to parse come back as
    (None, location, message) placeholders handled by the caller.
    """
    stripped = text.strip()
    if not stripped:
        raise NotJsonError("empty input")

    if stripped[0] == "[":
        try:
            doc = json.loads(stripped)
        except _DECODE_ERRORS as exc:
            raise NotJsonError(f"broken JSON array: {exc}") from exc
        return [(entry, i, None) for i, entry in enumerate(doc)]

    if stripped[0] == "{":
        # Could be a single object, a wrapper around the array, or NDJSON.
        try:
            doc = json.loads(stripped)
        except _DECODE_ERRORS:
            doc = None
        if isinstance(doc, dict):
            if all(name in doc for name in _REQUIRED_FIELDS):
                return [(doc, 0, None)]
            values = list(doc.values())
            if len(doc) == 1 and isinstance(values[0], list):
                return [(entry, i, None) for i, entry in enumerate(values[0])]
            raise NotJsonError(
                "top-level object is neither a record nor a single-key array "
                f"wrapper (keys: {sorted(doc)})"
            )

    # NDJSON: one object per non-blank line.
    rows = []
    parsed_any = False
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
        except _DECODE_ERRORS as exc:
            rows.append((None, lineno, f"unparseable line: {getattr(exc, 'msg', exc)}"))
            continue
        parsed_any = True
        rows.append((obj, lineno, None))
    if not parsed_any:
        raise NotJsonError("input is neither a JSON array nor NDJSON")
    return rows


def parse_records(raw: bytes | str, strict: bool = False):
    """Parse an export file into records plus a report.

    Lenient mode (default) skips malformed entries and logs (location,
    reason) pairs; strict mode raises SchemaViolationError (or the
    UnknownSubclassError subtype) at the first bad entry. Input order is
    preserved for accepted records.
    """
    if isinstance(raw, bytes):
        try:
            text = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise NotJsonError(f"input is not UTF-8: {exc}") from exc
    else:
        text = raw

    records: list[AttackRecord] = []
    report = ParseReport()
    for entry, location, pre_error in _detect_entries(text):
        reason = pre_error
        record = None
        if reason is None:
            record, reason = _entry_to_record(entry)
        if record is not None:
            records.append(record)
            report.accepted += 1
            continue
        if strict:
            if reason.startswith("unknown subclass"):
                raise UnknownSubclassError(location, reason)
            raise SchemaViolationError(location, reason)
        report.rejected += 1
        report.rejection_reasons.append((location, reason))
    return records, report


def _record_to_obj(record: AttackRecord) -> dict:
    obj = {
        "attack_class": record.attack_class.value,
        "max_bps": record.max_bps,
        "start": record.start,
        "stop": record.stop,
        "subclass": WIRE_NAMES[record.subclass],
    }
    if record.dst_cc is not None:
        obj["dst_cc"] = list(record.dst_cc)
    if record.src_cc is not None:
        obj["src_cc"] = list(record.src_cc)
    if record.dst_ports is not None:
        obj["dst_ports"] = list(record.dst_ports)
    if record.src_ports is not None:
        obj["src_ports"] = list(record.src_ports)
    return obj


def records_to_json(records) -> str:
    """Serialize records to a JSON array in the export's own format."""
    return json.dumps([_record_to_obj(r) for r in records], sort_keys=True)


def records_to_ndjson(records) -> str:
    """Serialize records one-per-line; parse_records round-trips the result."""
    lines = [json.dumps(_record_to_obj(r), sort_keys=True) for r in records]
    return "\n".join(lines) + ("\n" if lines else "")


_COUNTRIES = ("US", "CN", "DE", "FR", "GB", "RU", "BR", "IN", "KR", "NL")


def generate_synthetic(spec: SyntheticSpec) -> list[AttackRecord]:
    """Deterministic synthetic record set for a SyntheticSpec.

    Output is bit-identical for a fixed seed across runs and platforms
    (random.Random only). All timestamps fall inside the spec's date range.
    """
    if spec.end_date < spec.start_date:
        raise EmptyDateRangeError(
            f"end_date {spec.end_date} before start_date {spec.start_date}"
        )
    weights = spec.subclass_weights
    if weights is None:
        weights = {sub: 1.0 for sub in Subclass}
    if any(w < 0 for w in weights.values()):
        raise AllZeroWeightsError("negative subclass weight")
    population = [sub for sub in Subclass if weights.get(sub, 0.0) > 0]
    if not population:
        raise AllZeroWeightsError("all subclass weights are zero")
    pop_weights = [weights[sub] for sub in population]

    epoch_lo = int(
        dt.datetime.combine(spec.start_date, dt.time(), dt.timezone.utc).timestamp()
    )
    epoch_hi = int(
        dt.datetime.combine(
            spec.end_date + dt.timedelta(days=1), dt.time(), dt.timezone.utc
        ).timestamp()
    )

    rng = random.Random(spec.seed)
    records = []
    for _ in range(spec.record_count):
        subclass = rng.choices(population, weights=pop_weights)[0]
        start = rng.randrange(epoch_lo, epoch_hi)
        duration = int(rng.lognormvariate(spec.duration_log_mean, spec.duration_log_sigma))
        stop = min(start + duration, epoch_hi - 1)
        max_bps = int(rng.lognormvariate(spec.bps_log_mean, spec.bps_log_sigma))
        attack_class = AttackClass.MISUSE if rng.random() < 0.8 else AttackClass.DETECTOR
        dst_cc = (rng.choice(_COUNTRIES),) if rng.random() < 0.5 else None
        src_cc = tuple(rng.sample(_COUNTRIES, k=rng.randint(1, 3))) if rng.random() < 0.5 else None
        dst_ports = (rng.randint(0, 65535),) if rng.random() < 0.3 else None
        src_ports = (rng.randint(0, 65535),) if rng.random() < 0.3 else None
        records.append(
            AttackRecord(
                attack_class=attack_class,
                subclass=subclass,
                max_bps=max_bps,
                start=start,
                stop=stop,
                dst_cc=dst_cc,
                src_cc=src_cc,
                dst_ports=dst_ports,
                src_ports=src_ports,
            )
        )
    records.sort(key=lambda r: (r.start, r.subclass.value))
    return records
