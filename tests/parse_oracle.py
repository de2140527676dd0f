"""Per-entry reference validator for the columnar parser.

``entry_to_record`` is the record-at-a-time validator that
``ingest._check_entry`` replaced: it checks one decoded entry and builds an
``AttackRecord``. ``oracle_parse`` runs it over the same decoded entries as
``parse_records``, so tests can require both to accept the same records and
give the same (location, reason) pairs and strict-mode errors.
"""

from ddoscast.errors import SchemaViolationError, UnknownSubclassError
from ddoscast.ingest import (
    MAX_BPS_EXCLUSIVE,
    MAX_UNIX_SECONDS,
    AttackClass,
    AttackRecord,
    ParseReport,
    Subclass,
    _detect_entries,
)

_REQUIRED_FIELDS = ("attack_class", "subclass", "max_bps", "start", "stop")
_SUBCLASS_BY_SQUASHED = {v.value: v for v in Subclass}
_ATTACK_CLASS_BY_NAME = {v.value: v for v in AttackClass}


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


def entry_to_record(entry):
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


def oracle_parse(raw: bytes, strict: bool = False):
    """parse_records with entry_to_record: (list of AttackRecord, ParseReport).

    Every entry is decoded before the first is checked, so a NotJsonError
    comes before any strict-mode rejection, as ``parse_records`` gives it.
    A UTF-8 byte-order mark before the text is dropped, as it is there.
    """
    records = []
    report = ParseReport()
    for entry, location, pre_error in list(_detect_entries(raw.decode("utf-8-sig"))):
        reason = pre_error
        record = None
        if reason is None:
            record, reason = entry_to_record(entry)
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
