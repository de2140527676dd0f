import contextlib
import dataclasses
import datetime as dt
import gc
import json
import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import HUGE_INT, as_array, as_ndjson, huge_int_line, record_obj
from parse_oracle import oracle_parse
from synthetic_oracle import oracle_generate
from ddoscast import ingest
from ddoscast.errors import (
    DdoscastError,
    EmptyDateRangeError,
    InvalidConfigError,
    NotJsonError,
    SchemaViolationError,
    UnknownSubclassError,
)
from ddoscast.ingest import (
    MAX_UNIX_SECONDS,
    SUBCLASSES,
    WIRE_NAMES,
    AttackClass,
    AttackRecord,
    RecordColumns,
    Subclass,
    SyntheticSpec,
    generate_synthetic,
    parse_records,
    records_to_json,
    records_to_ndjson,
)


def test_a_byte_order_mark_before_ndjson_is_skipped():
    text = as_ndjson(record_obj(), record_obj(start=9, stop=1), record_obj())
    records, report = parse_records(b"\xef\xbb\xbf" + text)
    assert report.accepted == 2 and report.rejection_reasons == [(2, "stop before start")]
    plain, plain_report = parse_records(text)
    assert report == plain_report and records.start.tolist() == plain.start.tolist()


def test_minimal_valid_object():
    records, report = parse_records(as_array(record_obj(subclass="TCP SYN")))
    assert len(records) == 1
    assert report.accepted == 1 and report.rejected == 0
    (rec,) = records
    assert rec.subclass is Subclass.TCP_SYN
    assert rec.attack_class is AttackClass.MISUSE
    assert rec.start == 1577836800 and rec.stop == 1577837400


def test_stop_before_start_rejected_lenient():
    records, report = parse_records(as_array(record_obj(start=100, stop=99)))
    assert list(records) == []
    assert report.rejected == 1
    location, reason = report.rejection_reasons[0]
    assert reason == "stop before start"


OUT_OF_RANGE = [
    pytest.param({"start": -5, "stop": 10}, id="negative-start"),
    pytest.param({"start": 10**13, "stop": 10**13}, id="start-year-318857"),
    pytest.param({"start": 0, "stop": MAX_UNIX_SECONDS + 1}, id="stop-past-9999"),
    pytest.param({"max_bps": 2**63}, id="max-bps-2**63"),
    pytest.param({"max_bps": 10**400}, id="max-bps-400-digits"),
]


@pytest.mark.parametrize("fields", OUT_OF_RANGE)
def test_out_of_range_numbers_rejected_lenient(fields):
    records, report = parse_records(as_array(record_obj(**fields), record_obj()))
    assert len(records) == 1
    assert report.rejected == 1
    location, reason = report.rejection_reasons[0]
    assert location == 0
    assert "out of range" in reason


@pytest.mark.parametrize("fields", OUT_OF_RANGE)
def test_out_of_range_numbers_abort_strict(fields):
    with pytest.raises(SchemaViolationError) as err:
        parse_records(as_array(record_obj(), record_obj(**fields)), strict=True)
    assert err.value.location == 1
    assert "out of range" in err.value.reason


def test_range_bounds_are_inclusive():
    obj = record_obj(start=0, stop=MAX_UNIX_SECONDS, max_bps=2**63 - 1)
    records, report = parse_records(as_array(obj), strict=True)
    assert report.accepted == 1
    assert [(r.start, r.stop) for r in records] == [(0, MAX_UNIX_SECONDS)]


def test_subclass_spellings_normalize():
    spaced = ["TCP SYN", "TCP RST", "TCP ACK", "UDP Misuse", "IP Fragment",
              "DNS Misuse", "Total Traffic", "Protocol", "ICMP", "Bandwidth"]
    records, report = parse_records(as_array(*[record_obj(subclass=s) for s in spaced]))
    assert report.rejected == 0
    assert {r.subclass for r in records} == set(Subclass)
    squashed = [s.replace(" ", "") for s in spaced]
    records2, _ = parse_records(as_array(*[record_obj(subclass=s) for s in squashed]))
    assert [r.subclass for r in records2] == [r.subclass for r in records]


def test_ndjson_and_array_agree():
    objs = [record_obj(start=1577836800 + i) for i in range(5)]
    from_array, _ = parse_records(as_array(*objs))
    from_ndjson, _ = parse_records(as_ndjson(*objs))
    assert list(from_array) == list(from_ndjson)


def test_accepted_plus_rejected_equals_total():
    objs = [record_obj(), record_obj(start=5, stop=1), record_obj(subclass="Quantum"),
            record_obj(max_bps=-3), record_obj()]
    records, report = parse_records(as_array(*objs))
    assert report.accepted == len(records) == 2
    assert report.accepted + report.rejected == len(objs)


def test_parse_is_order_preserving():
    objs = [record_obj(start=1577836800 + i, stop=1577836800 + i + 60) for i in range(10)]
    objs.insert(3, record_obj(subclass="nope"))
    objs.insert(7, {"not": "a record"})
    records, report = parse_records(as_ndjson(*objs))
    starts = [r.start for r in records]
    assert starts == sorted(starts)
    assert len(records) == 10
    # rejected locations are 1-based NDJSON line numbers
    assert [loc for loc, _ in report.rejection_reasons] == [4, 8]


def test_strict_mode_aborts_on_first_bad_entry():
    objs = [record_obj(), record_obj(start=5, stop=1), record_obj(subclass="Quantum")]
    with pytest.raises(SchemaViolationError) as err:
        parse_records(as_array(*objs), strict=True)
    assert err.value.location == 1
    assert "stop before start" in str(err.value)


def test_strict_mode_unknown_subclass_error():
    with pytest.raises(UnknownSubclassError):
        parse_records(as_array(record_obj(subclass="Quantum Flood")), strict=True)


def test_unknown_attack_class_reported_not_invented():
    records, report = parse_records(as_array(record_obj(attack_class="Oracle")))
    assert list(records) == []
    assert "unknown attack_class" in report.rejection_reasons[0][1]


def test_not_json_inputs():
    for raw in (b"", b"   ", b"hello world\nplain text", b"[1, 2,"):
        with pytest.raises(NotJsonError):
            parse_records(raw)


def test_oversized_integer_in_array_or_wrapper_is_not_json():
    for text in (f"[{huge_int_line()}]", f'{{"attacks": [{huge_int_line()}]}}', huge_int_line()):
        with pytest.raises(NotJsonError):
            parse_records(text.encode())


def test_oversized_integer_ndjson_line_rejected_lenient():
    text = "\n".join([json.dumps(record_obj()), huge_int_line("start"), json.dumps(record_obj())])
    records, report = parse_records(text.encode())
    assert len(records) == 2
    assert report.rejected == 1
    location, reason = report.rejection_reasons[0]
    assert location == 2 and reason.startswith("unparseable line")


def test_oversized_integer_ndjson_line_aborts_strict():
    text = "\n".join([json.dumps(record_obj()), huge_int_line("stop")])
    with pytest.raises(SchemaViolationError) as err:
        parse_records(text.encode(), strict=True)
    assert err.value.location == 2


def test_deep_nesting_is_not_json():
    for text in ("[" * 100_000 + "]" * 100_000, '{"a":' * 100_000 + "1" + "}" * 100_000):
        with pytest.raises(NotJsonError):
            parse_records(text.encode())


def test_object_wrapper_unwraps_single_key_array():
    wrapped = json.dumps({"attacks": [record_obj(), record_obj()]}).encode()
    records, report = parse_records(wrapped)
    assert len(records) == 2 and report.rejected == 0


def test_object_wrapper_other_shapes_are_one_ndjson_line():
    text = json.dumps({"a": 1, "b": 2}).encode()
    records, report = parse_records(text)
    assert len(records) == 0
    assert report.rejection_reasons == [(1, "missing field 'attack_class'")]
    with pytest.raises(SchemaViolationError) as err:
        parse_records(text, strict=True)
    assert err.value.location == 1


LONE_OBJECTS = [
    record_obj(),
    {k: v for k, v in record_obj().items() if k != "stop"},
    record_obj(subclass="??"),
    record_obj(start=9, stop=1),
    {"a": 1, "b": 2},
    {"attacks": 5},
    {},
]


@pytest.mark.parametrize("obj", LONE_OBJECTS)
def test_lone_object_reads_as_its_ndjson_line(obj):
    one_line, one_report = parse_records(as_ndjson(obj))
    two_lines, two_report = parse_records(as_ndjson(obj, obj))
    reasons = [reason for _, reason in one_report.rejection_reasons]
    assert one_report.rejection_reasons == [(1, reason) for reason in reasons]
    assert two_report.rejection_reasons == [(line, r) for line in (1, 2) for r in reasons]
    assert list(two_lines) == list(one_line) * 2


def test_lone_object_is_located_at_the_line_it_starts_on():
    bad = {k: v for k, v in record_obj().items() if k != "stop"}
    for text, line in ((as_ndjson(bad), 1), (b"\n\n" + as_ndjson(bad), 3),
                       (b"\n" + json.dumps(bad, indent=2).encode(), 2)):
        _records, report = parse_records(text)
        assert report.rejection_reasons == [(line, "missing field 'stop'")]


def test_single_record_object_parses():
    records, _ = parse_records(json.dumps(record_obj()).encode())
    assert len(records) == 1


def test_optional_fields_validate():
    good = record_obj(dst_cc=["US"], src_cc=["CN", "RU"], dst_ports=[80], src_ports=[0, 65535])
    (record,), _ = parse_records(as_array(good))
    assert record.dst_cc == ("US",)
    assert record.src_ports == (0, 65535)

    bad_port = record_obj(dst_ports=[70000])
    bad_cc = record_obj(src_cc=["USA"])
    _, report = parse_records(as_array(bad_port, bad_cc))
    assert report.rejected == 2


def test_generate_zero_records():
    with pytest.raises(InvalidConfigError, match="record_count"):
        SyntheticSpec(record_count=0)


def test_generate_deterministic(synthetic_1000):
    again = generate_synthetic(SyntheticSpec(record_count=1000, seed=7))
    assert list(again) == synthetic_1000


class _Fixed(random.Random):
    """A generator whose ``random()`` returns one given value."""

    def __init__(self, value):
        super().__init__()
        self.value = value

    def random(self):
        return self.value


@pytest.mark.parametrize("value", [
    0.0, 1 - 2**-53, *(k / 10 for k in range(1, 10)),
    *(math.nextafter(k / 10, 0) for k in range(1, 10)),
])
def test_the_subclass_draw_is_the_equal_weight_choice(value):
    # generate_synthetic takes int(random() * 10) for choices(weights=[1.0] * 10)
    assert _Fixed(value).choices(range(10), weights=[1.0] * 10)[0] == int(value * 10)


def test_generate_timestamps_inside_range():
    spec = SyntheticSpec(
        record_count=500,
        start_date=dt.date(2020, 3, 1),
        end_date=dt.date(2020, 3, 31),
        seed=11,
    )
    lo = dt.datetime(2020, 3, 1, tzinfo=dt.timezone.utc).timestamp()
    hi = dt.datetime(2020, 4, 1, tzinfo=dt.timezone.utc).timestamp()
    for rec in generate_synthetic(spec):
        assert lo <= rec.start <= rec.stop < hi


def test_generate_errors():
    with pytest.raises(EmptyDateRangeError):
        generate_synthetic(
            SyntheticSpec(record_count=1, start_date=dt.date(2020, 2, 1),
                          end_date=dt.date(2020, 1, 1))
        )


@pytest.mark.parametrize("draw", [None, 1e19])  # 1e19: a max_bps beyond int64
@pytest.mark.parametrize("enabled", [True, False])
def test_generation_leaves_the_cycle_collector_as_it_was(monkeypatch, enabled, draw):
    if draw is not None:
        monkeypatch.setattr(ingest, "_lognormal", lambda *args: draw)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        with pytest.raises(OverflowError) if draw else contextlib.nullcontext():
            generate_synthetic(SyntheticSpec(record_count=50, seed=1))
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


ORACLE_SPECS = [
    *(pytest.param(SyntheticSpec(record_count=count, seed=seed), id=f"seed{seed}-n{count}")
      for seed in (0, 1, 7) for count in (1, 2, 1000)),
    pytest.param(SyntheticSpec(record_count=400, seed=4, start_date=dt.date(1970, 1, 1),
                               end_date=dt.date(1970, 1, 1)), id="1970-01-01"),
    pytest.param(SyntheticSpec(record_count=400, seed=5, start_date=dt.date(9999, 12, 31),
                               end_date=dt.date(9999, 12, 31)), id="9999-12-31"),
    pytest.param(SyntheticSpec(record_count=192_525, seed=1), id="real-export-size"),
]


@pytest.mark.parametrize("spec", ORACLE_SPECS)
def test_generator_matches_per_record_oracle(spec):
    got = generate_synthetic(spec)
    expected = RecordColumns.of(oracle_generate(spec))
    assert isinstance(got, RecordColumns)
    for name, column in vars(expected).items():
        if isinstance(column, np.ndarray):
            assert getattr(got, name).dtype == column.dtype
            assert np.array_equal(getattr(got, name), column), name
            assert not getattr(got, name).flags.writeable
        else:
            assert getattr(got, name) == column, name
    assert records_to_json(got) == records_to_json(expected)


@pytest.mark.parametrize("spec", [p for p in ORACLE_SPECS if p.values[0].record_count <= 1000])
def test_column_records_are_constructed_records(spec):
    columns = generate_synthetic(spec)
    records = list(columns)
    assert records == oracle_generate(spec)
    for record in records:
        built = AttackRecord(**vars(record))
        assert type(record) is AttackRecord and vars(record) == vars(built)
        assert hash(record) == hash(built)
        with pytest.raises(dataclasses.FrozenInstanceError):
            record.max_bps = 0
        assert dataclasses.replace(record, max_bps=1) == dataclasses.replace(built, max_bps=1)


def test_round_trip_both_formats(synthetic_1000):
    for serialize in (records_to_json, records_to_ndjson):
        text = serialize(synthetic_1000)
        parsed, report = parse_records(text.encode())
        assert report.rejected == 0
        assert list(parsed) == synthetic_1000


def test_round_trip_of_random_mutations():
    # every record the generator can emit must survive serialization
    rng = random.Random(99)
    for seed in range(5):
        spec = SyntheticSpec(record_count=rng.randint(1, 50), seed=seed)
        records = generate_synthetic(spec)
        parsed, report = parse_records(records_to_ndjson(records))
        assert list(parsed) == list(records) and report.rejected == 0


# --- property tests: any input either parses or raises a DdoscastError ----

_json_scalars = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=12)
    | st.sampled_from(["@huge@", "Misuse", "Detector", "TCP SYN", "Total Traffic", "US"])
)
_json_values = st.recursive(
    _json_scalars,
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4)
    ),
    max_leaves=12,
)
_record_like = st.fixed_dictionaries(
    {name: _json_values for name in ("attack_class", "subclass", "max_bps", "start", "stop")},
    optional={name: _json_values for name in ("dst_cc", "src_cc", "dst_ports", "src_ports")},
)
_entries = st.lists(_record_like | _json_values, max_size=5)


def _dump(value) -> str:
    return json.dumps(value).replace('"@huge@"', HUGE_INT)


_documents = st.one_of(
    _entries.map(_dump),
    _entries.map(lambda entries: "\n".join(_dump(e) for e in entries)),
    _entries.map(lambda entries: _dump({"attacks": entries})),
    _json_values.map(_dump),
)


def _parses_or_domain_error(raw, strict):
    try:
        records, report = parse_records(raw, strict=strict)
    except DdoscastError:
        return
    assert report.accepted == len(records)


@given(st.text(max_size=200) | st.binary(max_size=200), st.booleans())
@settings(max_examples=150, deadline=None)
def test_arbitrary_input_parses_or_raises_domain_error(raw, strict):
    _parses_or_domain_error(raw, strict)


@given(_documents, st.booleans())
@settings(max_examples=150, deadline=None)
def test_json_shaped_documents_parse_or_raise_domain_error(text, strict):
    _parses_or_domain_error(text, strict)


# --- columnar parse -----------------------------------------------------------


def test_parse_returns_read_only_columns(synthetic_1000):
    records, _ = parse_records(records_to_ndjson(synthetic_1000))
    assert isinstance(records, RecordColumns)
    assert records.subclass.dtype == records.attack_class.dtype == np.uint8
    assert records.start.dtype == records.stop.dtype == records.max_bps.dtype == np.int64
    assert [SUBCLASSES[c] for c in records.subclass] == [r.subclass for r in synthetic_1000]
    assert records.max_bps.tolist() == [r.max_bps for r in synthetic_1000]
    assert list(records.src_ports) == [r.src_ports for r in synthetic_1000]
    assert list(records) == synthetic_1000
    with pytest.raises(ValueError):
        records.start[0] = 0


def test_columns_of_records_round_trip(synthetic_1000):
    cols = RecordColumns.of(synthetic_1000)
    assert RecordColumns.of(cols) is cols
    assert list(cols) == synthetic_1000
    assert list(cols) != synthetic_1000[:-1]
    assert list(RecordColumns.of([])) == [] and len(RecordColumns.of([])) == 0
    assert list(RecordColumns.of(iter(synthetic_1000))) == synthetic_1000
    assert records_to_ndjson(iter(synthetic_1000)) == records_to_ndjson(synthetic_1000)


def _wire_object(r):
    obj = {"attack_class": r.attack_class.value, "max_bps": r.max_bps, "start": r.start,
           "stop": r.stop, "subclass": WIRE_NAMES[r.subclass]}
    for name in ("dst_cc", "src_cc", "dst_ports", "src_ports"):
        if getattr(r, name) is not None:
            obj[name] = list(getattr(r, name))
    return obj


def _assert_serializers_match_json_dumps(records):
    objs = [_wire_object(r) for r in records]
    lines = [json.dumps(obj, sort_keys=True) for obj in objs]
    assert records_to_ndjson(records) == "".join(line + "\n" for line in lines)
    assert records_to_json(records) == json.dumps(objs, sort_keys=True)


def test_serializers_keep_the_per_call_json_dumps_bytes(synthetic_1000):
    _assert_serializers_match_json_dumps(synthetic_1000)
    parsed, _ = parse_records(records_to_ndjson(synthetic_1000))
    assert records_to_ndjson(parsed) == records_to_ndjson(synthetic_1000)
    assert records_to_ndjson([]) == ""


# Characters the encoder must escape, plus lone surrogates and a pair that
# json.loads joins into one code point.
_CC_CHARS = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\u2028", "\xe9", "\ud800",
                             "\udfff", "\ud83d", "\ude00", "\U0001f600"])
_COUNTRY = st.text(_CC_CHARS | st.characters(exclude_categories=()), min_size=2, max_size=2)
# Equal port values that encode differently: 1, True and 1.0 hash alike.
_PORT = st.sampled_from([1, True, 1.0, 0, False, 0.0]) | st.integers(0, 65535)
_PORTS = st.none() | st.lists(_PORT, max_size=2).map(tuple)


@st.composite
def _record_sets(draw):
    # Records draw their countries from one pool, so a tuple recurs within a
    # field and across dst_cc and src_cc.
    pool = draw(st.lists(st.lists(_COUNTRY, max_size=3).map(tuple), min_size=1, max_size=4))
    countries = st.none() | st.sampled_from(pool)
    records = draw(st.lists(st.builds(
        lambda times, **fields: AttackRecord(start=times[0], stop=times[1], **fields),
        st.lists(st.integers(0, MAX_UNIX_SECONDS), min_size=2, max_size=2).map(sorted),
        attack_class=st.sampled_from(AttackClass),
        subclass=st.sampled_from(Subclass),
        max_bps=st.integers(0, 2**63 - 1),
        dst_cc=countries,
        src_cc=countries,
        dst_ports=_PORTS,
        src_ports=_PORTS,
    ), max_size=8))
    return RecordColumns.of(records) if draw(st.booleans()) else records


def _parses_back(record) -> bool:
    """Whether parse_records accepts the record's wire text unchanged."""
    countries = (record.dst_cc or ()) + (record.src_cc or ())
    ports = (record.dst_ports or ()) + (record.src_ports or ())
    return all(json.loads(json.dumps(cc)) == cc for cc in countries) and not any(
        isinstance(port, bool) for port in ports)


def _record(**optional):
    return AttackRecord(AttackClass.MISUSE, Subclass.ICMP, max_bps=1, start=2, stop=3, **optional)


@given(_record_sets())
# Random sets rarely hold equal tuples of different types in one field.
@example([_record(dst_cc=("US",), src_cc=("US",), dst_ports=(1,), src_ports=(True,)),
          _record(dst_ports=(True,), src_ports=(1.0,)), _record(dst_ports=(1.0,))])
@settings(max_examples=300, deadline=None)
def test_serializers_match_json_dumps_on_drawn_records(records):
    _assert_serializers_match_json_dumps(records)
    if records and all(_parses_back(r) for r in records):  # an empty file is not JSON
        for serialize in (records_to_ndjson, records_to_json):
            parsed, report = parse_records(serialize(records))
            assert report.rejected == 0 and list(parsed) == list(records)


@pytest.mark.parametrize("separator", ["\u2028", "\u2029", "\x85", "\x0b", "\x1c"])
def test_ndjson_lines_end_at_newline_only(separator):
    # JSON allows these raw inside strings; str.splitlines() would break there
    objs = [record_obj(note=f"a{separator}b"), record_obj(start=1577836801, note="c")]
    ndjson = "\n".join(json.dumps(o, ensure_ascii=False) for o in objs) + "\n"
    from_ndjson, report = parse_records(ndjson.encode())
    from_array, _ = parse_records(json.dumps(objs, ensure_ascii=False).encode())
    assert report.rejected == 0 and len(from_ndjson) == 2
    assert list(from_ndjson) == list(from_array)


def test_crlf_ndjson_keeps_line_numbers():
    objs = [record_obj(), record_obj(subclass="nope"), record_obj(start=5, stop=1)]
    crlf = "".join(json.dumps(o) + "\r\n" for o in objs).encode()
    lf_records, lf_report = parse_records(as_ndjson(*objs))
    crlf_records, crlf_report = parse_records(crlf)
    assert list(crlf_records) == list(lf_records) and len(crlf_records) == 1
    assert crlf_report.rejection_reasons == lf_report.rejection_reasons
    assert [loc for loc, _ in crlf_report.rejection_reasons] == [2, 3]


# --- differential test: columnar validator against the per-entry oracle ------

_FIELD_VALUES = st.one_of(
    st.booleans(),
    st.none(),
    st.sampled_from([0, 1, 80, 443, 65535, 65536, -1, -5, 2**63 - 1, 2**63, 2**64, 10**13,
                     -(10**13), MAX_UNIX_SECONDS, MAX_UNIX_SECONDS + 1, 1577836800]),
    st.integers(),
    st.sampled_from([0.0, 80.0, 1577836800.0, 1.5, -2.0, 1e19, 1e300, float("nan"),
                     float("inf")]),
    st.floats(),
    st.sampled_from(["", "1", "80", "US", "USA", "Misuse", "Detector", "misuse", "TCP SYN",
                     "TCPSYN", "T C P S Y N", " ICMP", "UDP Misuse", "Quantum", "Total Traffic"]),
    st.text(max_size=4),
    st.sampled_from([[], [1], [[1]], [1, [2]], {"a": 1}, ["US", "CN"], ["US", "USA"], ["U"],
                     [80, 443.0], [80, 1.5], [True], [-1], [70000], ["80"], [None]]),
    st.lists(st.sampled_from(["US", "CN", 80, 0, 65535, 65536, 1.0, "X", None]), max_size=3),
)
_FIELDS = ("attack_class", "subclass", "max_bps", "start", "stop",
           "dst_cc", "src_cc", "dst_ports", "src_ports")


@st.composite
def _mutated_entry(draw):
    entry = record_obj(dst_cc=["US"], src_ports=[80])
    for name in draw(st.lists(st.sampled_from(_FIELDS), max_size=3)):
        if draw(st.booleans()):
            entry[name] = draw(_FIELD_VALUES)
        else:
            entry.pop(name, None)
    return entry


_DIFF_ENTRIES = st.lists(
    st.one_of(
        _mutated_entry(), _mutated_entry(), _mutated_entry(), st.just(record_obj()),
        st.sampled_from([None, 1, "record", [], [record_obj()]]),  # not objects
    ),
    max_size=6,
)


def _outcome(parse, raw, strict):
    try:
        records, report = parse(raw, strict=strict)
    except SchemaViolationError as exc:
        return type(exc), exc.location, exc.reason
    return list(records), report.accepted, report.rejected, report.rejection_reasons


_DIFF_DOCUMENTS = st.builds(
    lambda entries, ndjson: (
        "".join(json.dumps(e) + "\n" for e in entries) if ndjson else json.dumps(entries)
    ).encode(),
    _DIFF_ENTRIES,
    st.booleans(),
)


@given(_DIFF_DOCUMENTS, st.booleans())
# NDJSON without a parseable line: not JSON, in strict mode too, though its
# first line is a rejection.
@example(b"garbage\n", False)
@example(b"garbage\n", True)
@settings(max_examples=300, deadline=None)
def test_columnar_validator_matches_per_entry_oracle(raw, strict):
    try:
        expected = _outcome(oracle_parse, raw, strict)
    except NotJsonError:
        with pytest.raises(NotJsonError):
            parse_records(raw, strict=strict)
        return
    assert _outcome(parse_records, raw, strict) == expected
    if not strict:
        records, _ = parse_records(raw)
        oracle_cols = RecordColumns.of(expected[0])
        for name in ("attack_class", "subclass", "max_bps", "start", "stop"):
            got, want = getattr(records, name), getattr(oracle_cols, name)
            assert got.dtype == want.dtype and got.tolist() == want.tolist()
        for name in ("dst_cc", "src_cc", "dst_ports", "src_ports"):
            assert getattr(records, name) == getattr(oracle_cols, name)


def test_ndjson_lines_are_decoded_one_at_a_time(monkeypatch):
    lines = [json.dumps(record_obj(start=1577836800 + i)) for i in range(3)]
    decoded, json_loads = [], ingest.json.loads

    def loads(text, *args, **kwargs):
        decoded.append(text)
        return json_loads(text, *args, **kwargs)

    monkeypatch.setattr(ingest.json, "loads", loads)
    with contextlib.closing(ingest._checked_rows("\n".join(lines) + "\n", [])) as rows:
        assert next(rows)[3] == 1577836800
    assert [text for text in decoded if text in lines] == lines[:1]


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_restores_cycle_collector_state(enabled):
    import gc

    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        parse_records(as_ndjson(record_obj(), record_obj(subclass="?")))
        assert gc.isenabled() is enabled
        with pytest.raises(SchemaViolationError):
            parse_records(as_ndjson(record_obj(subclass="?")), strict=True)
        assert gc.isenabled() is enabled
    finally:
        gc.enable() if was else gc.disable()
