"""ingest of a JSON array cut into one part per worker, and a records file read the same way.

Every case runs the ``ingest`` command with the worker count forced to 1,
which parses the array in one part, and to 2 and 3, which cut it; the
outcomes (exit code, stderr and the three data files) must be the same.
The exports are small, so each case also lowers ``ingest._PART_MIN_CHARS``
to one character (``workers``): any array with two elements or more is cut.
Both the command and ``read_records`` without a sidecar read through
``ingest.read_export``, and the last cases compare ``read_records`` with
the reference reader, ``parse_records``.
"""

import contextlib
import datetime as dt
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HUGE_INT, record_obj, source_columns
from ddoscast import ingest, pool, records
from ddoscast.cli import main
from ddoscast.errors import DdoscastError, EmptyDatasetError
from ddoscast.ingest import (
    SyntheticSpec,
    generate_synthetic,
    parse_records,
    records_to_json,
    records_to_ndjson,
)
from ddoscast.preprocess import enrich_all

OUTPUTS = ("records.ndjson", "records.cols", "parse_report.json")


def workers(count: int) -> contextlib.ExitStack:
    """Patches under which ingest cuts an array into ``count`` parts, however small it is."""
    stack = contextlib.ExitStack()
    stack.enter_context(mock.patch.object(pool, "worker_count", lambda tasks=None: count))
    stack.enter_context(mock.patch.object(ingest, "_PART_MIN_CHARS", 1))
    return stack


def ingest_outcome(export: bytes, strict: bool, count: int):
    """(exit code, stderr, {file: bytes} or None, whether the export was read in one part).

    Only a read in one part walks a part in this process; workers walk theirs in their own.
    """
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        stack.enter_context(workers(count))
        walk = stack.enter_context(
            mock.patch.object(ingest, "_walk_part", wraps=ingest._walk_part)
        )
        err = io.StringIO()
        stack.enter_context(contextlib.redirect_stderr(err))
        stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
        (tmp / "export.json").write_bytes(export)
        code = main(["ingest", str(tmp / "export.json"), "--out", str(tmp / "o"),
                     *(["--strict"] if strict else [])])
        files = None
        if code == 0:
            files = {name: (tmp / "o" / "ingest-0" / name).read_bytes() for name in OUTPUTS}
    return code, err.getvalue(), files, walk.called


def assert_same_for_any_worker_count(export: bytes, strict: bool, counts=(2, 3)) -> tuple:
    """The one-part outcome of ``export``, after checking that every worker count gives it."""
    expected = ingest_outcome(export, strict, 1)[:3]
    for count in counts:
        assert ingest_outcome(export, strict, count)[:3] == expected, count
    return expected


# --- drawn exports --------------------------------------------------------------

_valid = st.builds(
    record_obj,
    subclass=st.sampled_from(["Total Traffic", "TCPSYN", "UDP Misuse", "ICMP"]),
    start=st.integers(1577836800, 1577836800 + 86400 * 60),
    max_bps=st.integers(0, 10**12),
    dst_ports=st.none() | st.lists(st.integers(0, 65535), max_size=2),
    src_cc=st.none() | st.lists(st.sampled_from(["US", "DE"]), max_size=2),
).map(lambda obj: {**obj, "stop": obj["start"] + 600})
# Entries with "}, {" in their text: inside strings, and between nested objects.
_tricky_values = st.sampled_from(
    ["}, {", '"}, {"', "},{", "}\n,\n{", [{"a": 1}, {"b": 2}], {"x": [{"a": 1}, {"b": 2}]}]
)
_invalid = st.one_of(
    st.builds(record_obj, subclass=_tricky_values.filter(lambda v: isinstance(v, str))),
    st.builds(record_obj, note=_tricky_values),
    st.builds(record_obj, src_ports=_tricky_values),
    st.builds(record_obj, start=st.just(9), stop=st.just(1)),
    _tricky_values,
    st.sampled_from([1, None, "x", []]),
)
_entry_texts = st.tuples(
    _valid | _invalid, st.sampled_from([(", ", ": "), (",", ":")])
).map(lambda pair: json.dumps(pair[0], separators=pair[1]))
_separators = st.sampled_from([", ", ",", ",\n", "\n,\n  ", " , "])
# Whitespace around the array: JSON's, and what str.strip() takes but JSON does not.
_not_json_whitespace = ["\x0c", "\x1c", "\xa0", "\u2028"]
_heads = st.sampled_from(["", " ", "\n", *_not_json_whitespace])
_tails = st.sampled_from(["\n", "", *_not_json_whitespace])


@st.composite
def _exports(draw) -> bytes:
    entries = draw(st.lists(_entry_texts, min_size=1, max_size=12))
    seps = draw(st.lists(_separators, min_size=len(entries), max_size=len(entries)))
    body = "".join(sep + entry for sep, entry in zip(["", *seps[1:]], entries))
    return f"{draw(_heads)}[{body}]{draw(_tails)}".encode()


@given(_exports(), st.booleans())
@settings(max_examples=40, deadline=None)
def test_drawn_exports_ingest_alike_on_one_two_and_three_workers(export, strict):
    assert_same_for_any_worker_count(export, strict)


# Values a part must write as parsing and serializing would: integral floats,
# empty lists, non-ASCII country codes, and entries it must reject.
_integral = st.integers(0, 2**40) | st.integers(0, 2**40).map(float)
_part_valid = st.builds(
    record_obj,
    subclass=st.sampled_from(["Total Traffic", "TotalTraffic", "ICMP", "DNS Misuse"]),
    attack_class=st.sampled_from(["Misuse", "Detector"]),
    start=st.integers(0, 10**9) | st.integers(0, 10**9).map(float),
    max_bps=_integral,
    dst_cc=st.none() | st.lists(st.sampled_from(["US", "ÜS", "日本", "\u2028x"]), max_size=3),
    src_cc=st.none() | st.lists(st.text(min_size=2, max_size=2), max_size=2),
    dst_ports=st.none() | st.lists(st.integers(0, 65535) | st.just(443.0), max_size=3),
    src_ports=st.none() | st.lists(st.integers(0, 65535), max_size=2),
).map(lambda obj: {**obj, "stop": obj["start"] + 60})
_part_invalid = st.one_of(
    st.builds(record_obj, start=st.just(9), stop=st.just(1)),
    st.builds(record_obj, subclass=st.just("Teardrop")),
    st.builds(record_obj, src_ports=st.just([True])),
    st.builds(record_obj, dst_cc=st.just(["USA"])),
    st.builds(record_obj, max_bps=st.just(1.5)),
    st.sampled_from([1, None, "x", [], {}]),
)


def _outcome(function, text):
    try:
        return function(text)
    except DdoscastError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("count", [1, 2])
@given(st.lists(st.one_of(_part_valid, _part_valid, _part_invalid), min_size=2, max_size=12),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_the_records_file_is_the_parsed_records_serialized(count, entries, ndjson):
    if ndjson:
        text = "".join(json.dumps(entry) + "\n" for entry in entries)
    else:
        text = json.dumps(entries)
    with workers(count):
        got = _outcome(ingest.read_export, text)
    parsed = _outcome(parse_records, text)
    if isinstance(parsed[0], type):  # the text is not JSON: both raise the same error
        assert got == parsed
        return
    recs, report = parsed
    want = records.records_files([records_to_ndjson(recs).encode()],
                                 source_columns(enrich_all(recs)))
    chunks, columns, got_report = got
    assert b"".join(chunks) == b"".join(want["records.ndjson"])
    assert records.records_files(chunks, columns)["records.cols"] == want["records.cols"]
    assert got_report == report


# --- targeted cases ---------------------------------------------------------------

VALID = json.dumps(record_obj(dst_cc=["US"], src_ports=[80, 443]))
COUNT = 40


def export_of(entries: list[str]) -> bytes:
    return ("[" + ", ".join(entries) + "]").encode()


def with_entry(index: int, text: str) -> list[str]:
    """COUNT valid entries with the one at ``index`` replaced by ``text``."""
    entries = [VALID] * COUNT
    entries[index] = text
    return entries


FIRST, SECOND = 5, COUNT - 5  # an index in the first part of two, and one in the second


def cut_inside(value_text: str, cut: int, parts: int) -> bytes:
    """Valid entries around a record whose ``note`` is ``value_text``, laid out so that
    cut number ``cut`` of ``parts`` falls inside that value."""
    special = VALID[:-1] + ', "note": ' + value_text + "}"
    for before in range(COUNT):
        text = export_of([VALID] * before + [special] + [VALID] * (COUNT - before)).decode()
        lo = text.index(value_text)
        stop = ingest._export_parts(text, parts)[cut - 1][1]
        if lo < stop < lo + len(value_text):
            return text.encode()
    raise AssertionError("no layout puts the cut inside the value")


LONG_STRING = json.dumps("x" * 400 + "}, {" + "y" * 400)
NESTED = json.dumps([{"a": i} for i in range(80)])


@pytest.mark.parametrize("cut", [1, 2], ids=["first-part", "second-part"])
@pytest.mark.parametrize("value", [LONG_STRING, NESTED], ids=["string", "nested-value"])
@pytest.mark.parametrize("strict", [False, True])
def test_a_cut_inside_a_value_falls_back_to_one_part(value, cut, strict):
    export = cut_inside(value, cut, 3)
    code, _err, files, one_part = ingest_outcome(export, strict, 3)
    assert one_part  # the part left of the cut did not decode
    assert code == 0 and json.loads(files["parse_report.json"])["accepted"] == COUNT + 1
    one_part_code, _err, one_part_files, _one_part = ingest_outcome(export, strict, 1)
    assert (code, files) == (one_part_code, one_part_files)


HUGE = json.dumps(record_obj(max_bps="@huge@")).replace('"@huge@"', HUGE_INT)


def broken(case: str, at: int) -> bytes:
    """COUNT entries, broken as ``case`` says in the part that holds entry ``at``."""
    if case == "bad-token":
        return export_of(with_entry(at, '{"attack_class": tru}'))
    if case == "text-after-closing-bracket":
        if at == FIRST:  # an early "]" closes the array inside the first part
            return export_of(with_entry(at, VALID + "] and then some"))
        return export_of([VALID] * COUNT) + b" and then some"
    if case == "truncated":
        if at == FIRST:  # one entry cut short
            return export_of(with_entry(at, VALID[: len(VALID) // 2]))
        return export_of([VALID] * COUNT)[: -(len(VALID) // 2)]
    if case == "invalid-utf8":
        return export_of(with_entry(at, VALID.replace('"US"', '"@@"'))).replace(b"@@", b"U\xff")
    assert case == "integer-over-4300-digits"
    return export_of(with_entry(at, HUGE))


@pytest.mark.parametrize("at", [FIRST, SECOND], ids=["first-part", "second-part"])
@pytest.mark.parametrize(
    "case",
    ["bad-token", "text-after-closing-bracket", "truncated", "invalid-utf8",
     "integer-over-4300-digits"],
)
@pytest.mark.parametrize("strict", [False, True])
def test_a_broken_array_fails_as_in_one_part(case, at, strict):
    code, err, files = assert_same_for_any_worker_count(broken(case, at), strict)
    assert code == 2 and files is None
    assert err.startswith(("error: broken JSON array: ", "error: input is not UTF-8: "))
    assert err.count("\n") == 1


STOP_BEFORE_START = json.dumps(record_obj(start=9, stop=1))
UNKNOWN_SUBCLASS = json.dumps(record_obj(subclass="Teardrop"))


@pytest.mark.parametrize(
    "bad, message",
    [
        ({SECOND: STOP_BEFORE_START}, f"error: entry {SECOND}: stop before start\n"),
        ({FIRST: UNKNOWN_SUBCLASS, SECOND: STOP_BEFORE_START},
         f"error: entry {FIRST}: unknown subclass 'Teardrop'\n"),
        ({FIRST: STOP_BEFORE_START, SECOND: UNKNOWN_SUBCLASS},
         f"error: entry {FIRST}: stop before start\n"),
    ],
    ids=["second-part-only", "both-parts", "both-parts-other-order"],
)
def test_strict_raises_the_first_violation_in_input_order(bad, message):
    entries = [VALID] * COUNT
    for index, text in bad.items():
        entries[index] = text
    export = export_of(entries)
    code, err, _files, one_part = ingest_outcome(export, True, 2)
    assert not one_part and (code, err) == (2, message)
    assert assert_same_for_any_worker_count(export, True)[:2] == (2, message)


def test_lenient_rejections_are_located_in_the_whole_array():
    export = export_of(with_entry(SECOND, STOP_BEFORE_START))
    code, _err, files, one_part = ingest_outcome(export, False, 2)
    assert not one_part and code == 0
    report = json.loads(files["parse_report.json"])
    assert report["rejection_reasons"] == [[SECOND, "stop before start"]]
    assert_same_for_any_worker_count(export, False)


def test_a_strict_violation_waits_for_every_part_to_decode():
    # Violation in the first part, broken JSON in the second: the document is broken.
    entries = with_entry(FIRST, STOP_BEFORE_START)
    entries[SECOND] = '{"attack_class": tru}'
    code, err, _files = assert_same_for_any_worker_count(export_of(entries), True)
    assert code == 2 and err.startswith("error: broken JSON array: ")


def test_a_single_element_array_is_one_part():
    export = export_of([VALID])
    assert ingest._export_parts(export.decode(), 2) == [(0, len(export))]
    assert ingest_outcome(export, False, 2)[3]


def test_an_export_is_cut_only_into_parts_of_at_least_the_part_size():
    text = export_of([VALID] * COUNT).decode()
    half = len(text) // 2
    with workers(1):
        chunks, columns, report = ingest.read_export(text)
    files = records.records_files(chunks, columns)
    expected = b"".join(files["records.ndjson"]), files["records.cols"], report
    for count, part_min, parts in ((2, half, 2), (3, half, 2), (3, half + 1, 0), (3, 1, 3)):
        with workers(count), mock.patch.object(ingest, "_PART_MIN_CHARS", part_min), \
                mock.patch.object(pool, "run_pool", wraps=pool.run_pool) as run_pool:
            chunks, columns, report = ingest.read_export(text)
        files = records.records_files(chunks, columns)
        assert (len(run_pool.call_args.args[1]) if run_pool.called else 0) == parts, count
        assert (b"".join(files["records.ndjson"]), files["records.cols"], report) == expected


def test_the_workers_share_the_decoded_text():
    text = export_of([VALID] * COUNT).decode() + "\n"
    with workers(2), mock.patch.object(pool, "run_pool", wraps=pool.run_pool) as run_pool:
        ingest.read_export(text)
    function, _calls, shared, _whose = run_pool.call_args.args
    assert function is ingest._ingest_part and shared[0] is text


def test_only_json_whitespace_separates_the_elements_at_a_cut():
    # Where the cut would fall, the comma has a vertical tab after it: not JSON
    # whitespace, so that array is broken and must not be cut there.
    text = export_of([VALID] * COUNT).decode()
    stop = ingest._export_parts(text, 2)[0][1]
    assert text[stop:stop + 3] == ", {"
    export = (text[:stop] + ",\x0b" + text[stop + 2:]).encode()
    code, err, _files = assert_same_for_any_worker_count(export, False)
    assert code == 2 and err.startswith("error: broken JSON array: ")


@pytest.mark.parametrize("count", [1, 2])
def test_a_byte_order_mark_before_the_array_is_skipped(count):
    export = export_of(with_entry(SECOND, STOP_BEFORE_START))
    expected = ingest_outcome(export, False, count)
    assert expected[0] == 0
    assert ingest_outcome(b"\xef\xbb\xbf" + export, False, count) == expected


@pytest.mark.parametrize("count", [1, 2])
def test_synthetic_records_and_their_export_ingest_to_the_same_records_file(tmp_path, count):
    spec = SyntheticSpec(record_count=300, start_date=dt.date(2019, 11, 1),
                         end_date=dt.date(2020, 2, 29), seed=4)
    export = tmp_path / "export.json"
    export.write_text(records_to_json(generate_synthetic(spec)))
    with workers(count), mock.patch.object(pool, "run_pool", wraps=pool.run_pool) as run_pool, \
            contextlib.redirect_stdout(io.StringIO()):
        assert main(["ingest", "--synthetic", "--count", "300", "--seed", "4",
                     "--start-date", "2019-11-01", "--end-date", "2020-02-29",
                     "--out", str(tmp_path / "s")]) == 0
        assert main(["ingest", str(export), "--seed", "4", "--out", str(tmp_path / "e")]) == 0
    assert run_pool.call_count == (count > 1)  # only the export is cut
    synthetic, exported = ({name: (tmp_path / out / "ingest-4" / name).read_bytes()
                            for name in OUTPUTS} for out in "se")
    assert synthetic == exported
    report = {"accepted": 300, "rejected": 0, "rejection_reasons": []}
    assert json.loads(exported["parse_report.json"]) == report


# --- read_records without a sidecar -------------------------------------------------

def read_outcome(path: Path, raw: bytes):
    """read_records of ``raw`` as the records file ``path``, which has no sidecar.

    Returns (source columns, manifest fields), or the error's type and text.
    """
    try:
        table, source = records.read_records(str(path), raw, "")
    except DdoscastError as exc:
        return type(exc), str(exc)
    return source_columns(table), source


def assert_same_columns(got: list, want: list) -> None:
    for got_column, want_column in zip(got, want, strict=True):
        assert got_column.dtype == want_column.dtype
        assert np.array_equal(got_column, want_column)


def test_a_read_in_parts_gives_the_table_of_one_part(tmp_path):
    export = export_of(with_entry(SECOND, STOP_BEFORE_START))
    outcomes = []
    for count, parts in ((1, 0), (2, 2)):
        with workers(count), mock.patch.object(pool, "run_pool", wraps=pool.run_pool) as run_pool:
            outcomes.append(read_outcome(tmp_path / "records.ndjson", export))
        assert (len(run_pool.call_args.args[1]) if run_pool.called else 0) == parts
    (one_part, source), (cut, cut_source) = outcomes
    assert source == cut_source == {"read_from": "parse", "accepted": COUNT - 1, "rejected": 1}
    assert_same_columns(cut, one_part)


@st.composite
def _documents(draw) -> bytes:
    """An export as an array, NDJSON, a wrapper object or a lone object, perhaps cut short."""
    form = draw(st.sampled_from(["array", "ndjson", "wrapper", "lone"]))
    if form == "array":
        raw = draw(_exports())
    else:
        entries = draw(st.lists(_valid | _invalid, min_size=1, max_size=8))
        if form == "ndjson":
            lines = [json.dumps(entry) for entry in entries] + draw(st.lists(
                st.sampled_from(["", "garbage", "{", "  "]), max_size=2))
            raw = "\n".join(draw(st.permutations(lines))).encode()
        else:
            raw = json.dumps({"records": entries} if form == "wrapper" else entries[0]).encode()
    cut = draw(st.none() | st.integers(0, len(raw)))
    return raw if cut is None else raw[:cut]


@given(_documents())
@settings(max_examples=60, deadline=None)
def test_a_read_without_a_sidecar_gives_the_parsed_table(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "records.ndjson"
    got = read_outcome(path, raw)
    if not raw or raw.isspace():  # read_records' own error, before any parse
        assert got == (EmptyDatasetError, f"records file {path} is empty")
        return
    try:
        parsed, report = parse_records(raw)
    except DdoscastError as exc:  # a broken document: the same error
        assert got == (type(exc), str(exc))
        return
    if not parsed:
        assert got == (EmptyDatasetError, f"no valid records in {path}")
        return
    columns, source = got
    assert source == {"read_from": "parse", "accepted": report.accepted,
                      "rejected": report.rejected}
    assert_same_columns(columns, source_columns(enrich_all(parsed)))
