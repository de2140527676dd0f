"""ingest of a JSON array cut into one part per worker.

Every case runs the ``ingest`` command with the worker count forced to 1,
which parses the array in one part, and to 2 and 3, which cut it; the
outcomes (exit code, stderr and the three data files) must be the same.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import HUGE_INT, record_obj
from ddoscast import pool, records
from ddoscast.cli import main

OUTPUTS = ("records.ndjson", "records.cols", "parse_report.json")


def ingest_outcome(export: bytes, strict: bool, workers: int):
    """(exit code, stderr, {file: bytes} or None, whether the one-part parse ran)."""
    with contextlib.ExitStack() as stack:
        tmp = Path(stack.enter_context(tempfile.TemporaryDirectory()))
        stack.enter_context(mock.patch.object(pool, "worker_count", lambda tasks=None: workers))
        one_part = stack.enter_context(
            mock.patch.object(records, "parse_records", wraps=records.parse_records)
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
    return code, err.getvalue(), files, one_part.called


def assert_same_for_any_worker_count(export: bytes, strict: bool, counts=(2, 3)) -> tuple:
    """The one-part outcome of ``export``, after checking that every worker count gives it."""
    expected = ingest_outcome(export, strict, 1)[:3]
    for workers in counts:
        assert ingest_outcome(export, strict, workers)[:3] == expected, workers
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
        stop = records._part_bounds(text, parts)[cut - 1][1]
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
    assert records._part_bounds(export.decode(), 2) == [(0, len(export))]
    assert ingest_outcome(export, False, 2)[3]


def test_the_workers_share_the_decoded_text():
    text = export_of([VALID] * COUNT).decode() + "\n"
    with mock.patch.object(pool, "worker_count", lambda tasks=None: 2), \
            mock.patch.object(pool, "run_pool", wraps=pool.run_pool) as run_pool:
        records.ingest_export(text)
    function, _calls, shared, _whose = run_pool.call_args.args
    assert function is records._ingest_part and shared[0] is text


def test_only_json_whitespace_separates_the_elements_at_a_cut():
    # Where the cut would fall, the comma has a vertical tab after it: not JSON
    # whitespace, so that array is broken and must not be cut there.
    text = export_of([VALID] * COUNT).decode()
    stop = records._part_bounds(text, 2)[0][1]
    assert text[stop:stop + 3] == ", {"
    export = (text[:stop] + ",\x0b" + text[stop + 2:]).encode()
    code, err, _files = assert_same_for_any_worker_count(export, False)
    assert code == 2 and err.startswith("error: broken JSON array: ")
