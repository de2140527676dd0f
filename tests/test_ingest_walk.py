"""``_ingest_part``'s walk of an array part, against the part decoded whole.

``ingest._ingest_part`` takes each record in the form ``_record_lines``
writes with one pattern match, and decodes any other element on its own,
up to ``ingest._MOST_UNMATCHED`` of them; ``ingest._read_part`` decodes
the part whole. For every part that
``_export_parts`` cuts a text into, in one, two or three, both must give
the same NDJSON bytes, columns and rejections, or raise the same
NotJsonError. The drawn arrays mix canonical records with near misses at
each of the pattern's edges.
"""

import itertools
import json
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ddoscast import ingest
from ddoscast.errors import NotJsonError
from ddoscast.ingest import (
    MAX_UNIX_SECONDS,
    WIRE_NAMES,
    AttackClass,
    AttackRecord,
    RecordColumns,
    Subclass,
    records_to_json,
    records_to_ndjson,
)


def outcome(read, text: str, start: int, stop: int):
    try:
        ndjson, columns, rejections = read(text, start, stop)
    except NotJsonError as exc:
        return "NotJsonError", str(exc)
    return ndjson, [(column.typecode, column.tolist()) for column in columns], rejections


def assert_parts_read_alike(text: str) -> None:
    for parts in (1, 2, 3):
        for start, stop in ingest._export_parts(text, parts):
            walked = outcome(ingest._ingest_part, text, start, stop)
            assert walked == outcome(ingest._read_part, text, start, stop), (parts, start, stop)


# --- drawn arrays -------------------------------------------------------------------

_COUNTRY_CODES = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7e), min_size=2,
                         max_size=2)
_PORT_NUMBERS = st.integers(0, 65535) | st.sampled_from([0, 65535])


@st.composite
def _rows(draw) -> list:
    """A row that ``_check_entry`` accepts, often at the bounds of its numbers."""
    start = draw(st.integers(0, MAX_UNIX_SECONDS) | st.sampled_from([0, MAX_UNIX_SECONDS]))
    row = [draw(st.integers(0, 1)), draw(st.integers(0, len(Subclass) - 1)),
           draw(st.integers(0, 2**63 - 1) | st.sampled_from([0, 10**18 - 1, 10**18, 2**63 - 1])),
           start, draw(st.integers(start, MAX_UNIX_SECONDS) | st.just(MAX_UNIX_SECONDS))]
    row += [draw(st.none() | st.lists(_COUNTRY_CODES, max_size=3).map(tuple)) for _ in range(2)]
    row += [draw(st.none() | st.lists(_PORT_NUMBERS, max_size=3).map(tuple)) for _ in range(2)]
    return row


_canonical_records = _rows().map(lambda row: ingest._record_lines([row])[0])

# Spellings of a number that are not the canonical one, valid JSON or not.
_ODD_NUMBERS = ["-0", "00", "01", "1.0", "1e3", "-1"]
_SECONDS = [str(n) for n in (0, 1, MAX_UNIX_SECONDS - 1, MAX_UNIX_SECONDS, MAX_UNIX_SECONDS + 1)]
_PORTS = ["0", "9999", "10000", "59999", "64999", "65499", "65529", "65535", "65536", "65540",
          "70000", "99999", "100000", *_ODD_NUMBERS]
# Codes the encoder writes as themselves, and codes it escapes, written
# escaped or raw, that decode to a length other than two, or that are not strings.
_COUNTRIES = ['"US"', '"  "', '"#]"', json.dumps('A"'), json.dumps("\\A"), '"\\u0041B"',
              json.dumps('"'), json.dumps("\\"), json.dumps("\n"), json.dumps("\x7f!"),
              '"\x7f!"', json.dumps("ÜS"), '"ÜS"', json.dumps("日本"),
              json.dumps("\U0001d11eA"), '"U"', '"USA"', "1"]
_LISTS = ["null", "[]", "[1,2]", '"US"']
# Values each key may take in a near miss, besides its canonical one.
_ODD_VALUES = {
    "attack_class": ['"Misuse"', '"Detector"', '"misuse"', "null"],
    "subclass": [json.dumps(name) for name in WIRE_NAMES.values()]
    + [json.dumps(sub.value) for sub in Subclass]  # squashed: "UDPMisuse"
    + ['"TCP SYN"', '"Teardrop"', '"\\u0049CMP"', "null"],
    "max_bps": ["0", str(10**18 - 1), str(10**18), str(2**63 - 1), str(2**63), *_ODD_NUMBERS],
    "start": [*_SECONDS, *_ODD_NUMBERS],
    "stop": [*_SECONDS, *_ODD_NUMBERS],
    **{key: [*_LISTS, *(f"[{code}]" for code in _COUNTRIES),
             *(f'["DE", {code}]' for code in _COUNTRIES)] for key in ("dst_cc", "src_cc")},
    **{key: [*_LISTS, *(f"[{port}]" for port in _PORTS), *(f"[443, {port}]" for port in _PORTS)]
       for key in ("dst_ports", "src_ports")},
}
_CHANGES = st.sampled_from(["value", "value", "order", "repeat", "spacing"])


@st.composite
def _near_miss_records(draw) -> str:
    """A canonical record's text with one or two changes: a value at or past an edge
    of the pattern, the keys out of order, a key twice, or other separators."""
    row = draw(_rows())
    pairs = [[key, json.dumps(value)]
             for key, value in json.loads(ingest._record_lines([row])[0]).items()]
    item_separators = [", "] * len(pairs)
    key_separators = [": "] * len(pairs)
    for change in draw(st.lists(_CHANGES, min_size=1, max_size=2)):
        if change in ("value", "repeat"):
            key = draw(st.sampled_from(sorted(_ODD_VALUES)))
            odd = [str(row[3] - 1), str(row[4] + 1)] if key in ("start", "stop") else []
            value = draw(st.sampled_from(_ODD_VALUES[key] + odd))
            keys = [k for k, _v in pairs]
            if change == "value" and key in keys:
                pairs[keys.index(key)][1] = value
            else:  # a new key goes where it sorts; a repeated one, anywhere
                at = (sorted([*keys, key]).index(key) if change == "value"
                      else draw(st.integers(0, len(pairs))))
                pairs.insert(at, [key, value])
                item_separators.append(", ")
                key_separators.append(": ")
        elif change == "order":
            pairs = draw(st.permutations(pairs))
        else:
            at = draw(st.integers(0, len(pairs) - 1))
            if draw(st.booleans()):
                item_separators[at] = draw(st.sampled_from([",", ",\n", " , ", ",\t"]))
            else:
                key_separators[at] = draw(st.sampled_from([":", " : ", ":\n "]))
    members = [f'"{key}"{key_separator}{value}'
               for (key, value), key_separator in zip(pairs, key_separators)]
    return "{" + "".join(sep + member for sep, member in zip(["", *item_separators], members)) + "}"


_OTHER_ELEMENTS = st.sampled_from(["1", "null", '"x"', "[]", "{}", '[{"a": 1}, {"b": 2}]',
                                  '{"note": "}, {"}'])
_ELEMENTS = st.one_of(_canonical_records, _canonical_records, _near_miss_records(),
                      _near_miss_records(), _OTHER_ELEMENTS)
_SEPARATORS = st.sampled_from([", ", ", ", ",", ",\n", "\n,\n  ", " , "])
# One flaw that makes the text no JSON array, or one that str.strip() makes one.
_FLAWS = st.sampled_from([("element", '{"attack_class": tru}'), ("element", "{"),
                          ("element", '"unterminated'), ("element", ""), ("element", "]"),
                          ("separator", ";"), ("separator", ",\x0b"), ("separator", ",,"),
                          ("head", "\xa0"), ("head", "{"), ("head", "[["), ("tail", " x"),
                          ("tail", "\u2028"), ("tail", "]")])


@st.composite
def _arrays(draw) -> str:
    """An array of drawn elements, one time in five with one flaw. It holds no more
    elements than the walk decodes on its own, so none goes to ``_read_part`` for their
    number."""
    elements = draw(st.lists(_ELEMENTS, min_size=1, max_size=ingest._MOST_UNMATCHED))
    separators = ["", *draw(st.lists(_SEPARATORS, min_size=len(elements) - 1,
                                     max_size=len(elements) - 1))]
    head, tail = draw(st.sampled_from(["", "", " \n"])), draw(st.sampled_from(["", "\r\n", " "]))
    if draw(st.integers(0, 4)) == 0:
        where, flaw = draw(_FLAWS)
        at = draw(st.integers(0, len(elements) - 1))
        if where == "element":
            elements[at] = flaw
        elif where == "separator":
            separators[at] = flaw
        elif where == "head":
            head = flaw
        else:
            tail = flaw
    body = "".join(separator + element for separator, element in zip(separators, elements))
    return f"{head}[{draw(st.sampled_from(['', ' ', chr(10)]))}{body}]{tail}"


@given(_arrays())
@settings(max_examples=200, deadline=None)
def test_drawn_arrays_walk_as_they_decode(text):
    assert_parts_read_alike(text)


# --- each edge of the pattern, once ---------------------------------------------------

# A record as _record_lines writes it, with every optional field.
BASE = ('{"attack_class": "Misuse", "dst_cc": ["US"], "dst_ports": [80], '
        '"max_bps": 1000000000, "src_cc": ["DE", "FR"], "src_ports": [443, 8080], '
        '"start": 1577836800, "stop": 1577837400, "subclass": "Total Traffic"}')

# (what BASE holds, what takes its place, whether the pattern takes the record)
EDGES = [
    ("[80]", "[0]", True),
    ("[80]", "[65535]", True),
    ("[80]", "[65536]", False),
    ("[80]", "[70000]", False),
    ("[80]", "[99999]", False),
    ("[80]", "[080]", False),
    ("[80]", "[-0]", False),
    ("[80]", "[1.0]", False),
    ("[80]", "[]", True),
    ("[80]", "null", False),
    ("[80]", "[80,443]", False),
    ("1000000000", str(10**18 - 1), True),
    ("1000000000", str(10**18), False),
    ("1000000000", str(2**63 - 1), False),
    ("1000000000", str(2**63), False),
    ("1000000000", "0", True),
    ("1000000000", "00", False),
    ("1000000000", "-0", False),
    ("1000000000", "1.0", False),
    ("1577837400", str(MAX_UNIX_SECONDS), True),
    ("1577837400", str(MAX_UNIX_SECONDS + 1), False),
    ("1577837400", "1577836799", False),
    ("1577837400", "1577836800", True),
    ('["US"]', '["A\\""]', False),
    ('["US"]', '["\\\\A"]', False),
    ('["US"]', '["\\u0041B"]', False),
    ('["US"]', '["AB"]', True),
    ('["US"]', '["\x7fA"]', False),
    ('["US"]', '["\\u007fA"]', False),
    ('["US"]', '["ÜS"]', False),
    ('["US"]', '["\\u00dcS"]', False),
    ('["US"]', '["USA"]', False),
    ('["US"]', "[]", True),
    ('["US"]', "null", False),
    ('["DE", "FR"]', '["DE","FR"]', False),
    ('"attack_class": "Misuse"', '"attack_class": "Detector"', True),
    ('"attack_class": "Misuse"', '"attack_class": "Misuse", "attack_class": "Detector"', False),
    ('"dst_cc": ["US"], "dst_ports": [80]', '"dst_ports": [80], "dst_cc": ["US"]', False),
    ('"max_bps": 1000000000', '"max_bps":1000000000', False),
    (', "start"', ',\n"start"', False),
    ('"Total Traffic"', '"TotalTraffic"', False),
    *[('"Total Traffic"', json.dumps(name), True) for name in WIRE_NAMES.values()],
    *[('"Total Traffic"', json.dumps(sub.value), sub.value == WIRE_NAMES[sub])
      for sub in Subclass],
    ('"Total Traffic"', '"Teardrop"', False),
    ('"Total Traffic"}', '"Total Traffic", "note": 1}', False),
]


@pytest.mark.parametrize("old, new, taken", EDGES, ids=[f"{old}->{new}" for old, new, _ in EDGES])
def test_each_edge_of_the_pattern(old, new, taken):
    assert old in BASE
    text = f"[{BASE}, {BASE.replace(old, new, 1)}, {BASE}]"
    with mock.patch.object(ingest, "_decode_element", wraps=ingest._decode_element) as decode:
        assert_parts_read_alike(text)
        decode.reset_mock()
        outcome(ingest._ingest_part, text, 0, len(text))
    assert decode.call_count == (0 if taken else 1)


@pytest.mark.parametrize("text", [
    "[]", "[ ]", "[\n]", f"[{BASE}]", f" [ {BASE} ] ", f"[{BASE},]", f"[{BASE}, ]",
    f"[{BASE}] x", f"[{BASE}]]", f"[{BASE}] [{BASE}]", f"[{BASE}\x0b]", f"\x0c[{BASE}]",
    f"[{BASE}]\xa0", f"[{BASE}, {BASE[:-1]}", f"[{BASE} {BASE}]", f"[{BASE},,{BASE}]",
    f'{{"records": [{BASE}]}}', f"{BASE}\n{BASE}\n", BASE,
])
def test_edges_of_the_array_and_other_inputs(text):
    assert_parts_read_alike(text)


@pytest.mark.parametrize("unmatched", [ingest._MOST_UNMATCHED, ingest._MOST_UNMATCHED + 1])
def test_a_part_of_too_many_unmatched_elements_is_decoded_whole(unmatched):
    """The walk decodes up to ``_MOST_UNMATCHED`` elements the pattern does not take, here
    rejected entries and records with compact separators; one more sends the part to
    ``_read_part``."""
    odd = ['"not an object"', BASE.replace(", ", ",").replace(": ", ":")]
    elements = [BASE] * 3 + [odd[i % 2] for i in range(unmatched)] + [BASE] * 3
    text = "[" + ", ".join(elements) + "]"
    assert_parts_read_alike(text)
    with mock.patch.object(ingest, "_read_part", wraps=ingest._read_part) as read:
        outcome(ingest._ingest_part, text, 0, len(text))
    assert read.called == (unmatched > ingest._MOST_UNMATCHED)


def cut_inside(value: str) -> str:
    """BASE records around one whose ``note`` is ``value``, laid out so that the cut into
    two parts falls inside that value."""
    special = BASE[:-1] + ', "note": ' + value + "}"
    for before in range(40):
        text = "[" + ", ".join([BASE] * before + [special] + [BASE] * (40 - before)) + "]"
        lo, stop = text.index(value), ingest._export_parts(text, 2)[0][1]
        if lo < stop < lo + len(value):
            return text
    raise AssertionError("no layout puts the cut inside the value")


@pytest.mark.parametrize("value", [json.dumps("x" * 400 + "}, {" + "y" * 400),
                                   json.dumps([{"a": i} for i in range(80)])],
                         ids=["string", "nested-value"])
def test_a_part_cut_inside_a_value_is_decoded_whole(value):
    text = cut_inside(value)
    assert_parts_read_alike(text)
    for start, stop in ingest._export_parts(text, 2):
        assert outcome(ingest._ingest_part, text, start, stop)[0] == "NotJsonError"


# --- the pattern keeps up with the writer ---------------------------------------------

def _every_kind_of_record() -> list[AttackRecord]:
    """A record of each subclass and attack class with each optional field absent, empty
    and full, at the bounds of the numbers the pattern takes."""
    options = {"dst_cc": [None, (), ("US", "A~")], "src_cc": [None, (), ("  ", "DE", "#]")],
               "dst_ports": [None, (), (0, 65535)], "src_ports": [None, (), (80, 9, 10000)]}
    records = []
    kinds = itertools.product(Subclass, AttackClass, *options.values())
    for i, (subclass, attack_class, *optional) in enumerate(kinds):
        records.append(AttackRecord(
            attack_class, subclass, max_bps=(0, i, 10**18 - 1)[i % 3],
            start=(0, i, MAX_UNIX_SECONDS)[i % 3], stop=(i + 600, i + 600, MAX_UNIX_SECONDS)[i % 3],
            **dict(zip(options, optional)),
        ))
    return records


@pytest.mark.parametrize("parts", [1, 2, 3])
def test_the_pattern_takes_every_record_the_writer_writes(parts):
    records = _every_kind_of_record()
    text = records_to_json(records)
    refused = AssertionError("a record the writer wrote was not taken by the pattern")
    with mock.patch.object(ingest, "_read_part", side_effect=refused), \
            mock.patch.object(ingest, "_decode_element", side_effect=refused):
        results = [ingest._ingest_part(text, start, stop)
                   for start, stop in ingest._export_parts(text, parts)]
    assert len(results) == parts
    assert b"".join(b"".join(chunks) for chunks, _columns, _rejections in results) == \
        records_to_ndjson(records).encode()
    columns = RecordColumns.of(records)
    got = [sum((part[1][k].tolist() for part in results), []) for k in range(4)]
    assert got == [columns.subclass.tolist(), columns.start.tolist(), columns.stop.tolist(),
                   columns.max_bps.tolist()]
    assert all(rejections == [] for _n, _c, rejections in results)
