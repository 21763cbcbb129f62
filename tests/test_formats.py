"""Serialization round-trips and input parsing."""

import csv
import io
import json
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import SKIP, Assign, Instance, execute, max_matching, unit_instance
from auctionlab.formats import (
    RECORD_FIELDS,
    actions_from_trace_doc,
    dump_instance,
    frac_str,
    instance_from_doc,
    instance_json,
    instance_to_doc,
    load_instance,
    matching_to_doc,
    parse_frac,
    read_edge_list,
    record_to_doc,
    records_to_csv,
    trace_to_doc,
)
from auctionlab.harness import make_record


def sample_instance():
    return Instance(
        ("u1", "u2"),
        (("A", 4), ("B", 3)),
        {("u1", "A"): 4, ("u1", "B"): 3, ("u2", "A"): 4, ("u2", "B"): 3},
    )


def test_instance_doc_round_trip():
    inst = sample_instance()
    assert instance_from_doc(instance_to_doc(inst)) == inst


def test_instance_file_round_trip():
    inst = sample_instance()
    buf = io.StringIO()
    dump_instance(inst, buf)
    buf.seek(0)
    assert load_instance(buf) == inst


def test_instance_doc_rejects_float_and_bool_money():
    doc = instance_to_doc(sample_instance())
    doc["bidders"][0]["budget"] = 4.0
    with pytest.raises(ValueError):
        instance_from_doc(doc)
    doc = instance_to_doc(sample_instance())
    doc["bids"][0]["amount"] = True
    with pytest.raises(ValueError):
        instance_from_doc(doc)


@pytest.mark.parametrize(
    "doc",
    [
        [],
        {"bidders": []},
        {"keywords": []},
        {"keywords": "u", "bidders": []},
        {"keywords": [], "bidders": [3]},
        {"keywords": [], "bidders": [{"id": "A"}]},
        {"keywords": ["u"], "bidders": [], "bids": [["u", "A", 1]]},
        {"keywords": ["u"], "bidders": [], "bids": None},
    ],
)
def test_instance_doc_rejects_malformed_shapes(doc):
    with pytest.raises(ValueError):
        instance_from_doc(doc)


def test_instance_doc_rejects_duplicate_bid_entries():
    doc = instance_to_doc(sample_instance())
    doc["bids"].append({"keyword": "u1", "bidder": "B", "amount": 1})
    with pytest.raises(ValueError, match="duplicate bid entry"):
        instance_from_doc(doc)


def test_instance_doc_drops_zero_bids():
    inst = Instance(("u",), (("A", 1), ("B", 2)), {("u", "A"): 0, ("u", "B"): 2})
    doc = instance_to_doc(inst)
    assert doc["bids"] == [{"keyword": "u", "bidder": "B", "amount": 2}]


def test_trace_doc_and_action_round_trip():
    inst = sample_instance()
    trace = execute(inst, [Assign("A", "B"), SKIP])
    doc = trace_to_doc(trace)
    assert doc["total"] == 3
    assert doc["steps"][1]["action"] == "skip"
    assert actions_from_trace_doc(doc) == [Assign("A", "B"), SKIP]
    assert execute(inst, actions_from_trace_doc(doc)) == trace


def test_trace_doc_is_json_clean():
    trace = execute(sample_instance(), [Assign("A", "B"), Assign("B", "A")])
    text = json.dumps(trace_to_doc(trace))
    assert json.loads(text)["total"] == 4


def test_matching_doc_shape():
    match = max_matching(unit_instance({"u1": ["a", "b"], "u2": ["a", "b"]}))
    doc = matching_to_doc(match)
    assert doc["size"] == 2
    assert {p["keyword"] for p in doc["pairs"]} == {"u1", "u2"}


def test_frac_str_formats():
    assert frac_str(5) == "5"
    assert frac_str(Fraction(5, 1)) == "5/1"
    assert frac_str(Fraction(7, 3)) == "7/3"
    assert frac_str(None) == ""


def test_parse_frac_accepts_both_shapes():
    assert parse_frac("5") == 5
    assert parse_frac("5/1") == 5
    assert parse_frac("7/3") == Fraction(7, 3)
    with pytest.raises(ValueError):
        parse_frac("x")


def test_read_edge_list():
    buf = io.StringIO("a b\nb c\n\na c\n")
    vertices, edges = read_edge_list(buf)
    assert vertices == ("a", "b", "c")
    assert edges == (("a", "b"), ("b", "c"), ("a", "c"))


def test_read_edge_list_rejects_ragged_lines():
    with pytest.raises(ValueError, match="line 2"):
        read_edge_list(io.StringIO("a b\na b c\n"))


def test_records_csv_shape():
    records = [
        make_record("greedy-chain", 0, 11, "chain m=9", 6, Fraction(5, 1)),
        make_record("greedy-chain", 1, 10, "chain m=9", 4, 5),
    ]
    buf = io.StringIO()
    records_to_csv(records, buf)
    rows = list(csv.reader(io.StringIO(buf.getvalue())))
    assert tuple(rows[0]) == RECORD_FIELDS
    assert rows[1] == ["greedy-chain", "0", "11", "chain m=9", "6", "5/1", "5/6"]
    assert rows[2][5] == "5"
    assert parse_frac(rows[2][5]) == parse_frac(rows[1][5])
    assert parse_frac(rows[2][6]) == Fraction(5, 4)


def test_record_doc_uses_frac_strings():
    record = make_record("top-c", 3, 9, "2paa 8x5 c=2", 7, Fraction(14, 3))
    doc = record_to_doc(record)
    assert doc["reference"] == "14/3"
    assert doc["value"] == 7
    assert doc["ratio"] == "2/3"


# ----------------------------------------------------------------------
# the instance writer and loader against the json module and the loader
# as first written


def reference_text(instance):
    """The instance file as the json module renders the document."""
    return json.dumps(instance_to_doc(instance), indent=2) + "\n"


class Cents(int):
    def __repr__(self):
        return f"Cents({int(self)})"


_TEXT_IDS = st.text(
    st.sampled_from(["a", "b", '"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "€", "𝄞", " "]),
    max_size=4,
)
_IDS = (
    _TEXT_IDS
    | st.integers(-2, 2)
    | st.booleans()
    | st.none()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.tuples(_TEXT_IDS, st.integers(0, 2))
    | st.tuples()
)
_AMOUNTS = st.integers(-3, 3) | st.integers(-3, 3).map(Cents) | st.integers(10**20, 10**20 + 2)


@st.composite
def odd_instances(draw):
    """Instances with escaped, non-ASCII and non-str ids, empty parts,
    bids on unknown ids, and zero, negative and int-subclass amounts."""
    keywords = draw(st.lists(_IDS, max_size=4))
    bidders = draw(st.lists(st.tuples(_IDS, _AMOUNTS), max_size=4))
    pool = keywords + [v for v, _ in bidders] + [draw(_IDS)]
    ids = st.sampled_from(pool)
    bids = draw(st.dictionaries(st.tuples(ids, ids), _AMOUNTS, max_size=8))
    return Instance(keywords, bidders, bids)


@settings(max_examples=300, deadline=None)
@given(odd_instances())
def test_dump_instance_writes_the_json_module_text(inst):
    buf = io.StringIO()
    dump_instance(inst, buf)
    assert buf.getvalue() == reference_text(inst)


def test_dump_instance_layout_of_a_small_instance():
    inst = Instance(("u", "é"), (("A", 4),), {("u", "A"): 4, ("é", "A"): 0})
    assert instance_json(inst) == (
        '{\n  "keywords": [\n    "u",\n    "\\u00e9"\n  ],\n'
        '  "bidders": [\n    {\n      "id": "A",\n      "budget": 4\n    }\n  ],\n'
        '  "bids": [\n    {\n      "keyword": "u",\n      "bidder": "A",\n'
        '      "amount": 4\n    }\n  ]\n}\n'
    )
    assert instance_json(Instance((), (), {})) == (
        '{\n  "keywords": [],\n  "bidders": [],\n  "bids": []\n}\n'
    )


def test_dump_instance_writes_nothing_for_an_id_json_cannot_encode():
    inst = Instance(("u",), (("A", 1), (frozenset("B"), 1)), {})
    with pytest.raises(TypeError) as expected:
        reference_text(inst)
    buf = io.StringIO()
    with pytest.raises(TypeError) as got:
        dump_instance(inst, buf)
    assert str(got.value) == str(expected.value)
    assert buf.getvalue() == ""


def _fields(entry, names, what):
    try:
        return [entry[n] for n in names]
    except (KeyError, TypeError):
        raise ValueError(f"{what} {entry!r} is not an object with {', '.join(names)}") from None


def reference_from_doc(doc):
    """instance_from_doc as first written: each entry through _fields, every id through str()."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"instance document must be an object, got {type(doc).__name__}")

    def listed(key):
        if key not in doc:
            raise ValueError(f"instance document lacks {key!r}")
        value = doc[key]
        if not isinstance(value, list):
            raise ValueError(f"instance {key!r} must be a list, got {type(value).__name__}")
        return value

    keywords = tuple(str(u) for u in listed("keywords"))
    bidders = []
    for b in listed("bidders"):
        v, budget = _fields(b, ("id", "budget"), "bidder")
        bidders.append((str(v), budget))
    bids = {}
    for e in listed("bids") if "bids" in doc else ():
        u, v, amount = _fields(e, ("keyword", "bidder", "amount"), "bid")
        key = (str(u), str(v))
        if key in bids:
            raise ValueError(f"duplicate bid entry for keyword {key[0]!r}, bidder {key[1]!r}")
        bids[key] = amount
    try:
        return Instance(keywords, tuple(bidders), bids)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


_DOC_IDS = st.sampled_from(["u", "v", "A", "B", "1", 'q"']) | st.integers(0, 2) | st.none() | st.booleans()
_DOC_MONEY = st.integers(-1, 3) | st.booleans() | st.sampled_from([1.0, 2.5, None, "3", [1]])
_JUNK = st.integers(0, 3) | st.text("ab", max_size=2) | st.lists(st.integers(0, 2), max_size=3) | st.none()


def _entries(fields, noisy):
    whole = st.fixed_dictionaries(fields)
    if not noisy:
        return st.lists(whole, max_size=6)
    partial = st.dictionaries(st.sampled_from(sorted(fields)), st.integers(0, 2), max_size=2)
    return st.lists(whole | whole | partial | _JUNK, max_size=6) | _JUNK


@st.composite
def instance_docs(draw):
    """Documents near the instance shape: duplicates (also after str()) and
    non-str ids in every document; in noisy ones also malformed entries,
    non-int money and missing parts."""
    noisy = draw(st.booleans())
    money = _DOC_MONEY if noisy else st.integers(-1, 3)
    bid = {"keyword": _DOC_IDS, "bidder": _DOC_IDS, "amount": money}
    keywords = st.lists(_DOC_IDS, max_size=4)
    doc = {
        "keywords": draw(keywords | _JUNK if noisy else keywords),
        "bidders": draw(_entries({"id": _DOC_IDS, "budget": money}, noisy)),
        "bids": draw(_entries(bid, noisy)),
    }
    if noisy:
        for key in draw(st.sets(st.sampled_from(sorted(doc)), max_size=1)):
            del doc[key]
    if isinstance(doc.get("bids"), list) and doc["bids"] and draw(st.booleans()):
        # a duplicate of an earlier entry, then a malformed entry
        doc["bids"] += [draw(st.sampled_from(doc["bids"])), draw(_JUNK)]
    return doc


def _outcome(load, doc):
    try:
        inst = load(doc)
    except ValueError as exc:
        return "raised", str(exc)
    return inst, list(inst.bids.items())


@settings(max_examples=300, deadline=None)
@given(instance_docs())
def test_instance_from_doc_matches_the_reference_loader(doc):
    assert _outcome(instance_from_doc, doc) == _outcome(reference_from_doc, doc)


def test_instance_from_doc_names_the_first_duplicate_before_a_later_malformed_entry():
    doc = instance_to_doc(sample_instance())
    doc["bids"] += [{"keyword": "u2", "bidder": "A", "amount": 1}, {"keyword": "u1"}]
    doc["bids"].insert(1, {"keyword": "u1", "bidder": "A", "amount": 2})
    with pytest.raises(ValueError) as got:
        instance_from_doc(doc)
    assert str(got.value) == "duplicate bid entry for keyword 'u1', bidder 'A'"
    assert _outcome(instance_from_doc, doc) == _outcome(reference_from_doc, doc)
