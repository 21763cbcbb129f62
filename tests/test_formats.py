"""Serialization round-trips and input parsing."""

import csv
import io
import json
import tracemalloc
from collections.abc import Mapping
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import SKIP, Assign, Instance, execute, max_matching, random_2paa, unit_instance
from auctionlab.formats import (
    _PIECE_BIDS,
    RECORD_FIELDS,
    dump_instance,
    frac_str,
    instance_from_doc,
    instance_to_doc,
    load_instance,
    matching_to_doc,
    read_edge_list,
    record_to_doc,
    records_to_csv,
    trace_to_doc,
)
from auctionlab.harness import TrialRecord, make_record
from shared import reference_text


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
    assert doc["steps"][0] == {"keyword": "u1", "action": {"first": "A", "second": "B"}, "price": 3}
    assert doc["steps"][1]["action"] == "skip"


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
    assert Fraction(rows[2][5]) == Fraction(rows[1][5])
    assert Fraction(rows[2][6]) == Fraction(5, 4)


def test_record_doc_uses_frac_strings():
    record = make_record("top-c", 3, 9, "2paa 8x5 c=2", 7, Fraction(14, 3))
    doc = record_to_doc(record)
    assert doc["reference"] == "14/3"
    assert doc["value"] == 7
    assert doc["ratio"] == "2/3"


def test_record_field_lists_name_the_same_fields_in_the_same_order():
    # record_to_doc and the CSV header stay literals for speed; this keeps
    # them equal to the record type's own field list
    record = make_record("top-c", 3, 9, "2paa 8x5 c=2", 7, Fraction(14, 3))
    assert RECORD_FIELDS == tuple(record_to_doc(record)) == TrialRecord._fields


# ----------------------------------------------------------------------
# the instance writer and loader against the json module and the loader
# as first written


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


def dumped(instance):
    buf = io.StringIO()
    dump_instance(instance, buf)
    return buf.getvalue()


def test_dump_instance_layout_of_a_small_instance():
    inst = Instance(("u", "é"), (("A", 4),), {("u", "A"): 4, ("é", "A"): 0})
    assert dumped(inst) == (
        '{\n  "keywords": [\n    "u",\n    "\\u00e9"\n  ],\n'
        '  "bidders": [\n    {\n      "id": "A",\n      "budget": 4\n    }\n  ],\n'
        '  "bids": [\n    {\n      "keyword": "u",\n      "bidder": "A",\n'
        '      "amount": 4\n    }\n  ]\n}\n'
    )
    assert dumped(Instance((), (), {})) == (
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
    """instance_from_doc the slow way: each entry through _fields, then its ids checked to be str."""
    if not isinstance(doc, Mapping):
        raise ValueError(f"instance document must be an object, got {type(doc).__name__}")

    def listed(key):
        if key not in doc:
            raise ValueError(f"instance document lacks {key!r}")
        value = doc[key]
        if not isinstance(value, list):
            raise ValueError(f"instance {key!r} must be a list, got {type(value).__name__}")
        return value

    keywords = tuple(listed("keywords"))
    for u in keywords:
        if not isinstance(u, str):
            raise ValueError(f"keyword {u!r} is not a string")
    bidders = []
    for b in listed("bidders"):
        v, budget = _fields(b, ("id", "budget"), "bidder")
        if not isinstance(v, str):
            raise ValueError(f"bidder {b!r} has a non-string id")
        bidders.append((v, budget))
    bids = {}
    for e in listed("bids") if "bids" in doc else ():
        u, v, amount = _fields(e, ("keyword", "bidder", "amount"), "bid")
        if not isinstance(u, str) or not isinstance(v, str):
            raise ValueError(f"bid {e!r} has a non-string keyword or bidder")
        key = (u, v)
        if key in bids:
            raise ValueError(f"duplicate bid entry for keyword {key[0]!r}, bidder {key[1]!r}")
        bids[key] = amount
    try:
        return Instance(keywords, tuple(bidders), bids)
    except TypeError as exc:
        raise ValueError(str(exc)) from None


_STR_IDS = st.sampled_from(["u", "v", "A", "B", "1", 'q"'])
_ANY_IDS = _STR_IDS | st.integers(0, 2) | st.none() | st.booleans()
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
    """Documents near the instance shape: duplicates in every document, non-str
    ids (1 beside "1") in half of them; in noisy ones also malformed entries,
    non-int money and missing parts."""
    noisy = draw(st.booleans())
    ids = draw(st.sampled_from([_STR_IDS, _ANY_IDS]))
    money = _DOC_MONEY if noisy else st.integers(-1, 3)
    bid = {"keyword": ids, "bidder": ids, "amount": money}
    keywords = st.lists(ids, max_size=4)
    doc = {
        "keywords": draw(keywords | _JUNK if noisy else keywords),
        "bidders": draw(_entries({"id": ids, "budget": money}, noisy)),
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


# ----------------------------------------------------------------------
# the loader's one-pass parse and the writer's pieces against the
# reference paths: instance_from_doc on json.loads, and json.dump


def _loaded(text):
    return _outcome(lambda t: load_instance(io.StringIO(t)), text)


@settings(max_examples=300, deadline=None)
@given(instance_docs())
def test_load_instance_matches_instance_from_doc(doc):
    assert _loaded(json.dumps(doc)) == _outcome(instance_from_doc, doc)


@settings(max_examples=300, deadline=None)
@given(odd_instances())
def test_load_instance_matches_instance_from_doc_on_written_files(inst):
    # the text json writes for a tuple id or a NaN reads back as a list or a
    # float, so the reference is instance_from_doc on the text read back
    for text in (reference_text(inst), json.dumps(instance_to_doc(inst))):
        assert _loaded(text) == _outcome(instance_from_doc, json.loads(text))


_BID = {"keyword": "u1", "bidder": "B", "amount": 1}


def _placed(where):
    doc = instance_to_doc(sample_instance())
    if where == "keyword":
        doc["keywords"].append(dict(_BID))
    elif where == "bidder entry":
        doc["bidders"].append(dict(_BID))
    elif where == "budget":
        doc["bidders"][0]["budget"] = dict(_BID)
    elif where == "amount":
        doc["bids"][0]["amount"] = dict(_BID)
    elif where == "root":
        doc = dict(_BID)
    elif where == "junk list":
        doc["extra"] = [1, [dict(_BID)]]
    elif where == "extra bidder field":
        doc["bidders"][0]["note"] = dict(_BID)
    elif where == "duplicate, then malformed":
        doc["bids"] += [dict(_BID), {"keyword": "u1"}]
    return doc


@pytest.mark.parametrize(
    "where",
    ["keyword", "bidder entry", "budget", "amount", "root", "junk list",
     "extra bidder field", "duplicate, then malformed"],
)
def test_load_instance_agrees_on_a_bid_shaped_object_out_of_place(where):
    doc = _placed(where)
    assert _loaded(json.dumps(doc)) == _outcome(instance_from_doc, doc)
    assert _loaded(json.dumps(doc, indent=2)) == _outcome(instance_from_doc, doc)


@pytest.mark.parametrize(
    "text",
    [
        # a bid-shaped object in a value json.loads drops for a repeated key
        '{"keywords": [{"keyword": "u", "bidder": "A", "amount": 1}], "keywords": ["u"],'
        ' "bidders": [{"id": "A", "budget": 1}], "bids": []}',
        '{"keywords": ["u"], "bidders": [{"id": "A", "budget": 1}],'
        ' "bids": [{"keyword": "u", "bidder": "A", "amount": 1}], "bids": []}',
        '{"keywords": ["u"], "bidders": [{"id": "A", "budget": 1}], "bids": [],'
        ' "bids": [{"keyword": "u", "bidder": "A", "amount": 1}]}',
        # ... standing in for a junk entry, or ahead of its own pair in the bids
        '{"keywords": [{"keyword": "u", "bidder": "B", "amount": 1}], "keywords": ["u"],'
        ' "bidders": [{"id": "A", "budget": 1}, {"id": "B", "budget": 1}],'
        ' "bids": [{"keyword": "u", "bidder": "A", "amount": 1}, 5]}',
        '{"keywords": [{"keyword": "u", "bidder": "B", "amount": 9}], "keywords": ["u"],'
        ' "bidders": [{"id": "A", "budget": 1}, {"id": "B", "budget": 1}],'
        ' "bids": [{"keyword": "u", "bidder": "A", "amount": 1},'
        ' {"keyword": "u", "bidder": "B", "amount": 1}]}',
        # a repeated key inside a bid and inside a bidder
        '{"keywords": ["u"], "bidders": [{"id": "A", "budget": 1, "budget": 2}],'
        ' "bids": [{"keyword": "u", "bidder": "A", "amount": 1, "amount": 2}]}',
        # escaped ids that read back equal to plain ones
        '{"keywords": ["\\u0075"], "bidders": [{"id": "A", "budget": 1}],'
        ' "bids": [{"keyword": "u", "bidder": "\\u0041", "amount": 1}]}',
        '{"keywords": ["u"], "bidders": [{"id": "A", "budget": 1}],'
        ' "bids": [{"keyword": "u", "bidder": "A", "amount": 1.0}]}',
        '{"keywords": ["u"], "bidders": [{"id": "A", "budget": true}], "bids": []}',
        '{"keywords": ["u"], "bidders": [{"id": "A", "budget": 1}]}',
        '{"keywords": ["u"], "bidders": [{"id": "A", "budget": 1}], "bids": [] ',
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=["dropped-keywords", "dropped-bids", "replaced-bids", "dropped-beside-junk",
         "dropped-ahead", "repeated-field", "escaped-ids",
         "float-amount", "bool-budget", "no-bids", "unterminated", "deep"],
)
def test_load_instance_agrees_on_raw_text(text):
    try:
        expected = _outcome(instance_from_doc, json.loads(text))
    except RecursionError:
        expected = "raised", "instance document is nested too deeply"
    except ValueError as exc:  # a syntax error: json's own message
        expected = "raised", str(exc)
    assert _loaded(text) == expected


def test_loaded_bid_keys_share_the_id_strings():
    inst = sample_instance()
    loaded = load_instance(io.StringIO(dumped(inst)))
    assert loaded == inst
    keywords = {u: u for u in loaded.keywords}
    bidders = {v: v for v in loaded.bidder_ids}
    for u, v in loaded.bids:
        assert u is keywords[u] and v is bidders[v]


def _counted_instance(count, plain):
    """`count` bids over 80 keywords and 80 bidders.  If `plain`, every bid
    is positive on a known keyword and bidder; if not, some are zero and one
    more names a bidder the instance lacks."""
    side = 80
    keywords = tuple(f"u{i}" for i in range(side))
    bidders = tuple((f"v{j}", 9) for j in range(side))
    bids = {}
    for k in range(count):
        bids[keywords[k % side], f"v{k // side}"] = 1 + k % 5 if plain or k % 7 else 0
    if not plain and bids:
        bids[keywords[0], "nobody"] = 3
    return Instance(keywords, bidders, bids)


class _Pieces(io.StringIO):
    """A text buffer that counts its writes."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)


@pytest.mark.parametrize("plain", [True, False], ids=["plain", "odd"])
@pytest.mark.parametrize(
    "count", [0, 1, _PIECE_BIDS - 1, _PIECE_BIDS, _PIECE_BIDS + 1, 3 * _PIECE_BIDS + 5]
)
def test_dump_instance_pieces_join_to_the_json_module_text(count, plain):
    inst = _counted_instance(count, plain)
    buf = _Pieces()
    dump_instance(inst, buf)
    assert buf.getvalue() == reference_text(inst)
    assert buf.writes == 1 + -(-len(inst.bids) // _PIECE_BIDS)


@pytest.mark.parametrize(
    "bad",
    [frozenset("B"), 10**5000],
    ids=["unencodable-id", "amount-past-the-digit-limit"],
)
def test_dump_instance_writes_nothing_when_the_last_bid_cannot_be_encoded(bad):
    inst = _counted_instance(3 * _PIECE_BIDS + 5, plain=True)
    bids = dict(inst.bids)
    if isinstance(bad, int):
        bids[next(reversed(bids))] = bad
    else:
        bids[inst.keywords[-1], bad] = 1
    inst = Instance(inst.keywords, inst.bidders, bids)
    with pytest.raises((TypeError, ValueError)) as expected:
        reference_text(inst)
    buf = io.StringIO()
    with pytest.raises(type(expected.value)) as got:
        dump_instance(inst, buf)
    assert str(got.value) == str(expected.value)
    assert buf.getvalue() == ""


def test_instance_files_are_written_and_read_in_little_more_memory_than_their_text(tmp_path):
    inst = random_2paa(150, 150, 9, 2, seed=0)
    path = tmp_path / "instance.json"
    size = len(dumped(inst))
    tracemalloc.start()
    try:
        with open(path, "w", encoding="utf-8") as fp:
            dump_instance(inst, fp)
        _, dump_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with open(path, "r", encoding="utf-8") as fp:
            loaded = load_instance(fp)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded == inst
    assert dump_peak <= 2 * size, dump_peak / size
    assert load_peak <= 3 * size, load_peak / size
