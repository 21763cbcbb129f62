"""Serialization round-trips and input parsing."""

import csv
import io
import json
from fractions import Fraction

import pytest

from auctionlab import SKIP, Assign, Instance, execute, max_matching, unit_instance
from auctionlab.formats import (
    RECORD_FIELDS,
    actions_from_trace_doc,
    dump_instance,
    frac_str,
    instance_from_doc,
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
