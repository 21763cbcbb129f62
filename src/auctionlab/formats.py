"""File formats: JSON instance/trace/matching documents, CSV records, edge lists.

Money is serialized as bit-exact JSON integers; floats are rejected on read.
Exact rationals are serialized as "p/q" strings.

An instance file has one fixed layout, written by `instance_json` for
`dump_instance` and for the CLI's `generate` and `reduce`: the JSON that
`json.dump(instance_to_doc(instance), fp, indent=2)` writes (2-space indent,
keys `keywords`, `bidders`, `bids` in that order, zero bids left out, ids
ASCII-escaped), followed by a newline.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from typing import IO, Iterable, Mapping, Sequence

from .model import Action, Assign, AuctionTrace, Instance


def frac_str(value: Fraction | int | None) -> str:
    if value is None:
        return ""
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


def parse_frac(text: str) -> Fraction:
    num, _, den = text.partition("/")
    return Fraction(int(num), int(den) if den else 1)


# ----------------------------------------------------------------------
# instances


def instance_to_doc(instance: Instance) -> dict:
    return {
        "keywords": list(instance.keywords),
        "bidders": [{"id": v, "budget": b} for v, b in instance.bidders],
        "bids": [
            {"keyword": u, "bidder": v, "amount": a}
            for (u, v), a in instance.bids.items()
            if a != 0
        ],
    }


def _list(doc: Mapping, key: str) -> list:
    if key not in doc:
        raise ValueError(f"instance document lacks {key!r}")
    value = doc[key]
    if not isinstance(value, list):
        raise ValueError(f"instance {key!r} must be a list, got {type(value).__name__}")
    return value


def _malformed(entry: object, names: tuple[str, ...], what: str) -> ValueError:
    return ValueError(f"{what} {entry!r} is not an object with {', '.join(names)}")


def instance_from_doc(doc: object) -> Instance:
    """Build an Instance from a parsed JSON document.

    This is the load boundary: a document that is not an object, lacks
    `keywords` or `bidders`, has a malformed bidder or bid entry, has an id
    that is not a string, or lists a (keyword, bidder) pair twice raises
    ValueError.  Semantic problems such as a bid above its budget are left
    to `model.validate`.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"instance document must be an object, got {type(doc).__name__}")
    keywords = tuple(_list(doc, "keywords"))
    for u in keywords:
        if not isinstance(u, str):
            raise ValueError(f"keyword {u!r} is not a string")
    bidders = []
    for b in _list(doc, "bidders"):
        try:
            v, budget = b["id"], b["budget"]
        except (KeyError, TypeError):
            raise _malformed(b, ("id", "budget"), "bidder") from None
        if not isinstance(v, str):
            raise ValueError(f"bidder {b!r} has a non-string id")
        bidders.append((v, budget))
    bids: dict[tuple[str, str], int] = {}
    for e in _list(doc, "bids") if "bids" in doc else ():
        try:
            u, v, amount = e["keyword"], e["bidder"], e["amount"]
        except (KeyError, TypeError):
            raise _malformed(e, ("keyword", "bidder", "amount"), "bid") from None
        if not (isinstance(u, str) and isinstance(v, str)):
            raise ValueError(f"bid {e!r} has a non-string keyword or bidder")
        key = (u, v)
        if key in bids:
            raise ValueError(f"duplicate bid entry for keyword {key[0]!r}, bidder {key[1]!r}")
        bids[key] = amount
    try:
        return Instance(keywords, tuple(bidders), bids)
    except TypeError as exc:  # Instance's money check: a non-int budget or bid
        raise ValueError(str(exc)) from None


# The indent only matters for an id that json writes as a list (a tuple id);
# instance_json indents such an id's later lines to the depth it sits at.
_encode = json.JSONEncoder(indent=2).encode


def instance_json(instance: Instance) -> str:
    """The instance document as `json.dump(instance_to_doc(instance), fp,
    indent=2)` writes it, followed by a newline.

    Every distinct str id and int amount is encoded once.  An id json
    cannot encode raises TypeError, as json.dump would.
    """
    ids: dict[str, str] = {}
    amounts: dict[int, str] = {}

    def encode(value: object, pad: str) -> str:
        text = _encode(value)
        if type(value) is str:
            ids[value] = text
        elif type(value) is int:
            amounts[value] = text
        return text.replace("\n", pad)

    # Only exact str and int values are memoized, so a lookup by True or 1.0
    # never meets the text of 1.  Encoded text is never empty.
    id_text, amount_text = ids.get, amounts.get
    item, field = "\n    ", "\n      "
    keywords = [f"{item}{id_text(u) or encode(u, item)}" for u in instance.keywords]
    bidders = [
        f'{item}{{{field}"id": {id_text(v) or encode(v, field)},'
        f'{field}"budget": {amount_text(b) or encode(b, field)}{item}}}'
        for v, b in instance.bidders
    ]
    bids = [
        f'{item}{{{field}"keyword": {id_text(u) or encode(u, field)},'
        f'{field}"bidder": {id_text(v) or encode(v, field)},'
        f'{field}"amount": {amount_text(a) or encode(a, field)}{item}}}'
        for (u, v), a in instance.bids.items()
        if a != 0
    ]
    lists = ["[" + ",".join(x) + "\n  ]" if x else "[]" for x in (keywords, bidders, bids)]
    return '{\n  "keywords": %s,\n  "bidders": %s,\n  "bids": %s\n}\n' % tuple(lists)


def dump_instance(instance: Instance, fp: IO[str]) -> None:
    """Write `instance_json(instance)`; nothing is written if an id cannot be encoded."""
    fp.write(instance_json(instance))


def load_instance(fp: IO[str]) -> Instance:
    return instance_from_doc(json.load(fp))


# ----------------------------------------------------------------------
# traces and matchings


def action_to_doc(action: Action) -> object:
    if isinstance(action, Assign):
        return {"first": action.first, "second": action.second}
    return "skip"


def trace_to_doc(trace: AuctionTrace) -> dict:
    return {
        "steps": [
            {"keyword": s.keyword, "action": action_to_doc(s.action), "price": s.price}
            for s in trace.steps
        ],
        "total": trace.value,
    }


def matching_to_doc(matching) -> dict:
    return {
        "pairs": [{"keyword": u, "bidder": v} for u, v in matching.pairs.items()],
        "size": matching.size,
    }


# ----------------------------------------------------------------------
# graphs

def read_edge_list(fp: IO[str]) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Parse one `u v` pair per line; vertices in first-seen order."""
    vertices: dict[str, None] = {}
    edges: list[tuple[str, str]] = []
    for lineno, line in enumerate(fp, 1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: expected 'u v', got {line!r}")
        u, v = parts
        vertices.setdefault(u)
        vertices.setdefault(v)
        edges.append((u, v))
    return tuple(vertices), tuple(edges)


# ----------------------------------------------------------------------
# experiment records

RECORD_FIELDS = ("suite", "trial", "seed", "instance", "value", "reference", "ratio")


def records_to_csv(records: Iterable, fp: IO[str]) -> None:
    writer = csv.writer(fp, lineterminator="\n")
    writer.writerow(RECORD_FIELDS)
    for r in records:
        writer.writerow(
            [
                r.suite,
                r.trial,
                r.seed,
                r.instance,
                "" if r.value is None else r.value,
                frac_str(r.reference),
                frac_str(r.ratio),
            ]
        )


def record_to_doc(record) -> dict:
    return {
        "suite": record.suite,
        "trial": record.trial,
        "seed": record.seed,
        "instance": record.instance,
        "value": record.value,
        "reference": frac_str(record.reference),
        "ratio": frac_str(record.ratio),
    }
