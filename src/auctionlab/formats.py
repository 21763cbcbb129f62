"""File formats: JSON instance/trace/matching documents, CSV records, edge lists.

Money is serialized as bit-exact JSON integers; floats are rejected on read.
Exact rationals are serialized as "p/q" strings.

An instance file has one fixed layout and one writer, `dump_instance`, which
the CLI's `generate` and `reduce` stream through too: the JSON that
`json.dump(instance_to_doc(instance), fp, indent=2)` writes (2-space indent,
keys `keywords`, `bidders`, `bids` in that order, zero bids left out, ids
ASCII-escaped), followed by a newline, written in pieces of bids after every
id and amount has been encoded.
`load_instance` parses a file once and keeps no per-bid object but the bid
map's own entry; a document it cannot take that way, malformed ones included,
is read by `instance_from_doc`, so the errors are that function's.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from itertools import islice
from typing import IO, Iterable, Mapping

from .model import Action, Assign, AuctionTrace, Instance


def frac_str(value: Fraction | int) -> str:
    if isinstance(value, int):
        return str(value)
    return f"{value.numerator}/{value.denominator}"


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
# the writer indents such an id's later lines to the depth it sits at.
_encode = json.JSONEncoder(indent=2).encode

# Bid entries per piece of a written instance file, counted in instance.bids
# with zero bids: enough to make the per-piece cost vanish, few enough that a
# piece is a small part of a large file.
_PIECE_BIDS = 2048


def dump_instance(instance: Instance, fp: IO[str]) -> None:
    """Write the instance file: what `json.dump(instance_to_doc(instance), fp,
    indent=2)` writes, followed by a newline, in pieces of up to _PIECE_BIDS
    bids each.

    Every id and amount is encoded before the first write, so what json.dump
    would raise first (TypeError for an id json cannot encode, ValueError
    for an int past the digit limit) leaves nothing written.  Each distinct
    str id and int amount is encoded once.
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

    bids = instance.bids
    for (u, v), a in bids.items():  # encoded now, in document order
        if a != 0:
            id_text(u) or encode(u, field)
            id_text(v) or encode(v, field)
            amount_text(a) or encode(a, field)

    head = '{\n  "keywords": %s,\n  "bidders": %s,\n  "bids": ' % tuple(
        "[" + ",".join(x) + "\n  ]" if x else "[]" for x in (keywords, bidders)
    )
    entries = iter(bids.items())
    opening = "["
    for _ in range(0, len(bids), _PIECE_BIDS):
        piece = [
            f'{item}{{{field}"keyword": {id_text(u) or encode(u, field)},'
            f'{field}"bidder": {id_text(v) or encode(v, field)},'
            f'{field}"amount": {amount_text(a) or encode(a, field)}{item}}}'
            for (u, v), a in islice(entries, _PIECE_BIDS)
            if a != 0
        ]
        if piece:
            fp.write(head + opening + ",".join(piece))
            head, opening = "", ","
    fp.write(head + ("[]" if opening == "[" else "\n  ]") + "\n}\n")


# What the loader's object hook returns for a bid entry it has stored.
_STORED = object()


def load_instance(fp: IO[str]) -> Instance:
    """Read an instance file: the Instance or the error `instance_from_doc`
    gives for the same document.

    The text is parsed once, and each bid entry with str ids and an int
    amount goes straight into the bid map instead of staying a dict; equal
    ids share one str.  When every entry of `bids` was stored that way, only
    the keywords and bidders go through `instance_from_doc`.  Any other
    document (a duplicate pair, a non-str id, a non-int amount, a bid entry
    outside `bids`, no `bids` list) is parsed again and goes through
    `instance_from_doc` whole.  A document nested too deeply to parse raises
    ValueError.
    """
    text = fp.read()
    ids: dict[str, str] = {}
    bids: dict[tuple[str, str], int] = {}
    share = ids.setdefault

    def store(entry: dict) -> object:
        if len(entry) == 3:
            try:
                u, v, a = entry["keyword"], entry["bidder"], entry["amount"]
            except KeyError:
                return entry
            if type(u) is str and type(v) is str and type(a) is int:
                key = (share(u, u), share(v, v))
                if key not in bids:
                    bids[key] = a
                    return _STORED
        return entry

    try:
        doc = json.loads(text, object_hook=store)
        # The hook returns _STORED once per stored pair, so a `bids` list of
        # len(bids) entries, all _STORED, leaves no stored bid elsewhere: not
        # in a keyword, a bidder, an unknown field or a value json dropped
        # for a repeated key.  Such a document is `instance_from_doc`'s case
        # of valid bids, whose keyword, bidder and budget checks come first.
        entries = doc.get("bids") if type(doc) is dict else None
        if not (
            type(entries) is list
            and len(entries) == len(bids)
            and entries.count(_STORED) == len(bids)
        ):
            return instance_from_doc(json.loads(text))
        del text, entries  # before the Instances are built, which lowers the peak
        head = instance_from_doc({k: doc[k] for k in ("keywords", "bidders") if k in doc})
    except RecursionError:  # from json, or from repr in an error message
        raise ValueError("instance document is nested too deeply") from None
    del doc
    return Instance(
        tuple(map(share, head.keywords, head.keywords)),
        tuple((share(v, v), b) for v, b in head.bidders),
        bids,
    )


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
    writer.writerows(record_to_doc(r).values() for r in records)


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
