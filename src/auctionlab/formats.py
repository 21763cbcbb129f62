"""File formats: JSON instance/trace/matching documents, CSV records, edge lists.

Money is serialized as bit-exact JSON integers; floats are rejected on read.
Exact rationals are serialized as "p/q" strings.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from typing import IO, Iterable, Mapping, Sequence

from .model import SKIP, Action, Assign, AuctionTrace, Instance


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


def _fields(entry: object, names: tuple[str, ...], what: str) -> list:
    try:
        return [entry[n] for n in names]  # type: ignore[index]
    except (KeyError, TypeError):
        raise ValueError(f"{what} {entry!r} is not an object with {', '.join(names)}") from None


def instance_from_doc(doc: object) -> Instance:
    """Build an Instance from a parsed JSON document.

    This is the load boundary: a document that is not an object, lacks
    `keywords` or `bidders`, has a malformed bidder or bid entry, or lists
    a (keyword, bidder) pair twice raises ValueError.  Semantic problems
    such as a bid above its budget are left to `model.validate`.
    """
    if not isinstance(doc, Mapping):
        raise ValueError(f"instance document must be an object, got {type(doc).__name__}")
    keywords = tuple(str(u) for u in _list(doc, "keywords"))
    bidders = []
    for b in _list(doc, "bidders"):
        v, budget = _fields(b, ("id", "budget"), "bidder")
        bidders.append((str(v), budget))
    bids: dict[tuple[str, str], int] = {}
    for e in _list(doc, "bids") if "bids" in doc else ():
        u, v, amount = _fields(e, ("keyword", "bidder", "amount"), "bid")
        key = (str(u), str(v))
        if key in bids:
            raise ValueError(f"duplicate bid entry for keyword {key[0]!r}, bidder {key[1]!r}")
        bids[key] = amount
    try:
        return Instance(keywords, tuple(bidders), bids)
    except TypeError as exc:  # Instance's money check: a non-int budget or bid
        raise ValueError(str(exc)) from None


def dump_instance(instance: Instance, fp: IO[str]) -> None:
    json.dump(instance_to_doc(instance), fp, indent=2)
    fp.write("\n")


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


def actions_from_trace_doc(doc: Mapping) -> list[Action]:
    actions: list[Action] = []
    for step in doc["steps"]:
        raw = step["action"]
        if raw == "skip":
            actions.append(SKIP)
        else:
            actions.append(Assign(str(raw["first"]), str(raw["second"])))
    return actions


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
