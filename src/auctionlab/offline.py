"""Offline allocation algorithms with provable approximation guarantees."""

from __future__ import annotations

import warnings
from fractions import Fraction

from .errors import InfeasibleTrace, InvalidParams, NoPositiveBids
from .model import SKIP, Action, Assign, AuctionTrace, Instance, execute, r_min, settle_all
from .oracles import max_matching, second_bid_upper_bound


def top_c(instance: Instance, c: int) -> AuctionTrace:
    """Allocate the c keywords with the highest second-highest bid.

    Each chosen keyword goes to its two highest original bidders (ties:
    lowest arrival index among keywords, lowest bidder index within a
    keyword).  When every bidder's budget covers c of its own bids, no
    truncation occurs and the value is at least (c/m) of the sum of
    second-highest bids; otherwise a warning is issued and the pair is
    oriented by current effective bids so the trace stays legal.
    """
    if c < 1:
        raise InvalidParams(f"c must be >= 1, got {c}")
    try:
        if r_min(instance) < c:
            warnings.warn(
                f"r_min below {c}: the no-truncation guarantee does not apply",
                stacklevel=2,
            )
    except NoPositiveBids:
        pass

    ranked = []
    for u in instance.keywords:
        row = instance.positive_bids(u)
        # rows are in bidder-index order, so the stable sort breaks ties by index
        top2 = sorted(row, key=row.__getitem__, reverse=True)[:2]
        ranked.append((row[top2[1]] if len(top2) >= 2 else 0, u, top2))
    chosen: dict[str, list[str]] = {}
    for _, u, top2 in sorted(ranked, key=lambda r: -r[0])[:c]:
        if len(top2) == 1:
            top2 += [v for v, _ in instance.bidders if v != top2[0]][:1]
        if len(top2) == 2:
            chosen[u] = top2

    def decide(step, u, row, budgets):
        if u not in chosen:
            return SKIP
        first, second = chosen[u]
        if min(row.get(first, 0), budgets[first]) < min(row.get(second, 0), budgets[second]):
            first, second = second, first
        return Assign(first, second)

    return settle_all(instance, decide)


def reverse_match(instance: Instance) -> AuctionTrace:
    """2-approximation for all-ones instances via a maximum matching.

    Finds a maximum matching f, then walks the matched keywords in reverse
    arrival order.  A keyword with a down-edge (u, v) is assigned to f(u)
    with v as second; otherwise every other neighbor is matched to an
    earlier keyword, so one such edge (u, v) is chosen (the one whose
    partner arrives earliest, then lowest bidder index), the partner's
    matching edge is removed, and u is assigned to f(u) with v as second.
    Every assignment charges exactly 1, so the value is at least half the
    matching size, rounded up.
    """
    if not instance.is_unit():
        raise InvalidParams("reverse_match needs an all-ones instance")

    arrival = {u: i for i, u in enumerate(instance.keywords)}
    thin = [u for u in instance.keywords if len(instance.positive_bids(u)) < 2]
    filtered = instance
    if thin:
        warnings.warn(
            f"dropping {len(thin)} keyword(s) with fewer than two bidders",
            stacklevel=2,
        )
        drop = set(thin)
        filtered = Instance(
            tuple(u for u in instance.keywords if u not in drop),
            instance.bidders,
            {(u, v): a for (u, v), a in instance.bids.items() if u not in drop},
        )

    f = dict(max_matching(filtered).pairs)
    f_inv = {v: u for u, v in f.items()}

    assignments: dict[str, Assign] = {}
    for u in sorted(f, key=lambda u: -arrival[u]):
        if u not in f:
            continue
        mate = f[u]
        # in bidder-index order, so the first of equal candidates wins ties
        others = [v for v in instance.positive_bids(u) if v != mate]
        down = [
            v
            for v in others
            if v not in f_inv or arrival[f_inv[v]] > arrival[u]
        ]
        if down:
            second = down[0]
        else:
            second = min(others, key=lambda v: arrival[f_inv[v]])
            removed = f_inv.pop(second)
            del f[removed]
        assignments[u] = Assign(mate, second)

    actions: list[Action] = [assignments.get(u, SKIP) for u in instance.keywords]
    trace = execute(instance, actions)
    for step in trace.steps:
        if isinstance(step.action, Assign) and step.price != 1:
            raise InfeasibleTrace(
                f"assignment of {step.keyword!r} charged {step.price}, expected 1"
            )
    return trace


def top_c_bound(instance: Instance, c: int) -> Fraction:
    """The guaranteed value (c/m) * sum of second-highest bids, as a rational."""
    if instance.m == 0:
        return Fraction(0)
    return Fraction(min(c, instance.m), instance.m) * second_bid_upper_bound(instance)
