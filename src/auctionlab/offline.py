"""Offline allocation algorithms with provable approximation guarantees."""

from __future__ import annotations

import warnings
from contextlib import suppress
from fractions import Fraction

from .errors import InfeasibleTrace, InvalidParams, NoPositiveBids, UnresolvableSecondBidder
from .model import SKIP, Action, Assign, AuctionTrace, Instance, execute, r_min, settle_all
from .oracles import _matching_owners, _neighbor_rows, _require_unit, _second_bids
from .reductions import resolve_second_bidder


def top_c(instance: Instance, c: int) -> AuctionTrace:
    """Allocate the c keywords with the highest second-highest bid.

    Each chosen keyword goes to its highest original bidder and that
    bidder's `resolve_second_bidder`, if any (ties: earliest keyword, lowest
    bidder index).  When every bidder's budget covers c of its own bids, no
    truncation occurs and the value is at least (c/m) of the sum of
    second-highest bids; otherwise a warning is issued and the pair is
    oriented by current effective bids so the trace stays legal.
    """
    if c < 1:
        raise InvalidParams(f"c must be >= 1, got {c}")
    with suppress(NoPositiveBids):
        if r_min(instance) < c:
            warnings.warn(
                f"r_min below {c}: the no-truncation guarantee does not apply",
                stacklevel=2,
            )

    seconds = _second_bids(instance)
    chosen: dict[str, tuple[str, str]] = {}
    # the sort is stable, so the earliest of equal keywords comes first
    for t in sorted(range(instance.m), key=seconds.__getitem__, reverse=True)[:c]:
        u = instance.keywords[t]
        if row := instance.positive_bids(u):
            lead = max(row, key=row.__getitem__)  # the first of equal bids, in index order
            with suppress(UnresolvableSecondBidder):  # no other bidder: u is skipped
                chosen[u] = (lead, resolve_second_bidder(instance, u, lead))

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

    Finds a maximum matching, then walks the matched keywords in reverse
    arrival order.  A keyword u with a down-edge (u, v) is assigned to its
    mate with v as second; otherwise every other neighbor is matched to an
    earlier keyword, so one such edge (u, v) is chosen (the one whose
    partner arrives earliest, then lowest bidder index), the partner's
    matching edge is removed, and u is assigned to its mate with v as
    second.  Every assignment charges exactly 1, so the value is at least
    half the matching size, rounded up.
    """
    _require_unit(instance, "reverse_match")

    rows = _neighbor_rows(instance)
    thin = sum(len(row) < 2 for row in rows)
    if thin:
        warnings.warn(f"dropping {thin} keyword(s) with fewer than two bidders", stacklevel=2)
    # bidder index -> keyword position, and its inverse
    owner = _matching_owners([row if len(row) >= 2 else () for row in rows], len(instance.bidders))
    mate = {t: i for i, t in owner.items()}

    ids = instance.bidder_ids
    actions: list[Action] = [SKIP] * len(rows)
    for t in sorted(mate, reverse=True):
        if t not in mate:
            continue
        # in bidder-index order, so the first of equal candidates wins ties
        others = [i for i in rows[t] if i != mate[t]]
        down = [i for i in others if i not in owner or owner[i] > t]
        if down:
            second = down[0]
        else:
            second = min(others, key=owner.__getitem__)
            del mate[owner.pop(second)]
        actions[t] = Assign(ids[mate[t]], ids[second])

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
    return Fraction(min(c, instance.m), instance.m) * sum(_second_bids(instance))
