"""Helpers shared by several test modules."""

import itertools
import json
from fractions import Fraction

from auctionlab import ranking_simulate, run_online, unit_instance
from auctionlab.formats import instance_to_doc


def reference_text(instance):
    """The instance file as the json module renders the document."""
    return json.dumps(instance_to_doc(instance), indent=2) + "\n"


def without_thin_keywords(inst):
    """`inst` minus its keywords with fewer than two bidders, which never pay."""
    rows = {u: list(inst.positive_bids(u)) for u in inst.keywords}
    return unit_instance(
        {u: row for u, row in rows.items() if len(row) >= 2}, bidders=inst.bidder_ids
    )


def simulate_match_probabilities(inst, sigma):
    """Exact Pr[v matched] by RankingSimulate under forced sigma, over all coin tuples."""
    m = inst.m
    hits = {v: 0 for v in inst.bidder_ids}
    for coins in itertools.product((0, 1), repeat=m):
        policy = ranking_simulate(sigma=sigma, coins=coins)
        run_online(inst, policy)
        for v in policy.matched:
            hits[v] += 1
    return {v: Fraction(h, 2**m) for v, h in hits.items()}
