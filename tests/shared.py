"""Helpers shared by several test modules."""

import itertools
import json
from fractions import Fraction

from hypothesis import strategies as st

from auctionlab import ranking_simulate, run_online, unit_instance
from auctionlab.formats import instance_to_doc


_KEYWORDS = st.sampled_from(("u0", "u1", "u2", "u3"))
_MANY_BIDDERS = st.sampled_from([f"v{i}" for i in range(9)])


@st.composite
def shuffled_parts(draw):
    """Instance parts with repeated keyword and bidder ids, bids on unknown
    ids (u3 and v8 may be left out), zero and negative amounts, and bids
    inserted in any order."""
    keywords = draw(st.lists(_KEYWORDS, max_size=6))
    bidders = draw(st.lists(st.tuples(_MANY_BIDDERS, st.integers(1, 9)), max_size=9))
    pairs = draw(st.lists(st.tuples(_KEYWORDS, _MANY_BIDDERS), unique=True, max_size=30))
    amounts = draw(st.lists(st.integers(-2, 9), min_size=len(pairs), max_size=len(pairs)))
    return keywords, bidders, dict(draw(st.permutations(list(zip(pairs, amounts)))))


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
