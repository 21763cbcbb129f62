"""Reference solvers checked against tiny hand values and naive re-implementations.

The naive solvers here are deliberately dumb (no memoization, no pruning)
so that agreement with the packaged searches is meaningful evidence.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    Assign,
    Instance,
    InvalidParams,
    Matching,
    TooLarge,
    execute,
    first_price_value,
    max_matching,
    opt_1paa,
    opt_2paa,
    opt_2pm,
    second_bid_upper_bound,
    to_first_price_bids,
    unit_instance,
)
from auctionlab.errors import UnknownId


def six_cycle():
    return unit_instance(
        {"u1": ["v1", "v2"], "u2": ["v2", "v3"], "u3": ["v3", "v1"]}
    )


# ----------------------------------------------------------------------
# Matching container


def test_matching_rejects_reused_bidder():
    with pytest.raises(ValueError):
        Matching({"u1": "v", "u2": "v"})


def test_matching_lookups():
    match = Matching({"u1": "a", "u2": "b"})
    assert match.size == 2
    assert match.bidder_of("u1") == "a"
    assert match.keyword_of("b") == "u2"
    assert match.bidder_of("u9") is None
    assert match.keyword_of("z") is None


# ----------------------------------------------------------------------
# max_matching


def test_max_matching_saturates_six_cycle():
    assert max_matching(six_cycle()).size == 3


def test_max_matching_is_deterministic():
    inst = unit_instance({"u1": ["a", "b"], "u2": ["a", "b"], "u3": ["b"]})
    assert max_matching(inst).pairs == max_matching(inst).pairs


def _naive_matching_size(inst):
    def go(t, used):
        if t == inst.m:
            return 0
        best = go(t + 1, used)
        for v in inst.neighbors(inst.keywords[t]):
            if v not in used:
                best = max(best, 1 + go(t + 1, used | {v}))
        return best

    return go(0, frozenset())


def _random_unit(rng, m=6, n=6, p=0.4):
    adjacency = {
        f"u{i}": [f"v{j}" for j in range(n) if rng.random() < p] for i in range(m)
    }
    return unit_instance(adjacency, bidders=[f"v{j}" for j in range(n)])


def test_max_matching_agrees_with_exhaustive_search():
    for seed in range(30):
        inst = _random_unit(random.Random(seed))
        assert max_matching(inst).size == _naive_matching_size(inst)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.randoms(use_true_random=False))
def test_max_matching_size_ignores_arrival_order(seed, shuffler):
    inst = _random_unit(random.Random(seed), m=5, n=5)
    keywords = list(inst.keywords)
    shuffler.shuffle(keywords)
    permuted = Instance(tuple(keywords), inst.bidders, inst.bids)
    assert max_matching(inst).size == max_matching(permuted).size


def _recursive_matching(inst):
    """Kuhn's augmenting-path search, written recursively as a reference."""
    owner = {}

    def try_assign(u, visited):
        for v in inst.neighbors(u):
            if v in visited:
                continue
            visited.add(v)
            if v not in owner or try_assign(owner[v], visited):
                owner[v] = u
                return True
        return False

    for u in inst.keywords:
        try_assign(u, set())
    return {u: v for v, u in owner.items()}


def test_max_matching_equals_recursive_search():
    for seed in range(60):
        inst = _random_unit(random.Random(seed), m=8, n=7, p=0.35)
        assert max_matching(inst).pairs == _recursive_matching(inst)


def test_max_matching_follows_a_5000_long_augmenting_path():
    # u_i bids on v_{i-1} and v_i, so u_i first takes v_{i-1}; z then
    # bids only on v0 and has to shift every u_i one bidder to the right
    n = 5000
    adjacency = {f"u{i}": [f"v{i - 1}", f"v{i}"] for i in range(1, n + 1)}
    adjacency["z"] = ["v0"]
    inst = unit_instance(adjacency, bidders=[f"v{i}" for i in range(n + 1)])
    pairs = max_matching(inst).pairs
    assert len(pairs) == n + 1
    assert pairs["z"] == "v0"
    assert all(pairs[f"u{i}"] == f"v{i}" for i in range(1, n + 1))


# ----------------------------------------------------------------------
# opt_2pm


def test_opt_2pm_single_keyword_pair():
    inst = unit_instance({"u": ["a", "b"]})
    result = opt_2pm(inst)
    assert result.value == 1
    assert result.witness.value == 1


def test_opt_2pm_six_cycle_loses_a_keyword():
    # three keywords but consuming any two bidders starves the third
    result = opt_2pm(six_cycle())
    assert result.value == 2


def test_opt_2pm_requires_unit_instance():
    weighted = Instance(("u",), (("A", 2), ("B", 2)), {("u", "A"): 2, ("u", "B"): 1})
    with pytest.raises(InvalidParams):
        opt_2pm(weighted)


def test_opt_2pm_witness_replays_to_value():
    for seed in (3, 7, 11):
        inst = _random_unit(random.Random(seed))
        result = opt_2pm(inst)
        replay = execute(inst, result.witness.actions())
        assert replay.value == result.value


def _naive_2pm_value(inst):
    # no memo: state is the frozenset of charged bidders
    def go(t, consumed):
        if t == inst.m:
            return 0
        best = go(t + 1, consumed)
        avail = [v for v in inst.neighbors(inst.keywords[t]) if v not in consumed]
        if len(avail) >= 2:
            for v in avail:
                best = max(best, 1 + go(t + 1, consumed | {v}))
        return best

    return go(0, frozenset())


def test_opt_2pm_matches_naive_search():
    for seed in range(25):
        inst = _random_unit(random.Random(1000 + seed))
        assert opt_2pm(inst).value == _naive_2pm_value(inst)


def test_opt_2pm_never_beats_half_of_two_matchings():
    # profit needs two fresh neighbors, so value <= matching size
    for seed in range(25):
        inst = _random_unit(random.Random(2000 + seed))
        assert opt_2pm(inst).value <= max_matching(inst).size


# ----------------------------------------------------------------------
# opt_2paa


def one_keyword_4_3():
    return Instance(
        ("u",), (("A", 9), ("B", 9)), {("u", "A"): 4, ("u", "B"): 3}
    )


def test_opt_2paa_prices_at_second_bid():
    assert opt_2paa(one_keyword_4_3()).value == 3


def test_opt_2paa_two_keyword_budget_truncation():
    inst = Instance(
        ("u1", "u2"),
        (("A", 4), ("B", 3)),
        {("u1", "A"): 4, ("u1", "B"): 3, ("u2", "A"): 4, ("u2", "B"): 3},
    )
    result = opt_2paa(inst)
    assert result.value == 4
    assert execute(inst, result.witness.actions()).value == 4


def _random_weighted(rng, m=4, n=4, max_bid=5):
    keywords = tuple(f"u{i}" for i in range(m))
    bidders = tuple((f"v{j}", rng.randint(1, 8)) for j in range(n))
    bids = {}
    for u in keywords:
        for v, budget in bidders:
            amount = rng.randint(0, max_bid)
            if amount:
                bids[(u, v)] = min(amount, budget)
    return Instance(keywords, bidders, bids)


def _naive_2paa_value(inst):
    def go(t, rem):
        if t == inst.m:
            return 0
        best = go(t + 1, rem)
        bids = inst.positive_bids(inst.keywords[t])
        ids = list(bids)
        for first in ids:
            for second in ids:
                if first == second:
                    continue
                eff2 = min(bids[second], rem[second])
                if eff2 <= 0 or min(bids[first], rem[first]) < eff2:
                    continue
                child = dict(rem)
                child[first] -= eff2
                best = max(best, eff2 + go(t + 1, child))
        return best

    return go(0, inst.initial_budgets())


def test_opt_2paa_matches_naive_search():
    for seed in range(20):
        inst = _random_weighted(random.Random(seed))
        assert opt_2paa(inst).value == _naive_2paa_value(inst)


def test_opt_2paa_respects_second_bid_upper_bound():
    for seed in range(20):
        inst = _random_weighted(random.Random(3000 + seed))
        assert opt_2paa(inst).value <= second_bid_upper_bound(inst)


def test_second_bid_upper_bound_sums_runner_up_bids():
    inst = Instance(
        ("u1", "u2"),
        (("A", 9), ("B", 9)),
        {("u1", "A"): 4, ("u1", "B"): 3, ("u2", "A"): 5, ("u2", "B"): 5},
    )
    assert second_bid_upper_bound(inst) == 8
    lonely = Instance(("u",), (("A", 9),), {("u", "A"): 4})
    assert second_bid_upper_bound(lonely) == 0


# ----------------------------------------------------------------------
# opt_1paa


def test_opt_1paa_winner_pays_own_bid():
    result = opt_1paa(one_keyword_4_3())
    assert result.value == 4
    assert result.witness == {"u": "A"}


def test_opt_1paa_budget_truncates_repeat_winner():
    inst = Instance(
        ("u1", "u2"), (("A", 5),), {("u1", "A"): 4, ("u2", "A"): 4}
    )
    result = opt_1paa(inst)
    assert result.value == 5
    assert first_price_value(inst, result.witness) == 5


def _naive_1paa_value(inst):
    def go(t, rem):
        if t == inst.m:
            return 0
        best = go(t + 1, rem)
        for v, bid in inst.positive_bids(inst.keywords[t]).items():
            eff = min(bid, rem[v])
            if eff <= 0:
                continue
            child = dict(rem)
            child[v] -= eff
            best = max(best, eff + go(t + 1, child))
        return best

    return go(0, inst.initial_budgets())


def test_opt_1paa_matches_naive_search():
    for seed in range(20):
        inst = _random_weighted(random.Random(4000 + seed))
        assert opt_1paa(inst).value == _naive_1paa_value(inst)


def test_first_price_value_checks_ids_and_allows_gaps():
    inst = one_keyword_4_3()
    assert first_price_value(inst, {}) == 0
    with pytest.raises(UnknownId):
        first_price_value(inst, {"u": "Z"})


def test_second_price_opt_at_most_first_price_opt_of_transform():
    # charging the runner-up can never beat letting winners pay their own bids
    for seed in range(15):
        inst = _random_weighted(random.Random(5000 + seed))
        prime = to_first_price_bids(inst)
        assert opt_2paa(inst).value <= opt_1paa(prime).value


# ----------------------------------------------------------------------
# node limits


def test_searches_fail_deterministically_beyond_node_limit():
    inst = _random_unit(random.Random(0))
    with pytest.raises(TooLarge):
        opt_2pm(inst, node_limit=1)
    weighted = _random_weighted(random.Random(0))
    with pytest.raises(TooLarge):
        opt_2paa(weighted, node_limit=1)
    with pytest.raises(TooLarge):
        opt_1paa(weighted, node_limit=1)


def test_exhaustive_tiny_unit_instances_match_naive():
    # every 2-keyword instance on bidders {a, b, c} with nonempty rows
    bidders = ("a", "b", "c")
    rows = [combo for r in (1, 2, 3) for combo in itertools.combinations(bidders, r)]
    for row1, row2 in itertools.product(rows, repeat=2):
        inst = unit_instance({"u1": list(row1), "u2": list(row2)}, bidders=bidders)
        assert opt_2pm(inst).value == _naive_2pm_value(inst)
