"""Reference solvers checked against tiny hand values and naive re-implementations.

The naive solvers here are deliberately dumb (no memoization, no pruning)
so that agreement with the packaged searches is meaningful evidence.  The
unpruned searches further down are the memoized searches without their
bounds; the pruned ones must return the same values and witnesses.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    SKIP,
    Assign,
    Instance,
    InvalidParams,
    Matching,
    OptResult,
    SearchStats,
    TooLarge,
    execute,
    first_price_value,
    max_matching,
    opt_1paa,
    opt_2paa,
    opt_2pm,
    random_2paa,
    random_2pm,
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


def _same_matching(inst):
    """max_matching equals the reference, pair order included."""
    return list(max_matching(inst).pairs.items()) == list(_recursive_matching(inst).items())


def test_max_matching_equals_recursive_search():
    for seed in range(60):
        inst = _random_unit(random.Random(seed), m=8, n=7, p=0.35)
        assert _same_matching(inst)


# many keywords on few bidders, few keywords on many bidders, and square;
# the first two make most augmenting-path searches fail
_SHAPES = st.one_of(
    st.tuples(st.integers(10, 40), st.integers(1, 5)),
    st.tuples(st.integers(1, 5), st.integers(10, 40)),
    st.tuples(st.integers(1, 15), st.integers(1, 15)),
)


@settings(max_examples=150, deadline=None)
@given(_SHAPES, st.sampled_from((0.05, 0.2, 0.5, 0.9)), st.integers(0, 10**6), st.booleans())
def test_max_matching_equals_recursive_search_on_skewed_shapes(shape, p, seed, repeat):
    m, n = shape
    rng = random.Random(seed)
    inst = _random_unit(rng, m=m, n=n, p=p)
    if repeat:
        # a keyword id listed twice: both arrivals share one row
        keywords = list(inst.keywords) + [rng.choice(inst.keywords)]
        inst = Instance(tuple(keywords), inst.bidders, inst.bids)
    assert _same_matching(inst)


def test_max_matching_crowd_on_twenty_bidders():
    # 1000 keywords share the same 20 bidders, so almost every search fails
    rng = random.Random(7)
    bidders = [f"v{j}" for j in range(20)]
    adjacency = {
        f"u{i}": [v for v in bidders if rng.random() < 0.15] for i in range(1000)
    }
    inst = unit_instance(adjacency, bidders=bidders)
    assert _same_matching(inst)
    assert max_matching(inst).size == 20


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


def _deep_unit(m=1200):
    # u_i bids on its own fresh pair: an easy instance, but the search is
    # m calls deep
    return unit_instance({f"u{i}": [f"a{i}", f"b{i}"] for i in range(m)})


@pytest.mark.parametrize("oracle", [opt_2pm, opt_2paa, opt_1paa], ids=lambda f: f.__name__)
def test_search_deeper_than_the_recursion_limit_is_too_large(oracle):
    with pytest.raises(TooLarge, match=f"{oracle.__name__} needs search depth 1200"):
        oracle(_deep_unit())


# ----------------------------------------------------------------------
# search statistics


NODE_INSTANCES = [
    (opt_2pm, lambda: random_2pm(12, 12, 0.3, seed=0)),
    (opt_2paa, lambda: random_2paa(8, 4, 9, 1, seed=1)),
    (opt_1paa, lambda: random_2paa(10, 4, 9, 1, seed=0)),
]


@pytest.mark.parametrize("oracle, make", NODE_INSTANCES, ids=["opt_2pm", "opt_2paa", "opt_1paa"])
def test_stats_nodes_is_the_smallest_node_limit_that_finishes(oracle, make):
    inst = make()
    result = oracle(inst)
    # every expanded state is stored for the replay
    assert result.stats.memo_entries == result.stats.nodes
    assert oracle(inst, node_limit=result.stats.nodes) == result
    with pytest.raises(TooLarge):
        oracle(inst, node_limit=result.stats.nodes - 1)


@pytest.mark.parametrize("oracle, make", NODE_INSTANCES, ids=["opt_2pm", "opt_2paa", "opt_1paa"])
def test_stats_max_depth_covers_every_keyword_of_the_node_instances(oracle, make):
    inst = make()
    assert oracle(inst).stats.max_depth == inst.m


def test_opt_2paa_max_depth_stops_before_keywords_that_cannot_pay():
    base = random_2paa(6, 4, 9, 1, seed=2)
    first = base.bidder_ids[0]
    # two trailing keywords with at most one positive bidder charge no price
    inst = Instance(
        base.keywords + ("t1", "t2"), base.bidders, {**base.bids, ("t1", first): 1}
    )
    result = opt_2paa(inst)
    assert result.stats.max_depth == base.m < inst.m
    assert result.value == opt_2paa(base).value
    assert opt_2pm(_deep_unit(3)).stats.max_depth == 3
    assert opt_1paa(Instance((), (("A", 1),), {})).stats.max_depth == 0


def test_stats_do_not_take_part_in_equality():
    assert OptResult(1, None, SearchStats(5, 5, 2)) == OptResult(1, None, SearchStats(9, 7, 3))


# ----------------------------------------------------------------------
# pruned searches against the unpruned ones


def _rows(inst):
    index = inst.bidder_index
    return [
        tuple((index(v), a) for v, a in inst.positive_bids(u).items()) for u in inst.keywords
    ]


def _future(rows):
    """Per step t, the sorted indices of bidders bidding at t or later."""
    future, acc = [()] * (len(rows) + 1), set()
    for t in range(len(rows) - 1, -1, -1):
        acc.update(i for i, _ in rows[t])
        future[t] = tuple(sorted(acc))
    return future


def _unpruned_2pm(inst):
    """opt_2pm without its bound: (value, witness actions, node count)."""
    m = inst.m
    nbrs = [tuple(i for i, _ in row) for row in _rows(inst)]
    future = [sum(1 << i for i in f) for f in _future(_rows(inst))]
    memo = {}

    def best(t, consumed):
        if t == m:
            return 0
        key = (t, consumed & future[t])
        if key not in memo:
            value, choice = best(t + 1, consumed), None
            avail = [i for i in nbrs[t] if not consumed >> i & 1]
            if len(avail) >= 2:
                for i in avail:
                    got = 1 + best(t + 1, consumed | 1 << i)
                    if got > value:
                        value, choice = got, i
            memo[key] = (value, choice)
        return memo[key][0]

    value = best(0, 0)
    ids, actions, consumed = inst.bidder_ids, [], 0
    for t in range(m):
        choice = memo[(t, consumed & future[t])][1]
        if choice is None:
            actions.append(SKIP)
        else:
            second = next(i for i in nbrs[t] if i != choice and not consumed >> i & 1)
            actions.append(Assign(ids[choice], ids[second]))
            consumed |= 1 << choice
    return value, tuple(actions), len(memo)


def _unpruned_2paa(inst):
    """opt_2paa without its bound: (value, witness actions, node count)."""
    m, rows = inst.m, _rows(inst)
    future = _future(rows)
    suffix = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        amounts = sorted((a for _, a in rows[t]), reverse=True)
        suffix[t] = suffix[t + 1] + (amounts[1] if len(amounts) >= 2 else 0)
    memo = {}

    def best(t, rem):
        if t == m or suffix[t] == 0:
            return 0
        key = (t,) + tuple(rem[i] for i in future[t])
        if key not in memo:
            value, choice = best(t + 1, rem), None
            for j, (second, bid2) in enumerate(rows[t]):
                eff2 = min(bid2, rem[second])
                if eff2 <= 0:
                    continue
                for i, (first, bid1) in enumerate(rows[t]):
                    if i == j or min(bid1, rem[first]) < eff2:
                        continue
                    child = list(rem)
                    child[first] -= eff2
                    got = eff2 + best(t + 1, tuple(child))
                    if got > value:
                        value, choice = got, (first, second, eff2)
            memo[key] = (value, choice)
        return memo[key][0]

    rem = [b for _, b in inst.bidders]
    value = best(0, tuple(rem))
    ids, actions = inst.bidder_ids, []
    for t in range(m):
        choice = None if suffix[t] == 0 else memo[(t,) + tuple(rem[i] for i in future[t])][1]
        if choice is None:
            actions.append(SKIP)
        else:
            first, second, price = choice
            actions.append(Assign(ids[first], ids[second]))
            rem[first] -= price
    return value, tuple(actions), len(memo)


def _unpruned_1paa(inst):
    """opt_1paa without its bound: (value, winner mapping, node count)."""
    m, rows = inst.m, _rows(inst)
    future = _future(rows)
    memo = {}

    def best(t, rem):
        if t == m:
            return 0
        key = (t,) + tuple(rem[i] for i in future[t])
        if key not in memo:
            value, choice = best(t + 1, rem), None
            for winner, bid in rows[t]:
                eff = min(bid, rem[winner])
                if eff <= 0:
                    continue
                child = list(rem)
                child[winner] -= eff
                got = eff + best(t + 1, tuple(child))
                if got > value:
                    value, choice = got, (winner, eff)
            memo[key] = (value, choice)
        return memo[key][0]

    rem = [b for _, b in inst.bidders]
    value = best(0, tuple(rem))
    winners = {}
    for t in range(m):
        choice = memo[(t,) + tuple(rem[i] for i in future[t])][1]
        if choice is not None:
            winner, price = choice
            winners[inst.keywords[t]] = inst.bidder_ids[winner]
            rem[winner] -= price
    return value, winners, len(memo)


def test_unpruned_searches_reproduce_the_node_counts_measured_before_pruning():
    unpruned = (_unpruned_2pm, _unpruned_2paa, _unpruned_1paa)
    counts = [search(make())[2] for search, (_, make) in zip(unpruned, NODE_INSTANCES)]
    assert counts == [4466, 2595, 8573]
    # and the bounds cut them to
    assert [oracle(make()).stats.nodes for oracle, make in NODE_INSTANCES] == [1841, 2331, 8043]


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10),
    st.integers(2, 8),
    st.sampled_from([0.2, 0.35, 0.5]),
    st.integers(0, 10**6),
)
def test_pruned_2pm_equals_unpruned_search(m, n, p, seed):
    inst = random_2pm(m, n, p, seed=seed)
    result = opt_2pm(inst)
    value, actions, nodes = _unpruned_2pm(inst)
    assert (result.value, result.witness.actions()) == (value, actions)
    assert result.stats.nodes <= nodes


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 7),
    st.integers(1, 4),
    st.integers(1, 7),
    st.integers(1, 2),
    st.integers(0, 10**6),
)
def test_pruned_auction_searches_equal_unpruned_search(m, n, max_bid, r, seed):
    inst = random_2paa(m, n, max_bid, r, seed=seed)
    result = opt_2paa(inst)
    value, actions, nodes = _unpruned_2paa(inst)
    assert (result.value, result.witness.actions()) == (value, actions)
    assert result.stats.nodes <= nodes
    result = opt_1paa(inst)
    value, winners, nodes = _unpruned_1paa(inst)
    assert (result.value, result.witness) == (value, winners)
    assert result.stats.nodes <= nodes


# the lemmas the bounds rest on


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 5))
def test_dropping_a_bidders_bids_never_raises_opt_2pm(seed, k):
    # charging bidder v removes it from every later keyword
    inst = random_2pm(9, 6, 0.35, seed=seed)
    v = inst.bidder_ids[k]
    bids = {(u, w): a for (u, w), a in inst.bids.items() if w != v}
    dropped = Instance(inst.keywords, inst.bidders, bids)
    assert opt_2pm(dropped).value <= opt_2pm(inst).value


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3), st.integers(1, 20))
def test_lowering_one_budget_never_raises_opt_1paa(seed, k, cut):
    inst = random_2paa(7, 4, 6, 1, seed=seed)
    bidders = list(inst.bidders)
    v, budget = bidders[k]
    bidders[k] = (v, max(0, budget - cut))
    lowered = Instance(inst.keywords, tuple(bidders), inst.bids)
    assert opt_1paa(lowered).value <= opt_1paa(inst).value
