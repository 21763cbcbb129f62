"""Reference solvers checked against tiny hand values and naive re-implementations.

The naive solvers here are deliberately dumb (no memoization, no pruning)
so that agreement with the packaged searches is meaningful evidence; the
auction optima are checked against every action sequence through `execute`
and every winner map through `first_price_value`.  The unpruned searches
further down are the memoized searches without their bounds or budget
clamps; the pruned ones must return the same values and witnesses.
"""

import gc
import hashlib
import itertools
import json
import random
import tracemalloc
from dataclasses import astuple

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
    OrderingViolation,
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
    to_first_price_bids,
    top_c_bound,
    unit_instance,
    validate,
)
from auctionlab.errors import UnknownId
from auctionlab.formats import trace_to_doc


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
    assert match.pairs == {"u1": "a", "u2": "b"}


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


@pytest.mark.parametrize(
    ("seed", "size", "digest"),
    [
        (1, 1956, "497011afec56a6c5e26579d068eb731b44c0cac29de05937fefb3c849fe530c7"),
        (2, 1961, "13cfb4be7184bbb15a8fb3b14bde232a031b1fba24dc7d8f78529a77b19b8495"),
    ],
)
def test_max_matching_on_a_2000_square_matches_its_digest(seed, size, digest):
    # at 4/n the late keywords run long searches over a mostly matched
    # graph, which the small reference shapes never reach; pairs in order
    pairs = max_matching(random_2pm(2000, 2000, 4 / 2000, seed=seed)).pairs
    assert len(pairs) == size
    assert hashlib.sha256(json.dumps(list(pairs.items())).encode()).hexdigest() == digest


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


def _every_2pm_value(inst):
    """The best value of every action sequence that `execute` accepts, with
    Skip or an ordered pair of the keyword's bidders per keyword; a pair with
    a non-bidder charges nothing, like Skip, or is refused."""
    moves = [
        [SKIP] + [Assign(a, b) for a, b in itertools.permutations(inst.neighbors(u), 2)]
        for u in inst.keywords
    ]
    best = 0
    for actions in itertools.product(*moves):
        try:
            best = max(best, execute(inst, actions).value)
        except OrderingViolation:
            pass
    return best


def _from_columns(m, bidders, columns):
    """The 0/1 instance in which bidder j bids on keyword i when bit i of columns[j] is set."""
    return unit_instance(
        {f"u{i}": [v for v, col in zip(bidders, columns) if col >> i & 1] for i in range(m)},
        bidders=bidders,
    )


@pytest.mark.parametrize("m", [3, 4])
def test_opt_2pm_matches_every_action_sequence_on_three_bidders(m):
    # every 0/1 instance with m keywords and 3 bidders up to bidder
    # relabeling: a multiset of 3 bidder columns, each a subset of keywords
    bidders = ("a", "b", "c")
    classes = list(itertools.combinations_with_replacement(range(1 << m), 3))
    assert len(classes) == {3: 120, 4: 816}[m]
    for columns in classes:
        inst = _from_columns(m, bidders, columns)
        result = opt_2pm(inst)
        assert result.value == _every_2pm_value(inst), columns
        assert execute(inst, result.witness.actions()).value == result.value


def test_opt_2pm_charges_the_lowest_bidder_that_beats_skip():
    # Skip is worth 0 and a charge of a or b on u1 pays 1: a has the lower
    # index, though it is the one that bids again later
    result = opt_2pm(unit_instance({"u1": ["a", "b"], "u2": ["a"]}))
    assert result.witness.actions() == (Assign("a", "b"), SKIP)


def test_opt_2pm_on_every_labelled_3x3_instance_matches_its_digest():
    # every 0/1 instance with keywords u0..u2 and bidders a..c, labels kept:
    # the class tests list bidder columns in ascending order, so there a
    # bidder that bids later always has the higher index.  Digest of the
    # values and witnesses taken before the bidder bound.
    bidders = ("a", "b", "c")
    rows = [c for r in range(4) for c in itertools.combinations(bidders, r)]
    docs = []
    for chosen in itertools.product(rows, repeat=3):
        inst = unit_instance({f"u{i}": list(row) for i, row in enumerate(chosen)}, bidders=bidders)
        result = opt_2pm(inst)
        docs.append(json.dumps([result.value, trace_to_doc(result.witness)]))
    assert len(docs) == 512
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == (
        "bda2d96eb964e853dc59dfdec1ced068c5c3ebbe6a7733d67aa522800b565054"
    )


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


def _independent(rng, m, n, max_bid=9):
    """Bids in 0..max_bid and budgets in 0..12 drawn independently, so bids
    above the budget and zero budgets occur."""
    keywords = tuple(f"u{i}" for i in range(m))
    bidders = tuple((f"v{j}", rng.randint(0, 12)) for j in range(n))
    bids = {(u, v): a for u in keywords for v, _ in bidders if (a := rng.randint(0, max_bid))}
    return Instance(keywords, bidders, bids)


def _every_2paa_value(inst):
    """The best value of every action sequence that `execute` accepts: per
    keyword Skip or any ordered pair of distinct bidders."""
    moves = [SKIP] + [Assign(a, b) for a, b in itertools.permutations(inst.bidder_ids, 2)]
    best = 0
    for actions in itertools.product(moves, repeat=inst.m):
        try:
            best = max(best, execute(inst, actions).value)
        except OrderingViolation:
            pass
    return best


# (keywords, bidders) shapes, drawn uniformly rather than biased to small sizes
def _shapes(max_m, max_n, min_n=1):
    # uniform over the shapes: st.integers rarely reaches the largest sizes
    return st.sampled_from([(m, n) for m in range(max_m + 1) for n in range(min_n, max_n + 1)])


@settings(max_examples=500, deadline=None)
@given(_shapes(4, 3), st.integers(1, 9), st.integers(0, 10**6))
def test_opt_2paa_matches_naive_search(shape, max_bid, seed):
    inst = _independent(random.Random(seed), *shape, max_bid)
    assert opt_2paa(inst).value == _every_2paa_value(inst)


# 2PAA's optimum is not monotone in the budgets, so opt_2paa can prune with no
# Skip-value bound: raising b1's budget 6 -> 8 gives b1 an effective bid of 6
# on u1, where b0 could win at 4 before, and the optimum falls 9 -> 8
@pytest.mark.parametrize("budget, value", [(6, 9), (8, 8)])
def test_opt_2paa_can_fall_when_a_budget_rises(budget, value):
    bids = {
        ("u0", "b0"): 2, ("u0", "b1"): 3,
        ("u1", "b0"): 4, ("u1", "b1"): 6,
        ("u2", "b0"): 5, ("u2", "b1"): 3,
    }
    inst = Instance(("u0", "u1", "u2"), (("b0", 9), ("b1", budget)), bids)
    assert validate(inst).ok
    assert opt_2paa(inst).value == _every_2paa_value(inst) == value


def test_opt_2paa_respects_second_bid_upper_bound():
    for seed in range(20):
        inst = _random_weighted(random.Random(3000 + seed))
        # no price beats its keyword's second-highest positive bid
        rows = [sorted(inst.positive_bids(u).values()) for u in inst.keywords]
        bound = sum(row[-2] for row in rows if len(row) >= 2)
        assert opt_2paa(inst).value <= bound


def test_second_bid_upper_bound_sums_runner_up_bids():
    inst = Instance(
        ("u1", "u2"),
        (("A", 9), ("B", 9)),
        {("u1", "A"): 4, ("u1", "B"): 3, ("u2", "A"): 5, ("u2", "B"): 5},
    )
    assert top_c_bound(inst, inst.m) == 8
    lonely = Instance(("u",), (("A", 9),), {("u", "A"): 4})
    assert top_c_bound(lonely, lonely.m) == 0


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


def _every_1paa_value(inst):
    """The best `first_price_value` of every keyword -> winner map, a winner
    being any bidder or none."""
    choices = (None, *inst.bidder_ids)
    best = 0
    for picks in itertools.product(choices, repeat=inst.m):
        winners = {u: v for u, v in zip(inst.keywords, picks) if v is not None}
        best = max(best, first_price_value(inst, winners))
    return best


@settings(max_examples=200, deadline=None)
@given(_shapes(5, 4), st.integers(1, 9), st.integers(0, 10**6))
def test_opt_1paa_matches_naive_search(shape, max_bid, seed):
    inst = _independent(random.Random(seed), *shape, max_bid)
    assert opt_1paa(inst).value == _every_1paa_value(inst)


def test_first_price_value_checks_ids_and_allows_gaps():
    inst = one_keyword_4_3()
    assert first_price_value(inst, {}) == 0
    with pytest.raises(UnknownId):
        first_price_value(inst, {"u": "Z"})


def test_first_price_value_rejects_a_key_that_is_not_a_keyword():
    inst = unit_instance({"u1": ["A", "B"], "u2": ["A", "B"]})
    with pytest.raises(UnknownId, match="zz"):
        first_price_value(inst, {"zz": "A", "u1": "A"})


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


def test_opt_2paa_builds_a_row_pair_table_only_when_it_expands_the_row():
    # dense rows: the (second, other entries) tables of every row would
    # take over 20 MB, and a search stopped at its first child needs none
    inst = random_2paa(150, 150, 9, 20, seed=0)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="^opt_2paa exceeded node limit 1$"):
            opt_2paa(inst, node_limit=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000


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


def test_opt_2paa_names_the_depth_it_searches():
    # the 100 single-bidder keywords after the deep part charge nothing, so
    # opt_2paa searches only the first 1200 keywords
    adjacency = {f"u{i}": [f"a{i}", f"b{i}"] for i in range(1200)}
    adjacency.update({f"s{i}": [f"a{i}"] for i in range(100)})
    with pytest.raises(TooLarge, match="^opt_2paa needs search depth 1200, "):
        opt_2paa(unit_instance(adjacency))


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


def test_budgeted_searches_match_their_digest():
    # values, witnesses and stats of both budgeted searches on 64 tight-budget
    # draws and the trailing-keyword instance above; a search that broke a tie
    # differently or counted its nodes differently would change the digest.
    # Digest taken before the two searches shared one search frame.
    instances = [random_2paa(8, 4, 9, 1, seed=s) for s in range(64)]
    base = random_2paa(6, 4, 9, 1, seed=2)
    bids = {**base.bids, ("t1", base.bidder_ids[0]): 1}
    instances.append(Instance(base.keywords + ("t1", "t2"), base.bidders, bids))
    docs = []
    for inst in instances:
        second, first = opt_2paa(inst), opt_1paa(inst)
        docs.append(json.dumps([
            [second.value, trace_to_doc(second.witness), list(astuple(second.stats))],
            [first.value, first.witness, list(astuple(first.stats))],
        ]))
    assert hashlib.sha256("\n".join(docs).encode()).hexdigest() == (
        "1a60aad24307f09af0a3e5427afa0c631b82b7360869589ab3b55d105cab3515"
    )


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
    assert [oracle(make()).stats.nodes for oracle, make in NODE_INSTANCES] == [210, 938, 152]


def test_viable_keyword_and_bidder_bounds_cut_the_nodes_of_64_draws():
    # 97,728 with only the bound that stops at 1 + Skip, 50,599 with the
    # viable-keyword bound too; dropping either case of the viable-keyword
    # bound, or the bidder bound, raises the total
    total = sum(opt_2pm(random_2pm(12, 12, 0.3, seed=s)).stats.nodes for s in range(64))
    assert total == 25_282


@settings(max_examples=80, deadline=None)
@given(_shapes(10, 8, min_n=2), st.sampled_from([0.2, 0.35, 0.5]), st.integers(0, 10**6))
def test_pruned_2pm_equals_unpruned_search(shape, p, seed):
    inst = random_2pm(*shape, p, seed=seed)
    result = opt_2pm(inst)
    value, actions, nodes = _unpruned_2pm(inst)
    assert (result.value, result.witness.actions()) == (value, actions)
    assert result.stats.nodes <= nodes


def test_pruned_2pm_equals_unpruned_search_on_every_4x4_class():
    # every 0/1 instance with 4 keywords and 4 bidders up to bidder
    # relabeling, as in the three-bidder test above
    classes = list(itertools.combinations_with_replacement(range(16), 4))
    assert len(classes) == 3876
    for columns in classes:
        inst = _from_columns(4, ("a", "b", "c", "d"), columns)
        result = opt_2pm(inst)
        value, actions, nodes = _unpruned_2pm(inst)
        assert (result.value, result.witness.actions()) == (value, actions), columns
        assert result.stats.nodes <= nodes, columns


@settings(max_examples=120, deadline=None)
@given(
    _shapes(7, 4),
    st.integers(1, 7),
    st.integers(1, 2),
    st.integers(0, 10**6),
    st.booleans(),
)
def test_pruned_auction_searches_equal_unpruned_search(shape, max_bid, r, seed, independent):
    # random_2paa budgets cover every bid; independent ones often do not
    m, n = shape
    if independent:
        inst = _independent(random.Random(seed), m, n, max_bid)
    else:
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


def _without_bids_of(inst, v):
    bids = {(u, w): a for (u, w), a in inst.bids.items() if w != v}
    return Instance(inst.keywords, inst.bidders, bids)


def _keywords_with_two_bidders(inst):
    return sum(1 for u in inst.keywords if len(inst.positive_bids(u)) >= 2)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 5))
def test_dropping_a_bidders_bids_never_raises_opt_2pm(seed, k):
    # charging bidder v removes it from every later keyword
    inst = random_2pm(9, 6, 0.35, seed=seed)
    dropped = _without_bids_of(inst, inst.bidder_ids[k])
    assert opt_2pm(dropped).value <= opt_2pm(inst).value


@settings(max_examples=80, deadline=None)
@given(
    _shapes(10, 8, min_n=2), st.sampled_from([0.2, 0.35, 0.5]), st.integers(0, 10**6), st.data()
)
def test_opt_2pm_is_at_most_its_keywords_with_two_bidders(shape, p, seed, data):
    # each paying keyword charges one bidder and needs a second uncharged one,
    # so the viable-keyword bound holds at the root and after any charge
    inst = random_2pm(*shape, p, seed=seed)
    assert opt_2pm(inst).value <= _keywords_with_two_bidders(inst)
    dropped = _without_bids_of(inst, data.draw(st.sampled_from(inst.bidder_ids)))
    assert opt_2pm(dropped).value <= _keywords_with_two_bidders(dropped)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3), st.integers(1, 20))
def test_lowering_one_budget_never_raises_opt_1paa(seed, k, cut):
    inst = random_2paa(7, 4, 6, 1, seed=seed)
    bidders = list(inst.bidders)
    v, budget = bidders[k]
    bidders[k] = (v, max(0, budget - cut))
    lowered = Instance(inst.keywords, tuple(bidders), inst.bids)
    assert opt_1paa(lowered).value <= opt_1paa(inst).value


def _total_bids(inst, v):
    return sum(inst.positive_bids(u).get(v, 0) for u in inst.keywords)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_opt_1paa_is_at_most_each_bidders_spendable_budget(seed):
    # a bidder pays min(budget, its assigned bids), and those are at most all its bids
    inst = _independent(random.Random(seed), 7, 4)
    spendable = sum(min(budget, _total_bids(inst, v)) for v, budget in inst.bidders)
    assert opt_1paa(inst).value <= spendable


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 3), st.integers(1, 20))
def test_budget_beyond_a_bidders_total_bids_changes_no_search(seed, k, extra):
    inst = _independent(random.Random(seed), 6, 4)
    v = inst.bidder_ids[k]
    total = _total_bids(inst, v)

    def with_budget(budget):
        bidders = list(inst.bidders)
        bidders[k] = (v, budget)
        return Instance(inst.keywords, tuple(bidders), inst.bids)

    # budget above `total` is never spent, so even the search statistics match
    exact, above = with_budget(total), with_budget(total + extra)
    first, second = opt_2paa(exact), opt_2paa(above)
    assert (first.value, first.witness.actions()) == (second.value, second.witness.actions())
    assert first.stats == second.stats
    first, second = opt_1paa(exact), opt_1paa(above)
    assert (first.value, first.witness, first.stats) == (second.value, second.witness, second.stats)


@pytest.mark.parametrize("oracle, make", NODE_INSTANCES, ids=["opt_2pm", "opt_2paa", "opt_1paa"])
def test_searches_leave_no_cyclic_garbage(oracle, make):
    # the recursive search closure must not keep its memo tables in a cycle,
    # neither after a search nor after one stopped by its node limit
    inst = make()
    gc.collect()
    gc.disable()
    try:
        oracle(inst)
        try:
            oracle(inst, node_limit=10)
        except TooLarge:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()
