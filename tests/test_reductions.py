"""Gadget reductions and the first-price transform chain."""

import math
import statistics
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    SKIP,
    Assign,
    AuctionTrace,
    BudgetState,
    Instance,
    InvalidParams,
    NotAPartition,
    PolicyViolation,
    TraceStep,
    UnknownId,
    UnresolvableSecondBidder,
    execute,
    extract_vertex_cover,
    first_price_value,
    normalize_first_price,
    opt_1paa,
    opt_2paa,
    opt_2pm,
    partition_to_2paa,
    random_2paa,
    random_construction,
    resolve_second_bidder,
    reverse_match,
    to_first_price_bids,
    unit_instance,
    validate,
    vc_to_2pm,
    yes_strategy,
)
from auctionlab.formats import instance_to_doc
from shared import shuffled_parts

# ----------------------------------------------------------------------
# equal-sum partition gadget


def test_partition_gadget_shape_for_two_weights():
    gadget = partition_to_2paa((1, 1), c=1)
    assert gadget.instance.m == 8  # 2 c + 2 e + 4 g
    assert len(gadget.instance.bidders) == 8  # a, d1, d2, f + 4 h
    assert gadget.scale == 1
    assert gadget.total_weight == 2
    assert validate(gadget.instance).ok


def test_partition_gadget_doubles_odd_totals():
    gadget = partition_to_2paa((1, 2), c=1)
    assert gadget.scale == 2
    assert gadget.weights == (2, 4)
    assert gadget.total_weight == 6


def test_partition_gadget_rejects_bad_inputs():
    with pytest.raises(InvalidParams):
        partition_to_2paa((), c=1)
    with pytest.raises(InvalidParams):
        partition_to_2paa((1, 2, 3), c=1)  # odd count
    with pytest.raises(InvalidParams):
        partition_to_2paa((1, 0), c=1)
    with pytest.raises(InvalidParams):
        partition_to_2paa((1, True), c=1)
    with pytest.raises(InvalidParams):
        partition_to_2paa((1, 1), c=0)


def test_yes_strategy_replays_to_the_advertised_value():
    gadget = partition_to_2paa((1, 1), c=1)
    assert gadget.yes_value == 72
    trace = yes_strategy(gadget, {1})
    assert trace.value == 72
    assert yes_strategy(gadget, {2}).value == 72


def test_yes_strategy_rejects_non_partitions():
    gadget = partition_to_2paa((1, 3), c=1)
    with pytest.raises(NotAPartition):
        yes_strategy(gadget, {1})
    with pytest.raises(NotAPartition):
        yes_strategy(gadget, {1, 2})
    with pytest.raises(InvalidParams):
        yes_strategy(gadget, {9})


def test_yes_strategy_budget_checkpoints():
    gadget = partition_to_2paa((2, 3, 4, 1), c=2)
    trace = yes_strategy(gadget, {1, 2})  # 2 + 3 carries half of 10
    n = gadget.n
    state = BudgetState.start(gadget.instance)
    for step in trace.steps[:n]:
        state.settle(gadget.instance.positive_bids(step.keyword), step.action)
    assert state.remaining["d1"] == gadget.d_checkpoint
    assert state.remaining["d2"] == gadget.d_checkpoint
    for step in trace.steps[n : n + 2]:
        state.settle(gadget.instance.positive_bids(step.keyword), step.action)
    assert state.remaining["f"] == gadget.f_checkpoint


def test_partition_optimum_hits_yes_value_exactly_on_yes_instances():
    yes = partition_to_2paa((1, 1), c=1)
    assert opt_2paa(yes.instance).value == yes.yes_value


def test_partition_optimum_stays_below_threshold_on_no_instances():
    no = partition_to_2paa((1, 3), c=1)
    assert no.no_threshold == 64
    best = opt_2paa(no.instance)
    assert best.value < no.no_threshold
    assert best.value == 60


# ----------------------------------------------------------------------
# vertex cover gadget


def triangle():
    return vc_to_2pm(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))


def test_vc_gadget_shape_and_arrival_order():
    gadget = triangle()
    assert gadget.instance.m == 9  # 2 per vertex + 1 per edge
    assert len(gadget.instance.bidders) == 12
    # vertex keywords (h then l per vertex) all precede edge keywords
    assert gadget.instance.keywords[:6] == (
        "h:a", "l:a", "h:b", "l:b", "h:c", "l:c"
    )
    assert validate(gadget.instance).ok


def test_vc_gadget_rejects_malformed_graphs():
    with pytest.raises(InvalidParams):
        vc_to_2pm(("a", "a"), ())
    with pytest.raises(InvalidParams):
        vc_to_2pm(("a", "b"), (("a", "a"),))
    with pytest.raises(InvalidParams):
        vc_to_2pm(("a", "b"), (("a", "z"),))
    with pytest.raises(InvalidParams):
        vc_to_2pm(("a", "b"), (("a", "b"), ("b", "a")))


@pytest.mark.parametrize(
    "vertices, edges, message",
    [
        (("a", "y:a"), (("a", "y:a"),), "vertex labels give a duplicate bidder id 'y:a'"),
        (
            ("a", "b-c", "a-b", "c"),
            (("a", "b-c"), ("a-b", "c")),
            "vertex labels give a duplicate keyword id 'e:a-b-c'",
        ),
    ],
    ids=["vertex-is-a-y-bidder", "edges-share-a-name"],
)
def test_vc_gadget_refuses_labels_that_repeat_a_gadget_id(vertices, edges, message):
    with pytest.raises(InvalidParams) as err:
        vc_to_2pm(vertices, edges)
    assert str(err.value) == message


def test_vc_identity_on_small_graphs():
    # OPT_2P = 2|V| + |E| - OPT_VC
    cases = [
        (("a", "b"), (("a", "b"),), 1),  # single edge: cover 1
        (("a", "b", "c"), (("a", "b"), ("b", "c")), 1),  # path: cover {b}
        (("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")), 2),  # triangle
    ]
    for vertices, edges, opt_vc in cases:
        gadget = vc_to_2pm(vertices, edges)
        assert opt_2pm(gadget.instance).value == gadget.identity_value(opt_vc)


def test_cover_extracted_from_optimal_trace_is_minimal():
    gadget = triangle()
    best = opt_2pm(gadget.instance)
    cover = extract_vertex_cover(gadget, best.witness)
    assert len(cover) == 2 * 3 + 3 - best.value == 2
    for s, t in gadget.edges:
        assert s in cover or t in cover


def test_cover_extracted_from_approximate_trace_is_valid():
    gadget = vc_to_2pm(
        ("a", "b", "c", "d"),
        (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d"), ("a", "c")),
    )
    trace = reverse_match(gadget.instance)
    cover = extract_vertex_cover(gadget, trace)
    for s, t in gadget.edges:
        assert s in cover or t in cover
    assert len(cover) <= 2 * 4 + 5 - trace.value


def test_cover_extraction_refuses_a_trace_step_that_is_not_an_action():
    # the forged step would replay as a skip if only Assign were checked
    gadget = vc_to_2pm(("a", "b"), (("a", "b"),))
    steps = [TraceStep(u, SKIP, 0) for u in gadget.instance.keywords]
    steps[-1] = TraceStep(steps[-1].keyword, ("a", "b"), 0)
    trace = AuctionTrace(tuple(steps), 0, gadget.instance.initial_budgets())
    with pytest.raises(PolicyViolation, match=r"^policy returned \('a', 'b'\), not an action$"):
        extract_vertex_cover(gadget, trace)


# ----------------------------------------------------------------------
# first-price transform


def test_transform_replaces_bids_with_best_dominated_rival():
    inst = Instance(
        ("u",),
        (("A", 9), ("B", 9), ("C", 9)),
        {("u", "A"): 5, ("u", "B"): 3, ("u", "C"): 3},
    )
    prime = to_first_price_bids(inst)
    assert prime.bid("u", "A") == 3
    assert prime.bid("u", "B") == 3
    assert prime.bid("u", "C") == 3
    assert prime.bidders == inst.bidders


def test_transform_drops_unrivaled_bids():
    inst = Instance(("u",), (("A", 9),), {("u", "A"): 5})
    prime = to_first_price_bids(inst)
    assert prime.positive_bids("u") == {}


def test_transform_keeps_unit_instances_unit():
    inst = unit_instance({"u": ["a", "b"]})
    prime = to_first_price_bids(inst)
    assert prime.positive_bids("u") == {"a": 1, "b": 1}


# Dense-scan definitions of the transform and the second-bidder rule:
# every bidder of the instance, zero and absent bids included, is compared
# against every other.  The packaged versions only read positive rows.


def dense_first_price_bids(instance):
    bids = {}
    ids = instance.bidder_ids
    for u in instance.keywords:
        amounts = [instance.bids.get((u, v), 0) for v in ids]
        for i, v in enumerate(ids):
            below = [a for j, a in enumerate(amounts) if j != i and a <= amounts[i]]
            b_prime = max(below, default=0)
            if b_prime > 0:
                bids[(u, v)] = b_prime
    return Instance(instance.keywords, instance.bidders, bids)


def dense_second_bidder(instance, keyword, bidder):
    """Lowest-index rival bidding exactly b'(keyword, bidder); None if none."""
    own = instance.bids.get((keyword, bidder), 0)
    target = max(
        (
            instance.bids.get((keyword, v), 0)
            for v in instance.bidder_ids
            if v != bidder and instance.bids.get((keyword, v), 0) <= own
        ),
        default=0,
    )
    for v in instance.bidder_ids:
        if v != bidder and instance.bids.get((keyword, v), 0) == target:
            return v
    return None


@st.composite
def small_instances(draw):
    """Up to 4 keywords and 5 bidders; bids absent, zero or in 1..3, so
    ties and empty rows are common."""
    keywords = tuple(f"u{i}" for i in range(draw(st.integers(0, 4))))
    bidders = tuple((f"v{j}", 3) for j in range(draw(st.integers(1, 5))))
    bids = {}
    for u in keywords:
        for v, _ in bidders:
            amount = draw(st.sampled_from((None, 0, 1, 2, 3)))
            if amount is not None:
                bids[(u, v)] = amount
    return Instance(keywords, bidders, bids)


@settings(max_examples=300, deadline=None)
@given(small_instances())
def test_transform_and_second_bidder_match_dense_scan(inst):
    prime = to_first_price_bids(inst)
    assert instance_to_doc(prime) == instance_to_doc(dense_first_price_bids(inst))
    for u in inst.keywords:
        for v in inst.bidder_ids:
            expected = dense_second_bidder(inst, u, v)
            if expected is None:
                with pytest.raises(UnresolvableSecondBidder):
                    resolve_second_bidder(inst, u, v)
                continue
            second = resolve_second_bidder(inst, u, v)
            assert second == expected
            # random_construction charges b'(u, v) as the second's own bid
            assert inst.bid(u, second) == prime.bid(u, v)


def test_transformed_bids_never_exceed_originals():
    inst = Instance(
        ("u1", "u2"),
        (("A", 8), ("B", 6), ("C", 4)),
        {("u1", "A"): 7, ("u1", "B"): 2, ("u2", "B"): 6, ("u2", "C"): 4},
    )
    prime = to_first_price_bids(inst)
    for (u, v), b in prime.bids.items():
        assert b <= inst.bid(u, v) <= inst.budget_of(v)


def sorted_first_price_bids(keywords, bidders, bids):
    """b' by one sort per row of positive bids on known ids: the largest
    other amount of the row not above the bid's own."""
    index = {v: i for i, (v, _) in enumerate(bidders)}
    rows = {u: {} for u in keywords}
    for (u, v), a in bids.items():
        if a > 0 and u in rows and v in index:
            rows[u][v] = a
    prime = {}
    for u, row in rows.items():
        for v, a in row.items():
            below = sorted(b for w, b in row.items() if w != v and b <= a)
            if below:
                prime[u, v] = below[-1]
    return prime


@settings(max_examples=300, deadline=None)
@given(shuffled_parts())
def test_transform_matches_a_sort_per_row_and_keeps_the_original_keys_in_order(parts):
    inst = Instance(*parts)
    prime = to_first_price_bids(inst)
    assert prime.bids == sorted_first_price_bids(*parts)
    assert list(prime.bids) == [key for key in inst.bids if key in prime.bids]
    originals = {key: key for key in inst.bids}
    assert all(originals[key] is key for key in prime.bids)
    assert (prime.keywords, prime.bidders) == (inst.keywords, inst.bidders)


def test_transform_keeps_under_40_bytes_per_kept_bid():
    inst = random_2paa(150, 150, 9, 2, seed=0)
    inst._rows  # the original's rows are its own, read before the count
    tracemalloc.start()
    try:
        prime = to_first_price_bids(inst)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(prime.bids) > 10_000
    assert held <= 40 * len(prime.bids)


# ----------------------------------------------------------------------
# normalization


def _single_winner_prime(bids, budget):
    keywords = tuple(f"u{i}" for i in range(1, len(bids) + 1))
    return Instance(
        keywords,
        (("A", budget),),
        {(keywords[i], "A"): bids[i] for i in range(len(bids))},
    )


def test_normalize_drops_keywords_after_exhaustion():
    prime = _single_winner_prime((3, 3, 2), budget=5)
    alloc = {u: "A" for u in prime.keywords}
    kept = normalize_first_price(prime, alloc)
    assert list(kept.items()) == [("u1", "A"), ("u2", "A")]
    assert first_price_value(prime, kept) == first_price_value(prime, alloc)


def test_normalize_keeps_solvent_allocations():
    prime = _single_winner_prime((3, 1), budget=5)
    alloc = {u: "A" for u in prime.keywords}
    kept = normalize_first_price(prime, alloc)
    assert list(kept.items()) == [("u1", "A"), ("u2", "A")]


def test_normalize_rejects_a_key_that_is_not_a_keyword():
    prime = _single_winner_prime((3, 3), budget=5)
    with pytest.raises(UnknownId, match="zz"):
        normalize_first_price(prime, {"zz": "A", "u1": "A"})


def test_normalize_empty_allocation():
    prime = _single_winner_prime((3,), budget=5)
    assert normalize_first_price(prime, {}) == {}


def test_normalized_head_sums_stay_below_budget():
    prime = _single_winner_prime((4, 4, 4, 4), budget=9)
    kept = normalize_first_price(prime, {u: "A" for u in prime.keywords})
    spent = 0
    for u, v in kept.items():
        assert spent < prime.budget_of(v)
        spent += prime.bid(u, v)
    assert list(kept.items()) == [("u1", "A"), ("u2", "A"), ("u3", "A")]


def test_winners_are_read_in_arrival_order_whatever_their_insertion_order():
    inst = Instance(
        ("u1", "u2", "u3"),
        (("A", 5), ("B", 9)),
        {(u, v): a for u in ("u1", "u2", "u3") for v, a in (("A", 4), ("B", 3))},
    )
    prime = to_first_price_bids(inst)
    arrival = {u: "A" for u in inst.keywords}
    reverse = {u: "A" for u in reversed(inst.keywords)}
    assert list(reverse) != list(arrival)
    kept = normalize_first_price(prime, reverse)
    assert list(kept.items()) == [("u1", "A"), ("u2", "A")]
    assert kept == normalize_first_price(prime, arrival)
    backwards = dict(reversed(kept.items()))
    for marked in ((), ("A",), ("B",), ("A", "B")):
        trace = random_construction(inst, backwards, marked=marked)
        assert trace == random_construction(inst, kept, marked=marked)
    # budget 5 fits one transformed bid of 3: the head (u1) is taken
    assert random_construction(inst, backwards, marked=("B",)).prices() == (3, 0, 0)
    for seed in range(8):
        trace = random_construction(inst, backwards, seed=seed)
        assert trace == random_construction(inst, kept, seed=seed)


# ----------------------------------------------------------------------
# second-bidder resolution


def test_resolve_second_bidder_breaks_ties_by_index():
    inst = Instance(
        ("u",),
        (("A", 9), ("B", 9), ("C", 9)),
        {("u", "A"): 4, ("u", "B"): 3, ("u", "C"): 3},
    )
    assert resolve_second_bidder(inst, "u", "A") == "B"
    assert resolve_second_bidder(inst, "u", "B") == "C"
    assert resolve_second_bidder(inst, "u", "C") == "B"


def test_resolve_second_bidder_needs_a_rival():
    inst = Instance(("u",), (("A", 9),), {("u", "A"): 4})
    with pytest.raises(UnresolvableSecondBidder):
        resolve_second_bidder(inst, "u", "A")


# ----------------------------------------------------------------------
# random construction


def two_bidder_instance(budget_a=99):
    return Instance(
        ("u1", "u2"),
        (("A", budget_a), ("B", 99)),
        {("u1", "A"): 5, ("u1", "B"): 3, ("u2", "A"): 5, ("u2", "B"): 3},
    )


def test_construction_with_nobody_marked_yields_nothing():
    inst = two_bidder_instance()
    trace = random_construction(inst, {"u1": "A", "u2": "A"}, marked=())
    assert trace.value == 0


def test_construction_takes_everything_when_budget_allows():
    inst = two_bidder_instance()
    trace = random_construction(inst, {"u1": "A", "u2": "A"}, marked=("B",))
    assert trace.prices() == (3, 3)
    assert trace.actions() == (Assign("A", "B"), Assign("A", "B"))


def test_construction_keeps_the_better_half_when_budget_binds():
    inst = two_bidder_instance(budget_a=5)
    trace = random_construction(inst, {"u1": "A", "u2": "A"}, marked=("B",))
    # transformed bids are (3, 3): both do not fit in 5, head wins the tie
    assert trace.prices() == (3, 0)


def test_construction_skips_marked_winners():
    inst = two_bidder_instance()
    trace = random_construction(inst, {"u1": "A", "u2": "A"}, marked=("A", "B"))
    assert trace.value == 0


def test_construction_rejects_unknown_ids():
    inst = two_bidder_instance()
    with pytest.raises(UnknownId, match="zz"):
        random_construction(inst, {"u1": "A"}, marked=["zz"])
    with pytest.raises(UnknownId, match="zz"):
        random_construction(inst, {"zz": "A", "u1": "A"}, seed=0)
    for marked in ((), ("A",), ("B",), ("A", "B")):
        with pytest.raises(UnknownId, match="Z"):
            random_construction(inst, {"u1": "Z"}, marked=marked)


def test_construction_is_seed_deterministic():
    inst = two_bidder_instance()
    alloc = {"u1": "A", "u2": "A"}
    assert random_construction(inst, alloc, seed=7) == random_construction(
        inst, alloc, seed=7
    )


def test_construction_monte_carlo_reaches_an_eighth():
    inst = Instance(
        ("u1", "u2", "u3", "u4"),
        (("A", 10), ("B", 7), ("C", 6)),
        {
            ("u1", "A"): 6, ("u1", "B"): 4,
            ("u2", "B"): 7, ("u2", "C"): 5,
            ("u3", "A"): 4, ("u3", "C"): 3,
            ("u4", "A"): 5, ("u4", "B"): 5, ("u4", "C"): 2,
        },
    )
    prime = to_first_price_bids(inst)
    best = opt_1paa(prime)
    alloc = normalize_first_price(prime, best.witness)
    assert first_price_value(prime, alloc) == best.value

    values = [random_construction(inst, alloc, seed=s).value for s in range(400)]
    mean = statistics.fmean(values)
    se = statistics.stdev(values) / math.sqrt(len(values))
    assert mean >= float(Fraction(best.value, 8)) - 3 * se
