"""Online driver and policies: greedy, ranking, two-sided simulation, k-copy."""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from auctionlab import (
    SKIP,
    Assign,
    Instance,
    InvalidParams,
    Matching,
    OnlinePolicy,
    PolicyViolation,
    first_available,
    greedy_2pm,
    left_k_copy,
    perfect_matchable_2pm,
    random_2pm,
    ranking_1p,
    ranking_simulate,
    run_online,
    skip_all,
    unit_instance,
)
from auctionlab.formats import matching_to_doc, trace_to_doc
from shared import simulate_match_probabilities, without_thin_keywords


def pair_instance():
    return unit_instance({"u1": ["v1", "v2"], "u2": ["v1", "v2"]})


def bottleneck_instance():
    # v2 is the only neighbor of u2, so ranking loses it half the time
    return unit_instance({"u1": ["v1", "v2"], "u2": ["v2"]})


# ----------------------------------------------------------------------
# deterministic policies


def test_greedy_matches_when_two_neighbors_available():
    trace = run_online(pair_instance(), greedy_2pm())
    assert trace.value == 1
    assert trace.actions()[0] == Assign("v1", "v2")


def test_greedy_on_six_cycle_scores_two():
    inst = unit_instance({"u1": ["v1", "v2"], "u2": ["v2", "v3"], "u3": ["v3", "v1"]})
    assert run_online(inst, greedy_2pm()).value == 2


def test_skip_all_scores_zero():
    trace = run_online(pair_instance(), skip_all())
    assert trace.value == 0
    assert all(a == SKIP for a in trace.actions())


def test_first_available_accepts_zero_price():
    inst = unit_instance({"u1": ["v1", "v2"], "u2": ["v1", "v2"]})
    trace = run_online(inst, first_available())
    # second keyword matches v2 against the exhausted v1 for free
    assert trace.prices() == (1, 0)
    assert trace.final_budgets == {"v1": 0, "v2": 1}


def test_first_available_skips_a_keyword_with_one_bidder():
    trace = run_online(bottleneck_instance(), first_available())
    assert trace.actions() == (Assign("v1", "v2"), SKIP)


def test_driver_is_deterministic_for_deterministic_policies():
    inst = pair_instance()
    assert run_online(inst, greedy_2pm(), seed=1) == run_online(
        inst, greedy_2pm(), seed=99
    )


# ----------------------------------------------------------------------
# driver contract


def test_policy_must_return_an_action():
    class Rogue(OnlinePolicy):
        def decide(self, step, keyword, bids, budgets):
            return "v1"

    with pytest.raises(PolicyViolation):
        run_online(pair_instance(), Rogue())


def test_matching_policy_cannot_reuse_a_bidder():
    class Rogue(OnlinePolicy):
        kind = "matching"

        def choose(self, step, keyword, bids):
            return "v1"

    with pytest.raises(PolicyViolation):
        run_online(pair_instance(), Rogue())


def test_matching_policy_cannot_pick_a_non_neighbor():
    class Rogue(OnlinePolicy):
        kind = "matching"

        def choose(self, step, keyword, bids):
            return "v9"

    with pytest.raises(PolicyViolation):
        run_online(pair_instance(), Rogue())


def test_matching_policy_choice_that_cannot_be_hashed_is_refused():
    class Rogue(OnlinePolicy):
        kind = "matching"

        def choose(self, step, keyword, bids):
            return ["a"]

    inst = unit_instance({"u1": ["a", "b"]})
    with pytest.raises(PolicyViolation, match=r"policy matched 'u1' to unavailable bidder \['a'\]"):
        run_online(inst, Rogue())


def test_matching_policy_may_use_bidder_ids_that_are_not_str():
    class First(OnlinePolicy):
        kind = "matching"

        def choose(self, step, keyword, bids):
            return next(iter(bids))

    inst = Instance(("u1", "u2"), ((1, 1), (("t", 2), 1)), {("u1", 1): 1, ("u2", ("t", 2)): 1})
    assert run_online(inst, First()).pairs == {"u1": 1, "u2": ("t", 2)}


def test_decisions_depend_only_on_the_revealed_prefix():
    shared = {"u1": ["a", "b"], "u2": ["b", "c"]}
    inst_x = unit_instance({**shared, "u3": ["a", "c"]}, bidders=["a", "b", "c"])
    inst_y = unit_instance({**shared, "u3": ["c"]}, bidders=["a", "b", "c"])
    for make in (greedy_2pm, ranking_simulate):
        tx = run_online(inst_x, make(), seed=7)
        ty = run_online(inst_y, make(), seed=7)
        assert tx.actions()[:2] == ty.actions()[:2]


# ----------------------------------------------------------------------
# ranking (first-price matching)


def test_ranking_saturates_the_square():
    for seed in range(5):
        match = run_online(pair_instance(), ranking_1p(), seed=seed)
        assert match.size == 2


def test_ranking_mean_over_both_orders_is_three_halves():
    inst = bottleneck_instance()
    sizes = []
    for sigma in itertools.permutations(("v1", "v2")):
        match = run_online(inst, ranking_1p(sigma=sigma))
        sizes.append(match.size)
    assert sorted(sizes) == [1, 2]
    assert Fraction(sum(sizes), len(sizes)) == Fraction(3, 2)


def test_ranking_permutation_comes_from_the_driver_seed():
    inst = bottleneck_instance()
    same = [run_online(inst, ranking_1p(), seed=4).pairs for _ in range(3)]
    assert all(p == same[0] for p in same)
    floating = {
        tuple(sorted(run_online(inst, ranking_1p(), seed=d).pairs.items()))
        for d in range(12)
    }
    assert len(floating) > 1


def test_ranking_rejects_bad_sigma():
    with pytest.raises(PolicyViolation):
        run_online(pair_instance(), ranking_1p(sigma=("v1",)))
    with pytest.raises(PolicyViolation):
        run_online(pair_instance(), ranking_1p(sigma=("v1", "v1")))


def test_ranking_result_is_a_matching_object():
    match = run_online(pair_instance(), ranking_1p(), seed=0)
    assert isinstance(match, Matching)
    assert set(match.pairs.values()) <= {"v1", "v2"}


# ----------------------------------------------------------------------
# ranking_simulate (second-price, two-sided randomness)


def test_simulate_single_keyword_pays_either_way():
    inst = unit_instance({"u": ["a", "b"]})
    for coin in (0, 1):
        trace = run_online(inst, ranking_simulate(sigma=("a", "b"), coins=[coin]))
        assert trace.value == 1


def test_simulate_same_pair_twice_always_scores_one():
    inst = pair_instance()
    for sigma in itertools.permutations(("v1", "v2")):
        for coins in itertools.product((0, 1), repeat=2):
            trace = run_online(inst, ranking_simulate(sigma=sigma, coins=coins))
            assert trace.value == 1


def test_simulate_zero_profit_match_still_consumes_the_bidder():
    inst = unit_instance({"u1": ["a", "b"], "u2": ["a", "c"]})
    policy = ranking_simulate(sigma=("a", "b", "c"), coins=[1, 1])
    trace = run_online(inst, policy)
    # u2's only pick c is matched, but its other bidder a is already in M
    assert trace.actions() == (Assign("a", "b"), SKIP)
    assert trace.value == 1
    assert policy.matched == {"a", "c"}
    assert policy.ranking.matched - policy.matched == {"b"}


def test_simulate_skips_keywords_with_fewer_than_two_bidders():
    # before thin keywords were skipped, u1 and u2 spent b and a for nothing
    inst = unit_instance({"u1": ["b"], "u2": ["a"], "u3": ["a", "b"]})
    for sigma in itertools.permutations(("a", "b")):
        for coins in itertools.product((0, 1), repeat=3):
            assert run_online(inst, ranking_simulate(sigma=sigma, coins=coins)).value == 1


def test_simulate_one_bidder_keywords_do_not_spend_their_bidders():
    pairs = [(f"a{i}", f"b{i}") for i in range(4)]
    adjacency = {f"solo-{v}": [v] for pair in pairs for v in pair}
    adjacency.update({f"pair{i}": list(pair) for i, pair in enumerate(pairs)})
    inst = unit_instance(adjacency)
    for seed in range(200):
        assert run_online(inst, ranking_simulate(), seed=seed).value == 4


def test_simulate_rejects_coins_other_than_zero_and_one():
    for coins in ([2, 7, 5], [1, -1], [0, 0.5]):
        with pytest.raises(InvalidParams):
            ranking_simulate(coins=coins)


def test_simulate_matched_and_reserved_stay_disjoint():
    inst = unit_instance(
        {"u1": ["a", "b", "c"], "u2": ["b", "c"], "u3": ["a", "c"], "u4": ["a", "b"]}
    )
    for seed in range(30):
        policy = ranking_simulate()
        run_online(inst, policy, seed=seed)
        assert policy.matched <= policy.ranking.matched


def test_simulate_exhausted_coin_stream_is_an_error():
    inst = unit_instance({"u1": ["a", "b"], "u2": ["c", "d"]})
    with pytest.raises(PolicyViolation, match="exhausted"):
        run_online(inst, ranking_simulate(sigma=("a", "b", "c", "d"), coins=[1]))
    # spare coins are fine
    run_online(inst, ranking_simulate(sigma=("a", "b", "c", "d"), coins=[1, 0, 1]))


def test_simulate_driver_seed_reproduces_runs():
    inst = unit_instance({"u1": ["a", "b", "c"], "u2": ["a", "c"], "u3": ["b", "c"]})
    reused = ranking_simulate()
    runs = [run_online(inst, ranking_simulate(), seed=11) for _ in range(2)]
    runs += [run_online(inst, reused, seed=11) for _ in range(2)]
    assert all(run == runs[0] for run in runs)


def test_simulate_matches_each_bidder_half_as_often_as_two_copy_ranking():
    instances = [
        unit_instance({"u1": ["a", "b"], "u2": ["b", "c"], "u3": ["a", "c"]}),
        unit_instance({"u1": ["a", "b", "c"], "u2": ["a", "b"], "u3": ["c", "a"]}),
        unit_instance({"u1": ["a"], "u2": ["a", "b"], "u3": ["b", "c"]}),
    ]
    for inst in instances:
        # thin keywords are skipped, so the reference drops them
        doubled = left_k_copy(without_thin_keywords(inst), 2).instance
        for sigma in itertools.permutations(inst.bidder_ids):
            matched_2copy = set(
                run_online(doubled, ranking_1p(sigma=sigma)).pairs.values()
            )
            probs = simulate_match_probabilities(inst, sigma)
            for v in inst.bidder_ids:
                expected = Fraction(1, 2) if v in matched_2copy else Fraction(0)
                assert probs[v] == expected, (inst, sigma, v)


# SHA-256 of the newline-joined run documents over seeds 0..19, where each
# run uses its seed as both instance seed and driver seed
GOLDEN_RUNS = {
    ("perfect_matchable_2pm", "ranking_simulate"):
        "626b849a70204271c3f1af1fd2a7ae3d9a76203bf1683409f3ae21be798e66d7",
    ("perfect_matchable_2pm", "ranking_1p_two_copy"):
        "9631ef6a3b0fcd67400ee760a07647852bf0271afe35c877b328a08fd8f4d432",
    ("random_2pm", "ranking_simulate"):
        "f02e1ea78908726ec687336700c6fd2a53b1da29cb3f6e93ba7226ff48ea83e6",
    ("random_2pm", "ranking_1p_two_copy"):
        "80d13e7095afd574488418ab9b523f2a4c8ff4c685b1b1488df0dcf4c2304277",
}

GOLDEN_FAMILIES = {
    "perfect_matchable_2pm": lambda s: perfect_matchable_2pm(8, 0.3, seed=s),
    "random_2pm": lambda s: random_2pm(12, 12, 0.3, seed=s),
}


@pytest.mark.parametrize("family, policy", sorted(GOLDEN_RUNS))
def test_ranking_runs_match_golden_digests(family, policy):
    docs = []
    for s in range(20):
        inst = GOLDEN_FAMILIES[family](s)
        if policy == "ranking_simulate":
            doc = trace_to_doc(run_online(inst, ranking_simulate(), seed=s))
        else:
            doubled = left_k_copy(inst, 2).instance
            doc = matching_to_doc(run_online(doubled, ranking_1p(), seed=s))
        docs.append(json.dumps(doc))
    digest = hashlib.sha256("\n".join(docs).encode()).hexdigest()
    assert digest == GOLDEN_RUNS[family, policy]


# ----------------------------------------------------------------------
# left_k_copy


def test_left_k_copy_duplicates_consecutively():
    inst = pair_instance()
    copied = left_k_copy(inst, 2)
    assert copied.instance.keywords == ("u1@1", "u1@2", "u2@1", "u2@2")
    assert copied.zeta == {"u1@1": "u1", "u1@2": "u1", "u2@1": "u2", "u2@2": "u2"}
    assert copied.instance.bidders == inst.bidders
    for copy, original in copied.zeta.items():
        assert copied.instance.positive_bids(copy) == inst.positive_bids(original)


def test_left_k_copy_k1_keeps_one_copy_per_keyword():
    inst = bottleneck_instance()
    copied = left_k_copy(inst, 1)
    assert copied.instance.m == inst.m
    assert sorted(copied.zeta.values()) == sorted(inst.keywords)


def test_left_k_copy_renames_around_collisions():
    inst = unit_instance({"u": ["a", "b"], "u@1": ["a", "b"]})
    copied = left_k_copy(inst, 1)
    assert len(set(copied.instance.keywords)) == 2
    assert sorted(copied.zeta.values()) == ["u", "u@1"]


def test_left_k_copy_rejects_k_zero():
    # InvalidParams, not ValueError, so callers catching AuctionError see it
    with pytest.raises(InvalidParams, match="k must be >= 1, got 0"):
        left_k_copy(pair_instance(), 0)


def test_ranking_on_two_copy_never_beats_bidder_count():
    inst = unit_instance({"u1": ["a", "b"], "u2": ["a", "b"], "u3": ["a", "b"]})
    doubled = left_k_copy(inst, 2).instance
    for seed in range(8):
        match = run_online(doubled, ranking_1p(), seed=seed)
        assert match.size == 2
