"""Offline algorithms: top-c selection and reverse-order matching."""

import dataclasses
import hashlib
import json
import math
import pickle
import warnings

import pytest

from auctionlab import (
    SKIP,
    Assign,
    InfeasibleTrace,
    Instance,
    InvalidParams,
    execute,
    max_matching,
    opt_2pm,
    r_min,
    random_2pm,
    random_2paa,
    reverse_match,
    top_c,
    top_c_bound,
    unit_instance,
)
from auctionlab.formats import trace_to_doc


def three_keyword_instance():
    # second-highest bids are (3, 5, 2); budgets never bind
    return Instance(
        ("k1", "k2", "k3"),
        (("A", 100), ("B", 100)),
        {
            ("k1", "A"): 4, ("k1", "B"): 3,
            ("k2", "A"): 9, ("k2", "B"): 5,
            ("k3", "A"): 2, ("k3", "B"): 2,
        },
    )


def second_highest(inst, u):
    amounts = sorted(inst.positive_bids(u).values(), reverse=True)
    return amounts[1] if len(amounts) >= 2 else 0


# ----------------------------------------------------------------------
# top_c


def test_top_c_picks_keyword_with_largest_runner_up():
    trace = top_c(three_keyword_instance(), 1)
    assert trace.value == 5
    assert trace.prices() == (0, 5, 0)


def test_top_c_equal_to_keyword_count_takes_everything():
    inst = three_keyword_instance()
    assert top_c(inst, 3).value == 10
    # c beyond m still allocates every keyword
    assert top_c(inst, 5).value == 10


def test_top_c_rejects_nonpositive_c():
    with pytest.raises(InvalidParams):
        top_c(three_keyword_instance(), 0)


def test_top_c_warns_when_budgets_are_tight():
    inst = Instance(("u",), (("A", 4), ("B", 4)), {("u", "A"): 4, ("u", "B"): 3})
    with pytest.warns(UserWarning, match="r_min"):
        top_c(inst, 2)


def test_top_c_tie_breaks_toward_earliest_keyword():
    inst = Instance(
        ("k1", "k2"),
        (("A", 50), ("B", 50)),
        {("k1", "A"): 5, ("k1", "B"): 3, ("k2", "A"): 5, ("k2", "B"): 3},
    )
    trace = top_c(inst, 1)
    assert trace.prices() == (3, 0)


def test_top_c_hard_bound_and_no_truncation_on_generated_instances():
    for seed in range(100):
        for c in (1, 2, 3):
            inst = random_2paa(
                num_keywords=6, num_bidders=4, max_bid=9,
                target_r_min=c, seed=seed,
            )
            assert r_min(inst) >= c
            trace = top_c(inst, c)
            assert trace.value >= top_c_bound(inst, c)
            for step in trace.steps:
                if isinstance(step.action, Assign):
                    assert step.price == second_highest(inst, step.keyword)


def test_top_c_value_is_sum_of_largest_runner_ups():
    for seed in range(40):
        c = 2
        inst = random_2paa(
            num_keywords=7, num_bidders=5, max_bid=9, target_r_min=c, seed=seed
        )
        tops = sorted((second_highest(inst, u) for u in inst.keywords), reverse=True)
        assert top_c(inst, c).value == sum(tops[:c])


def _top_c_digest(instances):
    """SHA-256 of the newline-joined `trace_to_doc` JSON of top_c for c = 1..7."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "r_min below")
        docs = [json.dumps(trace_to_doc(top_c(inst, c))) for inst in instances for c in range(1, 8)]
    return hashlib.sha256("\n".join(docs).encode()).hexdigest()


def test_top_c_traces_match_their_digest():
    # max_bid 2 gives tied bids, empty rows and one-bidder rows, so the digest
    # fixes which tied keyword is chosen and which tied bidders form the pair
    instances = [random_2paa(6, 5, 2, 1, seed=s) for s in range(64)]
    assert _top_c_digest(instances) == "fb5ef872394e4a3977088ae5d36c68ea714d6090fc103526fcad75a3bce499c9"


def test_top_c_traces_with_one_bidder_match_their_digest():
    # one bidder, so no lead has a second; then one id listed twice, alone and
    # beside a second bidder
    instances = [random_2paa(6, 1, 2, 1, seed=s) for s in range(16)]
    instances.append(Instance(("u", "w"), (("a", 5), ("a", 5)), {("u", "a"): 3, ("w", "a"): 2}))
    instances.append(
        Instance(("u", "w"), (("a", 5), ("a", 5), ("b", 4)), {("u", "a"): 3, ("w", "a"): 2, ("w", "b"): 2})
    )
    assert _top_c_digest(instances) == "7de23a1d1c33009b56348fa074172a7a3728e8e8fefee2270d0df34b8c32b317"


# ----------------------------------------------------------------------
# reverse_match


def test_reverse_match_assigns_both_when_down_edges_exist():
    inst = unit_instance({"u1": ["v1", "v2"], "u2": ["v2", "v3"]})
    trace = reverse_match(inst)
    assert trace.value == 2
    assert trace.prices() == (1, 1)


def test_reverse_match_sacrifices_a_matched_keyword_when_forced():
    # both keywords see the same pair, so the later one steals the
    # earlier one's partner as its second price
    inst = unit_instance({"u1": ["v1", "v2"], "u2": ["v1", "v2"]})
    trace = reverse_match(inst)
    assert trace.value == 1
    # the augmenting-path matching is {u1: v2, u2: v1}; u2 survives
    assert trace.actions() == (SKIP, Assign("v1", "v2"))
    assert opt_2pm(inst).value == 1


def test_reverse_match_empty_edge_set():
    inst = unit_instance({"u1": [], "u2": []}, bidders=["a", "b"])
    with pytest.warns(UserWarning, match="fewer than two"):
        trace = reverse_match(inst)
    assert trace.value == 0


def test_reverse_match_drops_degree_one_keywords_with_warning():
    inst = unit_instance({"u1": ["a"], "u2": ["a", "b"], "u3": ["b", "c"]})
    with pytest.warns(UserWarning, match="dropping 1"):
        trace = reverse_match(inst)
    assert trace.prices() == (0, 1, 1)


@pytest.mark.parametrize(
    ("seed", "value", "digest"),
    [
        (1, 1578, "ff9fd0360a119107254c1ae39a52abcaf36f67cf93f36390072f9537d7fbe9b4"),
        (2, 1596, "480bb44bf38a3ac5b53cab2ae99c74c3bd55174b009d2ed8c67d49f4bd1ab206"),
    ],
)
def test_reverse_match_on_a_2000_square_matches_its_digest(seed, value, digest):
    # the matching kernel's long late searches feed the reverse walk
    trace = reverse_match(random_2pm(2000, 2000, 4 / 2000, seed=seed))
    assert trace.value == value
    assert hashlib.sha256(json.dumps(trace_to_doc(trace)).encode()).hexdigest() == digest


def test_top_c_bound_of_an_instance_without_keywords_is_zero():
    assert top_c_bound(Instance((), (("A", 1),), {}), 1) == 0


def test_reverse_match_rejects_weighted_instances():
    inst = Instance(("u",), (("A", 2), ("B", 1)), {("u", "A"): 2, ("u", "B"): 1})
    message = r"reverse_match needs an all-ones instance \(budgets 1, bids 0/1\)"
    with pytest.raises(InvalidParams, match=message):
        reverse_match(inst)


def test_reverse_match_half_matching_guarantee():
    for seed in range(150):
        inst = random_2pm(
            num_keywords=8, num_bidders=8, edge_probability=0.35, seed=seed
        )
        trace = reverse_match(inst)
        mf = max_matching(inst).size
        assert trace.value >= math.ceil(mf / 2)
        assert opt_2pm(inst).value <= 2 * trace.value
        for step in trace.steps:
            if isinstance(step.action, Assign):
                assert step.price == 1


def test_reverse_match_firsts_come_from_the_matching():
    for seed in range(40):
        inst = random_2pm(
            num_keywords=7, num_bidders=7, edge_probability=0.3, seed=seed
        )
        f = max_matching(inst)
        trace = reverse_match(inst)
        for step in trace.steps:
            if isinstance(step.action, Assign):
                assert step.action.first == f.pairs[step.keyword]


def test_reverse_match_trace_replays_identically():
    inst = random_2pm(num_keywords=6, num_bidders=6, edge_probability=0.4, seed=9)
    trace = reverse_match(inst)
    assert execute(inst, trace.actions()) == trace
    assert reverse_match(inst) == trace


def test_reverse_match_refuses_a_trace_below_half_its_matching(monkeypatch):
    import auctionlab.offline as offline

    # every keyword settled as Skip charges no price, so only the factor
    # check can see that the matching of size 2 earned nothing
    monkeypatch.setattr(offline, "execute", lambda inst, actions: execute(inst, [SKIP] * inst.m))
    inst = unit_instance({"u1": ["v1", "v2"], "u2": ["v1", "v2"]})
    with pytest.raises(InfeasibleTrace, match="value 0 is below half the matching size 2"):
        reverse_match(inst)


# ----------------------------------------------------------------------
# tables kept on an instance: max_matching and reverse_match share one
# matching, and keeping it changes nothing a caller can see


def _fresh(inst):
    return Instance(inst.keywords, inst.bidders, inst.bids)


def _visible(name, inst):
    """What `name` returns on `inst`, in a form that compares pair order."""
    if name == "max_matching":
        return list(max_matching(inst).pairs.items())
    return json.dumps(trace_to_doc(reverse_match(inst)))


def _thin():
    return unit_instance({"u1": ["a"], "u2": ["a", "b"], "u3": ["b", "c"], "u4": ["a", "c"]})


@pytest.mark.parametrize("order", [("reverse_match", "max_matching"), ("max_matching", "reverse_match")])
def test_kept_tables_change_no_result_in_either_order(order):
    instances = [random_2pm(8, 8, 0.4, seed=seed) for seed in range(12)] + [_thin()]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the thin instance's dropped keyword
        for inst in instances:
            # each call twice: a pop leaking into the kept matching shows on the repeat
            for name in order + order:
                assert _visible(name, inst) == _visible(name, _fresh(inst))


def test_reverse_match_with_a_thin_row_keeps_no_matching():
    inst = _thin()
    with pytest.warns(UserWarning, match="dropping 1"):
        reverse_match(inst)
    rows_only = _fresh(inst)
    opt_2pm(rows_only)  # builds the index rows and nothing else
    assert set(vars(inst)) == set(vars(rows_only))


def test_an_instance_with_kept_tables_equals_prints_and_pickles_as_a_fresh_one():
    inst = random_2pm(8, 8, 0.4, seed=3)
    reverse_match(inst)
    top_c_bound(inst, 2)
    fresh = _fresh(inst)
    assert set(vars(inst)) > set(vars(fresh))  # the tables are kept
    assert inst == fresh and fresh == inst
    assert repr(inst) == repr(fresh)
    assert dataclasses.fields(inst) == dataclasses.fields(fresh)
    assert pickle.loads(pickle.dumps(inst)) == fresh
    assert set(vars(dataclasses.replace(inst))) == set(vars(fresh))
    # a replaced field is matched afresh, not read from the original's tables
    backwards = dataclasses.replace(inst, keywords=inst.keywords[::-1])
    moved = Instance(inst.keywords[::-1], inst.bidders, inst.bids)
    assert list(max_matching(backwards).pairs.items()) == list(max_matching(moved).pairs.items())
    assert top_c_bound(backwards, 2) == top_c_bound(moved, 2)
