"""Exact auction semantics: effective bids, settlement, validation, r_min."""

import random
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    SKIP,
    Assign,
    BudgetState,
    Instance,
    NoPositiveBids,
    OrderingViolation,
    SameBidder,
    Skip,
    UnknownId,
    effective_bid,
    execute,
    r_min,
    unit_instance,
    validate,
)


def test_effective_bid_caps_at_remaining_budget():
    assert effective_bid(6, 3) == 3
    assert effective_bid(4, 8) == 4
    assert effective_bid(0, 5) == 0
    assert effective_bid(5, 0) == 0


def test_effective_bid_rejects_negatives_and_floats():
    with pytest.raises(ValueError):
        effective_bid(-1, 3)
    with pytest.raises(ValueError):
        effective_bid(3, -1)
    with pytest.raises(TypeError):
        effective_bid(1.5, 3)
    with pytest.raises(TypeError):
        effective_bid(True, 3)


def test_assign_rejects_same_bidder():
    with pytest.raises(SameBidder):
        Assign("A", "A")


def test_skip_is_a_singleton_value():
    assert SKIP == Skip()


def one_keyword_instance():
    return Instance(
        ("u",),
        (("A", 8), ("B", 8)),
        {("u", "A"): 4, ("u", "B"): 3},
    )


def test_single_assignment_prices_at_second_bid_and_debits_winner_only():
    trace = execute(one_keyword_instance(), [Assign("A", "B")])
    assert trace.prices() == (3,)
    assert trace.value == 3
    assert trace.final_budgets == {"A": 5, "B": 8}


def test_all_skip_leaves_budgets_unchanged():
    inst = one_keyword_instance()
    trace = execute(inst, [SKIP])
    assert trace.value == 0
    assert trace.final_budgets == inst.initial_budgets()


def test_two_keyword_truncation_example():
    # second step charges min(4, 1) = 1 because A already paid 3
    inst = Instance(
        ("u1", "u2"),
        (("A", 4), ("B", 3)),
        {("u1", "A"): 4, ("u1", "B"): 3, ("u2", "A"): 4, ("u2", "B"): 3},
    )
    trace = execute(inst, [Assign("A", "B"), Assign("B", "A")])
    assert trace.prices() == (3, 1)
    assert trace.value == 4
    assert trace.final_budgets == {"A": 1, "B": 2}


def test_ordering_violation_when_first_effectively_below_second():
    with pytest.raises(OrderingViolation):
        execute(one_keyword_instance(), [Assign("B", "A")])


def test_ordering_uses_effective_not_original_bids():
    # A bids more but its remaining budget truncates it below B
    inst = Instance(
        ("u1", "u2"),
        (("A", 5), ("B", 8), ("C", 9)),
        {("u1", "A"): 5, ("u1", "C"): 4, ("u2", "A"): 5, ("u2", "B"): 2},
    )
    trace = execute(inst, [Assign("A", "C"), Assign("B", "A")])
    # after u1, A holds 1, so eff(A) = 1 <= eff(B) = 2 and the pair is legal
    assert trace.prices() == (4, 1)


def test_zero_effective_second_is_legal_and_free():
    inst = Instance(
        ("u1", "u2"),
        (("A", 1), ("B", 1)),
        {("u1", "A"): 1, ("u1", "B"): 1, ("u2", "A"): 1, ("u2", "B"): 1},
    )
    trace = execute(inst, [Assign("A", "B"), Assign("B", "A")])
    assert trace.prices() == (1, 0)
    # the zero price charges nothing, so B keeps its budget
    assert trace.final_budgets == {"A": 0, "B": 1}


def test_execute_rejects_unknown_bidders_and_wrong_length():
    inst = one_keyword_instance()
    with pytest.raises(UnknownId):
        execute(inst, [Assign("A", "Z")])
    with pytest.raises(ValueError):
        execute(inst, [])


def test_settle_steps_advance_and_charge():
    inst = one_keyword_instance()
    state = BudgetState.start(inst)
    price = state.settle(inst.positive_bids("u"), Assign("A", "B"))
    assert price == 3
    assert state.remaining["A"] == 5
    assert state.step == 1


def test_instance_views():
    inst = one_keyword_instance()
    assert inst.m == 1
    assert inst.bidder_ids == ("A", "B")
    assert inst.bid("u", "A") == 4
    assert inst.bid("u", "B") == 3
    assert inst.positive_bids("u") == {"A": 4, "B": 3}
    assert inst.neighbors("u") == ("A", "B")
    with pytest.raises(UnknownId):
        inst.bid("u", "Z")
    with pytest.raises(UnknownId):
        inst.bidder_index("Z")


def test_unit_instance_builder():
    inst = unit_instance({"u1": ["a", "b"], "u2": ["b", "c"]})
    assert inst.is_unit()
    assert inst.bidder_ids == ("a", "b", "c")
    assert all(b == 1 for _, b in inst.bidders)
    assert inst.neighbors("u2") == ("b", "c")


def test_validate_flags_bid_exceeding_budget():
    inst = Instance(("u",), (("A", 5), ("B", 5)), {("u", "A"): 9, ("u", "B"): 1})
    report = validate(inst)
    assert not report.ok
    assert any("exceeds" in e for e in report.errors)


def test_validate_flags_duplicates_negatives_and_unknown_refs():
    dup = Instance(("u", "u"), (("A", 1), ("A", 1)), {})
    assert not validate(dup).ok
    neg = Instance(("u",), (("A", -1),), {})
    assert not validate(neg).ok
    ghost = Instance(("u",), (("A", 1),), {("u", "Z"): 1})
    assert not validate(ghost).ok


def test_validate_warns_on_degree_one_keyword_in_unit_instance():
    inst = unit_instance({"u1": ["a"], "u2": ["a", "b"]})
    report = validate(inst)
    assert report.ok
    assert any("u1" in w for w in report.warnings)


def test_validate_accepts_well_formed_instance():
    report = validate(one_keyword_instance())
    assert report.ok and not report.errors


def test_r_min_exact_fraction():
    inst = Instance(("u",), (("A", 10), ("B", 10)), {("u", "A"): 5, ("u", "B"): 2})
    assert r_min(inst) == 2
    frac = Instance(("u",), (("A", 7),), {("u", "A"): 3})
    assert r_min(frac) == Fraction(7, 3)
    ones = unit_instance({"u": ["a", "b"]})
    assert r_min(ones) == 1


def test_r_min_requires_a_positive_bid():
    with pytest.raises(NoPositiveBids):
        r_min(Instance(("u",), (("A", 3),), {}))


# Reference definitions of the row table and r_min as first written: one
# sort of every bid by bidder index, and a minimum over Fractions.  The
# packaged versions group bids per keyword and compare ratios as integers.


def sorted_rows(instance):
    index = {v: i for i, (v, _) in enumerate(instance.bidders)}
    rows = {u: {} for u in instance.keywords}
    for (u, v), a in sorted(
        instance.bids.items(), key=lambda kv: index.get(kv[0][1], len(index))
    ):
        if a > 0 and u in rows and v in index:
            rows[u][v] = a
    return rows


def fraction_r_min(instance):
    """The minimum ratio, or None without a positive bid on a known bidder."""
    best = None
    budgets = instance.initial_budgets()
    for (u, v), a in instance.bids.items():
        if a > 0 and v in budgets:
            ratio = Fraction(budgets[v], a)
            if best is None or ratio < best:
                best = ratio
    return best


_KEYWORDS = st.sampled_from(("u0", "u1", "u2", "u3"))
_BIDDERS = st.sampled_from(("v0", "v1", "v2", "v3"))


@st.composite
def raw_instances(draw):
    """Instance parts with repeated ids, bids on unknown keywords or bidders
    (u3 and v3 may be left out), and zero and negative amounts."""
    keywords = draw(st.lists(_KEYWORDS, max_size=5))
    bidders = draw(st.lists(st.tuples(_BIDDERS, st.integers(-2, 9)), max_size=5))
    bids = draw(st.dictionaries(st.tuples(_KEYWORDS, _BIDDERS), st.integers(-3, 9), max_size=14))
    return keywords, bidders, bids


@settings(max_examples=400, deadline=None)
@given(raw_instances())
def test_instance_rows_and_r_min_match_references(parts):
    keywords, bidders, bids = parts
    inst = Instance(keywords, bidders, bids)
    assert list(inst.bids.items()) == list(bids.items())
    rows = sorted_rows(inst)
    for u in inst.keywords:
        assert list(inst.positive_bids(u).items()) == list(rows[u].items())
    expected = fraction_r_min(inst)
    if expected is None:
        with pytest.raises(NoPositiveBids):
            r_min(inst)
    else:
        got = r_min(inst)
        assert type(got) is Fraction and got == expected


def copied_bids(raw):
    """The bid map as first built: every entry rebuilt in order under a
    (keyword, bidder) tuple key, with the money check per amount."""
    bids = {}
    for (u, v), a in dict(raw).items():
        if isinstance(a, bool) or not isinstance(a, int):
            raise TypeError(f"bid ({u!r}, {v!r}) must be an int, got {a!r}")
        bids[(u, v)] = a
    return bids


Pair = namedtuple("Pair", "keyword bidder")

# keys that are not plain pairs: a 2-char string and a namedtuple unpack
# into a pair, the others fail to unpack
_ODD_KEYS = st.sampled_from(["uv", "bad", ("u",), ("u", "v0", "x"), Pair("u1", "v1"), 7])
_ODD_AMOUNTS = st.sampled_from([True, 2.0, 2.5]) | st.integers(-1, 3)


@settings(max_examples=400, deadline=None)
@given(
    st.lists(
        st.tuples(st.tuples(_KEYWORDS, _BIDDERS) | _ODD_KEYS, _ODD_AMOUNTS | st.integers(-1, 3)),
        max_size=6,
    )
)
def test_instance_bids_and_errors_match_the_copied_reference(entries):
    raw = dict(entries)
    keywords, bidders = ("u", "u0", "u1", "u2"), (("v", 5), ("v0", 5), ("v1", 5))
    try:
        expected = copied_bids(raw)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            Instance(keywords, bidders, raw)
        assert str(got.value) == str(exc)
        return
    inst = Instance(keywords, bidders, raw)
    assert list(inst.bids.items()) == list(expected.items())
    assert all(type(key) is tuple for key in inst.bids)
    rows = sorted_rows(inst)
    for u in inst.keywords:
        assert list(inst.positive_bids(u).items()) == list(rows[u].items())


@pytest.mark.parametrize(
    "bids, error",
    [
        ({"bad": 1, ("u", "A"): True}, ValueError),
        ({("u", "A"): 2.0, "bad": 1}, TypeError),
        ({("u",): 1, ("u", "A"): 2.5}, ValueError),
        ({("u", "A"): False, 7: 1}, TypeError),
    ],
)
def test_first_bad_bid_entry_names_the_error(bids, error):
    with pytest.raises(error) as expected:
        copied_bids(bids)
    with pytest.raises(error) as got:
        Instance(("u",), (("A", 3),), bids)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("bad", [True, False, 2.0, 2.5])
def test_instance_rejects_bool_and_float_money(bad):
    with pytest.raises(TypeError) as budget_error:
        Instance(("u",), (("A", bad),), {})
    assert str(budget_error.value) == f"budget of 'A' must be an int, got {bad!r}"
    with pytest.raises(TypeError) as bid_error:
        Instance(("u",), (("A", 3),), {("u", "A"): bad})
    assert str(bid_error.value) == f"bid ('u', 'A') must be an int, got {bad!r}"


def test_instance_accepts_int_subclasses():
    class Cents(int):
        pass

    inst = Instance(("u",), (("A", Cents(5)), ("B", 4)), {("u", "A"): Cents(2), ("u", "B"): 1})
    assert type(inst.budget_of("A")) is Cents
    assert type(inst.bids[("u", "A")]) is Cents
    assert list(inst.positive_bids("u").items()) == [("A", 2), ("B", 1)]
    assert r_min(inst) == Fraction(5, 2)


# ----------------------------------------------------------------------
# randomized semantic invariants


def _random_instance(rng):
    m = rng.randint(1, 5)
    n = rng.randint(1, 4)
    keywords = tuple(f"u{i}" for i in range(m))
    bidders = tuple((f"v{j}", rng.randint(1, 9)) for j in range(n))
    bids = {}
    for u in keywords:
        for v, _ in bidders:
            amount = rng.randint(0, 6)
            if amount:
                bids[(u, v)] = amount
    return Instance(keywords, bidders, bids)


def _legal_actions(inst, rng):
    """Pick one legal action per keyword by replaying a shadow budget state."""
    state = BudgetState.start(inst)
    actions = []
    for u in inst.keywords:
        bids = inst.positive_bids(u)
        ids = list(inst.bidder_ids)
        pairs = [
            Assign(f, s)
            for f in ids
            for s in ids
            if f != s
            and state.effective(f, bids.get(f, 0)) >= state.effective(s, bids.get(s, 0))
        ]
        action = rng.choice([SKIP] + pairs)
        state.settle(bids, action)
        actions.append(action)
    return actions


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_execute_invariants_on_random_legal_traces(seed):
    rng = random.Random(seed)
    inst = _random_instance(rng)
    actions = _legal_actions(inst, rng)
    trace = execute(inst, actions)

    assert trace.value == sum(trace.prices())
    paid = {v: 0 for v in inst.bidder_ids}
    state = BudgetState.start(inst)
    for step in trace.steps:
        bids = inst.positive_bids(step.keyword)
        if isinstance(step.action, Assign):
            f, s = step.action.first, step.action.second
            assert step.price <= state.effective(f, bids.get(f, 0))
            assert step.price == state.effective(s, bids.get(s, 0))
            paid[f] += step.price
        else:
            assert step.price == 0
        state.settle(bids, step.action)
    for v in inst.bidder_ids:
        assert trace.final_budgets[v] == inst.budget_of(v) - paid[v]
        assert trace.final_budgets[v] >= 0

    again = execute(inst, actions)
    assert again == trace
