"""Exact auction semantics: effective bids, settlement, validation, r_min."""

import dataclasses
import io
import pickle
import random
import re
from collections import namedtuple
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from auctionlab import (
    SKIP,
    Assign,
    BudgetState,
    Instance,
    NoPositiveBids,
    OrderingViolation,
    PolicyViolation,
    SameBidder,
    Skip,
    TraceStep,
    UnknownId,
    effective_bid,
    execute,
    first_price_value,
    r_min,
    to_first_price_bids,
    unit_instance,
    validate,
)
from auctionlab.formats import dump_instance, instance_to_doc
from shared import shuffled_parts


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


def test_same_bidder_message_names_the_bidder():
    with pytest.raises(SameBidder, match="^" + re.escape("first and second bidder are both 'a'") + "$"):
        Assign("a", "a")


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


def test_execute_refuses_an_entry_that_is_not_an_action():
    with pytest.raises(PolicyViolation, match=r"^policy returned \('A', 'B'\), not an action$"):
        execute(one_keyword_instance(), [("A", "B")])


def test_settle_refuses_a_non_action_and_keeps_its_state():
    inst = one_keyword_instance()
    state = BudgetState.start(inst)
    with pytest.raises(PolicyViolation, match="^policy returned None, not an action$"):
        state.settle(inst.positive_bids("u"), None)
    assert state.remaining == {"A": 8, "B": 8}
    assert state.step == 0


@pytest.mark.parametrize(
    "first, second, unknown", [("X", "B", "X"), ("A", "Y", "Y"), ("X", "Y", "X")]
)
def test_settle_names_the_first_unknown_bidder_and_keeps_its_state(first, second, unknown):
    inst = one_keyword_instance()
    state = BudgetState.start(inst)
    with pytest.raises(UnknownId, match=f"^unknown bidder '{unknown}'$"):
        state.settle(inst.positive_bids("u"), Assign(first, second))
    assert state.remaining == {"A": 8, "B": 8}
    assert state.step == 0


def two_step_trace():
    inst = Instance(
        ("u1", "u2"),
        (("A", 8), ("B", 8)),
        {("u1", "A"): 4, ("u1", "B"): 3, ("u2", "B"): 2},
    )
    return execute(inst, [Assign("A", "B"), SKIP])


def test_trace_repr_names_every_step_field():
    assert repr(two_step_trace()) == (
        "AuctionTrace(steps=(TraceStep(keyword='u1', action=Assign(first='A', second='B'), "
        "price=3), TraceStep(keyword='u2', action=Skip(), price=0)), value=3, "
        "final_budgets={'A': 5, 'B': 8})"
    )


def test_equal_steps_and_actions_are_equal_and_hash_alike():
    assert Assign("A", "B") == Assign("A", "B") and Assign("A", "B") != Assign("B", "A")
    assert hash(Assign("A", "B")) == hash(Assign("A", "B"))
    step = TraceStep("u1", Assign("A", "B"), 3)
    assert step == TraceStep("u1", Assign("A", "B"), 3)
    assert hash(step) == hash(TraceStep("u1", Assign("A", "B"), 3))
    assert step != TraceStep("u1", Assign("A", "B"), 2)
    assert step != TraceStep("u1", SKIP, 3)
    assert two_step_trace() == two_step_trace()
    assert two_step_trace().steps[0] == step


@pytest.mark.parametrize(
    "item, field",
    [(Assign("A", "B"), "first"), (Assign("A", "B"), "second"), (SKIP, "first")]
    + [(TraceStep("u1", SKIP, 0), name) for name in ("keyword", "action", "price")],
)
def test_steps_and_actions_refuse_assignment(item, field):
    with pytest.raises(AttributeError):
        setattr(item, field, "C")


def test_trace_survives_a_pickle_round_trip():
    trace = two_step_trace()
    again = pickle.loads(pickle.dumps(trace))
    assert again == trace and repr(again) == repr(trace)
    assert type(again.steps[0]) is TraceStep and type(again.steps[0].action) is Assign
    assert pickle.loads(pickle.dumps(Assign("A", "B"))) == Assign("A", "B")


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


@pytest.mark.parametrize("view, args", [("bid", ("z", "A")), ("positive_bids", ("z",))])
def test_views_refuse_an_unknown_keyword(view, args):
    with pytest.raises(UnknownId, match="^unknown keyword 'z'$"):
        getattr(one_keyword_instance(), view)(*args)


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


@pytest.mark.parametrize(
    "bids, error",
    [
        ({("z", "A"): 1}, "bid references unknown keyword 'z'"),
        ({("u", "A"): -1}, "negative bid ('u', 'A'): -1"),
    ],
    ids=["unknown-keyword", "negative-bid"],
)
def test_validate_names_a_bid_on_an_unknown_keyword_and_a_negative_bid(bids, error):
    assert validate(Instance(("u",), (("A", 1),), bids)).errors == (error,)


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
    """The bid map built entry by entry: every entry rebuilt in order under a
    (keyword, bidder) tuple key, with the money check per amount.  A key that
    is not a 2-item tuple is refused: ValueError for a sequence or set of the
    wrong shape, TypeError for anything that cannot be iterated."""
    bids = {}
    for key, a in dict(raw).items():
        if not isinstance(key, tuple) or len(key) != 2:
            error = ValueError if isinstance(key, (str, tuple, frozenset)) else TypeError
            raise error(f"bid key {key!r} is not a (keyword, bidder) tuple")
        u, v = key
        if isinstance(a, bool) or not isinstance(a, int):
            raise TypeError(f"bid ({u!r}, {v!r}) must be an int, got {a!r}")
        bids[(u, v)] = a
    return bids


Pair = namedtuple("Pair", "keyword bidder")

# keys that are not plain pairs: a namedtuple is stored as a plain pair; a
# 2-char string, a 2-item frozenset and the others are refused
_ODD_KEYS = st.sampled_from(
    ["uv", "bad", frozenset({"u", "v"}), ("u",), ("u", "v0", "x"), Pair("u1", "v1"), 7]
)
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
            and effective_bid(bids.get(f, 0), state.remaining[f])
            >= effective_bid(bids.get(s, 0), state.remaining[s])
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
            assert step.price <= effective_bid(bids.get(f, 0), state.remaining[f])
            assert step.price == effective_bid(bids.get(s, 0), state.remaining[s])
            paid[f] += step.price
        else:
            assert step.price == 0
        state.settle(bids, step.action)
    for v in inst.bidder_ids:
        assert trace.final_budgets[v] == inst.budget_of(v) - paid[v]
        assert trace.final_budgets[v] >= 0

    again = execute(inst, actions)
    assert again == trace


def regrouped_rows(instance):
    """The row table by the sort-per-row rule: each row's positive bids on
    known ids regrouped as (bidder index, bidder, amount) and sorted."""
    index = {v: i for i, (v, _) in enumerate(instance.bidders)}
    groups = {u: [] for u in instance.keywords}
    for (u, v), a in instance.bids.items():
        if a > 0 and u in groups and v in index:
            groups[u].append((index[v], v, a))
    return {u: [(v, a) for _, v, a in sorted(row)] for u, row in groups.items()}


_ROW_BIDDERS = (("v0", 1), ("v1", 1), ("v2", 1))


@settings(max_examples=400, deadline=None)
@given(shuffled_parts())
# a row interrupted by another keyword's bids, then out of index order
@example((["u1", "u2"], _ROW_BIDDERS, {("u1", "v2"): 1, ("u2", "v1"): 1, ("u1", "v1"): 1}))
# a row revisited after another keyword's bids, still in index order
@example((["u1", "u2"], _ROW_BIDDERS, {("u1", "v1"): 1, ("u2", "v0"): 1, ("u1", "v2"): 1}))
def test_instance_rows_follow_the_sort_per_row_rule(parts):
    inst = Instance(*parts)
    expected = regrouped_rows(inst)
    assert list(inst._rows) == list(expected)
    for u, row in inst._rows.items():
        assert list(row.items()) == expected[u]


def _unread(instance):
    return "_rows" not in vars(instance)


@settings(max_examples=200, deadline=None)
@given(shuffled_parts())
def test_rows_are_built_only_on_first_read(parts):
    inst = Instance(*parts)
    assert _unread(inst)
    assert inst == Instance(*parts)
    repr(inst)
    again = pickle.loads(pickle.dumps(inst))
    assert again == inst and _unread(again)
    assert _unread(dataclasses.replace(inst))
    assert _unread(dataclasses.replace(inst, keywords=inst.keywords[::-1]))
    instance_to_doc(inst)
    dump_instance(inst, io.StringIO())
    assert _unread(inst)
    assert _unread(to_first_price_bids(inst))  # the original's rows are read, not its output's


def test_rows_are_built_once_and_later_reads_skip_the_descriptor(monkeypatch):
    descriptor = Instance._rows  # read on the class, the descriptor itself
    builds, build = [], descriptor.build
    monkeypatch.setattr(descriptor, "build", lambda inst: builds.append(inst) or build(inst))
    inst = unit_instance({"u1": ["a", "b"], "u2": ["b"]})
    for _ in range(3):
        assert inst.neighbors("u1") == ("a", "b") and inst.bid("u2", "b") == 1
    assert builds == [inst]
    # each instance builds its own rows at its own first read
    assert unit_instance({"u1": ["a", "b"]}).neighbors("u1") == ("a", "b") and len(builds) == 2


def _outcome(read, instance):
    try:
        return read(instance)
    except UnknownId as error:
        return UnknownId, str(error)


_ROW_READS = [
    *(lambda inst, u=u: list(inst.positive_bids(u).items()) for u in ("u0", "u3", "x")),
    *(lambda inst, u=u: inst.neighbors(u) for u in ("u0", "u3", "x")),
    *(lambda inst, u=u, v=v: inst.bid(u, v) for u in ("u0", "u3", "x") for v in ("v0", "v8")),
    *(lambda inst, w=w: first_price_value(inst, w)
      for w in ({}, {"u0": "v0"}, {"u1": "v1", "u0": "v2"}, {"x": "v0"}, {"u2": "v8"})),
]


@settings(max_examples=200, deadline=None)
@given(shuffled_parts())
# a unit instance whose keyword u1 is thin, so validate warns
@example((["u0", "u1"], _ROW_BIDDERS[:2], {("u0", "v1"): 1, ("u0", "v0"): 1, ("u1", "v0"): 1}))
def test_a_first_read_gives_what_a_later_read_gives(parts):
    keywords, bidders, bids = parts
    unit = keywords, [(v, 1) for v, _ in bidders], {key: a % 2 for key, a in bids.items()}
    for each in (parts, unit):
        warm = Instance(*each)
        warm._rows  # read before any query
        for read in _ROW_READS:
            assert _outcome(read, Instance(*each)) == _outcome(read, warm)
        assert validate(Instance(*each)) == validate(warm)
