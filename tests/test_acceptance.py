"""Acceptance gate: one test and one printed verdict line per criterion.

Run with `pytest tests/test_acceptance.py -s` to see the PASS lines;
a failing criterion fails its test and prints a FAIL line.
"""

import functools
import hashlib
import itertools
import json
import math
import random
import warnings
from contextlib import nullcontext
from fractions import Fraction

import pytest

from auctionlab import (
    SKIP,
    Assign,
    BudgetState,
    Instance,
    OnlinePolicy,
    OrderingViolation,
    adversary_vs_policy,
    effective_bid,
    execute,
    extract_vertex_cover,
    first_available,
    gap_instance,
    gap_witness_actions,
    greedy_2pm,
    left_k_copy,
    max_matching,
    normalize_first_price,
    opt_1paa,
    opt_2paa,
    opt_2pm,
    partition_to_2paa,
    r_min,
    random_2paa,
    random_2pm,
    random_construction,
    ranking_1p,
    ranking_simulate,
    ranking_sum_bound,
    reverse_match,
    run_experiment,
    run_online,
    sample_chain,
    skip_all,
    to_first_price_bids,
    unit_instance,
    vc_to_2pm,
    yes_strategy,
)
from auctionlab.formats import instance_to_doc, trace_to_doc
from shared import simulate_match_probabilities, without_thin_keywords


def _verdict(criterion: int, description: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {description}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_1_exact_semantics():
    ok = effective_bid(6, 3) == 3
    inst = Instance(("u",), (("A", 8), ("B", 8)), {("u", "A"): 4, ("u", "B"): 3})
    trace = execute(inst, [Assign("A", "B")])
    ok = ok and trace.prices() == (3,)
    ok = ok and trace.final_budgets == {"A": 5, "B": 8}
    _verdict(1, "effective bid truncation and second-price settlement", ok)


def test_criterion_2_reverse_match_factor():
    violations = 0
    for trial in range(1000):
        size_rng = random.Random(9000 + trial)
        m = size_rng.randint(1, 10)
        n = size_rng.randint(2, 10)
        p = size_rng.uniform(0.1, 0.6)
        inst = random_2pm(m, n, p, seed=trial)
        value = reverse_match(inst).value
        opt = opt_2pm(inst).value
        mf = max_matching(inst).size
        if opt > 2 * value or value < math.ceil(mf / 2):
            violations += 1
    _verdict(
        2,
        f"half-matching guarantee on 1000 random instances (violations={violations})",
        violations == 0,
    )


# SHA-256 over every enumerated instance's reverse_match run: its actions and
# the text of its warnings, one line per instance in enumeration order
REVERSE_MATCH_3X3_DIGEST = "1bc8804e492fd92ccf1e8c3343a92b90f3c2c282ddc5cdca45a6a988b968cd08"
REVERSE_MATCH_4X4_DIGEST = "03cd22a1368caff41bad511ca3feb0422833098194ebd1e91f73615718cc5d34"


def _digest_run(digest, trace, caught):
    warned = [str(w.message) for w in caught]
    digest.update(f"{trace.actions()!r} {warned!r}\n".encode())


def test_criterion_2_reverse_match_factor_exhaustive():
    # every labelled 0/1 instance with keywords u0..u2 and bidders v0..v2;
    # reverse_match drops keywords with fewer than two bidders, so its floor
    # is half the matching over the others, not over the whole instance
    bidders = ("v0", "v1", "v2")
    rows = [c for r in range(4) for c in itertools.combinations(bidders, r)]
    checked = floor_failures = whole_floor_failures = tight = 0
    ok = True
    digest = hashlib.sha256()
    for chosen in itertools.product(rows, repeat=3):
        inst = unit_instance(
            {f"u{i}": list(row) for i, row in enumerate(chosen)}, bidders=bidders
        )
        thin = any(len(row) < 2 for row in chosen)
        with pytest.warns(UserWarning, match="fewer than two") if thin else nullcontext() as caught:
            trace = reverse_match(inst)
        _digest_run(digest, trace, caught or [])
        value = trace.value
        opt = opt_2pm(inst).value
        mf = max_matching(without_thin_keywords(inst)).size
        ok = ok and opt <= 2 * value
        floor_failures += value < math.ceil(mf / 2)
        whole_floor_failures += value < math.ceil(max_matching(inst).size / 2)
        tight += opt == 2 * value > 0
        checked += 1
    ok = ok and (checked, floor_failures, whole_floor_failures, tight) == (512, 0, 144, 24)
    ok = ok and digest.hexdigest() == REVERSE_MATCH_3X3_DIGEST
    _verdict(
        2,
        f"OPT <= 2 value and value >= half the two-bidder matching on all {checked} "
        f"3x3 instances ({tight} tight; {whole_floor_failures} below half the whole "
        "instance's matching)",
        ok,
    )


def test_criterion_2_reverse_match_factor_every_4x4_class():
    # every 0/1 instance with 4 keywords and 4 bidders up to bidder
    # relabeling: a multiset of bidder columns, each a subset of the keywords.
    # reverse_match breaks ties by bidder index, so this is one labelling per
    # class, not every labelled instance.  A class is tight when OPT = 2 value > 0
    bidders = ("v0", "v1", "v2", "v3")
    checked = tight = 0
    ok = True
    digest = hashlib.sha256()
    for columns in itertools.combinations_with_replacement(range(16), 4):
        rows = {f"u{i}": [v for v, col in zip(bidders, columns) if col >> i & 1] for i in range(4)}
        inst = unit_instance(rows, bidders=bidders)
        thin = sum(len(row) < 2 for row in rows.values())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            trace = reverse_match(inst)
        _digest_run(digest, trace, caught)
        value = trace.value
        dropped = [f"dropping {thin} keyword(s) with fewer than two bidders"] if thin else []
        ok = ok and [str(w.message) for w in caught] == dropped
        opt = opt_2pm(inst).value
        mf = max_matching(without_thin_keywords(inst)).size
        ok = ok and opt <= 2 * value and value >= math.ceil(mf / 2)
        tight += opt == 2 * value > 0
        checked += 1
    ok = ok and (checked, tight) == (3876, 31)
    ok = ok and digest.hexdigest() == REVERSE_MATCH_4X4_DIGEST
    _verdict(
        2,
        f"OPT <= 2 value and value >= half the two-bidder matching on all {checked} "
        f"4x4 classes up to bidder relabeling ({tight} tight)",
        ok,
    )


def _connected_graphs_up_to_4():
    for n in range(1, 5):
        vertices = tuple(f"v{i}" for i in range(1, n + 1))
        candidates = list(itertools.combinations(vertices, 2))
        for bits in range(1 << len(candidates)):
            edges = tuple(e for i, e in enumerate(candidates) if bits >> i & 1)
            adj = {v: set() for v in vertices}
            for s, t in edges:
                adj[s].add(t)
                adj[t].add(s)
            seen = {vertices[0]}
            frontier = [vertices[0]]
            while frontier:
                for w in adj[frontier.pop()]:
                    if w not in seen:
                        seen.add(w)
                        frontier.append(w)
            if len(seen) == n:
                yield vertices, edges


def _brute_vertex_cover(vertices, edges):
    for size in range(len(vertices) + 1):
        for chosen in itertools.combinations(vertices, size):
            picked = set(chosen)
            if all(s in picked or t in picked for s, t in edges):
                return size
    raise AssertionError("unreachable")


def test_criterion_3_vertex_cover_identity():
    graphs = list(_connected_graphs_up_to_4())
    ok = len(graphs) == 44
    for vertices, edges in graphs:
        gadget = vc_to_2pm(vertices, edges)
        opt_vc = _brute_vertex_cover(vertices, edges)
        best = opt_2pm(gadget.instance)
        if best.value != gadget.identity_value(opt_vc):
            ok = False
            break
        cover = extract_vertex_cover(gadget, best.witness)
        if len(cover) != opt_vc:
            ok = False
            break
        if not all(s in cover or t in cover for s, t in edges):
            ok = False
            break
    _verdict(
        3,
        f"2|V|+|E|-OPT_VC identity and cover extraction on {len(graphs)} connected graphs",
        ok,
    )


def _paying_action_sequences(instance):
    """Every legal action sequence of an all-ones instance that charges only 1s.

    A zero-price assignment leaves the budgets as Skip does, so these are
    all the feasible traces up to such assignments.  Depth-first order:
    Skip first, then ordered pairs of solvent neighbors in bidder-index order.
    """
    keywords = instance.keywords

    def walk(t, budgets, actions):
        if t == len(keywords):
            yield actions
            return
        yield from walk(t + 1, budgets, actions + [SKIP])
        row = [v for v in instance.positive_bids(keywords[t]) if budgets[v]]
        for first, second in itertools.permutations(row, 2):
            yield from walk(t + 1, {**budgets, first: 0}, actions + [Assign(first, second)])

    yield from walk(0, instance.initial_budgets(), [])


# SHA-256 over the sorted covers extracted from every paying trace, one line each
VC_TRACE_COVERS = {
    "edge": (193, 9, "117c71d0bbcd4cd9235d53874467b6e096b810b8d7b73e229f2f429ba1b32ac9"),
    "path": (5183, 243, "beb3a78fb4806d8e1eb47c91599e4a34ca56b21fef209820d3cd7fecdbad4315"),
    "triangle": (
        18815, 783, "2c248f9063222a50a5ce6f59002841e21327440679070a1e01d397378883cbfd"
    ),
}


def test_criterion_3_cover_from_every_paying_trace():
    # the approximation-preserving half of the reduction: every feasible
    # trace, not only an optimal one, maps to a cover no larger than
    # 2|V| + |E| - value.  A trace is "contested" when an unpaid edge
    # keyword has both endpoints charged by their h keywords
    graphs = {
        "edge": (("a", "b"), (("a", "b"),)),
        "path": (("a", "b", "c"), (("a", "b"), ("b", "c"))),
        "triangle": (("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c"))),
    }
    ok = True
    for name, (vertices, edges) in graphs.items():
        gadget = vc_to_2pm(vertices, edges)
        traces = contested = 0
        digest = hashlib.sha256()
        for actions in _paying_action_sequences(gadget.instance):
            trace = execute(gadget.instance, actions)
            cover = extract_vertex_cover(gadget, trace)
            ok = ok and all(s in cover or t in cover for s, t in edges)
            ok = ok and len(cover) <= 2 * len(vertices) + len(edges) - trace.value
            paid = {s.keyword: s.action.first for s in trace.steps if s.price == 1}
            charged = {v for v in vertices if paid.get(gadget.h_keywords[v]) == v}
            contested += any(
                gadget.edge_keywords[e] not in paid and set(e) <= charged for e in edges
            )
            digest.update((",".join(sorted(cover)) + "\n").encode())
            traces += 1
        ok = ok and (traces, contested, digest.hexdigest()) == VC_TRACE_COVERS[name]
    _verdict(
        3,
        "a cover of size <= 2|V|+|E|-value from each of the 193 one-edge, 5183 "
        "path-gadget and 18815 triangle-gadget traces that charge only 1s",
        ok,
    )


def test_criterion_4_partition_gadget():
    yes = partition_to_2paa((1, 1), c=1)
    trace = yes_strategy(yes, {1})
    ok = trace.value == 72 == yes.yes_value

    state = BudgetState.start(yes.instance)
    for step in trace.steps[: yes.n]:
        state.settle(yes.instance.positive_bids(step.keyword), step.action)
    ok = ok and state.remaining["d1"] == state.remaining["d2"] == yes.d_checkpoint == 1
    for step in trace.steps[yes.n : yes.n + 2]:
        state.settle(yes.instance.positive_bids(step.keyword), step.action)
    ok = ok and state.remaining["f"] == yes.f_checkpoint == 16

    no = partition_to_2paa((1, 3), c=1)
    ok = ok and no.no_threshold == 64
    ok = ok and opt_2paa(no.instance).value < no.no_threshold
    _verdict(4, "yes replay hits 72 with checkpoints; no-instance optimum < 64", ok)


def test_criterion_4_partition_gadget_exhaustive():
    # every weight multiset over 1..4 with 2, 4 or 6 items, for c = 1 and 2
    gadgets = yes = 0
    ok = True
    for size in (2, 4, 6):
        for weights in itertools.combinations_with_replacement(range(1, 5), size):
            balanced = any(
                2 * sum(half) == sum(weights)
                for half in itertools.combinations(weights, size // 2)
            )
            for c in (1, 2):
                gadget = partition_to_2paa(weights, c)
                value = opt_2paa(gadget.instance).value
                gadgets += 1
                yes += balanced
                if balanced:
                    ok = ok and value == gadget.yes_value
                else:
                    ok = ok and value < gadget.no_threshold
    ok = ok and (gadgets, yes) == (258, 102)
    _verdict(
        4,
        f"OPT = yes value exactly on the {yes} balanced of {gadgets} gadgets, "
        "below the no threshold on the rest",
        ok,
    )


def test_criterion_5_ranking_kcopy_bound():
    report, _ = run_experiment("ranking-kcopy", trials=2000, seed=42)
    ok = report.passed and report.bound == ranking_sum_bound(6, 2)
    _verdict(
        5,
        f"2-copy ranking mean {float(report.mean):.4f} >= "
        f"{float(report.bound):.4f} - 3se on 2000 seeds",
        ok,
    )


def test_criterion_6a_match_probability_halving_exhaustive():
    bidders = ("a", "b", "c")
    rows = [c for r in (1, 2, 3) for c in itertools.combinations(bidders, r)]
    checked = 0
    ok = True
    for m in (1, 2, 3):
        for chosen in itertools.product(rows, repeat=m):
            inst = unit_instance(
                {f"u{i + 1}": list(row) for i, row in enumerate(chosen)},
                bidders=bidders,
            )
            # RankingSimulate skips thin keywords, so its reference is
            # 2-copy Ranking on the instance without them
            doubled = left_k_copy(without_thin_keywords(inst), 2).instance
            for sigma in itertools.permutations(bidders):
                two_copy = set(
                    run_online(doubled, ranking_1p(sigma=sigma)).pairs.values()
                )
                probs = simulate_match_probabilities(inst, sigma)
                for v in bidders:
                    want = Fraction(1, 2) if v in two_copy else Fraction(0)
                    if probs[v] != want:
                        ok = False
            checked += 1
    _verdict(
        6,
        f"(a) Pr(matched) = half of 2-copy ranking on all {checked} instances "
        "with <= 3 keywords",
        ok,
    )


def test_criterion_6b_ranking_simulate_bound():
    report, _ = run_experiment("ranking-simulate", params={"n": 8}, trials=2000, seed=42)
    ok = report.passed and report.bound == ranking_sum_bound(8, 2) / 4
    _verdict(
        6,
        f"(b) simulate mean {float(report.mean):.4f} >= "
        f"{float(report.bound):.4f} - 3se on 2000 seeds",
        ok,
    )


def test_criterion_6c_ranking_simulate_exact_ratio_on_three_keywords():
    # every labelled 0/1 instance with keywords u1..u3 and bidders a, b, c;
    # a run reads at most three coins and leaves the spare ones unread, so
    # each (sigma, coin sequence) path has weight 1/48 and E is exact
    bidders = ("a", "b", "c")
    rows = [c for r in range(4) for c in itertools.combinations(bidders, r)]
    paths = list(
        itertools.product(
            itertools.permutations(bidders), itertools.product((0, 1), repeat=3)
        )
    )
    checked, worst, ok = 0, None, True
    for chosen in itertools.product(rows, repeat=3):
        inst = unit_instance(
            {f"u{i + 1}": list(row) for i, row in enumerate(chosen)}, bidders=bidders
        )
        opt = opt_2pm(inst).value
        if opt == 0:
            continue
        total = sum(
            run_online(inst, ranking_simulate(sigma=sigma, coins=coins)).value
            for sigma, coins in paths
        )
        mean = Fraction(total, len(paths))
        ok = ok and 5083 * mean >= 1000 * opt
        worst = mean / opt if worst is None else min(worst, mean / opt)
        checked += 1
    ok = ok and checked == 448
    _verdict(
        6,
        f"(c) exact E >= OPT / 5.083 on all {checked} three-keyword instances "
        f"with OPT > 0 (worst E/OPT = {worst})",
        ok,
    )


def test_criterion_7_greedy_chain_expectation():
    report, _ = run_experiment("greedy-chain", trials=10_000, seed=42)
    ok = report.passed and report.bound == Fraction(5)
    _verdict(
        7,
        f"chain greedy mean {float(report.mean):.4f} within 3se of 5 on 10000 draws",
        ok,
    )


def test_criterion_7_greedy_chain_expectation_exact():
    # the m - 1 coins of a chain are fair and independent, so the mean over
    # every coin sequence is the expectation itself
    means = {
        m: Fraction(
            sum(
                run_online(sample_chain(m, coins=coins).instance, greedy_2pm()).value
                for coins in itertools.product((0, 1), repeat=m - 1)
            ),
            2 ** (m - 1),
        )
        for m in range(1, 13)
    }
    ok = all(mean == Fraction(m + 1, 2) for m, mean in means.items())
    _verdict(7, "chain greedy E = (m+1)/2 exactly over every coin sequence, m = 1..12", ok)


def _chain_online_optimum(m: int) -> Fraction:
    """The best expected value of any deterministic online algorithm on the
    m-keyword chain.

    Only the current pair's bidders bid again, and its fresh bidder is
    uncharged, so the state is (keywords left, whether the inherited bidder
    is charged).  A charged inherited bidder sets no price and can pay none;
    from a free pair either bidder can be charged 1, and either way the next
    keyword inherits a charged or a free bidder with probability 1/2.
    """
    free = charged = Fraction(0)
    for _ in range(m):
        average = (free + charged) / 2
        free, charged = max(free, 1 + average), average
    return free


def _chain_expectimax(m: int) -> Fraction:
    """The same optimum by expectimax over explicit coin histories, settling
    Skip and both orders of each keyword's pair through BudgetState.settle.
    Any other action charges 0 and changes no budget: a price needs a second
    bidder with a positive bid and budget, and a first bidder at least as
    high."""

    @functools.lru_cache(maxsize=None)
    def keyword(coins: tuple[int, ...]):
        # keyword t's pair depends only on the first t coins
        t = len(coins)
        sample = sample_chain(m, coins=coins + (0,) * (m - 1 - t))
        return sample.pairs[t], sample.instance.positive_bids(sample.instance.keywords[t])

    def best(coins: tuple[int, ...], remaining: dict) -> Fraction:
        t = len(coins)
        (first, second), bids = keyword(coins)
        values = []
        for action in (SKIP, Assign(first, second), Assign(second, first)):
            state = BudgetState(dict(remaining), t)
            try:
                value = Fraction(state.settle(bids, action))
            except OrderingViolation:
                continue
            if t + 1 < m:
                after = state.remaining
                value += (best(coins + (0,), after) + best(coins + (1,), after)) / 2
            values.append(value)
        return max(values)

    return best((), {f"b{i}": 1 for i in range(1, m + 2)})


def test_criterion_7_no_online_algorithm_beats_half_on_the_chain():
    sizes = (*range(1, 13), 20, 100, 400)
    ok = all(_chain_online_optimum(m) == Fraction(m + 1, 2) for m in sizes)
    ok = ok and all(_chain_expectimax(m) == _chain_online_optimum(m) for m in range(1, 7))
    # OPT = m on every draw: each price is at most 1 and the witness earns m
    for m in range(1, 11):
        for coins in itertools.product((0, 1), repeat=m - 1):
            sample = sample_chain(m, coins=coins)
            ok = ok and execute(sample.instance, sample.witness_actions).value == m
    # Yao's principle: a randomized online algorithm is a distribution over
    # deterministic ones, so on this distribution E[ALG] <= (m+1)/2 = OPT * (m+1)/(2m)
    _verdict(
        7,
        "no deterministic online algorithm earns more than (m+1)/2 on the chain "
        "(DP for m = 1..12, 20, 100, 400; expectimax agrees for m = 1..6) while "
        "OPT = m on every draw (m = 1..10), so every randomized online algorithm "
        "has ratio >= 2m/(m+1), 800/401 at m = 400",
        ok,
    )


def test_criterion_8_adversary_battery():
    report, records = run_experiment("adversary", params={"m_max": 6}, seed=0)
    ok = report.passed and report.violations == 0 and len(records) == 18
    for record in records:
        m = int(record.instance.rsplit("m=", 1)[1])
        ok = ok and record.value <= 1 and record.reference == m
    _verdict(8, "every battery policy earns <= 1 while OPT = m for m <= 6", ok)


class _Scripted(OnlinePolicy):
    """A deterministic policy that plays a fixed script against the adversary.

    Each entry answers one keyword: 0 skips, 1 assigns the row's first bidder
    over its second, 2 the second over the first.
    """

    deterministic = True

    def __init__(self, play):
        self.play = play

    def decide(self, step, keyword, bids, budgets):
        choice = self.play[step]
        if choice == 0:
            return SKIP
        a, b = bids
        return Assign(a, b) if choice == 1 else Assign(b, a)


def _legal_adversary_plays(m_max):
    """(play, transcript) for every legal script of length 1..m_max, depth first.

    The adversary is online, so a script's first k arrivals do not depend on
    how long the game runs: a prefix that is illegal on its own prunes every
    extension of it.
    """
    stack = [()]
    while stack:
        prefix = stack.pop()
        for choice in (2, 1, 0):  # popped in the order 0, 1, 2
            play = (*prefix, choice)
            try:
                transcript = adversary_vs_policy(_Scripted(play), len(play))
            except OrderingViolation:
                continue
            yield play, transcript
            if len(play) < m_max:
                stack.append(play)


# SHA-256 over every legal scripted play for m = 1..10 (play, trace doc and
# switch step, one line each in depth-first order), and over the battery's
# transcripts for m = 1..120 (instance doc, trace doc, final budgets and
# switch step, one line each)
ADVERSARY_PLAYS_DIGEST = "538b3acbf082cd64c5463a543eec30b39c881e76d8efa979a607aad702f5233d"
ADVERSARY_BATTERY_DIGEST = "7b7345c01c9817c9fed36389151f8532e2d8c76e5d4b7e6f28b94097ed768763"


def test_criterion_8_adversary_beats_every_deterministic_policy():
    # against the adaptive adversary a deterministic policy is one path
    # through the game tree: Skip or one of the two ordered pairs per
    # keyword, so the legal scripts cover every deterministic policy (an
    # assignment outside the row charges 0 and plays as a skip does)
    plays = [0] * 11
    optima = {}
    ok = True
    digest = hashlib.sha256()
    for play, transcript in _legal_adversary_plays(10):
        m, switch = len(play), transcript.switch_step
        plays[m] += 1
        # the instance depends only on m, the switch step and the charged
        # bidder, and not on the charged bidder at a switch on the last
        # keyword, so there are 2m - 1 instances for each m
        key = json.dumps(instance_to_doc(transcript.instance))
        if key not in optima:
            optima[key] = opt_2pm(transcript.instance).value
        ok = ok and transcript.policy_value <= 1 and optima[key] == m
        doc = json.dumps([play, trace_to_doc(transcript.trace), switch])
        digest.update((doc + "\n").encode())
    ok = ok and plays[1:] == [2 ** (m + 1) - 1 for m in range(1, 11)]
    ok = ok and len(optima) == sum(2 * m - 1 for m in range(1, 11))
    ok = ok and digest.hexdigest() == ADVERSARY_PLAYS_DIGEST

    battery = hashlib.sha256()
    for make in (greedy_2pm, skip_all, first_available):
        for m in range(1, 121):
            transcript = adversary_vs_policy(make(), m)
            doc = json.dumps(
                [
                    instance_to_doc(transcript.instance),
                    trace_to_doc(transcript.trace),
                    list(transcript.trace.final_budgets.items()),
                    transcript.switch_step,
                ]
            )
            battery.update((doc + "\n").encode())
    ok = ok and battery.hexdigest() == ADVERSARY_BATTERY_DIGEST
    _verdict(
        8,
        f"all {sum(plays)} legal deterministic plays for m = 1..10 earn <= 1 while "
        "OPT = m; the battery's transcripts for m = 1..120 are pinned",
        ok,
    )


def test_criterion_9_random_construction_eighth():
    report, _ = run_experiment("random-construction", trials=20_000, seed=42)
    ok = report.passed and report.trials == 20_000
    _verdict(
        9,
        f"construction mean {float(report.mean):.4f} >= "
        f"{float(report.bound):.4f} - 3se on 20000 seeds",
        ok,
    )


def _construction_expectation(instance_seed: int) -> tuple[Fraction, Fraction]:
    """E[random_construction] over every marking, and 1/8 of the first-price
    optimum, on the random-construction suite's default instance shape."""
    instance = random_2paa(5, 5, 9, 1, seed=instance_seed)
    prime = to_first_price_bids(instance)
    best = opt_1paa(prime)
    alloc = normalize_first_price(prime, best.witness)
    ids = instance.bidder_ids
    total = sum(
        random_construction(instance, alloc, marked=itertools.compress(ids, bits)).value
        for bits in itertools.product((0, 1), repeat=len(ids))
    )
    return Fraction(total, 2 ** len(ids)), Fraction(best.value, 8)


def test_criterion_9_random_construction_eighth_exact():
    # each bidder is marked by a fair coin of its own, so the mean over all
    # 2**5 markings is the expectation itself; the claim holds per instance
    ok = _construction_expectation(0) == (Fraction(29, 4), Fraction(15, 4))
    ok = ok and all(e >= target for e, target in map(_construction_expectation, range(20)))
    _verdict(
        9,
        "construction E = 29/4 >= 15/4 exactly over all 32 markings; E >= 1/8 OPT "
        "for instance seeds 0..19",
        ok,
    )


def test_criterion_10_top_c_and_gap():
    report, _ = run_experiment("top-c", trials=500, seed=42)
    ok = report.passed and report.violations == 0
    for c in (1, 2, 3):
        for k in (2, 3, 4, 5, 6):
            inst = gap_instance(c, k)
            value = execute(inst, gap_witness_actions(c, k)).value
            ok = ok and value > c * k * (k - 1) and r_min(inst) >= c
    _verdict(10, "top-c bound holds on 500 instances; gap replays beat ck(k-1)", ok)
