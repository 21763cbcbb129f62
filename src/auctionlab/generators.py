"""Instance generators: worst-case families, adversaries, and random samplers."""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from types import MappingProxyType
from typing import Sequence

from .errors import InvalidParams, NonDeterministicPolicy, _at_least
from .model import Action, Assign, AuctionTrace, BudgetState, Instance, TraceStep, _settle
from .online import OnlinePolicy


# ----------------------------------------------------------------------
# budget-reuse gap family


def gap_instance(c: int, k: int) -> Instance:
    """Family where skipping early keywords wins despite healthy budgets.

    One trigger keyword, c-1 drain keywords, and c*k harvest keywords.
    Bidder L bids k everywhere with budget c*k, so every budget-to-bid
    ratio is at least c; draining L down to k-1 makes it a cheap second
    for every harvest keyword.
    """
    if c < 1 or k < 2:
        raise InvalidParams(f"need c >= 1 and k >= 2, got c={c}, k={k}")
    trigger = "w0"
    drains = tuple(f"w{j}" for j in range(1, c))
    harvests = tuple(f"q{j}" for j in range(1, c * k + 1))
    keywords = (trigger,) + drains + harvests
    bidders = (("T", c), ("L", c * k), ("D", c * k), ("H", c * k * k))
    bids: dict[tuple[str, str], int] = {(trigger, "T"): 1}
    for u in keywords:
        bids[(u, "L")] = k
    for u in drains:
        bids[(u, "D")] = k
    for u in harvests:
        bids[(u, "H")] = k
    return Instance(keywords, bidders, bids)


def gap_witness_actions(c: int, k: int) -> list[Action]:
    """Replay achieving 1 + (c-1)k + ck(k-1): trigger, drain L, then harvest."""
    actions: list[Action] = [Assign("L", "T")]
    actions.extend(Assign("L", "D") for _ in range(c - 1))
    actions.extend(Assign("H", "L") for _ in range(c * k))
    return actions


# ----------------------------------------------------------------------
# adaptive adversary for deterministic online policies


@dataclass(frozen=True)
class AdversaryTranscript:
    """Instance built against a policy, with the policy's executed trace.

    `switch_step` is the 1-based arrival at which the policy first paid a
    positive price (None if it never did).
    """

    instance: Instance
    trace: AuctionTrace
    switch_step: int | None

    @property
    def policy_value(self) -> int:
        return self.trace.value


def adversary_vs_policy(policy: OnlinePolicy, m: int) -> AdversaryTranscript:
    """Feed m keywords adaptively so the policy earns at most 1 while OPT = m.

    Until the policy first charges a positive price, every keyword brings
    two fresh bidders.  From then on, every keyword pairs the bidder the
    policy consumed with one fresh bidder, so no later allocation can pay.
    """
    _at_least(m=(m, 1))
    if not getattr(policy, "deterministic", False):
        raise NonDeterministicPolicy("adversary requires a deterministic policy")
    if policy.kind != "auction":
        raise NonDeterministicPolicy("adversary plays the second-price game")

    return _adversary_prefix(_adversary_play(policy, m), m)


# a played adversary game: its settled steps and each keyword's bidder pair
_AdversaryPlay = tuple[tuple[TraceStep, ...], tuple[tuple[str, str], ...]]


def _adversary_play(policy: OnlinePolicy, m: int) -> _AdversaryPlay:
    """Play the adversary's m-arrival game against `policy`.

    An arrival depends only on the settled history, never on m, so the game
    of any shorter length is this game's prefix (see `_adversary_prefix`).
    """
    policy.reset((), random.Random(0))
    state = BudgetState({})
    pairs: list[tuple[str, str]] = []

    def arrivals():
        anchor = None
        for t in range(1, m + 1):
            pair = (f"a{t}", f"b{t}") if anchor is None else (anchor, f"c{t}")
            pairs.append(pair)
            for v in pair:
                state.remaining.setdefault(v, 1)
            yield f"u{t}", MappingProxyType(dict.fromkeys(pair, 1))
            if anchor is None:
                # a unit budget is spent only by the keyword its bidder won
                anchor = next((v for v in pair if not state.remaining[v]), None)

    return _settle(state, arrivals(), policy.decide).steps, tuple(pairs)


def _adversary_prefix(play: _AdversaryPlay, m: int) -> AdversaryTranscript:
    """The transcript of the first m arrivals of a `_adversary_play` game."""
    steps, pairs = play[0][:m], play[1][:m]
    remaining = dict.fromkeys((v for pair in pairs for v in pair), 1)  # first appearance
    for s in steps:
        if s.price:
            remaining[s.action.first] -= s.price
    trace = AuctionTrace(steps, sum(s.price for s in steps), remaining)
    instance = Instance(
        tuple(s.keyword for s in steps),
        tuple((v, 1) for v in remaining),
        {(s.keyword, v): 1 for s, pair in zip(steps, pairs) for v in pair},
    )
    switch = next((t for t, s in enumerate(steps, 1) if s.price), None)
    return AdversaryTranscript(instance, trace, switch)


# ----------------------------------------------------------------------
# chain distribution


@dataclass(frozen=True)
class ChainSample:
    """A chain draw: each keyword shares one endpoint with its successor.

    `pairs` holds each keyword's two bidders; `witness_actions` replays a
    perfect solution.
    """

    instance: Instance
    coins: tuple[int, ...]
    pairs: tuple[tuple[str, str], ...]
    witness_actions: tuple[Action, ...]


def sample_chain(
    m: int,
    *,
    seed: int | None = None,
    coins: Sequence[int] | None = None,
) -> ChainSample:
    """Draw an m-keyword chain; successor keywords inherit a uniform endpoint.

    Keyword 1 sees two fresh bidders; keyword i+1 sees one uniformly chosen
    bidder of keyword i plus one fresh bidder.  `coins`, when given, are the
    m - 1 choices (0 or 1, the index into keyword i's pair) used instead of
    drawn ones.
    """
    _at_least(m=(m, 1))
    if coins is not None and (len(coins) != m - 1 or any(c not in (0, 1) for c in coins)):
        raise InvalidParams(f"coins must be m - 1 = {m - 1} values of 0 or 1, got {coins!r}")
    rng = random.Random(seed)

    drawn: list[int] = []
    pairs: list[tuple[str, str]] = [("b1", "b2")]
    for i in range(2, m + 1):
        coin = rng.getrandbits(1) if coins is None else int(coins[i - 2])
        drawn.append(coin)
        pairs.append((pairs[-1][coin], f"b{i + 1}"))

    keywords = tuple(f"u{i}" for i in range(1, m + 1))
    bidder_ids = tuple(f"b{i}" for i in range(1, m + 2))
    bids = {(kw, v): 1 for kw, pair in zip(keywords, pairs) for v in pair}
    instance = Instance(keywords, tuple((v, 1) for v in bidder_ids), bids)

    actions: list[Action] = []
    for i, pair in enumerate(pairs):
        if i + 1 < len(pairs):
            inherited = pairs[i + 1][0]
            other = pair[1] if pair[0] == inherited else pair[0]
            actions.append(Assign(other, inherited))
        else:
            actions.append(Assign(pair[1], pair[0]))

    return ChainSample(instance, tuple(drawn), tuple(pairs), tuple(actions))


# ----------------------------------------------------------------------
# random samplers


# `random()` is N / 2**53 with N = (a >> 5) * 2**26 + (b >> 6) for the next
# two 32-bit Mersenne Twister outputs a, b, and `getrandbits(32 * w)` returns
# the next w outputs as one int, lowest first.  So a whole row of draws can be
# taken in one call and decoded here, leaving the stream where the per-draw
# calls leave it and giving the same values.


@lru_cache(maxsize=64)
def _bernoulli_classes(p: float) -> tuple[bytes, int]:
    """Top-byte classes for `random() < p`, and the threshold T on N.

    random() < p exactly when N < T = ceil(p * 2**53).  The top byte t of a
    puts N in [t * 2**45, (t + 1) * 2**45): class 1 is a sure hit, 0 a sure
    miss, and 2 the one byte value whose N must be decoded.
    """
    num, den = p.as_integer_ratio()
    threshold = min(max(-(-num * 2**53 // den), 0), 2**53)
    q, r = divmod(threshold, 2**45)
    return bytes(1 if t < q else 2 if t == q and r else 0 for t in range(256)), threshold


def _bernoulli_row(rng: random.Random, n: int, p: float) -> list[int]:
    """The j < n at which n calls of `rng.random() < p` are true, ascending."""
    classes, threshold = _bernoulli_classes(p)
    raw = rng.getrandbits(64 * n).to_bytes(8 * n, "little")
    flags = raw[3::8].translate(classes)  # the top byte of each draw's a
    if (tie := flags.find(2)) >= 0:
        flags = bytearray(flags)
        while tie >= 0:
            a, b = struct.unpack_from("<II", raw, 8 * tie)
            flags[tie] = ((a >> 5) << 26 | b >> 6) < threshold
            tie = flags.find(2, tie + 1)
    hits = []
    j = flags.find(1)
    while j >= 0:
        hits.append(j)
        j = flags.find(1, j + 1)
    return hits


def _uniform_row(rng: random.Random, count: int, width: int) -> list[int]:
    """`[rng.randrange(width) for _ in range(count)]`, from the same outputs.

    randrange tries the top k = width.bit_length() bits of one output until
    the value is below width.  Each batch makes one try per value still
    needed, so it takes no output the per-draw calls would not take.  A width
    past 32 bits, which takes several outputs per try, is left to randrange.
    """
    k = width.bit_length()
    if k > 32:
        return [rng.randrange(width) for _ in range(count)]
    drop = 32 - k  # bits cut from the output
    values: list[int] = []
    while (need := count - len(values)) > 0:
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        tries = [w >> drop for w in struct.unpack(f"<{need}I", raw)]
        values += [x for x in tries if x < width]
    return values


def _pad_row(rng: random.Random, row: list[int], n: int) -> list[int]:
    """Append uniform free bidder indices below n until `row` has two."""
    while len(row) < 2:
        # the r-th bidder not in the row, in index order
        r = rng.randrange(n - len(row))
        for j in sorted(row):
            r += j <= r
        row.append(r)
    return row


def random_2pm(
    num_keywords: int,
    num_bidders: int,
    edge_probability: float,
    seed: int | None = None,
) -> Instance:
    """Bernoulli bipartite all-ones instance, padded so every degree is >= 2.

    Keywords left under degree 2 receive uniformly chosen distinct extra
    neighbors until they reach degree exactly 2.
    """
    _at_least(num_keywords=(num_keywords, 0), num_bidders=(num_bidders, 2))
    if not 0.0 <= edge_probability <= 1.0:
        raise InvalidParams(f"edge probability {edge_probability} outside [0, 1]")
    rng = random.Random(seed)
    keywords = tuple(f"u{i}" for i in range(1, num_keywords + 1))
    bidder_ids = tuple(f"v{j}" for j in range(1, num_bidders + 1))
    bids: dict[tuple[str, str], int] = {}
    for u in keywords:
        for j in _pad_row(rng, _bernoulli_row(rng, num_bidders, edge_probability), num_bidders):
            bids[(u, bidder_ids[j])] = 1
    return Instance(keywords, tuple((v, 1) for v in bidder_ids), bids)


def random_2paa(
    num_keywords: int,
    num_bidders: int,
    max_bid: int,
    target_r_min: int,
    seed: int | None = None,
) -> Instance:
    """Uniform integer bids in [0, max_bid]; budgets guarantee the target ratio.

    Each bidder's budget is target_r_min times its largest bid (at least
    target_r_min), so the minimum budget-to-bid ratio is >= target_r_min.
    """
    _at_least(num_keywords=(num_keywords, 0), num_bidders=(num_bidders, 1))
    _at_least(max_bid=(max_bid, 0), target_r_min=(target_r_min, 1))
    rng = random.Random(seed)
    keywords = tuple(f"u{i}" for i in range(1, num_keywords + 1))
    bidder_ids = tuple(f"v{j}" for j in range(1, num_bidders + 1))
    n = num_bidders
    # randint(0, max_bid) for each (keyword, bidder), keyword-major
    amounts = _uniform_row(rng, num_keywords * n, max_bid + 1)
    bids: dict[tuple[str, str], int] = {}
    for i, u in enumerate(keywords):
        row = amounts[i * n : (i + 1) * n]
        bids.update(zip(compress(zip(repeat(u), bidder_ids), row), compress(row, row)))
    bidders = tuple(
        (v, target_r_min * max(max(amounts[j::n], default=0), 1))
        for j, v in enumerate(bidder_ids)
    )
    return Instance(keywords, bidders, bids)


def perfect_matchable_2pm(
    n: int, extra_edge_prob: float, seed: int | None = None
) -> Instance:
    """All-ones n-by-n instance containing a perfect matching, degrees >= 2.

    A random perfect matching is planted, Bernoulli extras added, and thin
    keywords padded by `random_2pm`'s rule (a uniform free bidder, until two);
    padding preserves the planted matching.
    """
    if n < 2:
        raise InvalidParams(f"need n >= 2, got {n}")
    if not 0.0 <= extra_edge_prob <= 1.0:
        raise InvalidParams(f"edge probability {extra_edge_prob} outside [0, 1]")
    rng = random.Random(seed)
    keywords = tuple(f"u{i}" for i in range(1, n + 1))
    bidder_ids = tuple(f"v{j}" for j in range(1, n + 1))
    planted = list(range(n))
    rng.shuffle(planted)
    bids: dict[tuple[str, str], int] = {}
    for u, mate in zip(keywords, planted):
        # one draw per index, the mate's too: on rows this narrow (the suites
        # use n <= 8) a bulk `_bernoulli_row` costs more than it saves
        row = [j for j in range(n) if rng.random() < extra_edge_prob or j == mate]
        if len(row) < 2:  # padding appends; bids go in index order
            _pad_row(rng, row, n).sort()
        for j in row:
            bids[(u, bidder_ids[j])] = 1
    return Instance(keywords, tuple((v, 1) for v in bidder_ids), bids)
