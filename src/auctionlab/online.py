"""Online policies and the arrival-order driver.

The driver reveals one keyword at a time: a policy sees only the arriving
keyword's positive bids plus the current remaining budgets, so decisions
can never depend on the future.  Policies carry per-run mutable state and
are reset at the start of every run.  Randomized policies draw only from
the driver's seed; permutation and coin randomness come from separate
sub-streams so one can be held fixed while the other is enumerated.
RankingSimulate runs a Ranking policy, `policy.ranking`, on two copies of
each keyword: `policy.ranking.matched` is M and R together, `policy.matched`
is M.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Sequence

from .errors import InvalidParams, PolicyViolation, _at_least
from .model import SKIP, Action, Assign, Instance, settle_all
from .oracles import Matching


class OnlinePolicy:
    """Decision contract for online runs.

    `kind` is "auction" (decide() returns an Action) or "matching"
    (choose() returns a bidder or None).  `deterministic` declares whether
    the policy ignores randomness; the adaptive adversary insists on it.
    """

    kind = "auction"
    deterministic = False

    def reset(self, bidder_ids: Sequence[str], rng: random.Random) -> None:
        """Prepare for a fresh run over a (possibly empty) bidder universe."""

    def decide(
        self,
        step: int,
        keyword: str,
        bids: Mapping[str, int],
        budgets: Mapping[str, int],
    ) -> Action:
        raise NotImplementedError

    def choose(self, step: int, keyword: str, bids: Mapping[str, int]) -> str | None:
        raise NotImplementedError


class _GreedyUnit(OnlinePolicy):
    """Match the first available neighbor iff another is available as second."""

    deterministic = True

    def decide(self, step, keyword, bids, budgets):
        avail = [v for v in bids if budgets[v] >= 1]
        if len(avail) >= 2:
            return Assign(avail[0], avail[1])
        return SKIP


class _SkipAll(OnlinePolicy):
    """Never allocate anything."""

    deterministic = True

    def decide(self, step, keyword, bids, budgets):
        return SKIP


class _FirstAvailable(OnlinePolicy):
    """Match the first available neighbor even without a paying second.

    The second is the first *other* neighbor regardless of its budget,
    so the price may be 0.
    """

    deterministic = True

    def decide(self, step, keyword, bids, budgets):
        nbrs = list(bids)
        avail = [v for v in nbrs if budgets[v] >= 1]
        if avail and len(nbrs) >= 2:
            first = avail[0]
            second = next(v for v in nbrs if v != first)
            return Assign(first, second)
        return SKIP


def greedy_2pm() -> OnlinePolicy:
    """Deterministic greedy for all-ones instances.

    Assigns the lowest-index available neighbor as first and the next
    lowest as second when at least two neighbors are available, else skips.
    Neighbor order is the order the driver presents (bidder-index order).
    """
    return _GreedyUnit()


def skip_all() -> OnlinePolicy:
    """Policy that skips every keyword (battery baseline)."""
    return _SkipAll()


def first_available() -> OnlinePolicy:
    """Eager matcher that does not check for a paying second bidder."""
    return _FirstAvailable()


def _draw_rank(
    bidder_ids: Sequence[str],
    rng: random.Random,
    sigma: Sequence[str] | None,
) -> dict[str, int]:
    if sigma is not None:
        order = list(sigma)
        if sorted(order) != sorted(bidder_ids):
            raise PolicyViolation("sigma must be a permutation of the bidder ids")
    else:
        order = list(bidder_ids)
        rng.shuffle(order)
    return {v: i for i, v in enumerate(order)}


class _Ranking(OnlinePolicy):
    """First-price matching by a uniform random priority `rank` (0 highest)."""

    kind = "matching"

    def __init__(self, sigma=None):
        self._sigma = sigma
        self.rank: dict[str, int] = {}
        self.matched: set[str] = set()

    def reset(self, bidder_ids, rng):
        self.rank = _draw_rank(bidder_ids, rng, self._sigma)
        self.matched = set()

    def choose(self, step, keyword, bids):
        matched, rank, best = self.matched, self.rank, None
        for v in bids:
            if v not in matched and (best is None or rank[v] < rank[best]):
                best = v
        if best is not None:
            matched.add(best)
        return best


def ranking_1p(*, sigma: Sequence[str] | None = None) -> OnlinePolicy:
    """Ranking for first-price matching; output is a Matching, not a trace.

    `sigma` fixes the priority permutation explicitly (highest first);
    otherwise it is drawn from the driver's seed.
    """
    return _Ranking(sigma)


class _RankingSimulate(OnlinePolicy):
    """Ranking on two copies of each keyword, a fair coin choosing the real one.

    `ranking` (same `sigma`) chooses twice per arriving keyword: the two
    highest-priority bidders outside M and R, which 2-copy Ranking gives
    the keyword's two copies.  A coin matches one pick into `matched` (M)
    and leaves the other reserved; a lone pick is matched or reserved.  So
    R is `ranking.matched - matched`.  A keyword with fewer than two
    bidders can never pay and is skipped before any pick or coin.  A match
    charges 1 iff some other neighbor is outside M (reserved bidders are
    eligible seconds); otherwise it earns nothing and records a skip.
    """

    def __init__(self, sigma=None, coins=None):
        self._coins = None if coins is None else tuple(coins)
        if self._coins is not None and any(c not in (0, 1) for c in self._coins):
            raise InvalidParams(f"coins must be 0 or 1, got {coins!r}")
        self.ranking = _Ranking(sigma)
        self.matched: set[str] = set()

    def reset(self, bidder_ids, rng):
        # independent sub-streams: sigma first, coins after
        self.ranking.reset(bidder_ids, random.Random(rng.getrandbits(64)))
        coin_rng = random.Random(rng.getrandbits(64))
        if self._coins is None:
            self._flips = iter(lambda: coin_rng.getrandbits(1), None)
        else:
            self._flips = iter(self._coins)
        self.matched = set()

    def decide(self, step, keyword, bids, budgets):
        if len(bids) < 2:
            return SKIP
        first = self.ranking.choose(step, keyword, bids)
        if first is None:
            return SKIP
        second = self.ranking.choose(step, keyword, bids)
        try:
            winner = first if next(self._flips) else second
        except StopIteration:
            raise PolicyViolation("forced coin stream exhausted") from None
        if winner is None:
            return SKIP
        self.matched.add(winner)
        payer = next((v for v in bids if v not in self.matched), None)
        return SKIP if payer is None else Assign(winner, payer)


def ranking_simulate(
    *, sigma: Sequence[str] | None = None, coins: Sequence[int] | None = None
) -> OnlinePolicy:
    """RankingSimulate policy; `sigma` and `coins` (0s and 1s) override the sub-streams."""
    return _RankingSimulate(sigma, coins)


@dataclass(frozen=True)
class LeftKCopy:
    """k-fold keyword duplication; `zeta` maps copy ids back to originals."""

    instance: Instance
    zeta: Mapping[str, str]


def left_k_copy(instance: Instance, k: int) -> LeftKCopy:
    """Duplicate every keyword k times, copies arriving consecutively.

    Each copy keeps the original's bids; bidders and budgets are shared.
    """
    _at_least(k=(k, 1))
    taken = set(instance.keywords)
    keywords: list[str] = []
    zeta: dict[str, str] = {}
    for u in instance.keywords:
        for i in range(1, k + 1):
            copy = f"{u}@{i}"
            while copy in taken or copy in zeta:
                copy = copy + "'"
            keywords.append(copy)
            zeta[copy] = u
    bids = {}
    for copy, u in zeta.items():
        for v, a in instance.positive_bids(u).items():
            bids[(copy, v)] = a
    return LeftKCopy(Instance(tuple(keywords), instance.bidders, bids), zeta)


def run_online(instance: Instance, policy: OnlinePolicy, seed: int | None = None):
    """Drive a policy over the instance in arrival order.

    Returns an AuctionTrace for auction policies and a Matching for
    matching policies.  The driver enforces causality structurally: the
    policy sees only the arriving keyword's bids plus current budgets.
    """
    rng = random.Random(seed)
    policy.reset(instance.bidder_ids, rng)

    if policy.kind == "matching":
        pairs: dict[str, str] = {}
        taken: set[str] = set()
        for step, keyword in enumerate(instance.keywords):
            bids = instance.positive_bids(keyword)
            v = policy.choose(step, keyword, bids)
            if v is None:
                continue
            try:
                unavailable = v not in bids or v in taken
            except TypeError:  # unhashable, so no bidder
                unavailable = True
            if unavailable:
                raise PolicyViolation(
                    f"policy matched {keyword!r} to unavailable bidder {v!r}"
                )
            taken.add(v)
            pairs[keyword] = v
        return Matching(pairs)

    return settle_all(instance, policy.decide)
