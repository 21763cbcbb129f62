"""Exact reference solvers: maximum matching and brute-force optima.

The brute-force searches use memoized depth-first search whose state is
projected onto the bidders that still matter for the remaining keywords,
which keeps gadget-sized instances tractable.  Every search takes an
explicit node budget and fails deterministically with TooLarge beyond it.

Each depth t has its own memo table `memos[t]`, keyed by the projected state
alone: a charged-bidder bitmask in opt_2pm, an `itemgetter` projection of the
remaining budgets in opt_2paa and opt_1paa.  A parent probes the child's
table before recursing, so a memo hit is a dict lookup rather than a call,
and the table one past the last searched depth holds the empty suffix.  A
node is counted where a state is expanded, as in the plain recursive search.

Each search also skips children that an exact upper bound shows cannot be
strictly better than the best value found so far.  A choice is replaced only
by a strictly better one, so values and witnesses are those of the unpruned
search and node counts can only fall.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .errors import InfeasibleTrace, InvalidParams, TooLarge, UnknownId
from .model import SKIP, Assign, AuctionTrace, Instance, execute

DEFAULT_NODE_LIMIT = 2_000_000


@dataclass(frozen=True)
class Matching:
    """Partial keyword -> bidder map, injective on bidders."""

    pairs: Mapping[str, str]

    def __post_init__(self) -> None:
        pairs = dict(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        inverse: dict[str, str] = {}
        for u, v in pairs.items():
            if v in inverse:
                raise ValueError(f"bidder {v!r} matched twice")
            inverse[v] = u
        object.__setattr__(self, "_inverse", inverse)

    @property
    def size(self) -> int:
        return len(self.pairs)

    def bidder_of(self, keyword: str) -> str | None:
        return self.pairs.get(keyword)

    def keyword_of(self, bidder: str) -> str | None:
        return self._inverse.get(bidder)  # type: ignore[attr-defined]


@dataclass(frozen=True)
class SearchStats:
    """Work done by one exhaustive search.

    `nodes` counts expanded states; it is the smallest node_limit under which
    the search finishes.  `memo_entries` counts the states stored for replay.
    `max_depth` is the deepest search depth expanded, the first keyword
    being depth 1: m for a full search, fewer when opt_2paa stops before
    trailing keywords that cannot pay.
    """

    nodes: int
    memo_entries: int
    max_depth: int


@dataclass(frozen=True)
class OptResult:
    """Optimal value plus a witness that replays to exactly that value.

    The witness is an AuctionTrace for the auction searches and a
    keyword -> bidder winner mapping for the first-price search.  `stats`
    does not take part in equality.
    """

    value: int
    witness: object
    stats: SearchStats = field(compare=False)


def max_matching(instance: Instance) -> Matching:
    """Maximum bipartite matching on positive-bid edges (augmenting paths).

    Deterministic: keywords are processed in arrival order and bidders
    probed in index order, so reruns yield the identical matching.

    A bidder visited in a search stays marked until the next augmentation
    (the visit stamp advances only then), so a failed search is never
    repeated.  This is exact: a failed search changes no owner and leaves
    behind a marked set that is closed under alternating paths and holds no
    free bidder, so skipping it changes neither probe order nor path.
    """
    rows = _neighbor_rows(instance)
    owner: dict[int, int] = {}  # bidder index -> keyword position
    seen = [0] * len(instance.bidders)
    stamp = 1
    for t in range(len(rows)):
        if _augment(rows, owner, seen, stamp, t):
            stamp += 1
    ids, keywords = instance.bidder_ids, instance.keywords
    return Matching({keywords[t]: ids[i] for i, t in owner.items()})


def _augment(
    rows: Sequence[tuple[int, ...]], owner: dict[int, int], seen: list[int], stamp: int, root: int
) -> bool:
    """Find an augmenting path from keyword `root` by depth-first search and flip it.

    Bidders with `seen[i] == stamp` are skipped; the others get marked.
    Iterative, so path length is not bounded by the recursion limit; the
    probe order is that of the recursive search.  `stack[k]` holds a keyword
    on the path with its unprobed neighbors; that keyword tries to take
    bidder `taken[k]`, whose current owner is the keyword of `stack[k + 1]`.
    """
    stack = [(root, iter(rows[root]))]
    taken: list[int] = []
    while stack:
        for i in stack[-1][1]:
            if seen[i] == stamp:
                continue
            seen[i] = stamp
            taken.append(i)
            if i not in owner:
                for (t, _), j in zip(stack, taken):
                    owner[j] = t
                return True
            stack.append((owner[i], iter(rows[owner[i]])))
            break
        else:
            stack.pop()
            if taken:
                taken.pop()
    return False


def _require_unit(instance: Instance, who: str) -> None:
    if not instance.is_unit():
        raise InvalidParams(f"{who} needs an all-ones instance (budgets 1, bids 0/1)")


def _neighbor_rows(instance: Instance) -> list[tuple[int, ...]]:
    """Each keyword's positive bidders as bidder indices, in index order."""
    index = instance.bidder_index
    return [tuple(map(index, instance.positive_bids(u))) for u in instance.keywords]


def _indexed_rows(instance: Instance) -> list[tuple[tuple[int, int], ...]]:
    """Each keyword's positive bids as (bidder index, amount), in index order."""
    index = instance.bidder_index
    return [
        tuple((index(v), a) for v, a in instance.positive_bids(u).items())
        for u in instance.keywords
    ]


def _still_bidding(rows: Sequence[tuple[tuple[int, int], ...]]) -> list[tuple[int, ...]]:
    """For each step t, the sorted indices of bidders bidding at steps t and later."""
    future: list[tuple[int, ...]] = [()] * (len(rows) + 1)
    acc: set[int] = set()
    for t in range(len(rows) - 1, -1, -1):
        acc.update(i for i, _ in rows[t])
        future[t] = tuple(sorted(acc))
    return future


def _no_key(rem: list[int]) -> tuple[()]:
    return ()


def _projectors(future: Sequence[tuple[int, ...]]) -> list[Callable[[list[int]], object]]:
    """Per step, the map from a budget list to its memo key on `future[t]`.

    One index gives a scalar key and none gives (); keys of different steps
    live in different tables, so they never meet.
    """
    return [itemgetter(*f) if f else _no_key for f in future]


def _memos(depth: int, empty_key: object) -> list[dict]:
    """Per-step memo tables; the one at `depth` holds the empty suffix (0, no choice)."""
    return [{} for _ in range(depth)] + [{empty_key: (0, None)}]


def _search_root(name: str, m: int, best: Callable[..., int], *root) -> int:
    """Run a recursive search from its root; too deep a search is TooLarge."""
    try:
        return best(*root)
    except RecursionError:
        raise TooLarge(f"{name} needs search depth {m}, beyond the recursion limit") from None


def _search_stats(nodes: int, memos: Sequence[dict]) -> SearchStats:
    """Stats read off the searched depths' memo tables after the search.

    Every expanded state is stored, and reaching depth t expands a state at
    every depth before it, so the non-empty tables are a prefix.
    """
    return SearchStats(nodes, sum(map(len, memos)), sum(1 for memo in memos if memo))


def _check_replay(value: int, total: int) -> None:
    if value != total:
        raise InfeasibleTrace(f"witness replays to {value}, search found {total}")


def opt_2pm(instance: Instance, node_limit: int = DEFAULT_NODE_LIMIT) -> OptResult:
    """Optimal second-price matching value by exhaustive search.

    State is the set of bidders already charged; second-price bidders are
    not consumed, so allocating keyword u to v for profit 1 just needs some
    distinct uncharged neighbor at that moment.  Zero-price assignments
    leave the state unchanged and are dominated by Skip.

    Bound: no child beats 1 + Skip's value, so the first child reaching it
    ends the keyword's loop.  Exact because charging one more bidder never
    raises the optimum: every strategy legal with charged set C + {i} is
    legal with C.
    """
    _require_unit(instance, "opt_2pm")
    nmask = [sum(1 << i for i in row) for row in _neighbor_rows(instance)]
    m = instance.m

    # bidders that still appear in keywords t..m-1
    future = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        future[t] = future[t + 1] | nmask[t]

    # memos[t]: charged set & future[t] -> (value, bit of the charged bidder)
    memos = _memos(m, 0)
    nodes = 0

    def best(t: int, consumed: int) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise TooLarge(f"opt_2pm exceeded node limit {node_limit}")
        memo, fut = memos[t + 1], future[t + 1]
        hit = memo.get(consumed & fut)
        skip = hit[0] if hit is not None else best(t + 1, consumed)
        value, choice = skip, None
        avail = nmask[t] & ~consumed
        if avail & (avail - 1):  # at least two uncharged neighbors
            while avail:
                bit = avail & -avail
                child = consumed | bit
                hit = memo.get(child & fut)
                got = 1 + (hit[0] if hit is not None else best(t + 1, child))
                if got > skip:
                    value, choice = got, bit
                    break
                avail ^= bit
        memos[t][consumed & future[t]] = (value, choice)
        return value

    total = _search_root("opt_2pm", m, best, 0, 0) if m else 0

    # replay the stored choices into an explicit trace
    ids = instance.bidder_ids
    actions = []
    consumed = 0
    for t in range(m):
        choice = memos[t][consumed & future[t]][1]
        if choice is None:
            actions.append(SKIP)
        else:
            rest = nmask[t] & ~consumed & ~choice
            second = (rest & -rest).bit_length() - 1
            actions.append(Assign(ids[choice.bit_length() - 1], ids[second]))
            consumed |= choice
    trace = execute(instance, actions)
    _check_replay(trace.value, total)
    return OptResult(total, trace, _search_stats(nodes, memos[:m]))


def second_bid_upper_bound(instance: Instance) -> int:
    """Sum over keywords of the second-highest original bid (0 if < 2 positive).

    No solution can beat this: any charged price is the smaller of two
    distinct bidders' bids, hence at most the keyword's second-highest.
    """
    return sum(_second_bids(instance))


def _second_bids(instance: Instance) -> list[int]:
    """Per keyword, the second-highest positive bid (0 with fewer than two)."""
    seconds = []
    for u in instance.keywords:
        amounts = sorted(instance.positive_bids(u).values(), reverse=True)
        seconds.append(amounts[1] if len(amounts) >= 2 else 0)
    return seconds


def opt_2paa(instance: Instance, node_limit: int = DEFAULT_NODE_LIMIT) -> OptResult:
    """Optimal budgeted second-price auction value by exhaustive search.

    Explores Skip plus every ordered pair of positive bidders whose price
    would be positive, memoized on the remaining-budget vector projected to
    bidders still relevant.

    Bound: a pair charging eff2 is skipped when eff2 plus the later keywords'
    second-highest original bids cannot beat the best value so far.  Exact
    because a price never exceeds its keyword's second-highest original bid,
    whatever the budgets.
    """
    rows = _indexed_rows(instance)
    m = instance.m

    s_u = _second_bids(instance)
    suffix = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = suffix[t + 1] + s_u[t]
    # no keyword from `depth` on can charge a positive price
    depth = suffix.index(0)
    keys = _projectors(_still_bidding(rows)[:depth] + [()])

    memos = _memos(depth, ())
    nodes = 0

    def best(t: int, rem: list[int]) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise TooLarge(f"opt_2paa exceeded node limit {node_limit}")
        memo, key, later = memos[t + 1], keys[t + 1], suffix[t + 1]
        hit = memo.get(key(rem))
        value = hit[0] if hit is not None else best(t + 1, rem)
        choice = None
        row = rows[t]
        for j, (second, bid2) in enumerate(row):
            left = rem[second]
            eff2 = bid2 if bid2 < left else left  # min() without the call
            if eff2 <= 0 or eff2 + later <= value:
                continue
            for i, (first, bid1) in enumerate(row):
                if i == j or bid1 < eff2 or rem[first] < eff2:
                    continue
                child = rem.copy()
                child[first] -= eff2
                hit = memo.get(key(child))
                got = eff2 + (hit[0] if hit is not None else best(t + 1, child))
                if got > value:
                    value, choice = got, (first, second, eff2)
                    if eff2 + later <= value:
                        break
        memos[t][keys[t](rem)] = (value, choice)
        return value

    budgets0 = [b for _, b in instance.bidders]
    total = _search_root("opt_2paa", m, best, 0, budgets0) if depth else 0

    ids = instance.bidder_ids
    actions = []
    rem = list(budgets0)
    for t in range(depth):
        choice = memos[t][keys[t](rem)][1]
        if choice is None:
            actions.append(SKIP)
        else:
            first, second, price = choice
            actions.append(Assign(ids[first], ids[second]))
            rem[first] -= price
    actions.extend([SKIP] * (m - depth))
    trace = execute(instance, actions)
    _check_replay(trace.value, total)
    return OptResult(total, trace, _search_stats(nodes, memos[:depth]))


def opt_1paa(instance: Instance, node_limit: int = DEFAULT_NODE_LIMIT) -> OptResult:
    """Optimal budgeted first-price value; the winner pays its effective bid.

    Witness is a keyword -> bidder mapping (winners may repeat bidders).

    Bound: a winner paying eff is skipped when eff plus Skip's value cannot
    beat the best value so far.  Exact because a bidder's total payment is
    min(budget, sum of its assigned bids), which never rises when a budget
    falls.
    """
    rows = _indexed_rows(instance)
    keys = _projectors(_still_bidding(rows))
    m = instance.m

    memos = _memos(m, ())
    nodes = 0

    def best(t: int, rem: list[int]) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise TooLarge(f"opt_1paa exceeded node limit {node_limit}")
        memo, key = memos[t + 1], keys[t + 1]
        hit = memo.get(key(rem))
        skip = hit[0] if hit is not None else best(t + 1, rem)
        value, choice = skip, None
        for winner, bid in rows[t]:
            left = rem[winner]
            eff = bid if bid < left else left  # min() without the call
            if eff <= 0 or eff + skip <= value:
                continue
            child = rem.copy()
            child[winner] -= eff
            hit = memo.get(key(child))
            got = eff + (hit[0] if hit is not None else best(t + 1, child))
            if got > value:
                value, choice = got, (winner, eff)
        memos[t][keys[t](rem)] = (value, choice)
        return value

    budgets0 = [b for _, b in instance.bidders]
    total = _search_root("opt_1paa", m, best, 0, budgets0) if m else 0

    ids = instance.bidder_ids
    winners: dict[str, str] = {}
    rem = list(budgets0)
    for t in range(m):
        choice = memos[t][keys[t](rem)][1]
        if choice is not None:
            winner, price = choice
            winners[instance.keywords[t]] = ids[winner]
            rem[winner] -= price
    _check_replay(first_price_value(instance, winners), total)
    return OptResult(total, winners, _search_stats(nodes, memos[:m]))


def first_price_value(instance: Instance, winners: Mapping[str, str]) -> int:
    """Value of a first-price winner assignment: each pays min(bid, remaining)."""
    rem = instance.initial_budgets()
    total = 0
    for u in instance.keywords:
        v = winners.get(u)
        if v is None:
            continue
        if v not in rem:
            raise UnknownId(f"unknown bidder {v!r}")
        price = min(instance.bid(u, v), rem[v])
        rem[v] -= price
        total += price
    return total
