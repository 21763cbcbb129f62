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

opt_2paa and opt_1paa run on one frame, `_budget_search`, which owns the memo
tables, the node count and limit, the root call, the walk that replays each
step's stored choice from the root budgets, and the stats.  Each search keeps
its table set-up, its expand loop and its witness.  opt_2pm stays apart: its
bitmask state, its memo entries carrying bound counts and its choice tables
share nothing with the frame but the root call.

Each search also skips children that an exact upper bound shows cannot be
strictly better than the best value found so far.  A choice is replaced only
by a strictly better one, so values and witnesses are those of the unpruned
search and node counts can only fall.  opt_2pm reads its second bound, the
number of keywords that still have two uncharged neighbors, from counts its
memo entries carry, so the bound costs O(1) per node; its third, the number
of uncharged bidders still to come, costs one popcount.

The budgeted searches clamp budgets to the bids still to come.  From
keyword t on, a bidder is charged at most its own bid per keyword, so budget
above its bids on keywords t and later is never spent and never caps a
price.  Each row entry carries the bidder's bids after that keyword, and the
state passed past the keyword lowers the row's budgets to them.  States that
differ only in such budget have the same subtree and share one memo entry.
opt_1paa also lowers each budget at the root to its bidder's total bids, so
a bidder with no bids left has 0 and the remaining budgets sum to a bound on
the state's value.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Mapping, Sequence

from .errors import InfeasibleTrace, InvalidParams, TooLarge
from .model import SKIP, Assign, Instance, _winner_pairs, execute

DEFAULT_NODE_LIMIT = 2_000_000


@dataclass(frozen=True)
class Matching:
    """Partial keyword -> bidder map, injective on bidders."""

    pairs: Mapping[str, str]

    def __post_init__(self) -> None:
        pairs = dict(self.pairs)
        object.__setattr__(self, "pairs", pairs)
        seen: set[str] = set()
        for v in pairs.values():
            if v in seen:
                raise ValueError(f"bidder {v!r} matched twice")
            seen.add(v)

    @property
    def size(self) -> int:
        return len(self.pairs)


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
    """
    ids, keywords = instance.bidder_ids, instance.keywords
    return Matching({keywords[t]: ids[i] for i, t in _owners(instance).items()})


def _matching_owners(rows: Sequence[tuple[int, ...]], n: int) -> dict[int, int]:
    """Kuhn's matching over index rows: bidder index -> keyword position.

    Each keyword in turn searches for an augmenting path depth first,
    probing bidders in index order, and flips it.  Iterative, so path length
    is not bounded by the recursion limit; the probe order is that of the
    recursive search.  `path` holds the keywords on the current path and
    `stack` their unprobed neighbors; `owner[i]` is bidder i's keyword (-1
    when free) and `mate[t]` keyword t's bidder, so a flip walks `path`
    backwards, each keyword taking the bidder the next one gives up.

    A bidder visited in a search stays marked until the next augmentation
    (the visit stamp advances only then), so a failed search is never
    repeated.  This is exact: a failed search changes no owner and leaves
    behind a marked set that is closed under alternating paths and holds no
    free bidder, so skipping it changes neither probe order nor path.  The
    dict lists bidders in the order they were first matched.
    """
    owner, seen, mate = [-1] * n, [0] * n, [-1] * len(rows)
    order: list[int] = []
    stamp = 1
    for root in range(len(rows)):
        path, stack = [root], [iter(rows[root])]
        while stack:
            for i in stack[-1]:
                if seen[i] != stamp:
                    seen[i] = stamp
                    t = owner[i]
                    if t < 0:
                        order.append(i)
                        for t in reversed(path):
                            owner[i], mate[t], i = t, i, mate[t]
                        stamp += 1
                        stack.clear()
                    else:
                        path.append(t)
                        stack.append(iter(rows[t]))
                    break
            else:
                stack.pop()
                path.pop()
    return {i: owner[i] for i in order}


def _require_unit(instance: Instance, who: str) -> None:
    if not instance.is_unit():
        raise InvalidParams(f"{who} needs an all-ones instance (budgets 1, bids 0/1)")


def _kept(instance: Instance, name: str, make: Callable[[], object]):
    """The derived table `name` of `instance`: `make()` on first use, then the kept one.

    It is stored with `object.__setattr__` beside `_index` and the `_rows`
    built on first read, outside the dataclass fields, so it takes no part in
    equality or repr and `dataclasses.replace` builds an instance without it.
    Read-only: a caller that changes one changes what every later caller reads.
    """
    if (kept := getattr(instance, name, None)) is None:  # vars() would slow later reads
        object.__setattr__(instance, name, kept := make())
    return kept


def _neighbor_rows(instance: Instance) -> tuple[tuple[int, ...], ...]:
    """Each keyword's positive bidders as bidder indices, in index order (kept)."""
    index, rows = instance.bidder_index, map(instance.positive_bids, instance.keywords)
    return _kept(instance, "_neighbor_rows", lambda: tuple(tuple(map(index, r)) for r in rows))


def _owners(instance: Instance) -> dict[int, int]:
    """`_matching_owners` over `_neighbor_rows` (kept; read-only)."""
    n = len(instance.bidders)
    return _kept(instance, "_owners", lambda: _matching_owners(_neighbor_rows(instance), n))


def _budget_rows(
    instance: Instance,
) -> tuple[list[tuple[tuple[int, int, int], ...]], list[tuple[int, ...]], list[int]]:
    """The tables of the budgeted searches, built in one backward pass.

    - rows[t]: keyword t's positive bids as (bidder index, amount, the
      bidder's bids summed over keywords t + 1 and later), in index order;
    - future[t]: the sorted indices of bidders bidding at steps t and later;
    - each bidder's bids summed over all keywords.
    """
    index, keywords = instance.bidder_index, instance.keywords
    m = len(keywords)
    rows: list[tuple[tuple[int, int, int], ...]] = [()] * m
    future: list[tuple[int, ...]] = [()] * m
    later = [0] * len(instance.bidders)
    bidding: set[int] = set()
    for t in range(m - 1, -1, -1):
        bids = [(index(v), a) for v, a in instance.positive_bids(keywords[t]).items()]
        rows[t] = tuple((i, a, later[i]) for i, a in bids)
        for i, a in bids:
            later[i] += a
            bidding.add(i)
        future[t] = tuple(sorted(bidding))
    return rows, future, later


def _clamped(rem: list[int], row: tuple[tuple[int, int, int], ...]) -> list[int]:
    """A copy of `rem` with each bidder of `row` lowered to its bids after that row."""
    out = rem.copy()
    for i, _, after in row:
        if out[i] > after:
            out[i] = after
    return out


def _no_key(rem: list[int]) -> tuple[()]:
    return ()


def _search_root(name: str, depth: int, best: Callable[..., int], *root) -> int:
    """Run a recursive search from its root; too deep a search is TooLarge."""
    try:
        return best(*root)
    except RecursionError:
        raise TooLarge(f"{name} needs search depth {depth}, beyond the recursion limit") from None


def _search_stats(nodes: int, memos: Sequence[dict]) -> SearchStats:
    """Stats read off the searched depths' memo tables after the search.

    Every expanded state is stored, and reaching depth t expands a state at
    every depth before it, so the non-empty tables are a prefix.
    """
    return SearchStats(nodes, sum(map(len, memos)), sum(1 for memo in memos if memo))


def _budget_search(
    name: str,
    node_limit: int,
    rows: Sequence[tuple[tuple[int, int, int], ...]],
    future: Sequence[tuple[int, ...]],
    rem: list[int],
    expand: Callable[..., tuple[int, object]],
) -> tuple[int, list, SearchStats]:
    """Search keywords 0 .. len(future) - 1 from the root budgets `rem`.

    A state at step t is keyed by its budgets on `future[t]` (one index gives
    a scalar key, none gives ()).  `expand(t, rem, memo, key, best)` returns a
    state's (value, choice), probing step t + 1's `memo` under `key` before
    calling `best(t + 1, child)`.  A choice is None for Skip, else a tuple
    whose first item is the charged bidder and last its price.  Returns the
    value, the choices along the optimal path and the stats.
    """
    keys = [itemgetter(*f) if f else _no_key for f in future] + [_no_key]
    depth = len(future)
    memos: list[dict] = [{} for _ in range(depth)] + [{(): (0, None)}]
    nodes = 0

    def best(t: int, rem: list[int]) -> int:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise TooLarge(f"{name} exceeded node limit {node_limit}")
        entry = memos[t][keys[t](rem)] = expand(t, rem, memos[t + 1], keys[t + 1], best)
        return entry[0]

    try:
        total = _search_root(name, depth, best, 0, rem) if depth else 0
    finally:
        del best  # the closure holds itself through this cell; free the tables with it

    choices = []
    for t in range(depth):
        choice = memos[t][keys[t](rem)][1]
        choices.append(choice)
        if choice is not None:
            rem[choice[0]] -= choice[-1]
        rem = _clamped(rem, rows[t])
    return total, choices, _search_stats(nodes, memos[:depth])


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

    Viable-keyword bound: a keyword is viable in a state when it has at
    least two uncharged neighbors.  A state's optimum is at most its number
    of viable keywords still to come, because each paying keyword charges
    one neighbor and needs a second uncharged one, and charging only removes
    neighbors.  The memo entry of a state at step t stores, beside the
    value, `viable` (that count over keywords t and later), `once` (the
    bidders in at least one viable keyword with exactly two uncharged
    neighbors) and `twice` (those in at least two); a node derives its own
    from its Skip child's in O(1).  Charging a bidder of the Skip child's
    `once` (`twice`) leaves at least one (two) of those keywords with a
    single neighbor, so the charged child has at most viable - 1 (viable -
    2) viable keywords and, when Skip's value equals viable (viable - 1),
    cannot beat Skip.  Such a child is not searched.

    Bidder bound: let U be the uncharged bidders of keywords t + 1 and
    later.  After charging a bidder b of U, each later paying keyword
    charges a distinct bidder of U - {b} and needs one more of them as its
    second, so the child's optimum is at most max(0, |U| - 2).  When Skip's
    value is positive and above |U| - 2, no charge of a bidder of U beats
    Skip, and only bidders that bid on no later keyword are tried; their
    child is Skip's state, so the first of them wins.  When Skip's value is
    0 every charge beats it, so the bound keeps every child.
    """
    _require_unit(instance, "opt_2pm")
    nmask = [sum(1 << i for i in row) for row in _neighbor_rows(instance)]
    m = instance.m

    # bidders that still appear in keywords t..m-1
    future = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        future[t] = future[t + 1] | nmask[t]

    # memos[t]: charged set & future[t] -> (value, viable, once, twice);
    # choices[t]: the same key -> bit of the charged bidder, for states that charge
    memos: list[dict] = [{} for _ in range(m)] + [{0: (0, 0, 0, 0)}]
    choices: list[dict] = [{} for _ in range(m)]
    nodes = 0

    def best(t: int, consumed: int) -> tuple[int, int, int, int]:
        nonlocal nodes
        nodes += 1
        if nodes > node_limit:
            raise TooLarge(f"opt_2pm exceeded node limit {node_limit}")
        memo, fut = memos[t + 1], future[t + 1]
        entry = memo.get(consumed & fut) or best(t + 1, consumed)
        avail = nmask[t] & ~consumed
        rest = avail & (avail - 1)
        if rest:  # at least two uncharged neighbors
            skip, viable, once, twice = entry
            slack = viable - skip  # viable-keyword bound, see the docstring
            tries = avail & ~(once if slack == 0 else twice if slack == 1 else 0)
            if skip and (fut & ~consumed).bit_count() - 2 < skip:  # bidder bound
                tries &= ~fut
            value = skip
            while tries:
                bit = tries & -tries
                child = consumed | bit
                if (memo.get(child & fut) or best(t + 1, child))[0] >= skip:  # 1 + it beats Skip
                    value = skip + 1
                    choices[t][consumed & future[t]] = bit
                    break
                tries ^= bit
            if rest & (rest - 1):
                entry = (value, viable + 1, once, twice)
            else:  # exactly two
                entry = (value, viable + 1, once | avail, twice | once & avail)
        memos[t][consumed & future[t]] = entry
        return entry

    try:
        total = _search_root("opt_2pm", m, best, 0, 0)[0] if m else 0
    finally:
        del best  # the closure holds itself through this cell; free the tables with it

    # replay the stored choices into an explicit trace
    ids = instance.bidder_ids
    actions = []
    consumed = 0
    for t in range(m):
        choice = choices[t].get(consumed & future[t])
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


def _second_bids(instance: Instance) -> tuple[int, ...]:
    """Per keyword, the second-highest positive bid, 0 with fewer than two (kept)."""

    def seconds() -> tuple[int, ...]:
        rows = (sorted(instance.positive_bids(u).values()) for u in instance.keywords)
        return tuple(row[-2] if len(row) >= 2 else 0 for row in rows)

    return _kept(instance, "_second_bids", seconds)


def opt_2paa(instance: Instance, node_limit: int = DEFAULT_NODE_LIMIT) -> OptResult:
    """Optimal budgeted second-price auction value by exhaustive search.

    Explores Skip plus every ordered pair of positive bidders whose price
    would be positive, memoized on the remaining-budget vector projected to
    bidders still relevant.

    Bound: a pair charging eff2 is skipped when eff2 plus the later keywords'
    second-highest original bids cannot beat the best value so far.  Exact
    because a price never exceeds its keyword's second-highest original bid,
    whatever the budgets.  There is no Skip-value bound, as `opt_2pm` and
    `opt_1paa` have: a larger budget can lower the optimum, because the
    bidder then sets a higher price for the others to beat (pinned by
    test_opt_2paa_can_fall_when_a_budget_rises in tests/test_oracles.py).

    Clamp: past keyword t, each bidder of that keyword keeps at most its
    bids on the later keywords.  Exact because a first bidder is charged at
    most its own bid, so a clamped budget still covers each later bid: as a
    second the bidder still bids in full, and as a first it can still pay
    every price it could pay without the clamp.
    """
    rows, future, _ = _budget_rows(instance)
    m = instance.m

    s_u = _second_bids(instance)
    suffix = [0] * (m + 1)
    for t in range(m - 1, -1, -1):
        suffix[t] = suffix[t + 1] + s_u[t]
    # no keyword from `depth` on can charge a positive price
    depth = suffix.index(0)

    # per row, each second bidder with the row's other entries, in index
    # order; built on the row's first expansion
    pairs: list = [None] * depth

    def expand(t: int, rem: list[int], memo: dict, key: Callable, best: Callable) -> tuple:
        later = suffix[t + 1]
        skip = _clamped(rem, rows[t])
        hit = memo.get(key(skip))
        value = hit[0] if hit is not None else best(t + 1, skip)
        choice = None
        if pairs[t] is None:
            row = rows[t]
            pairs[t] = [(i, a, row[:j] + row[j + 1 :]) for j, (i, a, _) in enumerate(row)]
        for second, bid2, others in pairs[t]:
            have = rem[second]
            eff2 = bid2 if bid2 < have else have  # min() without the call
            if eff2 <= 0 or eff2 + later <= value:
                continue
            for first, bid1, after in others:
                spent = rem[first] - eff2
                if bid1 < eff2 or spent < 0:
                    continue
                child = skip.copy()
                child[first] = spent if spent < after else after
                hit = memo.get(key(child))
                got = eff2 + (hit[0] if hit is not None else best(t + 1, child))
                if got > value:
                    value, choice = got, (first, second, eff2)
                    if eff2 + later <= value:
                        break
        return value, choice

    rem = [b for _, b in instance.bidders]
    total, path, stats = _budget_search("opt_2paa", node_limit, rows, future[:depth], rem, expand)
    ids = instance.bidder_ids
    actions = [SKIP if c is None else Assign(ids[c[0]], ids[c[1]]) for c in path]
    trace = execute(instance, actions + [SKIP] * (m - depth))
    _check_replay(trace.value, total)
    return OptResult(total, trace, stats)


def opt_1paa(instance: Instance, node_limit: int = DEFAULT_NODE_LIMIT) -> OptResult:
    """Optimal budgeted first-price value; the winner pays its effective bid.

    Witness is a keyword -> bidder mapping (winners may repeat bidders).

    Bound: a winner paying eff is skipped when eff plus Skip's value cannot
    beat the best value so far.  Exact because a bidder's total payment is
    min(budget, sum of its assigned bids), which never rises when a budget
    falls.  And no winner is tried once the best value so far reaches the
    sum of the remaining budgets: from keyword t on, bidder i pays at most
    min(rem[i], its bids on keywords t and later), and the clamp below keeps
    rem[i] at most those bids, which are 0 once i bids no more.

    Clamp: the root lowers each budget to its bidder's total bids, and past
    keyword t each bidder of that keyword keeps at most its bids on the
    later keywords.  Exact because the clamped budget still covers each
    later bid, so every later winner pays the same with or without the
    clamp.
    """
    rows, future, totals = _budget_rows(instance)

    def expand(t: int, rem: list[int], memo: dict, key: Callable, best: Callable) -> tuple:
        row = rows[t]
        base = _clamped(rem, row)
        hit = memo.get(key(base))
        skip = hit[0] if hit is not None else best(t + 1, base)
        value, choice = skip, None
        most = sum(rem)
        for winner, bid, _ in row:
            if value >= most:
                break  # no winner can be strictly better
            have = rem[winner]
            eff = bid if bid < have else have  # min() without the call
            if eff <= 0 or eff + skip <= value:
                continue
            child = base.copy()
            child[winner] = have - eff  # at most its later bids: have <= bid + later bids
            hit = memo.get(key(child))
            got = eff + (hit[0] if hit is not None else best(t + 1, child))
            if got > value:
                value, choice = got, (winner, eff)
        return value, choice

    rem = [min(b, most) for (_, b), most in zip(instance.bidders, totals)]
    total, path, stats = _budget_search("opt_1paa", node_limit, rows, future, rem, expand)
    ids = instance.bidder_ids
    winners = {u: ids[c[0]] for u, c in zip(instance.keywords, path) if c is not None}
    _check_replay(first_price_value(instance, winners), total)
    return OptResult(total, winners, stats)


def first_price_value(instance: Instance, winners: Mapping[str, str]) -> int:
    """Value of a first-price winner assignment: each pays min(bid, remaining).

    An unknown keyword or bidder raises UnknownId.
    """
    rem = instance.initial_budgets()
    total = 0
    for u, v in _winner_pairs(instance, winners):
        price = min(instance.bid(u, v), rem[v])
        rem[v] -= price
        total += price
    return total
