"""Exact data model and execution semantics for budgeted second-price auctions.

Keywords arrive one at a time in a fixed order.  Each bidder has an integer
budget and an integer bid per keyword (absent pairs bid 0).  Allocating a
keyword names an ordered pair of bidders: the first (the winner) is charged
the second's *effective* bid, where every bid is truncated to its bidder's
remaining budget at that moment.  Only the winner's budget decreases.  All
money is exact integer arithmetic; Python ints make overflow impossible.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, NamedTuple, Sequence, Union

from .errors import NoPositiveBids, OrderingViolation, PolicyViolation, SameBidder, UnknownId


def _money(value: object, what: str) -> int:
    # bool is an int subclass; reject it along with floats and friends
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {value!r}")
    return value


def effective_bid(original_bid: int, remaining_budget: int) -> int:
    """Bid truncated to the bidder's remaining budget: min(bid, budget)."""
    _money(original_bid, "bid")
    _money(remaining_budget, "remaining budget")
    if original_bid < 0 or remaining_budget < 0:
        raise ValueError("effective_bid needs non-negative inputs")
    return min(original_bid, remaining_budget)


@dataclass(frozen=True)
class Skip:
    """Leave the arriving keyword unallocated (always legal, price 0)."""


@dataclass(frozen=True, slots=True)
class Assign:
    """Allocate the keyword to `first`, charging it `second`'s effective bid.

    The second-price bidder is not charged and may have effective bid 0,
    in which case the price is 0.
    """

    first: str
    second: str

    # written out, so the check and the two stores need no __post_init__ call
    def __init__(self, first: str, second: str) -> None:
        if first == second:
            raise SameBidder(f"first and second bidder are both {first!r}")
        object.__setattr__(self, "first", first)
        object.__setattr__(self, "second", second)


Action = Union[Skip, Assign]
SKIP = Skip()
_Decide = Callable[[int, str, Mapping[str, int], Mapping[str, int]], Action]


class _built_on_first_read:
    """Non-data descriptor: the method's value, set with `object.__setattr__` at the first
    read; a `cached_property` writes `__dict__`, which slows every later read (CPython 3.11)."""

    def __init__(self, build: Callable) -> None:
        self.build, self.name = build, build.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        object.__setattr__(instance, self.name, value := self.build(instance))
        return value


@dataclass(frozen=True)
class Instance:
    """Ordered keywords, budgeted bidders, and a sparse non-negative bid matrix.

    `bids` maps (keyword, bidder) to an integer amount; absent pairs bid 0.
    Construction only type-checks; semantic problems (duplicate ids, a bid
    exceeding its bidder's budget, negative amounts) are representable and
    reported by :func:`validate`.  The rows `positive_bids` reads are built on first read.
    """

    keywords: tuple[str, ...]
    bidders: tuple[tuple[str, int], ...]
    bids: Mapping[tuple[str, str], int]

    def __post_init__(self) -> None:
        # `type(x) is int` lets plain ints skip _money and its message
        object.__setattr__(self, "keywords", tuple(self.keywords))
        object.__setattr__(
            self,
            "bidders",
            tuple(
                (v, b if type(b) is int else _money(b, f"budget of {v!r}"))
                for v, b in self.bidders
            ),
        )
        bids = dict(self.bids)
        # The copy is kept as is when every key is a plain pair and every
        # amount a plain int.  Otherwise each entry is rebuilt in order, which
        # stores a tuple subclass key (a namedtuple) as a plain tuple and
        # raises the first bad key's or amount's error.  Only a 2-item tuple
        # is a key: a 2-char string or a 2-item set would unpack into a pair
        # nobody wrote down.
        pairs = not {*map(type, bids)} - {tuple} and not {*map(len, bids)} - {2}
        if not pairs or {*map(type, bids.values())} - {int}:
            checked = {}
            for key, a in bids.items():
                if not isinstance(key, tuple) or len(key) != 2:
                    error = ValueError if isinstance(key, Iterable) else TypeError
                    raise error(f"bid key {key!r} is not a (keyword, bidder) tuple")
                u, v = key
                checked[u, v] = a if type(a) is int else _money(a, f"bid ({u!r}, {v!r})")
            bids = checked
        object.__setattr__(self, "bids", bids)
        index = {v: i for i, (v, _) in enumerate(self.bidders)}
        object.__setattr__(self, "_index", index)

    @_built_on_first_read
    def _rows(self) -> dict[str, dict[str, int]]:
        # per-keyword positive bids, in bidder-index order: filled in bid
        # order, and only a row whose indices arrived out of order is sorted.
        # `tail` is the index of the last bid put in `row`, the row of `at`.
        index = self._index  # type: ignore[attr-defined]
        rows: dict[str, dict[str, int]] = {u: {} for u in self.keywords}
        unsorted = set()
        at, row, tail = object(), {}, -1  # object(): no keyword yet
        for (u, v), a in self.bids.items():
            if a > 0 and u in rows and v in index:
                i = index[v]
                if u != at:
                    at, row = u, rows[u]
                    tail = index[next(reversed(row))] if row else -1
                if i < tail:
                    unsorted.add(u)
                tail = i
                row[v] = a
        for u in unsorted:
            rows[u] = dict(sorted(rows[u].items(), key=lambda item: index[item[0]]))
        return rows

    # ------------------------------------------------------------------
    # views

    @property
    def m(self) -> int:
        """Number of keywords."""
        return len(self.keywords)

    @property
    def bidder_ids(self) -> tuple[str, ...]:
        return tuple(v for v, _ in self.bidders)

    def bidder_index(self, bidder: str) -> int:
        try:
            return self._index[bidder]  # type: ignore[attr-defined]
        except KeyError:
            raise UnknownId(f"unknown bidder {bidder!r}") from None

    def budget_of(self, bidder: str) -> int:
        return self.bidders[self.bidder_index(bidder)][1]

    def initial_budgets(self) -> dict[str, int]:
        return {v: b for v, b in self.bidders}

    def bid(self, keyword: str, bidder: str) -> int:
        if keyword not in self._rows:
            raise UnknownId(f"unknown keyword {keyword!r}")
        self.bidder_index(bidder)
        return self.bids.get((keyword, bidder), 0)

    def positive_bids(self, keyword: str) -> Mapping[str, int]:
        """Read-only view of the positive bids on `keyword`, in bidder-index order."""
        try:
            return MappingProxyType(self._rows[keyword])
        except KeyError:
            raise UnknownId(f"unknown keyword {keyword!r}") from None

    def neighbors(self, keyword: str) -> tuple[str, ...]:
        """Bidders with a positive bid on `keyword`, in bidder-index order."""
        return tuple(self.positive_bids(keyword))

    def is_unit(self) -> bool:
        """True for 2PM-shaped instances: every budget 1, every bid 0 or 1."""
        return all(b == 1 for _, b in self.bidders) and all(
            a in (0, 1) for a in self.bids.values()
        )


def unit_instance(
    adjacency: Mapping[str, Sequence[str]],
    bidders: Sequence[str] | None = None,
) -> Instance:
    """All-ones instance from keyword -> neighbor lists (budgets 1, bids 1)."""
    if bidders is None:
        seen: dict[str, None] = {}
        for row in adjacency.values():
            for v in row:
                seen.setdefault(v)
        bidders = tuple(seen)
    bids = {(u, v): 1 for u, row in adjacency.items() for v in row}
    return Instance(tuple(adjacency), tuple((v, 1) for v in bidders), bids)


def _winner_pairs(instance: Instance, winners: Mapping[str, str]) -> list[tuple[str, str]]:
    """A first-price allocation's (keyword, winner) pairs in arrival order.

    Raises UnknownId for a keyword or a winner that is not in `instance`.
    """
    for u, v in winners.items():
        if u not in instance._rows:
            raise UnknownId(f"unknown keyword {u!r}")
        instance.bidder_index(v)
    return [(u, winners[u]) for u in instance.keywords if u in winners]


@dataclass
class BudgetState:
    """Remaining budgets during a run; `step` counts processed keywords."""

    remaining: dict[str, int]
    step: int = 0

    @classmethod
    def start(cls, instance: Instance) -> "BudgetState":
        return cls(instance.initial_budgets())

    def settle(self, bids: Mapping[str, int], action: Action) -> int:
        """Apply one keyword's action against `bids`; returns the price charged.

        For an assignment the first bidder's effective bid must be at least
        the second's, both evaluated under the current remaining budgets.
        Anything that is neither an Assign nor a Skip raises PolicyViolation.
        """
        price = 0
        if isinstance(action, Assign):
            first, second = action.first, action.second
            remaining = self.remaining
            try:
                left_first, left_second = remaining[first], remaining[second]
            except KeyError:
                unknown = second if first in remaining else first
                raise UnknownId(f"unknown bidder {unknown!r}") from None
            eff_first = min(bids.get(first, 0), left_first)
            eff_second = min(bids.get(second, 0), left_second)
            if eff_first < eff_second:
                raise OrderingViolation(
                    f"effective bid of {first!r} ({eff_first}) is below "
                    f"{second!r} ({eff_second}) at step {self.step}"
                )
            price = eff_second
            remaining[first] -= price
        elif not isinstance(action, Skip):
            raise PolicyViolation(f"policy returned {action!r}, not an action")
        self.step += 1
        return price


class TraceStep(NamedTuple):
    """One settled keyword: the action taken on it and the price charged."""

    keyword: str
    action: Action
    price: int


@dataclass(frozen=True)
class AuctionTrace:
    """Executed per-keyword outcomes; `value` is the sum of prices."""

    steps: tuple[TraceStep, ...]
    value: int
    final_budgets: Mapping[str, int]

    def prices(self) -> tuple[int, ...]:
        return tuple(s.price for s in self.steps)

    def actions(self) -> tuple[Action, ...]:
        return tuple(s.action for s in self.steps)


def _settle(
    state: BudgetState, arrivals: Iterable[tuple[str, Mapping[str, int]]], decide: _Decide
) -> AuctionTrace:
    """Settle each (keyword, bids) arrival with `decide(step, keyword, bids, budgets)`.

    The next arrival is drawn only after the previous one is settled, so an
    adaptive source may build it from the budgets the run has left.
    """
    budgets = MappingProxyType(state.remaining)
    steps = []
    value = 0
    for step, (keyword, bids) in enumerate(arrivals):
        action = decide(step, keyword, bids, budgets)
        price = state.settle(bids, action)
        value += price
        steps.append(TraceStep(keyword, action, price))
    return AuctionTrace(tuple(steps), value, dict(state.remaining))


def settle_all(instance: Instance, decide: _Decide) -> AuctionTrace:
    """Settle each keyword in arrival order with `decide(step, keyword, bids, budgets)`.

    `decide` sees the keyword's positive bids and a read-only live view of
    the remaining budgets, both before the keyword is settled.
    """
    arrivals = ((u, instance.positive_bids(u)) for u in instance.keywords)
    return _settle(BudgetState.start(instance), arrivals, decide)


def execute(instance: Instance, actions: Sequence[Action]) -> AuctionTrace:
    """Run one action per keyword, in arrival order, under exact semantics.

    The action list plays the policy's part.  Raises UnknownId for unknown
    bidders, SameBidder for degenerate pairs (at Assign construction),
    OrderingViolation when the first-price bidder's effective bid drops
    below the second's, and PolicyViolation for a non-action.
    """
    acts = list(actions)
    if len(acts) != instance.m:
        raise ValueError(f"need {instance.m} actions, got {len(acts)}")
    return settle_all(instance, lambda step, keyword, bids, budgets: acts[step])


@dataclass(frozen=True)
class ValidationReport:
    errors: tuple[str, ...]
    warnings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def validate(instance: Instance) -> ValidationReport:
    """Report semantic problems (errors) and model-assumption gaps (warnings).

    Errors: duplicate ids, negative budgets or bids, bids referencing unknown
    ids, and bids exceeding their bidder's budget.  Warning: in a 2PM-shaped
    instance (all budgets 1, bids 0/1), keywords with fewer than two positive
    bidders cannot yield profit.
    """
    errors: list[str] = []
    warnings: list[str] = []

    seen_kw: set[str] = set()
    for u in instance.keywords:
        if u in seen_kw:
            errors.append(f"duplicate keyword id {u!r}")
        seen_kw.add(u)
    seen_b: set[str] = set()
    for v, budget in instance.bidders:
        if v in seen_b:
            errors.append(f"duplicate bidder id {v!r}")
        seen_b.add(v)
        if budget < 0:
            errors.append(f"negative budget for bidder {v!r}: {budget}")

    budgets = {v: b for v, b in instance.bidders}
    for (u, v), a in instance.bids.items():
        if u not in seen_kw:
            errors.append(f"bid references unknown keyword {u!r}")
        if v not in seen_b:
            errors.append(f"bid references unknown bidder {v!r}")
        if a < 0:
            errors.append(f"negative bid ({u!r}, {v!r}): {a}")
        elif v in budgets and a > budgets[v]:
            errors.append(f"bid ({u!r}, {v!r}) = {a} exceeds budget {budgets[v]}")

    if not errors and instance.is_unit():
        thin = [u for u in instance.keywords if len(instance.neighbors(u)) < 2]
        if thin:
            warnings.append(
                f"{len(thin)} keyword(s) with fewer than two positive bidders: "
                + ", ".join(repr(u) for u in thin[:5])
            )
    return ValidationReport(tuple(errors), tuple(warnings))


def r_min(instance: Instance) -> Fraction:
    """Exact minimum budget-to-bid ratio over positive bids.

    Zero bids are excluded; raises NoPositiveBids when no positive bid exists.
    Ratios are compared by integer cross-multiplication (bids are positive),
    and only the minimum becomes a Fraction.
    """
    best: tuple[int, int] | None = None  # (budget, bid) of the smallest ratio so far
    budgets = instance.initial_budgets()
    for (u, v), a in instance.bids.items():
        if a > 0 and v in budgets:
            b = budgets[v]
            if best is None or b * best[1] < best[0] * a:
                best = (b, a)
    if best is None:
        raise NoPositiveBids("instance has no positive bid")
    return Fraction(*best)
