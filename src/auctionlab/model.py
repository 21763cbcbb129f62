"""Exact data model and execution semantics for budgeted second-price auctions.

Keywords arrive one at a time in a fixed order.  Each bidder has an integer
budget and an integer bid per keyword (absent pairs bid 0).  Allocating a
keyword names an ordered pair of bidders: the first (the winner) is charged
the second's *effective* bid, where every bid is truncated to its bidder's
remaining budget at that moment.  Only the winner's budget decreases.  All
money is exact integer arithmetic; Python ints make overflow impossible.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Callable, Mapping, Sequence, Union

from .errors import NoPositiveBids, OrderingViolation, SameBidder, UnknownId


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


@dataclass(frozen=True)
class Assign:
    """Allocate the keyword to `first`, charging it `second`'s effective bid.

    The second-price bidder is not charged and may have effective bid 0,
    in which case the price is 0.
    """

    first: str
    second: str

    def __post_init__(self) -> None:
        if self.first == self.second:
            raise SameBidder(f"first and second bidder are both {self.first!r}")


Action = Union[Skip, Assign]
SKIP = Skip()


@dataclass(frozen=True)
class Instance:
    """Ordered keywords, budgeted bidders, and a sparse non-negative bid matrix.

    `bids` maps (keyword, bidder) to an integer amount; absent pairs bid 0.
    Construction only type-checks; semantic problems (duplicate ids, a bid
    exceeding its bidder's budget, negative amounts) are representable and
    reported by :func:`validate`.
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
        # turns any 2-item key into a tuple and raises the first bad key's or
        # amount's error.
        pairs = not {*map(type, bids)} - {tuple} and not {*map(len, bids)} - {2}
        if not pairs or {*map(type, bids.values())} - {int}:
            bids = {
                (u, v): a if type(a) is int else _money(a, f"bid ({u!r}, {v!r})")
                for (u, v), a in bids.items()
            }
        object.__setattr__(self, "bids", bids)
        index = {v: i for i, (v, _) in enumerate(self.bidders)}
        object.__setattr__(self, "_index", index)
        # per-keyword positive bids, in bidder-index order; indices are unique
        # within a row, so sorting (index, bidder, amount) never compares ids
        groups: dict[str, list[tuple[int, str, int]]] = {u: [] for u in self.keywords}
        for (u, v), a in bids.items():
            if a > 0 and u in groups and v in index:
                groups[u].append((index[v], v, a))
        rows = {}
        for u, row in groups.items():
            row.sort()
            rows[u] = {v: a for _, v, a in row}
        object.__setattr__(self, "_rows", rows)

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
        if keyword not in self._rows:  # type: ignore[attr-defined]
            raise UnknownId(f"unknown keyword {keyword!r}")
        self.bidder_index(bidder)
        return self.bids.get((keyword, bidder), 0)

    def positive_bids(self, keyword: str) -> Mapping[str, int]:
        """Read-only view of the positive bids on `keyword`, in bidder-index order."""
        if keyword not in self._rows:  # type: ignore[attr-defined]
            raise UnknownId(f"unknown keyword {keyword!r}")
        return MappingProxyType(self._rows[keyword])  # type: ignore[attr-defined]

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
    keywords: Sequence[str] | None = None,
) -> Instance:
    """All-ones instance from keyword -> neighbor lists (budgets 1, bids 1)."""
    kws = tuple(keywords) if keywords is not None else tuple(adjacency)
    if bidders is None:
        seen: dict[str, None] = {}
        for u in kws:
            for v in adjacency.get(u, ()):
                seen.setdefault(v)
        bidders = tuple(seen)
    bids = {(u, v): 1 for u in kws for v in adjacency.get(u, ())}
    return Instance(kws, tuple((v, 1) for v in bidders), bids)


@dataclass
class BudgetState:
    """Remaining budgets during a run; `step` counts processed keywords."""

    remaining: dict[str, int]
    step: int = 0

    @classmethod
    def start(cls, instance: Instance) -> "BudgetState":
        return cls(instance.initial_budgets())

    def effective(self, bidder: str, original_bid: int) -> int:
        if bidder not in self.remaining:
            raise UnknownId(f"unknown bidder {bidder!r}")
        return min(original_bid, self.remaining[bidder])

    def settle(self, bids: Mapping[str, int], action: Action) -> int:
        """Apply one keyword's action against `bids`; returns the price charged.

        For an assignment the first bidder's effective bid must be at least
        the second's, both evaluated under the current remaining budgets.
        """
        price = 0
        if isinstance(action, Assign):
            eff_first = self.effective(action.first, bids.get(action.first, 0))
            eff_second = self.effective(action.second, bids.get(action.second, 0))
            if eff_first < eff_second:
                raise OrderingViolation(
                    f"effective bid of {action.first!r} ({eff_first}) is below "
                    f"{action.second!r} ({eff_second}) at step {self.step}"
                )
            price = eff_second
            self.remaining[action.first] -= price
        self.step += 1
        return price


@dataclass(frozen=True)
class TraceStep:
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


def settle_all(
    instance: Instance,
    decide: Callable[[int, str, Mapping[str, int], Mapping[str, int]], Action],
) -> AuctionTrace:
    """Settle each keyword in arrival order with `decide(step, keyword, bids, budgets)`.

    `decide` sees the keyword's positive bids and a read-only live view of
    the remaining budgets, both before the keyword is settled.
    """
    state = BudgetState.start(instance)
    budgets = MappingProxyType(state.remaining)
    steps = []
    for step, keyword in enumerate(instance.keywords):
        bids = instance.positive_bids(keyword)
        action = decide(step, keyword, bids, budgets)
        steps.append(TraceStep(keyword, action, state.settle(bids, action)))
    return AuctionTrace(tuple(steps), sum(s.price for s in steps), dict(state.remaining))


def execute(instance: Instance, actions: Sequence[Action]) -> AuctionTrace:
    """Run one action per keyword, in arrival order, under exact semantics.

    Raises UnknownId for unknown bidders, SameBidder for degenerate pairs
    (at Assign construction), and OrderingViolation when the first-price
    bidder's effective bid drops below the second's.
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
