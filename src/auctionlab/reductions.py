"""Reduction gadgets and the first-price transform.

partition_to_2paa embeds an equal-sum partition question into a budgeted
auction whose optimum crosses a stated threshold exactly on yes-instances.
vc_to_2pm embeds vertex cover into an all-ones instance with the identity
OPT = 2|V| + |E| - OPT_VC, and extract_vertex_cover recovers a cover from
any feasible trace.  to_first_price_bids / random_construction relate
second-price optima to first-price optima within a factor of 8 in
expectation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .errors import (
    InfeasibleTrace,
    InvalidParams,
    NotAPartition,
    UnresolvableSecondBidder,
    _at_least,
)
from .model import (
    SKIP,
    Action,
    Assign,
    AuctionTrace,
    Instance,
    _winner_pairs,
    execute,
    settle_all,
)

# ----------------------------------------------------------------------
# equal-sum partition -> budgeted second-price auction


@dataclass(frozen=True)
class PartitionGadget:
    """Auction encoding of an equal-sum partition question.

    `weights` and `total_weight`, their sum, are post-scaling (everything
    is doubled once when the raw weight sum is odd, recorded in `scale`).
    """

    instance: Instance
    n: int
    c: int
    scale: int
    weights: tuple[int, ...]
    c_keywords: tuple[str, ...]
    e_keywords: tuple[str, str]
    g_keywords: tuple[tuple[str, ...], ...]  # indexed [i][k], i in 1..n^2
    bidder_a: str
    bidder_d: tuple[str, str]
    bidder_f: str
    bidders_h: tuple[str, ...]

    @property
    def total_weight(self) -> int:
        return sum(self.weights)

    @property
    def yes_value(self) -> int:
        """Value achievable exactly when an equal partition exists."""
        n, c, w = self.n, self.c, self.total_weight
        return c * w * (n**5 + n + 2)

    @property
    def no_threshold(self) -> int:
        """Every solution stays strictly below this on no-instances."""
        n, c, w = self.n, self.c, self.total_weight
        return c * w * (n**3 + c * n * n + n + 2)

    @property
    def d_checkpoint(self) -> int:
        """Remaining budget of d1/d2 after the c-phase of the yes strategy."""
        return self.c * self.total_weight // 2

    @property
    def f_checkpoint(self) -> int:
        """Remaining budget of f after the e-phase of the yes strategy."""
        return self.c * self.total_weight * self.n**3


def partition_to_2paa(weights: Sequence[int], c: int) -> PartitionGadget:
    """Build the auction gadget for an even-size positive-weight multiset."""
    ws = list(weights)
    n = len(ws)
    if n == 0 or n % 2 != 0:
        raise InvalidParams(f"need an even positive number of weights, got {n}")
    _at_least(c=(c, 1))
    for w in ws:
        if isinstance(w, bool) or not isinstance(w, int) or w <= 0:
            raise InvalidParams(f"weights must be positive ints, got {w!r}")
    scale = 2 if sum(ws) % 2 else 1
    ws = [w * scale for w in ws]
    W = sum(ws)

    c_keywords = tuple(f"c{i}" for i in range(1, n + 1))
    e_keywords = ("e1", "e2")
    g_keywords = tuple(
        tuple(f"g{i}.{k}" for k in range(1, c + 1)) for i in range(1, n * n + 1)
    )
    keywords = c_keywords + e_keywords + tuple(g for row in g_keywords for g in row)

    bidders_h = tuple(f"h{i}" for i in range(1, n * n + 1))
    side_budget = c * W * (n + 2) // 2  # c*W*(1 + n/2); n is even
    bidders = (
        ("a", side_budget),
        ("d1", side_budget),
        ("d2", side_budget),
        ("f", c * W * (n**3 + 1)),
    ) + tuple((h, c * W * n**3) for h in bidders_h)

    bids: dict[tuple[str, str], int] = {}
    for i, kw in enumerate(c_keywords):
        for v in ("a", "d1", "d2"):
            bids[(kw, v)] = c * (ws[i] + W)
    for j, kw in enumerate(e_keywords):
        bids[(kw, f"d{j + 1}")] = c * W
        bids[(kw, "f")] = c * W // 2
    for i, row in enumerate(g_keywords):
        for kw in row:
            bids[(kw, "f")] = W * (n**3 + 1)
            bids[(kw, bidders_h[i])] = W * n**3

    instance = Instance(keywords, bidders, bids)
    return PartitionGadget(
        instance,
        n,
        c,
        scale,
        tuple(ws),
        c_keywords,
        e_keywords,
        g_keywords,
        "a",
        ("d1", "d2"),
        "f",
        bidders_h,
    )


def yes_strategy(gadget: PartitionGadget, subset: Iterable[int]) -> AuctionTrace:
    """Replay the canonical strategy certified by an equal-sum half `subset`.

    `subset` holds 1-based weight indices; it must have size n/2 and carry
    exactly half the total weight, else NotAPartition.  The replayed value
    always equals `gadget.yes_value`.
    """
    picked = set(subset)
    if not picked <= set(range(1, gadget.n + 1)):
        raise InvalidParams(f"subset indices must lie in 1..{gadget.n}")
    if len(picked) != gadget.n // 2 or (
        sum(gadget.weights[i - 1] for i in picked) * 2 != gadget.total_weight
    ):
        raise NotAPartition(
            f"indices {sorted(picked)} do not carry half of {gadget.total_weight}"
        )

    actions: list[Action] = []
    for i in range(1, gadget.n + 1):
        actions.append(Assign("d1" if i in picked else "d2", "a"))
    actions.append(Assign("f", "d1"))
    actions.append(Assign("f", "d2"))
    for i, row in enumerate(gadget.g_keywords):
        if i == 0:
            for kw in row[:-1]:
                actions.append(Assign("f", gadget.bidders_h[0]))
            actions.append(Assign(gadget.bidders_h[0], "f"))
        else:
            for kw in row:
                actions.append(Assign(gadget.bidders_h[i], "f"))
    trace = execute(gadget.instance, actions)
    if trace.value != gadget.yes_value:
        raise InfeasibleTrace(f"canonical replay reached {trace.value}, not {gadget.yes_value}")
    return trace


# ----------------------------------------------------------------------
# vertex cover -> all-ones second-price matching


@dataclass(frozen=True)
class VcGadget:
    """All-ones instance whose optimum is 2|V| + |E| - OPT_VC."""

    instance: Instance
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    h_keywords: Mapping[str, str]
    l_keywords: Mapping[str, str]
    edge_keywords: Mapping[tuple[str, str], str]
    x_bidders: Mapping[tuple[str, str], str]
    y_bidders: Mapping[str, str]
    z_bidders: Mapping[str, str]

    def identity_value(self, opt_vertex_cover: int) -> int:
        return 2 * len(self.vertices) + len(self.edges) - opt_vertex_cover


def vc_to_2pm(vertices: Sequence[str], edges: Sequence[tuple[str, str]]) -> VcGadget:
    """Embed a simple graph; all vertex gadgets arrive before edge keywords."""
    verts = tuple(str(v) for v in vertices)
    if len(set(verts)) != len(verts):
        raise InvalidParams("duplicate vertex labels")
    vset = set(verts)
    seen: set[frozenset[str]] = set()
    norm_edges: list[tuple[str, str]] = []
    for s, t in edges:
        s, t = str(s), str(t)
        if s == t:
            raise InvalidParams(f"self-loop at {s!r}")
        if s not in vset or t not in vset:
            raise InvalidParams(f"edge ({s!r}, {t!r}) references unknown vertex")
        key = frozenset((s, t))
        if key in seen:
            raise InvalidParams(f"duplicate edge ({s!r}, {t!r})")
        seen.add(key)
        norm_edges.append((s, t))

    h_kw = {v: f"h:{v}" for v in verts}
    l_kw = {v: f"l:{v}" for v in verts}
    e_kw = {e: f"e:{e[0]}-{e[1]}" for e in norm_edges}
    x_b = {e: f"x:{e[0]}-{e[1]}" for e in norm_edges}
    y_b = {v: f"y:{v}" for v in verts}
    z_b = {v: f"z:{v}" for v in verts}

    keywords = tuple(kw for v in verts for kw in (h_kw[v], l_kw[v])) + tuple(
        e_kw[e] for e in norm_edges
    )
    bidder_ids = (
        verts
        + tuple(b for v in verts for b in (y_b[v], z_b[v]))
        + tuple(x_b[e] for e in norm_edges)
    )
    for kind, ids in (("keyword", keywords), ("bidder", bidder_ids)):
        taken: set[str] = set()
        for x in ids:
            if x in taken:
                raise InvalidParams(f"vertex labels give a duplicate {kind} id {x!r}")
            taken.add(x)
    bids: dict[tuple[str, str], int] = {}
    for v in verts:
        bids[(h_kw[v], v)] = 1
        bids[(h_kw[v], y_b[v])] = 1
        bids[(l_kw[v], y_b[v])] = 1
        bids[(l_kw[v], z_b[v])] = 1
    for e in norm_edges:
        s, t = e
        bids[(e_kw[e], s)] = 1
        bids[(e_kw[e], t)] = 1
        bids[(e_kw[e], x_b[e])] = 1

    instance = Instance(keywords, tuple((b, 1) for b in bidder_ids), bids)
    return VcGadget(instance, verts, tuple(norm_edges), h_kw, l_kw, e_kw, x_b, y_b, z_b)


def extract_vertex_cover(gadget: VcGadget, trace: AuctionTrace) -> frozenset[str]:
    """Recover a vertex cover of size at most 2|V| + |E| - value from a feasible trace.

    A vertex gadget pays 2 only when h:v charges v, and an edge keyword
    cannot pay once both its endpoints are charged.  So the vertices charged
    by their h keyword, less the first endpoint of each unpaid edge whose
    endpoints are both still charged, leave a cover behind.  The cover's
    canonical trace, replayed under the exact semantics, is worth at least
    the given one: h:v and l:v pay for each vertex outside the cover, h:v
    for each vertex in it, and every edge keyword pays through its x bidder.
    """
    instance = gadget.instance
    replay = execute(instance, trace.actions())
    if replay.prices() != trace.prices():
        raise InfeasibleTrace("trace does not replay on the gadget instance")

    paid = {s.keyword: s.action.first for s in replay.steps if s.price == 1}
    charged = {v for v in gadget.vertices if paid.get(gadget.h_keywords[v]) == v}
    for e in gadget.edges:
        if gadget.edge_keywords[e] not in paid and set(e) <= charged:
            charged.remove(e[0])
    cover = frozenset(v for v in gadget.vertices if v not in charged)

    alloc = {gadget.edge_keywords[e]: gadget.x_bidders[e] for e in gadget.edges}
    for v in gadget.vertices:
        alloc[gadget.h_keywords[v]] = gadget.y_bidders[v] if v in cover else v
    alloc.update((gadget.l_keywords[v], gadget.y_bidders[v]) for v in charged)

    def decide(step, kw, row, budgets):
        first = alloc.get(kw)
        if first is None:
            return SKIP
        second = next((v for v in row if v != first and budgets[v] >= 1), None)
        if second is None:
            raise InfeasibleTrace(f"normalization left {kw!r} without a second")
        return Assign(first, second)

    rebuilt = settle_all(instance, decide)
    if any(s.price != 1 for s in rebuilt.steps if isinstance(s.action, Assign)):
        raise InfeasibleTrace("a normalized allocation does not charge 1")
    value = rebuilt.value
    if value < trace.value:
        raise InfeasibleTrace(f"normalization lost value: {value} < {trace.value}")
    if not all(s in cover or t in cover for s, t in gadget.edges):
        raise InfeasibleTrace("extracted vertex set misses an edge")
    if value != gadget.identity_value(len(cover)):
        raise InfeasibleTrace(f"cover size {len(cover)} breaks the identity at value {value}")
    return cover


# ----------------------------------------------------------------------
# second-price -> first-price transform and the random construction


def to_first_price_bids(instance: Instance) -> Instance:
    """Replace each bid with the highest other bid on the keyword not above it.

    The transformed bid b'(u, v) is what v would pay as a winner under
    second-price rules with everyone solvent; an empty candidate set gives 0.
    Budgets are unchanged, so b' <= b <= budget still holds.  The positive
    b' are listed in the original's bid order, each under the original's
    own key object, so the transform makes no new (keyword, bidder) pair.
    """
    # zero and absent bids never yield a positive b', so only the positive
    # row matters.  Each amount maps to its predecessor in sorted order; the
    # last of tied amounts wins, mapping to itself.
    b_prime = {}
    for u in instance.keywords:
        ordered = sorted(instance.positive_bids(u).values())
        b_prime[u] = dict(zip(ordered, [0] + ordered))
    index = instance._index  # type: ignore[attr-defined]
    bids: dict[tuple[str, str], int] = {}
    for key, a in instance.bids.items():
        u, v = key  # the rows' filter: a positive bid on a known keyword and bidder
        if a > 0 and u in b_prime and v in index and (b := b_prime[u][a]) > 0:
            bids[key] = b
    return Instance(instance.keywords, instance.bidders, bids)


def normalize_first_price(instance: Instance, winners: Mapping[str, str]) -> dict[str, str]:
    """Drop each bidder's allocations from the point its budget is exhausted.

    `winners` maps keywords to first-price winners (the shape of
    `opt_1paa`'s witness); the kept entries come back as a new mapping in
    arrival order.  Keeps a keyword iff the bidder's bid-sum over earlier
    kept keywords is still strictly below its budget; the first-price
    value is unchanged because dropped keywords could only ever pay the
    leftover sliver.  `instance` must be the transformed (first-price)
    instance; an unknown keyword or bidder raises UnknownId.
    """
    spent: dict[str, int] = {}
    kept: dict[str, str] = {}
    for u, v in _winner_pairs(instance, winners):
        before = spent.get(v, 0)
        if before < instance.budget_of(v):
            kept[u] = v
            spent[v] = before + instance.bid(u, v)
    return kept


def resolve_second_bidder(instance: Instance, keyword: str, bidder: str) -> str:
    """Lowest-index other bidder whose original bid equals b'(keyword, bidder)."""
    row = instance.positive_bids(keyword)
    own = row.get(bidder, 0)
    second, target = None, 0
    for v, a in row.items():
        if target < a <= own and v != bidder:  # strict: the first of equal bids stays
            second, target = v, a
    if second is not None:
        return second
    for v, _ in instance.bidders:
        if v != bidder and v not in row:
            return v
    raise UnresolvableSecondBidder(
        f"no bidder other than {bidder!r} bids {target} on {keyword!r}"
    )


def random_construction(
    instance: Instance,
    winners: Mapping[str, str],
    seed: int | None = None,
    *,
    marked: Iterable[str] | None = None,
) -> AuctionTrace:
    """Turn a first-price allocation into a feasible second-price trace.

    `winners` maps keywords to first-price winners, read in arrival order.
    Marks each bidder with probability 1/2 (bidder-index order; `marked`
    overrides the coin stream).  A keyword or bidder that is not in the
    instance raises UnknownId.  For every unmarked winner v, the keywords
    whose resolved second bidder is marked form S_v in arrival order: all
    of S_v is taken when its transformed bids fit the budget, otherwise
    the better of (everything but the last) and (the last alone).  Each
    taken keyword charges exactly its transformed bid, so the expected
    value is at least one eighth of the allocation's first-price value.
    """
    if marked is None:
        rng = random.Random(seed)
        mark = {v for v in instance.bidder_ids if rng.getrandbits(1)}
    else:
        mark = set(marked)
        for v in mark:
            instance.bidder_index(v)  # UnknownId for a bidder not in the instance

    chosen: dict[str, Assign] = {}
    by_winner: dict[str, list[tuple[str, int, str]]] = {}
    for u, v in _winner_pairs(instance, winners):
        if v in mark:
            continue
        second = resolve_second_bidder(instance, u, v)
        if second in mark:
            # b'(u, v) is the original bid of the resolved second bidder
            b_prime = instance.positive_bids(u).get(second, 0)
            by_winner.setdefault(v, []).append((u, b_prime, second))

    for v, entries in by_winner.items():
        budget = instance.budget_of(v)
        total = sum(b for _, b, _ in entries)
        if total <= budget:
            take = entries
        else:
            head, last = entries[:-1], entries[-1]
            take = head if sum(b for _, b, _ in head) >= last[1] else [last]
        for u, _, second in take:
            chosen[u] = Assign(v, second)

    actions: list[Action] = [chosen.get(u, SKIP) for u in instance.keywords]
    trace = execute(instance, actions)
    for step in trace.steps:
        if isinstance(step.action, Assign):
            expected = instance.positive_bids(step.keyword).get(step.action.second, 0)
            if step.price != expected:
                raise InfeasibleTrace(
                    f"{step.keyword!r} charged {step.price}, not its transformed bid {expected}"
                )
    return trace
