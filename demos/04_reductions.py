"""Hardness gadgets and the first-price transform.

partition_to_2paa turns an equal-sum partition question into an auction
whose optimal revenue is yes_value exactly when a balanced split exists.
vc_to_2pm embeds vertex cover into 0/1 auctions via the identity
opt = 2|V| + |E| - OPT_VC.  to_first_price_bids rewrites bids so that a
first-price allocation of the new instance lower-bounds second-price
revenue of the original, and random_construction recovers at least an
eighth of it in expectation.
"""

from fractions import Fraction

from auctionlab import (
    Instance,
    extract_vertex_cover,
    first_price_value,
    normalize_first_price,
    opt_1paa,
    opt_2paa,
    opt_2pm,
    partition_to_2paa,
    random_construction,
    to_first_price_bids,
    vc_to_2pm,
    yes_strategy,
)

# weights (1, 1) split evenly; (1, 3) cannot.
yes = partition_to_2paa((1, 1), c=1)
trace = yes_strategy(yes, {1})
print("partition (1,1): yes_strategy replays to", trace.value,
      "== yes_value", yes.yes_value)

no = partition_to_2paa((1, 3), c=1)
best = opt_2paa(no.instance)
print("partition (1,3): optimum", best.value, "< no_threshold", no.no_threshold)

# Vertex cover on a triangle: OPT_VC = 2, so the gadget optimum is
# 2*3 + 3 - 2 = 7, and the optimal trace encodes a cover.
gadget = vc_to_2pm(("a", "b", "c"), (("a", "b"), ("b", "c"), ("a", "c")))
best = opt_2pm(gadget.instance)
cover = extract_vertex_cover(gadget, best.witness)
print("\ntriangle gadget: opt", best.value, "-> cover", sorted(cover))

# First-price transform on a small weighted instance: keep each bid only
# at the largest rival price it could be charged, then trim winners past
# their budgets.  Allocations are keyword -> winner mappings throughout.
inst = Instance(
    ("u1", "u2", "u3", "u4"),
    (("A", 10), ("B", 7), ("C", 6)),
    {
        ("u1", "A"): 6, ("u1", "B"): 4,
        ("u2", "B"): 7, ("u2", "C"): 5,
        ("u3", "A"): 4, ("u3", "C"): 3,
        ("u4", "A"): 5, ("u4", "B"): 5, ("u4", "C"): 2,
    },
)
prime = to_first_price_bids(inst)
print("\ntransform keeps", len(prime.bids), "of", len(inst.bids), "bids")

best_fp = opt_1paa(prime)
alloc = normalize_first_price(prime, best_fp.witness)
target = first_price_value(prime, alloc)
print("optimal first-price value on the transform:", target)

# Random Construction: mark bidders with fair coins, let unmarked winners
# collect the keywords whose runner-up is marked.
draws = [random_construction(inst, alloc, seed=s).value for s in range(2000)]
mean = Fraction(sum(draws), len(draws))
print(f"construction mean over 2000 seeds: {float(mean):.3f}"
      f" (guarantee >= {float(Fraction(target, 8)):.3f},"
      f" second-price opt {opt_2paa(inst).value})")
