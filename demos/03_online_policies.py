"""Online policies on 0/1 instances.

The driver reveals keywords one at a time; a policy sees only the
neighborhoods revealed so far and must commit before the next arrival.
"""

import itertools
from fractions import Fraction

from auctionlab import (
    first_available,
    greedy_2pm,
    left_k_copy,
    ranking_1p,
    ranking_simulate,
    run_online,
    unit_instance,
)

cycle = unit_instance({"u1": ["v1", "v2"], "u2": ["v2", "v3"], "u3": ["v3", "v1"]})

trace = run_online(cycle, greedy_2pm())
print("greedy on 6-cycle:", trace.actions(), "-> value", trace.value)

# first_available ignores profit and matches any unspent neighbor, so it
# sometimes gives keywords away for free.
trace = run_online(cycle, first_available())
print("first_available:", trace.prices(), "-> value", trace.value)

# Ranking draws one random permutation of the bidders and uses it for
# every keyword. On this bottleneck instance the permutation decides
# whether u1 blocks u2.
bottleneck = unit_instance({"u1": ["v1", "v2"], "u2": ["v2"]})
total = Fraction(0)
for sigma in itertools.permutations(("v1", "v2")):
    matched = run_online(bottleneck, ranking_1p(sigma=sigma)).size
    print("ranking with sigma", sigma, "-> matched", matched)
    total += matched
print("mean over permutations:", total / 2)

# ranking_simulate runs Ranking (`policy.ranking`) on an imaginary 2-copy
# of the keyword stream, flipping a coin per arrival to decide which
# copy is "real": the real copy's bidder is matched, the other's is
# reserved. Keywords with fewer than two bidders are skipped, since no
# second bidder could ever pay. Forcing the coins makes single runs
# reproducible.
policy = ranking_simulate(sigma=("v1", "v2", "v3"), coins=(1, 0, 1))
trace = run_online(cycle, policy)
print("\nranking_simulate, forced coins:", trace.actions(), "-> value", trace.value)
print("matched (M):", sorted(policy.matched))
print("reserved (R):", sorted(policy.ranking.matched - policy.matched))

# The 2-copy instance itself, for comparison.
doubled = left_k_copy(cycle, 2)
matching = run_online(doubled.instance, ranking_1p(), seed=7)
print("ranking on explicit 2-copy matched", matching.size, "of 6 copies")
print("copy -> original:", dict(sorted(doubled.zeta.items())))

# Seeded runs are reproducible end to end: the driver's seed is the only
# source of randomness.
a = run_online(cycle, ranking_simulate(), seed=11).value
b = run_online(cycle, ranking_simulate(), seed=11).value
print("\nsame seed, same value:", a, "==", b)
