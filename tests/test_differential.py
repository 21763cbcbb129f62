"""Exact oracles against independent solvers from scipy.

The MILP models are solved by HiGHS through `scipy.optimize.milp`; they reach
the reverse-match size (12 keywords, 12 bidders), which the brute-force
references in test_oracles.py cannot.  scipy is not a package dependency, so
the module is skipped without it.
"""

import numpy as np
import pytest

from auctionlab import max_matching, opt_1paa, opt_2pm, random_2paa, random_2pm

scipy_optimize = pytest.importorskip("scipy.optimize")
csgraph = pytest.importorskip("scipy.sparse.csgraph")
sparse = pytest.importorskip("scipy.sparse")


def _edges(inst):
    """Positive bids as (keyword position, bidder index, amount)."""
    index = inst.bidder_index
    return [
        (t, index(v), a)
        for t, u in enumerate(inst.keywords)
        for v, a in inst.positive_bids(u).items()
    ]


def _solve(objective, rows, upper, integrality, var_upper):
    """Maximize objective @ z subject to rows @ z <= upper and 0 <= z <= var_upper."""
    res = scipy_optimize.milp(
        -np.asarray(objective, dtype=float),
        constraints=scipy_optimize.LinearConstraint(np.asarray(rows, dtype=float), -np.inf, upper),
        integrality=integrality,
        bounds=scipy_optimize.Bounds(0, var_upper),
    )
    assert res.status == 0, res.message
    value = round(-res.fun)
    assert abs(-res.fun - value) < 1e-6
    return value


def milp_2pm(inst):
    """Second-price matching as a MILP over winner x_e and second bidder s_e.

    Variables are x_0..x_{E-1}, then s_0..s_{E-1}, one pair per positive edge.
    A bidder is charged at most once and wins at most one keyword per charge;
    a keyword with a winner needs a second bidder other than the winner that
    no earlier keyword has charged.
    """
    edges = _edges(inst)
    count = len(edges)
    rows, upper = [], []

    def row(x=(), s=()):
        r = [0] * (2 * count)
        for e in x:
            r[e] += 1
        for e in s:
            r[count + e] += 1
        return r

    for i in range(len(inst.bidders)):
        rows.append(row(x=[e for e, (_, j, _) in enumerate(edges) if j == i]))
        upper.append(1)
    for t in range(inst.m):
        mine = [e for e, (k, _, _) in enumerate(edges) if k == t]
        rows.append(row(x=mine))
        upper.append(1)
        # sum_v x_tv - sum_w s_tw <= 0
        r = row(x=mine)
        for e in mine:
            r[count + e] -= 1
        rows.append(r)
        upper.append(0)
    for e, (t, w, _) in enumerate(edges):
        rows.append(row(x=[e], s=[e]))
        upper.append(1)
        earlier = [f for f, (k, j, _) in enumerate(edges) if j == w and k < t]
        rows.append(row(x=earlier, s=[e]))
        upper.append(1)
    if not rows:
        return 0
    return _solve([1] * count + [0] * count, rows, upper, 1, 1)


def milp_1paa(inst):
    """First-price value as a MILP: max sum_v y_v, y_v <= B_v, y_v <= sum_u b_uv x_uv.

    Variables are the binary winners x_0..x_{E-1}, then continuous y_v per
    bidder.  Each keyword has at most one winner.
    """
    edges = _edges(inst)
    count, n = len(edges), len(inst.bidders)
    rows, upper = [], []
    for t in range(inst.m):
        r = [0] * (count + n)
        for e, (k, _, _) in enumerate(edges):
            if k == t:
                r[e] = 1
        rows.append(r)
        upper.append(1)
    for i in range(n):
        # y_i - sum_u b_ui x_ui <= 0
        r = [0] * (count + n)
        r[count + i] = 1
        for e, (_, j, a) in enumerate(edges):
            if j == i:
                r[e] = -a
        rows.append(r)
        upper.append(0)
    budgets = [b for _, b in inst.bidders]
    return _solve(
        [0] * count + [1] * n, rows, upper, [1] * count + [0] * n, [1] * count + budgets
    )


@pytest.mark.parametrize("seed", range(40))
def test_opt_2pm_equals_milp_at_reverse_match_size(seed):
    inst = random_2pm(12, 12, 0.3, seed=seed)
    assert opt_2pm(inst).value == milp_2pm(inst)


@pytest.mark.parametrize("seed", range(40))
def test_opt_1paa_equals_milp(seed):
    inst = random_2paa(9, 4, 9, 1, seed=seed)
    assert opt_1paa(inst).value == milp_1paa(inst)


@pytest.mark.parametrize("seed", range(20))
def test_max_matching_size_equals_scipy(seed):
    rng = np.random.default_rng(seed)
    m, n = int(rng.integers(1, 40)), int(rng.integers(2, 40))
    inst = random_2pm(m, n, float(rng.choice([0.05, 0.1, 0.3])), seed=seed)
    edges = _edges(inst)
    graph = sparse.csr_matrix(
        ([1] * len(edges), ([t for t, _, _ in edges], [i for _, i, _ in edges])), shape=(m, n)
    )
    matched = csgraph.maximum_bipartite_matching(graph, perm_type="column")
    assert max_matching(inst).size == int((matched >= 0).sum())
