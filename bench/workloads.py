"""The benchmark's workloads: fixed library work made from a seed, and output checks.

Each workload function does one pass of library work through auctionlab's
public API (always through the package or module attribute, so a tracer's
rebinding sees the call) and keeps its outputs; worker.py times it.  `check`
then compares the outputs with independent references, untimed.

Why these three workloads:

- mc-light: five cheap Monte-Carlo suites at their default parameters, each
  with enough trials to take the harness's pooled path, as
  `auctionlab experiment` does at its default 1000 trials.  Instance
  construction, generators, `run_online`, the policies and pool overhead
  dominate; the oracles do almost nothing.
- exact-search: heavy trials dominated by `opt_2pm` (reverse-match at 12x12),
  `opt_2pm` on long thin adversary chains, and `opt_2paa`/`opt_1paa` on pinned
  instances.  The pool should win here; `model` and `online` do little.
- large-instance: a few very large instances through the offline
  algorithms, the first-price transform, `formats` and the CLI.  Per-instance
  algorithms dominate and neither the harness nor the pool is involved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

import auctionlab as al
from auctionlab import cli, formats

MC_LIGHT_SUITES = (
    "ranking-kcopy",
    "ranking-simulate",
    "greedy-chain",
    "top-c",
    "random-construction",
)

# Work per pass.  "smoke" keeps every step and check at a tiny size.  The
# pinned oracle instances are random_2paa draws with max_bid 9, given as
# (oracle, num_keywords, num_bidders, target_r_min, generator seed); they do
# not depend on the benchmark seed, so their values are checked on every run.
SIZES = {
    "full": {
        "mc_trials": 2000,
        "rm_trials": 512,
        "rm_side": 12,
        "m_max": 120,
        "oracles": (
            ("opt_2paa", 8, 4, 1, 0),
            ("opt_2paa", 10, 4, 1, 0),
            ("opt_2paa", 6, 5, 2, 0),
            ("opt_1paa", 12, 4, 1, 0),
            ("opt_1paa", 14, 4, 1, 0),
            ("opt_1paa", 10, 5, 1, 0),
        ),
        "paa_side": 300,
        "top_c": 20,
        "pm_side": 2000,
    },
    "smoke": {
        "mc_trials": 16,
        "rm_trials": 16,
        "rm_side": 8,
        "m_max": 8,
        "oracles": (("opt_2paa", 8, 4, 1, 1), ("opt_1paa", 8, 4, 1, 0)),
        "paa_side": 30,
        "top_c": 3,
        "pm_side": 200,
    },
}

# One pinned instance per search oracle for node counting; every call
# takes well under 0.1 s.
NODE_INSTANCES = (
    ("opt_2pm", lambda: al.random_2pm(12, 12, 0.3, seed=0)),
    ("opt_2paa", lambda: al.random_2paa(8, 4, 9, 1, seed=1)),
    ("opt_1paa", lambda: al.random_2paa(10, 4, 9, 1, seed=0)),
)


class Pass:
    """Timing, operation counts, outputs and check results of one pass.

    An operation is a trial (record or skipped), a top-level library call
    or an output check.  A skipped trial, a per-trial violation and a failed
    check each count as one failed operation.
    """

    def __init__(self, size: dict) -> None:
        self.size = size
        self.calls = 0  # top-level library calls outside run_experiment
        self.trials = 0  # records + skipped over all run_experiment calls
        self.trial_s = 0.0  # wall time of the run_experiment calls
        self.checks = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outputs: dict[str, object] = {}  # compared across passes and with pins
        self.suites: dict[str, tuple] = {}  # suite -> (report, CSV text)
        self.oracles: dict[str, tuple] = {}  # label -> (instance, OptResult)
        self.large: dict[str, object] = {}  # large-instance results by step

    @property
    def attempted(self) -> int:
        return self.trials + self.calls + self.checks

    def call(self, fn, *args, **kwargs):
        self.calls += 1
        return fn(*args, **kwargs)

    def experiment(self, suite: str, params: dict | None, trials: int, seed: int) -> None:
        started = perf_counter()
        report, records = al.run_experiment(suite, params, trials=trials, seed=seed)
        self.trial_s += perf_counter() - started
        self.trials += report.trials + report.skipped
        buf = io.StringIO()
        self.call(formats.records_to_csv, records, buf)
        self.suites[suite] = (report, buf.getvalue())

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        self.failures.append(message)

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.checks += 1
        if not ok:
            self.fail(f"{name}: {detail}")


def sha256(text: str | bytes) -> str:
    data = text.encode() if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()


# ----------------------------------------------------------------------
# workloads: library work only; everything here is timed


def mc_light(p: Pass, seed: int, tmp: str) -> None:
    size = p.size
    for suite in MC_LIGHT_SUITES:
        p.experiment(suite, None, size["mc_trials"], seed)


def exact_search(p: Pass, seed: int, tmp: str) -> None:
    size = p.size
    side = size["rm_side"]
    rm = {"num_keywords": side, "num_bidders": side, "edge_probability": 0.3}
    p.experiment("reverse-match", rm, size["rm_trials"], seed)
    p.experiment("adversary", {"m_max": size["m_max"]}, 1, seed)
    for oracle, nk, nb, r, gseed in size["oracles"]:
        instance = p.call(al.random_2paa, nk, nb, 9, r, seed=gseed)
        result = p.call(getattr(al, oracle), instance)
        p.oracles[f"{oracle} {nk}x{nb} r{r} s{gseed}"] = (instance, result)


def large_instance(p: Pass, seed: int, tmp: str) -> None:
    size = p.size
    n, c, m = size["paa_side"], size["top_c"], size["pm_side"]
    paa = p.call(al.random_2paa, n, n, 9, c, seed=seed)
    p.large["paa"] = paa
    p.large["first_price"] = p.call(al.to_first_price_bids, paa)
    p.large["top_c"] = p.call(al.top_c, paa, c)
    path = p.large["paa_path"] = os.path.join(tmp, "paa.json")
    with open(path, "w", encoding="utf-8") as fp:
        p.call(formats.dump_instance, paa, fp)
    with open(path, "r", encoding="utf-8") as fp:
        p.large["reloaded"] = p.call(formats.load_instance, fp)

    pm = p.call(al.random_2pm, m, m, 4 / m, seed=seed)
    p.large["pm"] = pm
    p.large["max_matching"] = p.call(al.max_matching, pm)
    p.large["reverse_match"] = p.call(al.reverse_match, pm)
    p.large["greedy_2pm"] = p.call(al.run_online, pm, al.greedy_2pm(), seed=seed)
    p.large["ranking_simulate"] = p.call(al.run_online, pm, al.ranking_simulate(), seed=seed)

    # the CLI on the same 2PM instance, written and read as files
    pm_path = os.path.join(tmp, "pm.json")
    out_path = os.path.join(tmp, "solved.json")
    params = f"num_keywords={m},num_bidders={m},edge_probability={4 / m!r}"
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        codes = [
            p.call(cli.main, ["generate", "--family", "random-2pm", "--params", params,
                              "--seed", str(seed), "--out", pm_path]),
            p.call(cli.main, ["validate", "--input", pm_path]),
            p.call(cli.main, ["solve", "--algorithm", "reverse-match", "--input", pm_path,
                              "--out", out_path]),
        ]
    p.large["cli"] = (codes, stdout.getvalue(), pm_path, out_path)


WORKLOADS = {
    "mc-light": mc_light,
    "exact-search": exact_search,
    "large-instance": large_instance,
}


# ----------------------------------------------------------------------
# checks: independent references, untimed


def _check_suites(p: Pass) -> None:
    for suite, (report, csv_text) in p.suites.items():
        p.check(f"{suite} verdict", report.passed, "FAIL verdict")
        bad = report.skipped + report.violations
        if bad:
            p.fail(f"{suite}: {report.skipped} TooLarge skips, {report.violations} violations", bad)
        verdict = "PASS" if report.passed else "FAIL"
        p.outputs[suite] = f"{verdict} {sha256(csv_text)}"


def _replays(p: Pass, name: str, instance, trace) -> None:
    """The trace replays through execute to the same prices and value."""
    replay = al.execute(instance, trace.actions())
    p.check(f"{name} replay", replay == trace, "execute disagrees with the returned trace")


def _first_price_replay(instance, winners) -> int:
    remaining = dict(instance.bidders)
    total = 0
    for u in instance.keywords:
        v = winners.get(u)
        if v is not None:
            price = min(instance.bids.get((u, v), 0), remaining[v])
            remaining[v] -= price
            total += price
    return total


def _check_oracles(p: Pass) -> None:
    for name, (instance, result) in p.oracles.items():
        if name.startswith("opt_1paa"):
            p.check(f"{name} replay", _first_price_replay(instance, result.witness) == result.value,
                    "winners do not replay to the value")
            witness = result.witness
        else:
            _replays(p, name, instance, result.witness)
            p.check(f"{name} witness", result.witness.value == result.value, "witness value")
            witness = formats.trace_to_doc(result.witness)
        p.outputs[name] = f"{result.value} {sha256(json.dumps(witness))}"


def first_price_reference(instance) -> dict:
    """to_first_price_bids by one sort per keyword: b'(u, v) is the largest
    other bid on u not above v's own bid, zero bids included."""
    ids = [v for v, _ in instance.bidders]
    out = {}
    for u in instance.keywords:
        amounts = [instance.bids.get((u, v), 0) for v in ids]
        ordered = sorted(amounts)
        for v, a in zip(ids, amounts):
            lo = bisect_left(ordered, a)
            if bisect_right(ordered, a) - lo >= 2:
                best = a  # another bidder bids exactly a
            else:
                best = ordered[lo - 1] if lo > 0 else 0
            if best > 0:
                out[(u, v)] = best
    return out


def _same_instance(a, b) -> bool:
    return a.keywords == b.keywords and a.bidders == b.bidders and dict(a.bids) == dict(b.bids)


def _scipy_matching_size(instance) -> int | None:
    try:
        import numpy as np
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import maximum_bipartite_matching
    except ImportError:
        return None
    kw = {u: i for i, u in enumerate(instance.keywords)}
    bd = {v: j for j, (v, _) in enumerate(instance.bidders)}
    edges = [(kw[u], bd[v]) for (u, v), a in instance.bids.items() if a > 0]
    rows = np.array([e[0] for e in edges], dtype=np.int32)
    cols = np.array([e[1] for e in edges], dtype=np.int32)
    graph = csr_matrix((np.ones(len(edges), dtype=np.int8), (rows, cols)),
                       shape=(len(kw), len(bd)))
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int((match >= 0).sum())


def _check_large(p: Pass) -> None:
    k, size = p.large, p.size
    paa, prime = k["paa"], k["first_price"]
    ok = prime.keywords == paa.keywords and prime.bidders == paa.bidders
    p.check("to_first_price_bids reference", ok and dict(prime.bids) == first_price_reference(paa),
            "differs from the sort-per-row reference")
    p.outputs["to_first_price_bids"] = sha256(json.dumps(formats.instance_to_doc(prime)))

    c, trace = size["top_c"], k["top_c"]
    _replays(p, "top_c", paa, trace)
    seconds = sum(sorted(paa.positive_bids(u).values())[-2] for u in paa.keywords
                  if len(paa.positive_bids(u)) >= 2)
    bound = Fraction(min(c, paa.m), paa.m) * seconds
    p.check("top_c bound", trace.value >= bound, f"{trace.value} < {bound}")
    p.outputs["top_c"] = trace.value

    p.check("formats round trip", _same_instance(paa, k["reloaded"]), "reloaded instance differs")

    pm, matching = k["pm"], k["max_matching"]
    valid = all(pm.bids.get((u, v), 0) > 0 for u, v in matching.pairs.items())
    p.check("max_matching edges", valid, "pairs a keyword with a non-neighbor")
    reference = _scipy_matching_size(pm)
    if reference is not None:
        p.check("max_matching size", matching.size == reference,
                f"{matching.size} != scipy {reference}")
    p.outputs["max_matching"] = matching.size

    rm = k["reverse_match"]
    _replays(p, "reverse_match", pm, rm)
    unit = all(s.price == 1 for s in rm.steps if isinstance(s.action, al.Assign))
    p.check("reverse_match prices", unit, "an assignment charged other than 1")
    p.check("reverse_match factor", 2 * rm.value >= matching.size,
            f"{rm.value} < half of {matching.size}")
    p.outputs["reverse_match"] = rm.value
    for name in ("greedy_2pm", "ranking_simulate"):
        _replays(p, name, pm, k[name])
        p.outputs[name] = k[name].value

    codes, stdout, pm_path, out_path = k["cli"]
    p.check("cli exit codes", codes == [0, 0, 0], codes)
    p.check("cli validate", stdout == f"ok: {pm.m} keywords, {pm.m} bidders\n", stdout)
    with open(pm_path, "r", encoding="utf-8") as fp:
        p.check("cli generate", _same_instance(formats.load_instance(fp), pm),
                "generated file differs from random_2pm")
    with open(out_path, "r", encoding="utf-8") as fp:
        solved = fp.read()
    p.check("cli solve", json.loads(solved) == formats.trace_to_doc(rm),
            "solve output differs from reverse_match")
    with open(k["paa_path"], "rb") as fp:
        p.outputs["dump_instance"] = sha256(fp.read())
    p.outputs["cli solve"] = sha256(solved)


def check(p: Pass) -> None:
    """Check whatever the pass produced: suites, oracle results, large instances."""
    _check_suites(p)
    _check_oracles(p)
    if p.large:
        _check_large(p)


# ----------------------------------------------------------------------
# oracle node counts, measured from outside


def oracle_nodes() -> dict[str, float]:
    """Exact search-node counts by bisection on node_limit, and nodes/s.

    An oracle raises TooLarge once its node count exceeds node_limit, so
    the smallest limit that lets the call finish equals the node count.
    """
    out: dict[str, float] = {}
    for oracle, make in NODE_INSTANCES:
        instance = make()
        fn = getattr(al, oracle)
        lo, hi = 1, al.DEFAULT_NODE_LIMIT
        while lo < hi:
            mid = (lo + hi) // 2
            try:
                fn(instance, node_limit=mid)
            except al.TooLarge:
                lo = mid + 1
            else:
                hi = mid
        times = []
        for _ in range(5):
            started = perf_counter()
            fn(instance)
            times.append(perf_counter() - started)
        out[f"oracles.{oracle}.nodes"] = lo
        out[f"oracles.{oracle}.nodes_per_s"] = lo / statistics.median(times)
    return out
