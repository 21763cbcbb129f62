"""Seeded Monte-Carlo suites, analytic reference bounds, and summaries."""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Mapping, Sequence

from .errors import EmptyStream, InvalidParams, TooLarge, UnknownSuite
from .generators import (
    ChainVariant,
    adversary_vs_policy,
    perfect_matchable_2pm,
    random_2pm,
    random_2paa,
    sample_chain,
)
from .offline import reverse_match, top_c, top_c_bound
from .online import (
    first_available,
    greedy_2pm,
    left_k_copy,
    ranking_1p,
    ranking_simulate,
    run_online,
    skip_all,
)
from .oracles import max_matching, opt_1paa, opt_2pm
from .reductions import normalize_first_price, random_construction, to_first_price_bids

SUITES = (
    "ranking-kcopy",
    "ranking-simulate",
    "greedy-chain",
    "reverse-match",
    "random-construction",
    "adversary",
    "top-c",
)

# verdict rule per suite: lower = mean >= bound - 3 SE, target = |mean - target|
# <= 3 SE, exact = zero per-trial violations
_RULES = {
    "ranking-kcopy": "lower",
    "ranking-simulate": "lower",
    "greedy-chain": "target",
    "reverse-match": "exact",
    "random-construction": "lower",
    "adversary": "exact",
    "top-c": "exact",
}

_DEFAULTS: dict[str, dict[str, object]] = {
    "ranking-kcopy": {"n": 6, "k": 2, "extra_edge_prob": 0.3},
    "ranking-simulate": {"n": 8, "extra_edge_prob": 0.3},
    "greedy-chain": {"m": 9},
    "reverse-match": {"num_keywords": 8, "num_bidders": 8, "edge_probability": 0.3},
    "random-construction": {
        "num_keywords": 5,
        "num_bidders": 5,
        "max_bid": 9,
        "instance_seed": 0,
    },
    "adversary": {"m_max": 6},
    "top-c": {"c": 2, "num_keywords": 8, "num_bidders": 5, "max_bid": 9},
}

_PARALLEL_THRESHOLD = 512


@dataclass(frozen=True)
class TrialRecord:
    """One trial: the algorithm's value against its per-trial reference."""

    suite: str
    trial: int
    seed: int
    instance: str
    value: int
    reference: int | Fraction
    ratio: Fraction


@dataclass(frozen=True)
class ExperimentReport:
    suite: str
    trials: int
    skipped: int
    mean: Fraction
    stdev: float
    se: float
    bound: Fraction | None
    kind: str
    violations: int
    passed: bool
    elapsed: float


@lru_cache(maxsize=None)
def ranking_sum_bound(n: int, k: int) -> Fraction:
    """Exact finite-n lower bound on matched size for the left k-copy.

    Sum over s = 1..n of (kn/(kn+1))^s; holds for any n-bidder instance
    with a perfect matching.  Cached: every trial of a suite asks for the
    same (n, k), and a Fraction is immutable.
    """
    if n < 1 or k < 1:
        raise InvalidParams(f"need n >= 1 and k >= 1, got n={n}, k={k}")
    q = Fraction(k * n, k * n + 1)
    return sum((q**s for s in range(1, n + 1)), Fraction(0))


def make_record(
    suite: str, trial: int, seed: int, instance: str, value: int, reference
) -> TrialRecord:
    ratio = Fraction(reference) / max(value, 1)
    return TrialRecord(suite, trial, seed, instance, value, reference, ratio)


def _descriptor_int(descriptor: str, key: str) -> int:
    for token in descriptor.split():
        if token.startswith(key + "="):
            return int(token[len(key) + 1 :])
    raise InvalidParams(f"descriptor {descriptor!r} lacks {key}=")


def _merge_params(suite: str, params: Mapping[str, object] | None) -> dict:
    merged = dict(_DEFAULTS[suite])
    for key, raw in (params or {}).items():
        if key not in merged:
            raise InvalidParams(f"suite {suite!r} has no parameter {key!r}")
        merged[key] = type(merged[key])(raw)
    return merged


@lru_cache(maxsize=None)
def _construction_setup(num_keywords: int, num_bidders: int, max_bid: int, instance_seed: int):
    """Fixed instance, its transformed-bid optimum, and the 1/8 target."""
    instance = random_2paa(num_keywords, num_bidders, max_bid, 1, seed=instance_seed)
    prime = to_first_price_bids(instance)
    best = opt_1paa(prime)
    alloc = normalize_first_price(prime, best.witness)
    return instance, alloc, Fraction(best.value, 8)


def _trial(suite: str, params: dict, index: int, base_seed: int) -> TrialRecord | None:
    seed = base_seed ^ index
    if suite == "ranking-kcopy":
        n, k = params["n"], params["k"]
        graph = perfect_matchable_2pm(n, params["extra_edge_prob"], seed=seed)
        copied = left_k_copy(graph, k)
        matched = run_online(copied.instance, ranking_1p(), seed=seed)
        return make_record(
            suite, index, seed, f"kcopy n={n} k={k}", matched.size, ranking_sum_bound(n, k)
        )
    if suite == "ranking-simulate":
        n = params["n"]
        graph = perfect_matchable_2pm(n, params["extra_edge_prob"], seed=seed)
        trace = run_online(graph, ranking_simulate(), seed=seed)
        return make_record(
            suite, index, seed, f"pm n={n}", trace.value, ranking_sum_bound(n, 2) / 4
        )
    if suite == "greedy-chain":
        m = params["m"]
        sample = sample_chain(m, ChainVariant.NORMAL, seed=seed)
        trace = run_online(sample.instance, greedy_2pm(), seed=seed)
        return make_record(suite, index, seed, f"chain m={m}", trace.value, Fraction(m + 1, 2))
    if suite == "reverse-match":
        nk, nb = params["num_keywords"], params["num_bidders"]
        inst = random_2pm(nk, nb, params["edge_probability"], seed=seed)
        trace = reverse_match(inst)
        try:
            opt = opt_2pm(inst).value
        except TooLarge:
            return None
        mf = max_matching(inst).size
        return make_record(suite, index, seed, f"2pm {nk}x{nb} mf={mf}", trace.value, opt)
    if suite == "random-construction":
        instance, alloc, target = _construction_setup(
            params["num_keywords"],
            params["num_bidders"],
            params["max_bid"],
            params["instance_seed"],
        )
        trace = random_construction(instance, alloc, seed=seed)
        descriptor = f"rc iseed={params['instance_seed']}"
        return make_record(suite, index, seed, descriptor, trace.value, target)
    if suite == "top-c":
        c = params["c"]
        nk, nb = params["num_keywords"], params["num_bidders"]
        inst = random_2paa(nk, nb, params["max_bid"], c, seed=seed)
        trace = top_c(inst, c)
        return make_record(
            suite, index, seed, f"2paa {nk}x{nb} c={c}", trace.value, top_c_bound(inst, c)
        )
    raise UnknownSuite(suite)


def _trial_slice(args: tuple) -> list[tuple[int, TrialRecord | None]]:
    suite, items, base_seed, start, stop = args
    params = dict(items)
    return [(i, _trial(suite, params, i, base_seed)) for i in range(start, stop)]


_BATTERY = (
    ("greedy", greedy_2pm),
    ("skip-all", skip_all),
    ("first-available", first_available),
)


def _adversary_records(params: dict, base_seed: int) -> list[TrialRecord]:
    """One record per (policy, m) pair; the trial count is fixed by m_max."""
    m_max = params["m_max"]
    if m_max < 1:
        raise InvalidParams(f"m_max must be >= 1, got {m_max}")
    records = []
    index = 0
    for name, factory in _BATTERY:
        for m in range(1, m_max + 1):
            transcript = adversary_vs_policy(factory(), m)
            opt = opt_2pm(transcript.instance).value
            records.append(
                make_record(
                    "adversary",
                    index,
                    base_seed ^ index,
                    f"adversary policy={name} m={m}",
                    transcript.policy_value,
                    opt,
                )
            )
            index += 1
    return records


def violates(record: TrialRecord) -> bool:
    """Per-trial hard check for the exact-verdict suites."""
    if record.suite == "reverse-match":
        mf = _descriptor_int(record.instance, "mf")
        return 2 * record.value < record.reference or record.value < (mf + 1) // 2
    if record.suite == "adversary":
        m = _descriptor_int(record.instance, "m")
        return record.value > 1 or record.reference != m
    if record.suite == "top-c":
        return Fraction(record.value) < record.reference
    return False


def summarize(
    records: Sequence[TrialRecord], *, skipped: int = 0, elapsed: float = 0.0
) -> ExperimentReport:
    """Aggregate a record stream into a report with the suite's verdict."""
    records = list(records)
    if not records:
        raise EmptyStream("no trial records to summarize")
    suite = records[0].suite
    if any(r.suite != suite for r in records):
        raise InvalidParams("records mix suites")
    kind = _RULES.get(suite)
    if kind is None:
        raise UnknownSuite(suite)

    n = len(records)
    mean = Fraction(sum(r.value for r in records), n)
    if n > 1:
        var = sum((Fraction(r.value) - mean) ** 2 for r in records) / (n - 1)
        stdev = math.sqrt(float(var))
    else:
        stdev = 0.0
    se = stdev / math.sqrt(n)

    bound: Fraction | None = None
    violations = 0
    if kind == "exact":
        violations = sum(1 for r in records if violates(r))
        passed = violations == 0
    else:
        bound = Fraction(records[0].reference)
        gap = float(mean - bound)
        passed = gap >= -3.0 * se if kind == "lower" else abs(gap) <= 3.0 * se
    return ExperimentReport(
        suite, n, skipped, mean, stdev, se, bound, kind, violations, passed, elapsed
    )


def worker_cap() -> int:
    raw = os.environ.get("AUCTIONLAB_WORKERS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise InvalidParams(f"AUCTIONLAB_WORKERS={raw!r} is not an integer") from exc
    return os.cpu_count() or 1


def run_experiment(
    suite: str,
    params: Mapping[str, object] | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> tuple[ExperimentReport, list[TrialRecord]]:
    """Run a suite; deterministic for fixed (suite, params, trials, seed).

    Trial i draws everything from seed XOR i, so scheduling and worker
    count never change the records.  The adversary suite enumerates its
    policy battery instead of sampling and ignores `trials`.
    """
    if suite not in SUITES:
        raise UnknownSuite(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    merged = _merge_params(suite, params)
    started = time.perf_counter()

    if suite == "adversary":
        records = _adversary_records(merged, seed)
        return summarize(records, elapsed=time.perf_counter() - started), records

    if trials < 1:
        raise InvalidParams(f"trials must be >= 1, got {trials}")
    cap = worker_cap()
    if trials >= _PARALLEL_THRESHOLD and cap > 1:
        items = tuple(sorted(merged.items()))
        chunk = max(1, -(-trials // (cap * 4)))
        jobs = [
            (suite, items, seed, start, min(start + chunk, trials))
            for start in range(0, trials, chunk)
        ]
        outcomes: list[tuple[int, TrialRecord | None]] = []
        with ProcessPoolExecutor(max_workers=cap) as pool:
            for part in pool.map(_trial_slice, jobs):
                outcomes.extend(part)
    else:
        outcomes = [(i, _trial(suite, merged, i, seed)) for i in range(trials)]

    outcomes.sort(key=lambda pair: pair[0])
    records = [rec for _, rec in outcomes if rec is not None]
    skipped = trials - len(records)
    report = summarize(records, skipped=skipped, elapsed=time.perf_counter() - started)
    return report, records


def report_to_doc(report: ExperimentReport) -> dict:
    from .formats import frac_str

    return {
        "suite": report.suite,
        "trials": report.trials,
        "skipped": report.skipped,
        "mean": frac_str(report.mean),
        "stdev": report.stdev,
        "se": report.se,
        "bound": None if report.bound is None else frac_str(report.bound),
        "kind": report.kind,
        "violations": report.violations,
        "passed": report.passed,
        "elapsed": report.elapsed,
    }


def format_report(report: ExperimentReport) -> str:
    verdict = "PASS" if report.passed else "FAIL"
    if report.kind == "exact":
        detail = f"violations={report.violations}"
    else:
        op = ">=" if report.kind == "lower" else "~"
        detail = f"mean={float(report.mean):.4f} {op} bound={float(report.bound):.4f} (3se={3 * report.se:.4f})"
    extra = f" skipped={report.skipped}" if report.skipped else ""
    return (
        f"{verdict} {report.suite}: trials={report.trials}{extra} {detail} "
        f"[{report.elapsed:.2f}s]"
    )
