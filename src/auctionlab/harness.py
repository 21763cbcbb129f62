"""Seeded Monte-Carlo suites, analytic reference bounds, and summaries."""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Mapping, NamedTuple, Sequence

from .errors import EmptyStream, InvalidParams, TooLarge, UnknownSuite, _at_least, _quoted
from .generators import (
    _AdversaryPlay,
    _adversary_play,
    _adversary_prefix,
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

# Seconds to start a process pool, map one small job list over it and shut it
# down: about 10 ms for 2 workers on a 2-CPU Linux VM (Python 3.11.7, fork,
# in a process that had already imported concurrent.futures.process).  The
# first pooled run in a process also imports that module, about 20 ms more on
# the same VM; the rule below does not count it.  run_experiment hands the
# rest of a run to a pool only when the pool would save more than this.
_POOL_COST_S = 0.01


class TrialRecord(NamedTuple):
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
    workers: int = 1  # processes in the pool that ran the tail; 1 when serial
    pooled_from: int | None = None  # first trial index given to the pool


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
    ratio = Fraction(reference.numerator, reference.denominator * max(value, 1))
    return TrialRecord(suite, trial, seed, instance, value, reference, ratio)


def _descriptor_int(descriptor: str, key: str) -> int:
    for token in descriptor.split():
        if token.startswith(key + "="):
            return int(token[len(key) + 1 :])
    raise InvalidParams(f"descriptor {descriptor!r} lacks {key}=")


def _merge_params(where: str, defaults: Mapping, given: Mapping | None) -> dict:
    """`defaults` overridden by `given`, each value converted to its default's
    type.  A string is parsed (int("2.7") fails); otherwise an int parameter
    takes only an int and a float one an int or a float, never a bool; a
    value refused either way raises InvalidParams naming `where`, key and value."""
    merged = dict(defaults)
    for key, raw in (given or {}).items():
        if key not in merged:
            raise InvalidParams(f"{where} has no parameter {key!r}")
        kind = type(merged[key])
        allowed = (str,) if kind is str else (str, int, kind)
        refused = f"{where} parameter {key!r} must be {kind.__name__}, got"
        if isinstance(raw, bool) or not isinstance(raw, allowed):
            raise InvalidParams(f"{refused} {raw!r}")
        try:
            merged[key] = kind(raw)
        except ValueError:
            raise InvalidParams(f"{refused} {_quoted(raw)}") from None
    return merged


# Trials map (params, index, seed) to (descriptor, value, reference), or None
# when skipped.  They reach the library through this module's globals, so
# rebinding a name here (a tracer, a test) sees every call.


def _kcopy_trial(params: dict, index: int, seed: int):
    n, k = params["n"], params["k"]
    graph = perfect_matchable_2pm(n, params["extra_edge_prob"], seed=seed)
    matched = run_online(left_k_copy(graph, k).instance, ranking_1p(), seed=seed)
    return f"kcopy n={n} k={k}", matched.size, ranking_sum_bound(n, k)


def _simulate_trial(params: dict, index: int, seed: int):
    n = params["n"]
    graph = perfect_matchable_2pm(n, params["extra_edge_prob"], seed=seed)
    trace = run_online(graph, ranking_simulate(), seed=seed)
    return f"pm n={n}", trace.value, ranking_sum_bound(n, 2) / 4


def _chain_trial(params: dict, index: int, seed: int):
    m = params["m"]
    sample = sample_chain(m, seed=seed)
    trace = run_online(sample.instance, greedy_2pm(), seed=seed)
    return f"chain m={m}", trace.value, Fraction(m + 1, 2)


def _reverse_match_trial(params: dict, index: int, seed: int):
    nk, nb = params["num_keywords"], params["num_bidders"]
    inst = random_2pm(nk, nb, params["edge_probability"], seed=seed)
    value = reverse_match(inst).value
    try:
        opt = opt_2pm(inst).value
    except TooLarge:
        return None
    return f"2pm {nk}x{nb} mf={max_matching(inst).size}", value, opt


def _reverse_match_violates(record: TrialRecord) -> bool:
    # mf is the whole instance's matching; a thin keyword's match can never
    # pay, so (mf + 1) // 2 is a valid floor only because random_2pm pads
    # every keyword to two bidders (without the padding it fails on 144 of
    # the 512 3x3 instances: test_criterion_2_reverse_match_factor_exhaustive)
    mf = _descriptor_int(record.instance, "mf")
    return 2 * record.value < record.reference or record.value < (mf + 1) // 2


@lru_cache(maxsize=None)
def _construction_setup(num_keywords: int, num_bidders: int, max_bid: int, instance_seed: int):
    """Fixed instance, its transformed-bid optimum, and the 1/8 target."""
    instance = random_2paa(num_keywords, num_bidders, max_bid, 1, seed=instance_seed)
    prime = to_first_price_bids(instance)
    best = opt_1paa(prime)
    alloc = normalize_first_price(prime, best.witness)
    return instance, alloc, Fraction(best.value, 8)


def _construction_trial(params: dict, index: int, seed: int):
    instance, alloc, target = _construction_setup(**params)
    trace = random_construction(instance, alloc, seed=seed)
    return f"rc iseed={params['instance_seed']}", trace.value, target


_BATTERY = (("greedy", greedy_2pm), ("skip-all", skip_all), ("first-available", first_available))


def _adversary_trials(params: dict) -> int:
    """One trial per (policy, m) pair for m = 1..m_max."""
    m_max = params["m_max"]
    _at_least(m_max=(m_max, 1))
    return len(_BATTERY) * m_max


@lru_cache(maxsize=None)
def _adversary_game(name: str, m_max: int) -> _AdversaryPlay:
    """The m_max-arrival game against battery policy `name`, played once per
    process: the game of every shorter m is its prefix."""
    return _adversary_play(dict(_BATTERY)[name](), m_max)


def _adversary_trial(params: dict, index: int, seed: int):
    name, _ = _BATTERY[index // params["m_max"]]
    m = index % params["m_max"] + 1
    transcript = _adversary_prefix(_adversary_game(name, params["m_max"]), m)
    opt = opt_2pm(transcript.instance).value
    return f"adversary policy={name} m={m}", transcript.policy_value, opt


def _adversary_violates(record: TrialRecord) -> bool:
    return record.value > 1 or record.reference != _descriptor_int(record.instance, "m")


def _top_c_trial(params: dict, index: int, seed: int):
    c, nk, nb = params["c"], params["num_keywords"], params["num_bidders"]
    _at_least(c=(c, 1))  # top_c's own message: random_2paa would name its target_r_min
    inst = random_2paa(nk, nb, params["max_bid"], c, seed=seed)
    return f"2paa {nk}x{nb} c={c}", top_c(inst, c).value, top_c_bound(inst, c)


def _top_c_violates(record: TrialRecord) -> bool:
    return Fraction(record.value) < record.reference


@dataclass(frozen=True)
class _Suite:
    """One suite.  kind is "lower" (mean >= bound - 3 SE), "target" (|mean -
    bound| <= 3 SE) or "exact" (no record fails `violates`).  `trials`, when
    set, takes the trial count from the merged params instead of the caller."""

    kind: str
    defaults: Mapping[str, object]
    trial: Callable[[dict, int, int], tuple | None]
    violates: Callable[[TrialRecord], bool] | None = None
    trials: Callable[[dict], int] | None = None


_SUITES = {
    "ranking-kcopy": _Suite("lower", {"n": 6, "k": 2, "extra_edge_prob": 0.3}, _kcopy_trial),
    "ranking-simulate": _Suite("lower", {"n": 8, "extra_edge_prob": 0.3}, _simulate_trial),
    "greedy-chain": _Suite("target", {"m": 9}, _chain_trial),
    "reverse-match": _Suite(
        "exact", {"num_keywords": 8, "num_bidders": 8, "edge_probability": 0.3},
        _reverse_match_trial, _reverse_match_violates,
    ),
    "random-construction": _Suite(
        "lower", {"num_keywords": 5, "num_bidders": 5, "max_bid": 9, "instance_seed": 0},
        _construction_trial,
    ),
    "adversary": _Suite(
        "exact", {"m_max": 6}, _adversary_trial, _adversary_violates, _adversary_trials
    ),
    "top-c": _Suite(
        "exact", {"c": 2, "num_keywords": 8, "num_bidders": 5, "max_bid": 9},
        _top_c_trial, _top_c_violates,
    ),
}

SUITES = tuple(_SUITES)


def _run_trial(suite: str, params: dict, base_seed: int, index: int) -> TrialRecord | None:
    seed = base_seed ^ index
    outcome = _SUITES[suite].trial(params, index, seed)
    return None if outcome is None else make_record(suite, index, seed, *outcome)


def _run_trials(args: tuple) -> list[TrialRecord | None]:
    """The trials of one run at `indices`, in order: a pool job."""
    suite, params, base_seed, indices = args
    return [_run_trial(suite, params, base_seed, index) for index in indices]


def violates(record: TrialRecord) -> bool:
    """Per-trial hard check of the exact-verdict suites; False for the others."""
    spec = _SUITES.get(record.suite)
    return spec is not None and spec.violates is not None and spec.violates(record)


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
    if suite not in _SUITES:
        raise UnknownSuite(suite)
    kind = _SUITES[suite].kind

    n = len(records)
    total = sum(r.value for r in records)
    mean = Fraction(total, n)
    var = Fraction(0)
    if n > 1:
        # the sample variance in integer moments: sum((v - mean)^2) / (n - 1)
        squares = sum(r.value * r.value for r in records)
        var = Fraction(n * squares - total * total, n * (n - 1))
    stdev = math.sqrt(float(var))  # stdev and se are for display only
    se = stdev / math.sqrt(n)

    bound: Fraction | None = None
    violations = 0
    if kind == "exact":
        violations = sum(1 for r in records if violates(r))
        passed = violations == 0
    else:
        bound = Fraction(records[0].reference)
        gap = mean - bound
        # |gap| <= 3 se, squared and exact: n gap^2 <= 9 var
        passed = (kind == "lower" and gap >= 0) or n * gap * gap <= 9 * var
    return ExperimentReport(
        suite, n, skipped, mean, stdev, se, bound, kind, violations, passed, elapsed
    )


def worker_cap() -> int:
    """AUCTIONLAB_WORKERS when set, else the CPUs this process may run on."""
    raw = os.environ.get("AUCTIONLAB_WORKERS", "")
    if raw.strip():
        try:
            return max(1, int(raw))
        except ValueError as exc:
            raise InvalidParams(f"AUCTIONLAB_WORKERS={raw!r} is not an integer") from exc
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) or 1
    return os.cpu_count() or 1


def run_experiment(
    suite: str,
    params: Mapping[str, object] | None = None,
    trials: int = 1000,
    seed: int = 0,
) -> tuple[ExperimentReport, list[TrialRecord]]:
    """Run a suite; deterministic for fixed (suite, params, trials, seed).

    `params` override the suite's defaults (see `_merge_params`).  Trial i
    draws everything from seed XOR i, so scheduling and worker count never
    change the records.  The adversary suite plays each policy of its battery
    for m = 1..m_max arrivals, so it runs 3 * m_max trials and ignores `trials`;
    it plays each policy's m_max-arrival game once per process and m_max, and
    each trial takes that game's first m arrivals.

    Trials run in this process, in index order.  After each trial from the
    second on, the serial time of the trials left is estimated as the mean
    time of the trials so far, the first excluded (it pays one-time set-up),
    times their number.  A pool of cap = `worker_cap()` processes saves at most
    (cap - 1) / cap of that; once this exceeds `_POOL_COST_S`, the remaining
    trials are dealt round-robin to min(cap * 4, trials left) pool jobs, so
    trials whose cost rises with the index spread evenly over the workers.
    With a cap of 1 no pool is made.
    The report's `workers` and `pooled_from` say which happened.
    """
    spec = _SUITES.get(suite)
    if spec is None:
        raise UnknownSuite(f"unknown suite {suite!r}; expected one of {', '.join(SUITES)}")
    merged = _merge_params(f"suite {suite!r}", spec.defaults, params)
    started = time.perf_counter()
    if spec.trials is not None:
        trials = spec.trials(merged)
    _at_least(trials=(trials, 1))
    cap = worker_cap()
    records: list[TrialRecord | None] = []
    timed = 0.0  # seconds spent in trials 1..index-1
    workers, pooled_from = 1, None
    for index in range(trials):
        left = trials - index
        if cap > 1 and index > 1 and timed / (index - 1) * left * (cap - 1) / cap > _POOL_COST_S:
            step = min(cap * 4, left)
            starts = range(index, index + step)
            jobs = [(suite, merged, seed, range(start, trials, step)) for start in starts]
            workers, pooled_from = min(cap, step), index
            records += [None] * left
            # imported here so that only a pooled run loads multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                for start, part in zip(starts, pool.map(_run_trials, jobs)):
                    records[start::step] = part
            break
        before = time.perf_counter()
        records.append(_run_trial(suite, merged, seed, index))
        if index:
            timed += time.perf_counter() - before
    records = [record for record in records if record is not None]
    report = summarize(
        records, skipped=trials - len(records), elapsed=time.perf_counter() - started
    )
    return replace(report, workers=workers, pooled_from=pooled_from), records


def report_to_doc(report: ExperimentReport) -> dict:
    """Every report field in order, each Fraction written as "p/q"."""
    from .formats import frac_str

    return {k: frac_str(v) if isinstance(v, Fraction) else v for k, v in vars(report).items()}


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
