"""Experiment suites: reproducibility, verdict rules, record persistence."""

import csv
import hashlib
import io
import json
import math
import multiprocessing
import os
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    EmptyStream,
    InvalidParams,
    TooLarge,
    UnknownSuite,
    first_available,
    greedy_2pm,
    ranking_sum_bound,
    run_experiment,
    skip_all,
    summarize,
)
from auctionlab.formats import records_to_csv
from auctionlab.harness import (
    _SUITES,
    SUITES,
    TrialRecord,
    format_report,
    make_record,
    report_to_doc,
    violates,
    worker_cap,
)

# ----------------------------------------------------------------------
# analytic bound


def test_ranking_sum_bound_matches_geometric_closed_form():
    for n, k in ((1, 1), (4, 2), (6, 2), (8, 3)):
        q = Fraction(k * n, k * n + 1)
        closed = q * (1 - q**n) / (1 - q)
        assert ranking_sum_bound(n, k) == closed


def test_ranking_sum_bound_small_values():
    assert ranking_sum_bound(1, 1) == Fraction(1, 2)
    with pytest.raises(InvalidParams):
        ranking_sum_bound(0, 2)


# ----------------------------------------------------------------------
# summarize


def chain_record(trial, value, m=9):
    return make_record("greedy-chain", trial, trial ^ 3, f"chain m={m}", value, Fraction(m + 1, 2))


def test_record_repr_names_every_field():
    record = make_record("top-c", 3, 9, "2paa 8x5 c=2", 7, Fraction(14, 3))
    assert repr(record) == (
        "TrialRecord(suite='top-c', trial=3, seed=9, instance='2paa 8x5 c=2', value=7, "
        "reference=Fraction(14, 3), ratio=Fraction(2, 3))"
    )
    assert repr(chain_record(0, 0)).endswith("reference=Fraction(5, 1), ratio=Fraction(5, 1))")
    assert repr(make_record("adversary", 1, 1, "x", 2, 4)).endswith("reference=4, ratio=Fraction(2, 1))")


def test_equal_records_are_equal_and_hash_alike():
    assert chain_record(1, 4) == chain_record(1, 4)
    assert hash(chain_record(1, 4)) == hash(chain_record(1, 4))
    assert chain_record(1, 4) != chain_record(1, 5)
    assert chain_record(1, 4) != chain_record(2, 4)


@pytest.mark.parametrize(
    "field", ["suite", "trial", "seed", "instance", "value", "reference", "ratio"]
)
def test_records_refuse_assignment(field):
    record = chain_record(1, 4)
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert record == chain_record(1, 4)


def test_records_survive_a_pickle_round_trip():
    _, records = run_experiment("greedy-chain", trials=20, seed=5)
    again = pickle.loads(pickle.dumps(records))
    assert again == records and [*map(repr, again)] == [*map(repr, records)]
    assert {type(r) for r in again} == {TrialRecord}


def test_summarize_constant_stream_has_zero_se():
    report = summarize([chain_record(i, 5) for i in range(10)])
    assert report.mean == 5
    assert report.se == 0.0
    assert report.kind == "target"
    assert report.bound == Fraction(5)
    assert report.passed


def test_summarize_sample_standard_deviation():
    report = summarize([chain_record(0, 0), chain_record(1, 2)])
    assert report.mean == 1
    assert report.stdev == pytest.approx(math.sqrt(2))
    assert report.se == pytest.approx(1.0)


def _fraction_moments(values):
    """Mean and sample variance by summing each value's squared deviation."""
    n = len(values)
    mean = Fraction(sum(values), n)
    var = sum((Fraction(v) - mean) ** 2 for v in values) / (n - 1) if n > 1 else Fraction(0)
    return mean, var


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=60))
def test_summarize_moments_equal_the_per_record_fraction_loop(values):
    report = summarize([chain_record(i, v) for i, v in enumerate(values)])
    mean, var = _fraction_moments(values)
    assert report.mean == mean
    assert report.stdev == math.sqrt(float(var))
    assert report.se == report.stdev / math.sqrt(len(values))


def test_summarize_rejects_empty_and_mixed_streams():
    with pytest.raises(EmptyStream):
        summarize([])
    mixed = [chain_record(0, 5), make_record("top-c", 1, 1, "2paa 8x5 c=2", 5, 4)]
    with pytest.raises(InvalidParams):
        summarize(mixed)


def test_summarize_target_rule_fails_off_center():
    # zero spread, mean 9 vs target 5: no tolerance window can absorb it
    report = summarize([chain_record(i, 9) for i in range(10)])
    assert not report.passed


def test_summarize_lower_rule():
    good = [
        make_record("ranking-kcopy", i, i, "kcopy n=6 k=2", 6, ranking_sum_bound(6, 2))
        for i in range(8)
    ]
    assert summarize(good).passed
    bad = [
        make_record("ranking-kcopy", i, i, "kcopy n=6 k=2", 1, ranking_sum_bound(6, 2))
        for i in range(8)
    ]
    assert not summarize(bad).passed


@pytest.mark.parametrize(
    ("suite", "bound"), [("greedy-chain", -3), ("ranking-kcopy", 15)], ids=["target", "lower"]
)
def test_summarize_decides_an_exact_three_se_boundary_exactly(suite, bound):
    # values [3, 9]: mean 6, var 18, n 2, so |mean - bound| = 9 = 3 se exactly;
    # in floats 3 * se is 8.999999999999998 and the boundary would fail
    def report(at):
        return summarize([make_record(suite, i, i, "x", v, at) for i, v in enumerate((3, 9))])

    assert report(Fraction(bound)).passed
    assert 3 * report(Fraction(bound)).se < 9
    past = Fraction(bound) + (-1 if bound < 0 else 1) * Fraction(1, 10**9)
    assert not report(past).passed


def test_summarize_unknown_suite():
    rogue = TrialRecord("mystery", 0, 0, "x", 1, 1, Fraction(1))
    with pytest.raises(UnknownSuite):
        summarize([rogue])


# ----------------------------------------------------------------------
# violation predicates


def test_reverse_match_violation_rule():
    ok = make_record("reverse-match", 0, 0, "2pm 8x8 mf=5", 3, 5)
    assert not violates(ok)
    half_broken = make_record("reverse-match", 0, 0, "2pm 8x8 mf=5", 2, 5)
    assert violates(half_broken)  # 2*2 < 5
    ceil_broken = make_record("reverse-match", 0, 0, "2pm 8x8 mf=7", 3, 6)
    assert violates(ceil_broken)  # 3 < ceil(7/2)


def test_adversary_violation_rule():
    ok = make_record("adversary", 0, 0, "adversary policy=greedy m=5", 1, 5)
    assert not violates(ok)
    assert violates(make_record("adversary", 0, 0, "adversary policy=greedy m=5", 2, 5))
    assert violates(make_record("adversary", 0, 0, "adversary policy=greedy m=5", 1, 4))


def test_top_c_violation_rule():
    bound = Fraction(9, 2)
    assert not violates(make_record("top-c", 0, 0, "2paa 8x5 c=2", 5, bound))
    assert violates(make_record("top-c", 0, 0, "2paa 8x5 c=2", 4, bound))


def test_violation_rule_needs_descriptor_tokens():
    mangled = make_record("reverse-match", 0, 0, "2pm 8x8", 3, 5)
    with pytest.raises(InvalidParams):
        violates(mangled)


# ----------------------------------------------------------------------
# run_experiment


def test_run_experiment_is_deterministic():
    a_report, a_records = run_experiment("greedy-chain", trials=60, seed=42)
    b_report, b_records = run_experiment("greedy-chain", trials=60, seed=42)
    assert a_records == b_records
    assert a_report.mean == b_report.mean


def test_trial_seeds_are_seed_xor_index():
    _, records = run_experiment("greedy-chain", trials=40, seed=12)
    for record in records:
        assert record.seed == 12 ^ record.trial


def test_run_experiment_validates_inputs():
    with pytest.raises(UnknownSuite):
        run_experiment("no-such-suite", trials=5, seed=0)
    with pytest.raises(InvalidParams):
        run_experiment("greedy-chain", trials=0, seed=0)
    with pytest.raises(InvalidParams):
        run_experiment("greedy-chain", params={"height": 3}, trials=5, seed=0)
    # no silent truncation: an int parameter takes only an int, a float one
    # an int or a float, and neither takes a bool; a string must parse
    for suite, key, value, kind in (
        ("greedy-chain", "m", 2.7, "int"),
        ("greedy-chain", "m", True, "int"),
        ("ranking-simulate", "extra_edge_prob", True, "float"),
        ("ranking-simulate", "extra_edge_prob", None, "float"),
        ("greedy-chain", "m", "x", "int"),
        ("greedy-chain", "m", "2.7", "int"),
        ("ranking-simulate", "extra_edge_prob", "x", "float"),
    ):
        with pytest.raises(InvalidParams) as err:
            run_experiment(suite, params={key: value}, trials=5, seed=0)
        assert str(err.value) == f"suite {suite!r} parameter {key!r} must be {kind}, got {value!r}"
    _, records = run_experiment("ranking-simulate", params={"extra_edge_prob": 1}, trials=2, seed=0)
    assert len(records) == 2


@pytest.mark.parametrize(
    "name, value, low",
    [
        pytest.param("c", 0, 1, id="0"),
        pytest.param("c", -2, 1, id="-2"),
        pytest.param("max_bid", -1, 0, id="max_bid"),
        pytest.param("num_keywords", -1, 0, id="num_keywords"),
        pytest.param("num_bidders", 0, 1, id="num_bidders"),
    ],
)
def test_top_c_suite_names_c_when_it_is_out_of_range(name, value, low):
    # the suite passes c as random_2paa's target_r_min; the error names c,
    # and an out-of-range parameter passed through is named alone
    with pytest.raises(InvalidParams, match=rf"^{name} must be >= {low}, got {value}$"):
        run_experiment("top-c", params={name: value}, trials=3, seed=0)


def test_run_experiment_coerces_string_params():
    _, records = run_experiment("greedy-chain", params={"m": "7"}, trials=5, seed=0)
    assert records[0].instance == "chain m=7"
    assert records[0].reference == Fraction(4)


def _csv_text(records):
    buf = io.StringIO()
    records_to_csv(records, buf)
    return buf.getvalue()


def test_parallel_and_serial_runs_write_identical_csv(monkeypatch):
    import auctionlab.harness as harness

    monkeypatch.setattr(harness, "_POOL_COST_S", 0.0)

    def run_with(cap):
        monkeypatch.setenv("AUCTIONLAB_WORKERS", cap)
        report, records = run_experiment("greedy-chain", trials=520, seed=7)
        assert (report.workers, report.pooled_from) == ((1, None) if cap == "1" else (2, 2))
        return _csv_text(records)

    assert run_with("1") == run_with("2")


def _too_large_on_odd_seeds(monkeypatch):
    # the patches are inherited by forked pool workers; each trial draws its
    # instance right before its reference, so the last seed drawn is its own
    import auctionlab.harness as harness

    drawn, real_draw, real_opt = [0], harness.random_2pm, harness.opt_2pm

    def draw(*args, seed):
        drawn[0] = seed
        return real_draw(*args, seed=seed)

    def opt(inst, node_limit=None):
        if drawn[0] % 2:
            raise TooLarge("forced")
        return real_opt(inst)

    monkeypatch.setattr(harness, "random_2pm", draw)
    monkeypatch.setattr(harness, "opt_2pm", opt)


@pytest.mark.parametrize(
    ("suite", "params", "trials", "patch"),
    [
        ("adversary", {"m_max": 40}, 0, None),  # trial cost rises with m
        ("reverse-match", None, 30, _too_large_on_odd_seeds),  # None records inside strides
        ("greedy-chain", None, 7, None),  # 5 trials left, fewer than cap * 4 jobs
    ],
    ids=["adversary", "reverse-match-skips", "few-trials-left"],
)
def test_round_robin_pooling_writes_identical_csv_for_any_worker_count(
    monkeypatch, suite, params, trials, patch
):
    import auctionlab.harness as harness

    monkeypatch.setattr(harness, "_POOL_COST_S", 0.0)
    if patch is not None:
        patch(monkeypatch)

    def run_with(cap):
        monkeypatch.setenv("AUCTIONLAB_WORKERS", str(cap))
        report, records = run_experiment(suite, params, trials=trials, seed=5)
        assert report.pooled_from == (None if cap == 1 else 2)
        assert multiprocessing.active_children() == []
        return report.skipped, _csv_text(records)

    serial = run_with(1)
    assert serial == run_with(2) == run_with(3)
    if patch is not None:
        assert serial[0] == 15


def test_worker_cap_environment_handling(monkeypatch):
    monkeypatch.setenv("AUCTIONLAB_WORKERS", "3")
    assert worker_cap() == 3
    monkeypatch.setenv("AUCTIONLAB_WORKERS", "0")
    assert worker_cap() == 1
    monkeypatch.setenv("AUCTIONLAB_WORKERS", "many")
    with pytest.raises(InvalidParams):
        worker_cap()
    monkeypatch.delenv("AUCTIONLAB_WORKERS")
    assert worker_cap() >= 1


def test_worker_cap_defaults_to_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.delenv("AUCTIONLAB_WORKERS", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 7}, raising=False)
    assert worker_cap() == 3
    monkeypatch.delattr(os, "sched_getaffinity")
    assert worker_cap() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert worker_cap() == 1


def _no_pool(*args, **kwargs):
    raise AssertionError("a process pool was started")


def test_light_run_stays_in_process(monkeypatch):
    # run_experiment imports the pool class from concurrent.futures as it pools
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    monkeypatch.setenv("AUCTIONLAB_WORKERS", "2")
    # one decision, after trial 1: pooling the last trial would need trial 1
    # to take 2 * _POOL_COST_S, hundreds of times a chain trial's cost
    report, records = run_experiment("greedy-chain", trials=3, seed=0)
    assert (report.workers, report.pooled_from) == (1, None)
    assert len(records) == 3


def test_cap_one_never_pools(monkeypatch):
    import auctionlab.harness as harness

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _no_pool)
    monkeypatch.setattr(harness, "_POOL_COST_S", 0.0)
    monkeypatch.setenv("AUCTIONLAB_WORKERS", "1")
    report, records = run_experiment("reverse-match", trials=40, seed=0)
    assert (report.workers, report.pooled_from) == (1, None)
    assert len(records) + report.skipped == 40


def test_pooled_run_leaves_no_worker_processes(monkeypatch):
    import auctionlab.harness as harness

    monkeypatch.setattr(harness, "_POOL_COST_S", 0.0)
    monkeypatch.setenv("AUCTIONLAB_WORKERS", "2")
    report, _ = run_experiment("greedy-chain", trials=40, seed=0)
    assert report.pooled_from == 2
    assert multiprocessing.active_children() == []


def test_adversary_suite_enumerates_instead_of_sampling():
    report, records = run_experiment("adversary", params={"m_max": 3}, trials=999, seed=0)
    assert len(records) == 9  # 3 policies x 3 arrival counts
    assert report.kind == "exact"
    assert report.passed
    assert {r.instance for r in records} == {
        f"adversary policy={p} m={m}"
        for p in ("greedy", "skip-all", "first-available")
        for m in (1, 2, 3)
    }


def test_the_adversary_suite_plays_each_policy_once_per_process(monkeypatch):
    import auctionlab.harness as harness

    plays, play = [], harness._adversary_play

    def counted(policy, m):
        plays.append((type(policy), m))
        return play(policy, m)

    monkeypatch.setattr(harness, "_adversary_play", counted)
    monkeypatch.setenv("AUCTIONLAB_WORKERS", "1")
    harness._adversary_game.cache_clear()
    first = run_experiment("adversary", {"m_max": 40})
    assert plays == [(type(make()), 40) for make in (greedy_2pm, skip_all, first_available)]
    again = run_experiment("adversary", {"m_max": 40})
    assert len(plays) == 3
    assert first[1] == again[1] and len(first[1]) == 120


def test_skipped_trials_are_counted(monkeypatch):
    import auctionlab.harness as harness

    calls = {"n": 0}
    real = harness.opt_2pm

    def sometimes_too_large(inst, node_limit=None):
        calls["n"] += 1
        if calls["n"] % 2 == 1:
            raise TooLarge("forced")
        return real(inst)

    monkeypatch.setattr(harness, "opt_2pm", sometimes_too_large)
    # the counter lives in this process, so no trial may run in a pool worker
    monkeypatch.setenv("AUCTIONLAB_WORKERS", "1")
    report, records = run_experiment("reverse-match", trials=10, seed=0)
    assert report.skipped == 5
    assert len(records) == 5
    assert report.trials == 5


def test_every_documented_suite_runs_and_passes_smoke():
    for suite in SUITES:
        trials = 40 if suite != "adversary" else 1
        report, records = run_experiment(suite, trials=trials, seed=42)
        assert report.passed, format_report(report)
        assert records


# ----------------------------------------------------------------------
# persistence round trip


def _records_from_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    records = []
    for suite, trial, seed, instance, value, reference, ratio in rows[1:]:
        records.append(
            TrialRecord(
                suite,
                int(trial),
                int(seed),
                instance,
                int(value),
                Fraction(reference),
                Fraction(ratio),
            )
        )
    return records


def test_csv_round_trip_replays_the_verdict():
    for suite in ("greedy-chain", "reverse-match", "adversary"):
        report, records = run_experiment(suite, trials=50, seed=3)
        buf = io.StringIO()
        records_to_csv(records, buf)
        replayed = _records_from_csv(buf.getvalue())
        replay_report = summarize(replayed, skipped=report.skipped)
        assert replay_report.passed == report.passed
        assert replay_report.mean == report.mean
        assert replay_report.violations == report.violations
        assert replay_report.bound == report.bound


# ----------------------------------------------------------------------
# report rendering


def test_format_report_one_liner():
    report, _ = run_experiment("greedy-chain", trials=30, seed=1)
    line = format_report(report)
    assert line.startswith(("PASS greedy-chain:", "FAIL greedy-chain:"))
    assert "trials=30" in line
    assert "bound=5.0000" in line

    exact_report, _ = run_experiment("adversary", params={"m_max": 2}, seed=0)
    assert "violations=0" in format_report(exact_report)


def test_report_doc_is_json_clean():
    report, _ = run_experiment("greedy-chain", trials=12, seed=9)
    doc = report_to_doc(report)
    parsed = json.loads(json.dumps(doc))
    assert parsed["suite"] == "greedy-chain"
    assert parsed["bound"] == "5/1"
    assert parsed["trials"] == 12
    assert (parsed["workers"], parsed["pooled_from"]) == (report.workers, report.pooled_from)


# every key of the structured report, in order, and every value but the clock
def test_report_doc_pins_every_field_of_a_serial_report(monkeypatch):
    monkeypatch.setenv("AUCTIONLAB_WORKERS", "1")
    report, _ = run_experiment("adversary", {"m_max": 6}, seed=1)
    doc = report_to_doc(report)
    assert list(doc) == [
        "suite", "trials", "skipped", "mean", "stdev", "se", "bound", "kind",
        "violations", "passed", "elapsed", "workers", "pooled_from",
    ]
    elapsed = doc.pop("elapsed")
    assert type(elapsed) is float and elapsed >= 0
    assert doc == {
        "suite": "adversary",
        "trials": 18,
        "skipped": 0,
        "mean": "2/3",
        "stdev": 0.48507125007266594,
        "se": 0.1143323900950059,
        "bound": None,
        "kind": "exact",
        "violations": 0,
        "passed": True,
        "workers": 1,
        "pooled_from": None,
    }


def test_report_doc_names_the_pool_and_summarize_defaults_to_serial(monkeypatch):
    import auctionlab.harness as harness

    monkeypatch.setattr(harness, "_POOL_COST_S", 0.0)
    monkeypatch.setenv("AUCTIONLAB_WORKERS", "2")
    report, records = run_experiment("greedy-chain", trials=30, seed=4)
    doc = report_to_doc(report)
    assert (doc["workers"], doc["pooled_from"]) == (2, 2)
    rebuilt = report_to_doc(summarize(_records_from_csv(_csv_text(records))))
    assert (rebuilt["workers"], rebuilt["pooled_from"]) == (1, None)


@pytest.mark.parametrize("suite", SUITES)
def test_pooled_and_serial_runs_agree_for_every_suite(monkeypatch, suite):
    import auctionlab.harness as harness

    monkeypatch.setattr(harness, "_POOL_COST_S", 0.0)
    params = {"m_max": 4} if suite == "adversary" else None

    def run_with(cap):
        monkeypatch.setenv("AUCTIONLAB_WORKERS", cap)
        report, records = run_experiment(suite, params, trials=24, seed=5)
        assert report.pooled_from == (None if cap == "1" else 2)
        return format_report(report).rsplit(" [", 1)[0], _csv_text(records)

    assert run_with("1") == run_with("2")


# ----------------------------------------------------------------------
# golden outputs: SHA-256 over seeds 0-9 of each run's record CSV followed by
# its report line without the timing, at 60 trials (adversary: m_max=5)

_GOLDEN = {
    "ranking-kcopy": "babf3a7705ea24071d15160d8e5e0e84346dee6cc12f56038a9549a1cf86bcec",
    "ranking-simulate": "fe6debb59ee1861a3b5a0026b83981c2d1643ec4d75ec4fda9525daaa4dfbc75",
    "greedy-chain": "e8b6a64eea6621d1002833f1806811c7c914a223b3f9dd8f3e83898eaeb5e7a7",
    "reverse-match": "e8f6698276fa9a90abba86e05021f90a131f700a1561ecb53ff87f2fc2cf119f",
    "random-construction": "4fce5059e6505ad7b06f82de217c10616bf929d2b15a7ded795cdf8be35a99af",
    "adversary": "f363f528bd64062f2aa4f2e22b1fec7431e408530190fa014fa917c237ae990d",
    "top-c": "8085a1a08394605717fe0af64df835cf222f525de3e85799b24a9b61092061bd",
}


def test_golden_pins_cover_every_suite():
    assert set(_GOLDEN) == set(SUITES)


@pytest.mark.parametrize("suite", sorted(_GOLDEN))
def test_records_and_report_lines_match_the_golden_digest(suite):
    digest = hashlib.sha256()
    for seed in range(10):
        params = {"m_max": 5} if suite == "adversary" else None
        report, records = run_experiment(suite, params, trials=60, seed=seed)
        line = re.sub(r" \[[0-9.]+s\]$", "", format_report(report))
        digest.update(_csv_text(records).encode())
        digest.update(line.encode() + b"\n")
    assert digest.hexdigest() == _GOLDEN[suite]


def test_readme_names_every_suite_with_its_verdict_kind():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    harness = readme.split("- **harness**", 1)[1].split("\n\n", 1)[0]
    documented = []
    for item in harness.split("\n  - ")[1:]:
        kind, *suites = re.findall(r"`([a-z-]+)`", item)
        documented += [(suite, kind) for suite in suites]
    assert sorted(documented) == sorted((suite, _SUITES[suite].kind) for suite in SUITES)


# ----------------------------------------------------------------------
# a trial derives each table of its instance once


def _count_kernel_runs(monkeypatch):
    import auctionlab.offline as offline
    import auctionlab.oracles as oracles

    runs, kernel = [], oracles._matching_owners

    def counted(rows, n):
        runs.append(n)
        return kernel(rows, n)

    for module in (oracles, offline):
        monkeypatch.setattr(module, "_matching_owners", counted)
    return runs


def _count_table_builds(monkeypatch):
    import auctionlab.oracles as oracles

    builds, kept = [], oracles._kept

    def counted(instance, name, make):
        def build():
            builds.append(name)
            return make()

        return kept(instance, name, build)

    monkeypatch.setattr(oracles, "_kept", counted)
    return builds


def test_a_reverse_match_trial_runs_the_matching_kernel_once(monkeypatch):
    runs = _count_kernel_runs(monkeypatch)
    suite = _SUITES["reverse-match"]
    for seed in range(5):
        runs.clear()
        assert suite.trial(dict(suite.defaults), seed, seed) is not None
        assert len(runs) == 1, seed


def test_a_top_c_trial_builds_the_second_bids_once(monkeypatch):
    builds = _count_table_builds(monkeypatch)
    suite = _SUITES["top-c"]
    for seed in range(5):
        builds.clear()
        suite.trial(dict(suite.defaults), seed, seed)
        assert builds == ["_second_bids"], seed
