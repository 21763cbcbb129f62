"""One pass of one workload in a fresh process; prints its result as one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's `src/` and
AUCTIONLAB_WORKERS set.  Set-up (interpreter start, `import auctionlab`, the
scratch directory) ends at `ready_at`, a CLOCK_MONOTONIC reading that run.py
compares with the moment it spawned this process.  A calibration loop runs
four times before and four times after the timed pass; `scale` converts this
process's times to seconds at the reference speed.  Exit code 2 means the
library could not be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import sys
import tempfile
import traceback
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _cpu_seconds() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


# The calibration loop's time at the reference speed.  Every time a pass
# reports is also given scaled by CAL_REF_S / (calibration time), that is, in
# seconds at the reference speed: a shared machine's speed can drift by 1.5x
# for minutes at a time, and the calibration, timed next to the pass in the
# same process, moves with it.  Fixed for good; changing it rescales every
# scaled metric.
CAL_REF_S = 0.035


def _calibration_loop() -> float:
    """Seconds for a fixed piece of pure-Python work like the library's own."""
    rng = random.Random(0)
    started = perf_counter()
    for _ in range(150):
        bids = {(f"u{i}", f"v{j}"): rng.randint(0, 9) for i in range(10) for j in range(10)}
        rows = sorted(bids.items(), key=lambda kv: (-kv[1], kv[0]))
        sum((Fraction(a, 7) for _, a in rows[:10]), Fraction(0))
    return perf_counter() - started


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; CHILDREN reports the largest reaped child
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / 1024


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--profile", choices=("full", "smoke"), required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--nodes", action="store_true")
    parser.add_argument("--spans-out")
    args = parser.parse_args()

    try:
        import auctionlab
    except ImportError as exc:
        print(f"cannot import auctionlab from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(auctionlab.__file__).resolve().parent != ROOT / "src" / "auctionlab":
        print(f"auctionlab imported from {auctionlab.__file__}, not the checkout", file=sys.stderr)
        return 2

    import workloads

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(dir=scratch)
    try:
        result = run_pass(args, workloads, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(result))
    return 0


def run_pass(args, workloads, tmp: str) -> dict:
    p = workloads.Pass(workloads.SIZES[args.profile])
    tracer = None
    if args.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    ready_at = perf_counter()
    calibration = [_calibration_loop() for _ in range(4)]
    started = perf_counter()
    cpu_before = _cpu_seconds()
    try:
        workloads.WORKLOADS[args.workload](p, args.seed, tmp)
    except Exception:
        p.fail("exception: " + traceback.format_exc(limit=8))
    wall = perf_counter() - started
    cpu = _cpu_seconds() - cpu_before
    peak = _peak_rss_mb()
    calibration += [_calibration_loop() for _ in range(4)]
    if tracer is not None:
        tracer.uninstall()
    if not p.failures:
        try:
            workloads.check(p)
        except Exception:
            p.fail("exception in checks: " + traceback.format_exc(limit=8))
    result = {
        "ready_at": ready_at,
        "scale": CAL_REF_S / statistics.median(calibration),
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak,
        "calls": p.calls,
        "trials": p.trials,
        "trial_s": p.trial_s,
        "attempted": max(p.attempted, 1),
        "failed": p.failed,
        "failures": p.failures,
        "outputs": p.outputs,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_stats()
        if args.spans_out:
            tracer.write(args.spans_out)
    if args.nodes:
        result["nodes"] = workloads.oracle_nodes()
    return result


if __name__ == "__main__":
    sys.exit(main())
