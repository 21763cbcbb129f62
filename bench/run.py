"""Benchmark for auctionlab: three workloads, end-to-end and per-layer metrics.

Run from anywhere; the library is imported from `src/` of the checkout this
file sits in:

    python3 bench/run.py --workload mc-light --seed 0 --seconds 40 --trace 0

Workloads (see workloads.py for why each was chosen): mc-light,
exact-search, large-instance.  Every pass runs in a fresh process.

--trace 0  repeats untraced passes at the harness's default worker count
           (AUCTIONLAB_WORKERS set explicitly to the CPUs this process may
           run on) while they fit in --seconds, at least three, and reports
           the median of each end-to-end metric: wall_s (library work of one
           pass, set-up excluded), ops_per_s (Monte-Carlo trials per second
           of the run_experiment calls; on large-instance, top-level library
           calls per second), cpu_s (user+sys of the pass, pool children
           included), peak_rss_mb (largest ru_maxrss of the pass process and
           its children) and setup_s (process spawn to the first timed
           call).  Times and rates are in seconds at a reference speed: each
           pass process also times a fixed calibration loop next to its pass
           and scales its own times by (reference loop time / measured loop
           time), see worker.CAL_REF_S.  This cancels the minutes-long speed
           drifts of a shared machine; the unscaled medians are printed too.
--trace 1  repeats rounds of an untraced pooled pass, an untraced serial
           pass and a traced serial pass, and reports per-layer metrics:
           calls and self time per traced function (medians over traced
           passes), oracle node counts found by bisecting node_limit,
           harness.pool_gain (serial wall / pooled wall) and trace.overhead
           (traced wall / untraced serial wall - 1).  The last traced pass
           writes its spans to .bench_out/.
--smoke    one pass at a tiny size, all output checks on, no timing gates.

Output checks: each pass checks its outputs against independent references
(workloads.py); every pass's outputs must equal the first pass's, whatever
its worker count or tracing; and for the seeds pinned in pins.json they must
equal the digests and values recorded there.  A failed check or failed
operation makes `correct` false and the exit code 1.  Exit code 2 means the
benchmark could not run: no `src/auctionlab`, a worker crash or a timeout.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.

Limits: the benchmark measures only its own processes, with no CPU pinning,
no dropping of the file cache and no hardware counters.  On a machine with
two CPUs the pooled numbers are a floor.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import LAYER_METRICS, SEARCH_ORACLES, TIMED

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("mc-light", "exact-search", "large-instance")
E2E_METRICS = {
    "wall_s": "s",
    "ops_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
MIN_PASSES = 3
TIME_LIMIT_S = 170.0  # the whole run ends within this
SPANS_DIR = ROOT / ".bench_out"
SCRATCH_DIR = ROOT / ".bench_tmp"


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def affinity_cpus() -> int:
    return len(os.sched_getaffinity(0))


def spawn(args, deadline: float, *, workers: int, traced: bool = False,
          nodes: bool = False) -> dict:
    """Run one pass in a fresh worker process and return its result."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env["AUCTIONLAB_WORKERS"] = str(workers)
    env["TMPDIR"] = str(SCRATCH_DIR)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--profile", "smoke" if args.smoke else "full"]
    if traced:
        cmd += ["--traced", "--spans-out",
                str(SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json")]
    if nodes:
        cmd.append("--nodes")
    spawned = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{args.workload} pass did not finish in time") from None
    if proc.returncode != 0:
        try:  # pool workers a crashed pass left behind
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        raise BenchError(f"worker exited with {proc.returncode}: {err.strip()[-3000:]}")
    doc = json.loads(out.strip().splitlines()[-1])
    doc["setup_s"] = doc["ready_at"] - spawned
    doc["workers"] = workers
    return doc


def keep_going(args, done: int, at_least: int, started: float, deadline: float,
               last: float) -> bool:
    """Start another pass (or round) if one as long as the last still ends
    within --seconds, or if fewer than `at_least` are done and it ends
    before the deadline."""
    if args.smoke:
        return False
    ends = perf_counter() + last
    if done < at_least:
        return ends + 0.5 * last < deadline
    return ends <= started + args.seconds


def untraced_run(args, started: float, deadline: float):
    passes: list[dict] = []
    cpus = affinity_cpus()
    while True:
        t0 = perf_counter()
        passes.append(spawn(args, deadline, workers=cpus))
        if not keep_going(args, len(passes), MIN_PASSES, started, deadline, perf_counter() - t0):
            break

    def rate(p: dict) -> float:
        if p["trials"]:
            return p["trials"] / p["trial_s"]
        return p["calls"] / p["wall_s"]

    raw = {
        "wall_s": [p["wall_s"] for p in passes],
        "ops_per_s": [rate(p) for p in passes],
        "cpu_s": [p["cpu_s"] for p in passes],
        "setup_s": [p["setup_s"] for p in passes],
    }
    for name, values in raw.items():
        print(f"{args.workload} unscaled {name} = {statistics.median(values):.6g} "
              f"{E2E_METRICS[name]} (median of {len(values)})")
    print(f"{args.workload} speed scale = "
          f"{statistics.median(p['scale'] for p in passes):.6g} (median of {len(passes)})")
    samples = {
        "wall_s": [p["wall_s"] * p["scale"] for p in passes],
        "ops_per_s": [rate(p) / p["scale"] for p in passes],
        "cpu_s": [p["cpu_s"] * p["scale"] for p in passes],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": [p["setup_s"] * p["scale"] for p in passes],
    }
    return passes, samples, E2E_METRICS


def traced_run(args, started: float, deadline: float):
    rounds: list[tuple[dict, dict, dict]] = []
    cpus = affinity_cpus()
    SPANS_DIR.mkdir(exist_ok=True)
    while True:
        t0 = perf_counter()
        pooled = spawn(args, deadline, workers=cpus)
        serial = spawn(args, deadline, workers=1, nodes=not rounds)
        traced = spawn(args, deadline, workers=1, traced=True)
        rounds.append((pooled, serial, traced))
        if not keep_going(args, len(rounds), 1, started, deadline, perf_counter() - t0):
            break

    samples: dict[str, list[float]] = {}
    for name in TIMED:
        samples[name + ".calls"] = [rounds[0][2]["layers"][name + ".calls"]]
        samples[name + ".self_s"] = [r[2]["layers"][name + ".self_s"] for r in rounds]
    for oracle in SEARCH_ORACLES:
        for suffix in ("nodes", "nodes_per_s"):
            key = f"oracles.{oracle}.{suffix}"
            samples[key] = [rounds[0][1]["nodes"][key]]
    bytes_key = "formats.dump_instance.bytes"
    samples[bytes_key] = [rounds[0][2]["layers"][bytes_key]]
    samples["harness.pool_gain"] = [s["wall_s"] / p["wall_s"] for p, s, _ in rounds]
    samples["trace.overhead"] = [t["wall_s"] / s["wall_s"] - 1 for _, s, t in rounds]
    passes = [p for r in rounds for p in r]
    return passes, samples, LAYER_METRICS


def pin_table(args) -> dict:
    """This workload's pinned outputs: "any" for every seed, else by seed."""
    pins = json.loads((HERE / "pins.json").read_text(encoding="utf-8"))
    return pins["smoke" if args.smoke else "full"].get(args.workload, {})


def check_outputs(args, passes: list[dict]) -> tuple[int, list[str]]:
    """Compare every pass with the first, and with pins.json where pinned."""
    checks, failures = 0, []
    first = passes[0]["outputs"]
    for p in passes[1:]:
        for key in sorted(set(first) | set(p["outputs"])):
            checks += 1
            if p["outputs"].get(key) != first.get(key):
                failures.append(
                    f"output {key!r} differs between passes (workers={p['workers']}, "
                    f"traced={'layers' in p}): {p['outputs'].get(key)!r} != {first.get(key)!r}"
                )
    table = pin_table(args)
    expected = dict(table.get("any", {}))
    pinned_seed = str(args.seed) in table
    expected.update(table.get(str(args.seed), {}))
    keys = set(expected) | (set(first) if pinned_seed else set())
    for key in sorted(keys):
        checks += 1
        if first.get(key) != expected.get(key):
            failures.append(f"output {key!r} is {first.get(key)!r}, pinned {expected.get(key)!r}")
    return checks, failures


def read_commit() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text(encoding="utf-8").strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def manifest(args) -> dict:
    cpus = affinity_cpus()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "pinned_seeds": sorted(int(k) for k in pin_table(args) if k != "any"),
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "nproc": cpus,
        "auctionlab_workers": {"pooled": cpus, "serial": 1},
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": read_commit(),
        "src_sha256": source_digest(),
        "limits": "measures only its own processes; no CPU pinning, no file-cache "
                  "dropping, no hardware counters; with 2 CPUs pooled numbers are a floor",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "auctionlab" / "__init__.py").is_file():
        print(f"error: no auctionlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    started = perf_counter()
    deadline = started + TIME_LIMIT_S
    print("manifest " + json.dumps(manifest(args)), flush=True)
    SCRATCH_DIR.mkdir(exist_ok=True)
    try:
        run = traced_run if args.trace else untraced_run
        passes, samples, units = run(args, started, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(SCRATCH_DIR, ignore_errors=True)

    checks, failures = check_outputs(args, passes)
    attempted = checks + sum(p["attempted"] for p in passes)
    failed = len(failures) + sum(p["failed"] for p in passes)
    for p in passes:
        failures += p["failures"]

    metrics = {}
    for name, unit in units.items():
        values = samples[name]
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        spread = (f" (median of {len(values)}; min {min(values):.6g}, max {max(values):.6g})"
                  if len(values) > 1 else "")
        print(f"{args.workload} {name} = {value:.6g} {unit}{spread}")
    print(f"{args.workload} fail_ratio = {failed / attempted:.6g} "
          f"({failed} failed of {attempted} operations)")
    for line in failures:
        print("FAIL " + line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
