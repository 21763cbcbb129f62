"""Per-layer tracing from outside the library.

`Tracer.install` rebinds each traced public function in every auctionlab
module that holds it (the defining module, the package namespace and every
module that imported the name), so a call made through any of those
bindings is recorded.  Nothing under `src/` changes.

Layer boundaries record spans: name, start, end and the enclosing span.  A
span's self time is its duration minus the time of the spans and counted
calls inside it.  Hot, fine-grained methods (`BudgetState.settle`,
`Instance.positive_bids`) only add to counters, because one span per call
would cost more than the call.  Spans stay in memory until `write` is called.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# (module, attribute) of every traced function; a dotted attribute names a
# method.  "span" records spans, "counter" only counts.
SPANS = (
    ("model", "Instance.__post_init__"),
    ("model", "execute"),
    ("model", "validate"),
    ("generators", "perfect_matchable_2pm"),
    ("generators", "sample_chain"),
    ("generators", "random_2pm"),
    ("generators", "random_2paa"),
    ("generators", "adversary_vs_policy"),
    ("online", "run_online"),
    ("online", "left_k_copy"),
    ("oracles", "opt_2pm"),
    ("oracles", "opt_2paa"),
    ("oracles", "opt_1paa"),
    ("oracles", "max_matching"),
    ("offline", "top_c"),
    ("offline", "reverse_match"),
    ("reductions", "to_first_price_bids"),
    ("reductions", "random_construction"),
    ("reductions", "normalize_first_price"),
    ("formats", "dump_instance"),
    ("formats", "load_instance"),
    ("formats", "records_to_csv"),
    ("cli", "main"),
    ("harness", "run_experiment"),
    ("harness", "summarize"),
)
COUNTERS = (
    ("model", "BudgetState.settle"),
    ("model", "Instance.positive_bids"),
)

# Keyed spans: run_online by the factory that built its policy, cli.main by
# subcommand.  Only these keys are reported.
POLICY_FACTORIES = ("ranking_1p", "ranking_simulate", "greedy_2pm")
SUBCOMMANDS = ("generate", "validate", "solve")
SEARCH_ORACLES = ("opt_2pm", "opt_2paa", "opt_1paa")


def _timed_names() -> list[str]:
    names = []
    for module, attr in SPANS + COUNTERS:
        if (module, attr) == ("online", "run_online"):
            names += [f"online.run_online.{p}" for p in POLICY_FACTORIES]
        elif (module, attr) == ("cli", "main"):
            names += [f"cli.main.{c}" for c in SUBCOMMANDS]
        else:
            names.append(f"{module}.{attr}")
    return names


TIMED = _timed_names()

# Every per-layer metric the traced run reports, with its unit.
LAYER_METRICS: dict[str, str] = {}
for _name in TIMED:
    LAYER_METRICS[_name + ".calls"] = "count"
    LAYER_METRICS[_name + ".self_s"] = "s"
for _oracle in SEARCH_ORACLES:
    LAYER_METRICS[f"oracles.{_oracle}.nodes"] = "count"
    LAYER_METRICS[f"oracles.{_oracle}.nodes_per_s"] = "1/s"
LAYER_METRICS["formats.dump_instance.bytes"] = "bytes"
LAYER_METRICS["harness.pool_gain"] = "ratio"
LAYER_METRICS["trace.overhead"] = "ratio"


class Tracer:
    """Span and counter recorder for one traced pass in one process."""

    def __init__(self) -> None:
        self.stats: dict[str, list] = {name: [0, 0.0] for name in TIMED}
        self.dump_bytes = 0
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._open: list[list] = []  # [span id, time covered by children]
        self._next_id = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording

    def _span(self, fn, key=None, name: str = ""):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = key(args, kwargs) if key else name
            parent = tracer._open[-1][0] if tracer._open else None
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._open.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._open.pop()
                duration = end - start
                if tracer._open:
                    tracer._open[-1][1] += duration
                stat = tracer.stats.setdefault(label, [0, 0.0])
                stat[0] += 1
                stat[1] += duration - frame[1]
                tracer.spans.append((frame[0], parent, label, start, end))

        return wrapper

    def _counter(self, fn, name: str):
        tracer = self
        stat = self.stats[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                if tracer._open:
                    tracer._open[-1][1] += duration
                stat[0] += 1
                stat[1] += duration

        return wrapper

    def _dump_instance(self, fn):
        """dump_instance also counts what it writes; JSON output is ASCII,
        so the stream position advances one per byte."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(instance, fp):
            before = fp.tell()
            fn(instance, fp)
            tracer.dump_bytes += fp.tell() - before

        return wrapper

    # ------------------------------------------------------------------
    # patching

    def install(self) -> None:
        from auctionlab import cli, online  # noqa: F401  (imports every module)

        policy_names = {type(getattr(online, f)()): f for f in POLICY_FACTORIES}

        def policy_key(args, kwargs):
            policy = args[1] if len(args) > 1 else kwargs["policy"]
            return "online.run_online." + policy_names.get(type(policy), "other")

        def command_key(args, kwargs):
            argv = args[0] if args else kwargs["argv"]
            return "cli.main." + str(argv[0])

        keys = {"online.run_online": policy_key, "cli.main": command_key}
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if name == "auctionlab" or name.startswith("auctionlab.")
        ]
        for module, attr in SPANS + COUNTERS:
            name = f"{module}.{attr}"
            owner = sys.modules[f"auctionlab.{module}"]
            cls_name, _, method = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, method)
            if (module, attr) in COUNTERS:
                wrapped = self._counter(original, name)
            elif name == "formats.dump_instance":
                wrapped = self._span(self._dump_instance(original), name=name)
            else:
                wrapped = self._span(original, key=keys.get(name), name=name)
            if cls_name:
                self._rebind(owner, method, wrapped)
                continue
            for module_obj in modules:
                for binding, value in list(vars(module_obj).items()):
                    if value is original:
                        self._rebind(module_obj, binding, wrapped)

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------------
    # output

    def layer_stats(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for name in TIMED:
            calls, self_s = self.stats.get(name, (0, 0.0))
            out[name + ".calls"] = calls
            out[name + ".self_s"] = self_s
        out["formats.dump_instance.bytes"] = self.dump_bytes
        return out

    def write(self, path) -> None:
        """Write every span as [id, parent id, name, start, end], by id."""
        spans = sorted(self.spans)
        with open(path, "w", encoding="utf-8") as fp:
            json.dump({"spans": spans}, fp, separators=(",", ":"))
            fp.write("\n")
