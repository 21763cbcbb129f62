"""Command-line surface: solve, oracle, generate, reduce, experiment, validate."""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import sys
import warnings
from typing import Mapping, Sequence

from . import formats
from .errors import AuctionError, InvalidParams, _quoted
from .generators import (
    adversary_vs_policy,
    gap_instance,
    random_2pm,
    random_2paa,
    sample_chain,
)
from .harness import SUITES, _BATTERY, _merge_params, format_report, report_to_doc, run_experiment
from .model import AuctionTrace, Instance, validate
from .offline import reverse_match, top_c
from .online import greedy_2pm, ranking_1p, ranking_simulate, left_k_copy, run_online
from .oracles import DEFAULT_NODE_LIMIT, Matching, opt_1paa, opt_2paa, opt_2pm
from .reductions import partition_to_2paa, vc_to_2pm


def _adversary(policy: str, m: int, seed: int | None) -> Instance:
    policies = dict(_BATTERY)
    if policy not in policies:
        raise InvalidParams(f"unknown policy {policy!r}; choose from {', '.join(sorted(policies))}")
    return adversary_vs_policy(policies[policy](), m).instance


# family -> (default params, whether --seed is required, builder); the builder
# takes the merged params and the seed as keyword arguments
_FAMILIES = {
    "gap": ({"c": 1, "k": 5}, False, lambda c, k, seed: gap_instance(c, k)),
    # the adversary plays a policy of the harness battery, greedy by default
    "adversary": ({"policy": _BATTERY[0][0], "m": 5}, False, _adversary),
    "chain": ({"m": 9}, True, lambda m, seed: sample_chain(m, seed=seed).instance),
    "random-2pm": (
        {"num_keywords": 8, "num_bidders": 8, "edge_probability": 0.3}, True, random_2pm
    ),
    "random-2paa": (
        {"num_keywords": 8, "num_bidders": 5, "max_bid": 9, "target_r_min": 1}, True, random_2paa
    ),
}

# `solve --algorithm`: the online policies run through run_online, and the
# offline algorithms with whether they take --c
_POLICIES = {"greedy": greedy_2pm, "ranking": ranking_1p, "ranking-simulate": ranking_simulate}
_OFFLINE = {"top-c": (top_c, True), "reverse-match": (reverse_match, False)}

_ORACLES = {"2pm": opt_2pm, "2paa": opt_2paa, "1paa": opt_1paa}


def _parse_params(text: str | None) -> dict[str, str]:
    if not text:
        return {}
    out: dict[str, str] = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        key, sep, value = chunk.partition("=")
        if not sep or not key:
            raise ValueError(f"bad parameter {_quoted(chunk)}, expected key=value")
        key = key.strip()
        if key in out:
            raise ValueError(f"duplicate parameter {_quoted(key)}")
        out[key] = value.strip()
    return out


def _checked_instance(path: str):
    """An instance file and its validate() report, each error printed to stderr."""
    with open(path, "r", encoding="utf-8") as fp:
        instance = formats.load_instance(fp)
    report = validate(instance)
    for line in report.errors:
        print(f"error: {line}", file=sys.stderr)
    return instance, report


class _OutFile:
    """The `--out` file, created or truncated only at the first write, so a
    command that fails before writing leaves no new file and an existing
    one unchanged."""

    def __init__(self, path: str) -> None:
        self._path = path
        self._fp = None

    def write(self, text: str) -> int:
        if self._fp is None:
            self._fp = open(self._path, "w", encoding="utf-8")
        return self._fp.write(text)

    def tell(self) -> int:
        return 0 if self._fp is None else self._fp.tell()

    def close(self) -> None:
        if self._fp is not None:
            self._fp.close()


def _output(out: str | None):
    """The `--out` file or stdout, as a context manager."""
    return contextlib.closing(_OutFile(out)) if out else contextlib.nullcontext(sys.stdout)


def _emit(doc: object, out: str | None) -> None:
    text = json.dumps(doc, indent=2) + "\n"
    with _output(out) as fp:
        fp.write(text)


def _result_doc(result) -> dict:
    if isinstance(result, Matching):
        return formats.matching_to_doc(result)
    if isinstance(result, AuctionTrace):
        return formats.trace_to_doc(result)
    return dict(result)  # opt_1paa's keyword -> winner map


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auctionlab",
        description="Budgeted second-price auction algorithms, oracles, and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an algorithm on an instance file")
    solve.set_defaults(run=_cmd_solve)
    solve.add_argument("--algorithm", required=True, choices=(*_POLICIES, *_OFFLINE))
    solve.add_argument("--input", required=True)
    solve.add_argument("--out")
    solve.add_argument("--seed", type=int)
    solve.add_argument("--c", type=int, help="keyword count for top-c")
    solve.add_argument("--k", type=int, help="left k-copy preprocessing")

    oracle = sub.add_parser("oracle", help="brute-force optimum with witness")
    oracle.set_defaults(run=_cmd_oracle)
    oracle.add_argument("--problem", required=True, choices=tuple(_ORACLES))
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--out")
    oracle.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    oracle.add_argument("--stats", action="store_true", help="print search statistics to stderr")

    gen = sub.add_parser("generate", help="emit an instance from a named family")
    gen.set_defaults(run=_cmd_generate)
    gen.add_argument("--family", required=True, choices=sorted(_FAMILIES))
    gen.add_argument("--params", help="comma-separated key=value overrides")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out")

    red = sub.add_parser("reduce", help="emit a hardness gadget plus a roles sidecar")
    red.set_defaults(run=_cmd_reduce)
    red.add_argument("--from", dest="source", required=True, choices=("partition", "vertex-cover"))
    red.add_argument("--weights", help="comma-separated positive integers")
    red.add_argument("--c", type=int, default=1)
    red.add_argument("--graph", help="edge-list file, one 'u v' per line")
    red.add_argument("--out", required=True)

    exp = sub.add_parser("experiment", help="run a Monte-Carlo suite")
    exp.set_defaults(run=_cmd_experiment)
    exp.add_argument("--suite", required=True, choices=SUITES)
    exp.add_argument("--trials", type=int, default=1000)
    exp.add_argument("--seed", type=int, required=True)
    exp.add_argument("--params", help="comma-separated key=value overrides")
    exp.add_argument("--out")
    exp.add_argument("--format", choices=("csv", "structured"), default="csv")

    val = sub.add_parser("validate", help="check an instance file")
    val.set_defaults(run=_cmd_validate)
    val.add_argument("--input", required=True)
    return parser


def _cmd_solve(args, parser) -> int:
    instance, report = _checked_instance(args.input)
    if not report.ok:
        return 1
    if args.k is not None:
        if args.k < 1:
            parser.error("--k must be >= 1")
        instance = left_k_copy(instance, args.k).instance
    name = args.algorithm
    if name in _POLICIES:
        policy = _POLICIES[name]()
        if not policy.deterministic and args.seed is None:
            parser.error(f"--seed is required for {name}")
        result = run_online(instance, policy, seed=args.seed)
    else:
        run, takes_c = _OFFLINE[name]
        if takes_c and args.c is None:
            parser.error(f"--c is required for {name}")
        if takes_c and args.c < 1:
            parser.error("--c must be >= 1")
        result = run(instance, args.c) if takes_c else run(instance)
    _emit(_result_doc(result), args.out)
    return 0


def _cmd_oracle(args, parser) -> int:
    instance, report = _checked_instance(args.input)
    if not report.ok:
        return 1
    if args.node_limit < 0:
        parser.error("--node-limit must be >= 0")
    res = _ORACLES[args.problem](instance, node_limit=args.node_limit)
    if args.stats:
        stats = res.stats
        pairs = (f"{f.name}={getattr(stats, f.name)}" for f in dataclasses.fields(stats))
        print("stats:", *pairs, file=sys.stderr)
    key = "trace" if isinstance(res.witness, AuctionTrace) else "winners"
    _emit({"value": res.value, key: _result_doc(res.witness)}, args.out)
    return 0


def _cmd_generate(args, parser) -> int:
    defaults, needs_seed, build = _FAMILIES[args.family]
    if needs_seed and args.seed is None:
        parser.error(f"--seed is required for family {args.family}")
    try:
        params = _merge_params(f"family {args.family}", defaults, _parse_params(args.params))
        instance = build(**params, seed=args.seed)
    except (ValueError, InvalidParams) as exc:
        parser.error(str(exc))
    with _output(args.out) as fp:
        formats.dump_instance(instance, fp)
    return 0


def _roles(kind: str, gadget, *derived: str) -> dict:
    """A gadget's roles sidecar: `kind`, every field but the instance in field
    order, then the `derived` properties; a vertex-pair key is written "s t"."""
    roles = {"kind": kind}
    for field in dataclasses.fields(gadget):
        if field.name == "instance":
            continue
        value = getattr(gadget, field.name)
        if isinstance(value, Mapping):
            value = {" ".join(k) if isinstance(k, tuple) else k: v for k, v in value.items()}
        roles[field.name] = value
    roles.update((name, getattr(gadget, name)) for name in derived)
    return roles


def _cmd_reduce(args, parser) -> int:
    if args.source == "partition":
        if not args.weights:
            parser.error("--weights is required for --from partition")
        weights = []
        for item in filter(str.strip, args.weights.split(",")):
            try:
                weights.append(int(item))
            except ValueError:
                parser.error(f"--weights must be comma-separated integers, got {_quoted(item)}")
        try:
            gadget = partition_to_2paa(weights, args.c)
        except InvalidParams as exc:
            parser.error(str(exc))
        roles = _roles("partition", gadget, "yes_value", "no_threshold")
    else:
        if not args.graph:
            parser.error("--graph is required for --from vertex-cover")
        with open(args.graph, "r", encoding="utf-8") as fp:
            vertices, edges = formats.read_edge_list(fp)
        gadget = vc_to_2pm(vertices, edges)
        roles = _roles("vertex-cover", gadget)
    # encoded before either file is written: the roles can hold a number
    # past the digit limit when every instance amount is within it
    roles_text = json.dumps(roles, indent=2) + "\n"
    with _output(args.out) as fp:
        formats.dump_instance(gadget.instance, fp)
    with _output(args.out + ".roles.json") as fp:
        fp.write(roles_text)
    return 0


def _cmd_experiment(args, parser) -> int:
    if args.format == "structured" and not args.out:
        parser.error("--format structured needs --out")
    try:
        params = _parse_params(args.params)
        report, records = run_experiment(
            args.suite, params=params, trials=args.trials, seed=args.seed
        )
    except (ValueError, InvalidParams) as exc:
        parser.error(str(exc))
    if args.out:
        if args.format == "csv":
            with _output(args.out) as fp:
                formats.records_to_csv(records, fp)
        else:
            doc = {
                "report": report_to_doc(report),
                "records": [formats.record_to_doc(r) for r in records],
            }
            _emit(doc, args.out)
    print(format_report(report))
    return 0 if report.passed else 1


def _cmd_validate(args, parser) -> int:
    instance, report = _checked_instance(args.input)
    for line in report.warnings:
        print(f"warning: {line}")
    if report.ok:
        print(f"ok: {instance.m} keywords, {len(instance.bidder_ids)} bidders")
        return 0
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # library warnings (reverse_match and top_c emit UserWarnings) become one
    # `warning:` line each on stderr instead of Python's source-line format;
    # "default" shows a repeated message once, as Python itself would
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default", UserWarning)
        try:
            status = args.run(args, parser)
            sys.stdout.flush()  # so a closed pipe fails here, not at shutdown
            return status
        except BrokenPipeError:
            # stdout's reader has gone (`| head`): exit 1 quietly, as Unix
            # tools do, and let the flush at shutdown write to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 1
        except (AuctionError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
