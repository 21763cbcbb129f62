"""Command-line surface: solve, oracle, generate, reduce, experiment, validate."""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from typing import Mapping, Sequence

from . import formats
from .errors import AuctionError, InvalidParams
from .generators import (
    ChainVariant,
    adversary_vs_policy,
    gap_instance,
    random_2pm,
    random_2paa,
    sample_chain,
)
from .harness import SUITES, format_report, report_to_doc, run_experiment
from .model import validate
from .offline import reverse_match, top_c
from .online import greedy_2pm, first_available, ranking_1p, ranking_simulate, left_k_copy, run_online, skip_all
from .oracles import DEFAULT_NODE_LIMIT, Matching, opt_1paa, opt_2paa, opt_2pm
from .reductions import partition_to_2paa, vc_to_2pm

_POLICIES = {
    "greedy": greedy_2pm,
    "skip-all": skip_all,
    "first-available": first_available,
}

_FAMILY_PARAMS = {
    "gap": {"c": 1, "k": 5},
    "adversary": {"policy": "greedy", "m": 5},
    "chain": {"m": 9, "variant": "normal"},
    "random-2pm": {"num_keywords": 8, "num_bidders": 8, "edge_probability": 0.3},
    "random-2paa": {
        "num_keywords": 8,
        "num_bidders": 5,
        "max_bid": 9,
        "target_r_min": 1,
    },
}

_RANDOMIZED_FAMILIES = ("chain", "random-2pm", "random-2paa")


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
            raise ValueError(f"bad parameter {chunk!r}, expected key=value")
        out[key.strip()] = value.strip()
    return out


def _coerce(defaults: Mapping[str, object], given: Mapping[str, str], where: str) -> dict:
    merged = dict(defaults)
    for key, raw in given.items():
        if key not in merged:
            raise ValueError(f"{where} has no parameter {key!r}")
        merged[key] = raw if isinstance(merged[key], str) else type(merged[key])(raw)
    return merged


def _load_instance(path: str):
    with open(path, "r", encoding="utf-8") as fp:
        return formats.load_instance(fp)


def _load_valid_instance(path: str):
    """Load an instance file, or None after printing each validate() error."""
    instance = _load_instance(path)
    report = validate(instance)
    for line in report.errors:
        print(f"error: {line}", file=sys.stderr)
    return instance if report.ok else None


def _emit(doc: object, out: str | None) -> None:
    _write(json.dumps(doc, indent=2) + "\n", out)


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fp:
            fp.write(text)
    else:
        sys.stdout.write(text)


def _result_doc(result) -> dict:
    if isinstance(result, Matching):
        return formats.matching_to_doc(result)
    return formats.trace_to_doc(result)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="auctionlab",
        description="Budgeted second-price auction algorithms, oracles, and experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run an algorithm on an instance file")
    solve.add_argument(
        "--algorithm",
        required=True,
        choices=("greedy", "ranking", "ranking-simulate", "top-c", "reverse-match"),
    )
    solve.add_argument("--input", required=True)
    solve.add_argument("--out")
    solve.add_argument("--seed", type=int)
    solve.add_argument("--c", type=int, help="keyword count for top-c")
    solve.add_argument("--k", type=int, help="left k-copy preprocessing")

    oracle = sub.add_parser("oracle", help="brute-force optimum with witness")
    oracle.add_argument("--problem", required=True, choices=("2pm", "2paa", "1paa"))
    oracle.add_argument("--input", required=True)
    oracle.add_argument("--out")
    oracle.add_argument("--node-limit", type=int, default=DEFAULT_NODE_LIMIT)
    oracle.add_argument("--stats", action="store_true", help="print search statistics to stderr")

    gen = sub.add_parser("generate", help="emit an instance from a named family")
    gen.add_argument("--family", required=True, choices=sorted(_FAMILY_PARAMS))
    gen.add_argument("--params", help="comma-separated key=value overrides")
    gen.add_argument("--seed", type=int)
    gen.add_argument("--out")

    red = sub.add_parser("reduce", help="emit a hardness gadget plus a roles sidecar")
    red.add_argument("--from", dest="source", required=True, choices=("partition", "vertex-cover"))
    red.add_argument("--weights", help="comma-separated positive integers")
    red.add_argument("--c", type=int, default=1)
    red.add_argument("--graph", help="edge-list file, one 'u v' per line")
    red.add_argument("--out", required=True)

    exp = sub.add_parser("experiment", help="run a Monte-Carlo suite")
    exp.add_argument("--suite", required=True, choices=SUITES)
    exp.add_argument("--trials", type=int, default=1000)
    exp.add_argument("--seed", type=int, required=True)
    exp.add_argument("--params", help="comma-separated key=value overrides")
    exp.add_argument("--out")
    exp.add_argument("--format", choices=("csv", "structured"), default="csv")

    val = sub.add_parser("validate", help="check an instance file")
    val.add_argument("--input", required=True)
    return parser


def _cmd_solve(args, parser) -> int:
    instance = _load_valid_instance(args.input)
    if instance is None:
        return 1
    if args.k is not None:
        if args.k < 1:
            parser.error("--k must be >= 1")
        instance = left_k_copy(instance, args.k).instance
    algorithm = args.algorithm
    if algorithm in ("ranking", "ranking-simulate") and args.seed is None:
        parser.error(f"--seed is required for {algorithm}")
    if algorithm == "greedy":
        result = run_online(instance, greedy_2pm(), seed=args.seed)
    elif algorithm == "ranking":
        result = run_online(instance, ranking_1p(), seed=args.seed)
    elif algorithm == "ranking-simulate":
        result = run_online(instance, ranking_simulate(), seed=args.seed)
    elif algorithm == "top-c":
        if args.c is None:
            parser.error("--c is required for top-c")
        result = top_c(instance, args.c)
    else:
        result = reverse_match(instance)
    _emit(_result_doc(result), args.out)
    return 0


def _cmd_oracle(args, parser) -> int:
    instance = _load_valid_instance(args.input)
    if instance is None:
        return 1
    if args.problem == "2pm":
        res = opt_2pm(instance, node_limit=args.node_limit)
        doc = {"value": res.value, "trace": formats.trace_to_doc(res.witness)}
    elif args.problem == "2paa":
        res = opt_2paa(instance, node_limit=args.node_limit)
        doc = {"value": res.value, "trace": formats.trace_to_doc(res.witness)}
    else:
        res = opt_1paa(instance, node_limit=args.node_limit)
        doc = {"value": res.value, "winners": dict(res.witness)}
    if args.stats:
        stats = res.stats
        print(
            f"stats: nodes={stats.nodes} memo_entries={stats.memo_entries}"
            f" max_depth={stats.max_depth}",
            file=sys.stderr,
        )
    _emit(doc, args.out)
    return 0


def _cmd_generate(args, parser) -> int:
    family = args.family
    if family in _RANDOMIZED_FAMILIES and args.seed is None:
        parser.error(f"--seed is required for family {family}")
    try:
        params = _coerce(_FAMILY_PARAMS[family], _parse_params(args.params), f"family {family}")
    except ValueError as exc:
        parser.error(str(exc))
    if family == "gap":
        instance = gap_instance(params["c"], params["k"])
    elif family == "adversary":
        name = params["policy"]
        if name not in _POLICIES:
            parser.error(f"unknown policy {name!r}; choose from {', '.join(sorted(_POLICIES))}")
        instance = adversary_vs_policy(_POLICIES[name](), params["m"]).instance
    elif family == "chain":
        try:
            variant = ChainVariant(params["variant"])
        except ValueError:
            parser.error(f"unknown chain variant {params['variant']!r}")
        instance = sample_chain(params["m"], variant, seed=args.seed).instance
    elif family == "random-2pm":
        instance = random_2pm(
            params["num_keywords"],
            params["num_bidders"],
            params["edge_probability"],
            seed=args.seed,
        )
    else:
        instance = random_2paa(
            params["num_keywords"],
            params["num_bidders"],
            params["max_bid"],
            params["target_r_min"],
            seed=args.seed,
        )
    _write(formats.instance_json(instance), args.out)
    return 0


def _partition_roles(gadget) -> dict:
    return {
        "kind": "partition",
        "n": gadget.n,
        "c": gadget.c,
        "scale": gadget.scale,
        "weights": list(gadget.weights),
        "c_keywords": list(gadget.c_keywords),
        "e_keywords": list(gadget.e_keywords),
        "g_keywords": [list(row) for row in gadget.g_keywords],
        "bidder_a": gadget.bidder_a,
        "bidder_d": list(gadget.bidder_d),
        "bidder_f": gadget.bidder_f,
        "bidders_h": list(gadget.bidders_h),
        "yes_value": gadget.yes_value,
        "no_threshold": gadget.no_threshold,
    }


def _vc_roles(gadget) -> dict:
    def edge_map(mapping):
        return {f"{s} {t}": name for (s, t), name in mapping.items()}

    return {
        "kind": "vertex-cover",
        "vertices": list(gadget.vertices),
        "edges": [list(e) for e in gadget.edges],
        "h_keywords": dict(gadget.h_keywords),
        "l_keywords": dict(gadget.l_keywords),
        "edge_keywords": edge_map(gadget.edge_keywords),
        "x_bidders": edge_map(gadget.x_bidders),
        "y_bidders": dict(gadget.y_bidders),
        "z_bidders": dict(gadget.z_bidders),
    }


def _cmd_reduce(args, parser) -> int:
    if args.source == "partition":
        if not args.weights:
            parser.error("--weights is required for --from partition")
        try:
            weights = [int(w) for w in args.weights.split(",") if w.strip()]
        except ValueError:
            parser.error(f"--weights must be comma-separated integers, got {args.weights!r}")
        gadget = partition_to_2paa(weights, args.c)
        roles = _partition_roles(gadget)
    else:
        if not args.graph:
            parser.error("--graph is required for --from vertex-cover")
        with open(args.graph, "r", encoding="utf-8") as fp:
            vertices, edges = formats.read_edge_list(fp)
        gadget = vc_to_2pm(vertices, edges)
        roles = _vc_roles(gadget)
    _write(formats.instance_json(gadget.instance), args.out)
    _emit(roles, args.out + ".roles.json")
    return 0


def _cmd_experiment(args, parser) -> int:
    try:
        params = _parse_params(args.params)
        report, records = run_experiment(
            args.suite, params=params, trials=args.trials, seed=args.seed
        )
    except (ValueError, InvalidParams) as exc:
        parser.error(str(exc))
    if args.out:
        if args.format == "csv":
            with open(args.out, "w", encoding="utf-8") as fp:
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
    instance = _load_instance(args.input)
    report = validate(instance)
    for line in report.errors:
        print(f"error: {line}", file=sys.stderr)
    for line in report.warnings:
        print(f"warning: {line}")
    if report.ok:
        print(f"ok: {instance.m} keywords, {len(instance.bidder_ids)} bidders")
        return 0
    return 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "solve": _cmd_solve,
        "oracle": _cmd_oracle,
        "generate": _cmd_generate,
        "reduce": _cmd_reduce,
        "experiment": _cmd_experiment,
        "validate": _cmd_validate,
    }
    # library warnings (reverse_match and top_c emit UserWarnings) become one
    # `warning:` line each on stderr instead of Python's source-line format;
    # "default" shows a repeated message once, as Python itself would
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default", UserWarning)
        try:
            return handlers[args.command](args, parser)
        except (AuctionError, ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        finally:
            for warning in caught:
                print(f"warning: {warning.message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
