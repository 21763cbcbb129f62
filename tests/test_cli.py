"""Command-line interface: exit codes, file outputs, stdout shapes."""

import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    Instance,
    SearchStats,
    gap_instance,
    opt_2paa,
    opt_2pm,
    partition_to_2paa,
    random_2paa,
    random_2pm,
    reverse_match,
    top_c,
    unit_instance,
)
from auctionlab.cli import _FAMILIES, _OFFLINE, _ORACLES, _POLICIES, main
from auctionlab.formats import (
    dump_instance,
    instance_from_doc,
    load_instance,
    trace_to_doc,
)
from auctionlab.harness import format_report, run_experiment
from shared import reference_text


@pytest.fixture
def instance_file(tmp_path):
    inst = Instance(
        ("u1", "u2"),
        (("A", 4), ("B", 3)),
        {("u1", "A"): 4, ("u1", "B"): 3, ("u2", "A"): 4, ("u2", "B"): 3},
    )
    path = tmp_path / "instance.json"
    with open(path, "w") as fp:
        dump_instance(inst, fp)
    return path


@pytest.fixture
def unit_file(tmp_path):
    inst = Instance(
        ("u1", "u2", "u3"),
        (("a", 1), ("b", 1), ("c", 1)),
        {
            ("u1", "a"): 1, ("u1", "b"): 1,
            ("u2", "b"): 1, ("u2", "c"): 1,
            ("u3", "c"): 1, ("u3", "a"): 1,
        },
    )
    path = tmp_path / "unit.json"
    with open(path, "w") as fp:
        dump_instance(inst, fp)
    return path


# ----------------------------------------------------------------------
# solve


def test_solve_greedy_prints_trace_doc(unit_file, capsys):
    assert main(["solve", "--algorithm", "greedy", "--input", str(unit_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 2
    assert len(doc["steps"]) == 3


def test_solve_top_c_needs_c(instance_file, capsys):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--algorithm", "top-c", "--input", str(instance_file)])
    assert err.value.code == 2

    assert main(
        ["solve", "--algorithm", "top-c", "--input", str(instance_file), "--c", "1"]
    ) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total"] == 3


def test_solve_ranking_requires_seed(unit_file):
    with pytest.raises(SystemExit) as err:
        main(["solve", "--algorithm", "ranking", "--input", str(unit_file)])
    assert err.value.code == 2


def test_solve_ranking_emits_matching(unit_file, capsys):
    code = main(
        ["solve", "--algorithm", "ranking", "--input", str(unit_file), "--seed", "3"]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"pairs", "size"}
    assert doc["size"] >= 2


def test_solve_ranking_simulate_with_k_copy(unit_file, tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = main(
        [
            "solve", "--algorithm", "ranking-simulate",
            "--input", str(unit_file), "--seed", "0", "--k", "2",
            "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["steps"]) == 6  # three keywords, two copies each


def test_solve_reverse_match(unit_file, capsys):
    assert main(["solve", "--algorithm", "reverse-match", "--input", str(unit_file)]) == 0
    assert json.loads(capsys.readouterr().out)["total"] == 2


def test_solve_missing_input_file(tmp_path, capsys):
    code = main(["solve", "--algorithm", "greedy", "--input", str(tmp_path / "nope.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


THIN = {
    "keywords": ["u1", "u2"],
    "bidders": [{"id": "a", "budget": 1}, {"id": "b", "budget": 1}],
    "bids": [
        {"keyword": "u1", "bidder": "a", "amount": 1},
        {"keyword": "u2", "bidder": "a", "amount": 1},
        {"keyword": "u2", "bidder": "b", "amount": 1},
    ],
}


@pytest.mark.parametrize(
    "argv, run, message",
    [
        (
            ["--algorithm", "reverse-match"],
            reverse_match,
            "dropping 1 keyword(s) with fewer than two bidders",
        ),
        (
            ["--algorithm", "top-c", "--c", "2"],
            lambda inst: top_c(inst, 2),
            "r_min below 2: the no-truncation guarantee does not apply",
        ),
    ],
    ids=["reverse-match", "top-c"],
)
def test_solve_prints_a_library_warning_as_one_line(tmp_path, capsys, argv, run, message):
    path = tmp_path / "thin.json"
    path.write_text(json.dumps(THIN))
    assert main(["solve", *argv, "--input", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == f"warning: {message}\n"
    with pytest.warns(UserWarning, match=re.escape(message)):
        trace = run(instance_from_doc(THIN))
    assert captured.out == json.dumps(trace_to_doc(trace), indent=2) + "\n"


# ----------------------------------------------------------------------
# oracle


def test_oracle_values_match_library(instance_file, unit_file, capsys):
    assert main(["oracle", "--problem", "2paa", "--input", str(instance_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 4
    assert doc["trace"]["total"] == 4

    assert main(["oracle", "--problem", "2pm", "--input", str(unit_file)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == 2

    assert main(["oracle", "--problem", "1paa", "--input", str(instance_file)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["value"] == 7
    assert doc["winners"] == {"u1": "A", "u2": "B"}


def test_oracle_node_limit_failure_is_exit_one(unit_file, capsys):
    code = main(
        ["oracle", "--problem", "2pm", "--input", str(unit_file), "--node-limit", "1"]
    )
    assert code == 1
    assert "error:" in capsys.readouterr().err


def _one_error_line(err):
    return err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("problem", ["2pm", "2paa", "1paa"])
def test_oracle_too_deep_instance_is_one_error_line(tmp_path, capsys, problem):
    deep = unit_instance({f"u{i}": [f"a{i}", f"b{i}"] for i in range(1200)})
    path = tmp_path / "deep.json"
    with open(path, "w") as fp:
        dump_instance(deep, fp)
    assert main(["oracle", "--problem", problem, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) and "depth 1200" in captured.err


def test_oracle_stats_go_to_stderr_only(unit_file, capsys):
    assert main(["oracle", "--problem", "2pm", "--input", str(unit_file)]) == 0
    plain = capsys.readouterr()
    assert main(["oracle", "--problem", "2pm", "--input", str(unit_file), "--stats"]) == 0
    captured = capsys.readouterr()
    assert captured.out == plain.out
    assert plain.err == ""
    assert captured.err.startswith("stats: nodes=") and captured.err.count("\n") == 1
    assert captured.err.endswith(" max_depth=3\n")


def test_oracle_stats_line_is_the_search_stats_of_the_pinned_draw(tmp_path, capsys):
    inst = random_2pm(12, 12, 0.3, seed=0)
    path = tmp_path / "draw.json"
    with open(path, "w") as fp:
        dump_instance(inst, fp)
    assert main(["oracle", "--problem", "2pm", "--input", str(path), "--stats"]) == 0
    stats = opt_2pm(inst).stats
    assert stats == SearchStats(210, 210, 12)
    assert capsys.readouterr().err == (
        f"stats: nodes={stats.nodes} memo_entries={stats.memo_entries}"
        f" max_depth={stats.max_depth}\n"
    )


DUPLICATE_KEYWORD = {
    "keywords": ["u", "u"],
    "bidders": [{"id": "a", "budget": 1}, {"id": "b", "budget": 1}],
    "bids": [
        {"keyword": "u", "bidder": "a", "amount": 1},
        {"keyword": "u", "bidder": "b", "amount": 1},
    ],
}


@pytest.mark.parametrize(
    "argv",
    [["oracle", "--problem", "2pm"], ["solve", "--algorithm", "greedy"]],
    ids=["oracle", "solve"],
)
def test_invalid_instance_is_refused_with_validate_errors(tmp_path, capsys, argv):
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(DUPLICATE_KEYWORD))
    assert main([*argv, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert _one_error_line(captured.err) and "duplicate keyword id 'u'" in captured.err


# ----------------------------------------------------------------------
# generate


def test_generate_gap_writes_instance(tmp_path):
    out = tmp_path / "gap.json"
    code = main(
        ["generate", "--family", "gap", "--params", "c=2,k=3", "--out", str(out)]
    )
    assert code == 0
    inst = instance_from_doc(json.loads(out.read_text()))
    assert inst == gap_instance(2, 3)


def test_generate_and_reduce_files_are_the_reference_rendering(tmp_path, capsys):
    out = tmp_path / "paa.json"
    argv = ["generate", "--family", "random-2paa", "--seed", "3"]
    assert main([*argv, "--out", str(out)]) == 0
    expected = reference_text(random_2paa(8, 5, 9, 1, seed=3))
    assert out.read_bytes() == expected.encode("ascii")
    assert main(argv) == 0
    assert capsys.readouterr().out == expected

    gadget = tmp_path / "gadget.json"
    argv = ["reduce", "--from", "partition", "--weights", "3,1,2,2", "--c", "1"]
    assert main([*argv, "--out", str(gadget)]) == 0
    expected = reference_text(partition_to_2paa([3, 1, 2, 2], 1).instance)
    assert gadget.read_bytes() == expected.encode("ascii")


def test_generate_writes_a_file_in_little_more_memory_than_its_text(tmp_path):
    out = tmp_path / "paa.json"
    params = "num_keywords=150,num_bidders=150,max_bid=9,target_r_min=2"
    argv = ["generate", "--family", "random-2paa", "--seed", "0", "--params", params]
    tracemalloc.start()
    try:
        assert main([*argv, "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = out.stat().st_size
    assert peak <= 2.5 * size, peak / size


def test_generate_randomized_families_require_seed(capsys):
    for family in ("chain", "random-2pm", "random-2paa"):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--family", family])
        assert err.value.code == 2


def test_generate_chain_to_stdout(capsys):
    assert main(["generate", "--family", "chain", "--seed", "6"]) == 0
    out = capsys.readouterr().out
    assert len(json.loads(out)["keywords"]) == 9
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "b5d88d4e64655c72b452949d577d1998e0786653a987bb9195aec940e33e1449"
    )


def test_generate_chain_takes_only_m(capsys):
    with pytest.raises(SystemExit) as err:
        main(["generate", "--family", "chain", "--seed", "6", "--params", "variant=normal"])
    assert err.value.code == 2
    assert "family chain has no parameter 'variant'" in capsys.readouterr().err


# numbers past int's 4300-digit str limit cannot be written; with 4297-digit
# weights every gadget amount is within the limit but the roles' yes_value
# is not
_HUGE = "9" * 4000
_UNWRITABLE = {
    "generate": ["generate", "--family", "random-2paa", "--seed", "0",
                 "--params", f"max_bid={_HUGE},target_r_min={_HUGE}"],
    "reduce": ["reduce", "--from", "partition", "--weights", f"{'9' * 4299},1,1,1"],
    "reduce-roles": ["reduce", "--from", "partition", "--weights", f"{'9' * 4297},1,1,1"],
}


@pytest.mark.parametrize("command", sorted(_UNWRITABLE))
@pytest.mark.parametrize("existing", [None, b"keep me\n"])
def test_failed_write_leaves_out_as_it_was(tmp_path, capsys, command, existing):
    out = tmp_path / "out.json"
    if existing is not None:
        out.write_bytes(existing)
    assert main([*_UNWRITABLE[command], "--out", str(out)]) == 1
    assert "exceeds the limit" in capsys.readouterr().err.lower()
    assert list(tmp_path.iterdir()) == ([] if existing is None else [out])
    if existing is not None:
        assert out.read_bytes() == existing


def test_generate_adversary_needs_no_seed(capsys):
    assert main(["generate", "--family", "adversary", "--params", "m=4"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["keywords"]) == 4


def test_generate_rejects_unknown_or_malformed_params():
    with pytest.raises(SystemExit) as err:
        main(["generate", "--family", "gap", "--params", "c=two"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["generate", "--family", "gap", "--params", "zzz=1"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["generate", "--family", "gap", "--params", "c"])
    assert err.value.code == 2


# ----------------------------------------------------------------------
# reduce


def test_reduce_partition_writes_gadget_and_roles(tmp_path):
    out = tmp_path / "gadget.json"
    code = main(
        ["reduce", "--from", "partition", "--weights", "1,1", "--c", "1", "--out", str(out)]
    )
    assert code == 0
    inst = instance_from_doc(json.loads(out.read_text()))
    roles = json.loads((tmp_path / "gadget.json.roles.json").read_text())
    assert roles["kind"] == "partition"
    assert roles["yes_value"] == 72
    assert roles["no_threshold"] == 32
    assert opt_2paa(inst).value == 72


def test_reduce_partition_requires_weights():
    with pytest.raises(SystemExit) as err:
        main(["reduce", "--from", "partition", "--out", "x.json"])
    assert err.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["reduce", "--from", "partition", "--weights", f"{'9' * 4301},1,1,1", "--out", "y.json"],
        ["generate", "--family", "gap", "--params", "x" * 5000],
    ],
    ids=["weights", "params"],
)
def test_usage_error_cuts_a_long_argument_short(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    message = capsys.readouterr().err.splitlines()[-1]
    assert len(message) < 200
    assert message.endswith(("9' (4301 characters)", "x' (5000 characters), expected key=value"))
    assert list(tmp_path.iterdir()) == []


def test_reduce_vertex_cover_from_edge_list(tmp_path):
    graph = tmp_path / "graph.txt"
    graph.write_text("a b\nb c\na c\n")
    out = tmp_path / "vc.json"
    code = main(["reduce", "--from", "vertex-cover", "--graph", str(graph), "--out", str(out)])
    assert code == 0
    roles = json.loads((tmp_path / "vc.json.roles.json").read_text())
    assert roles["kind"] == "vertex-cover"
    assert set(roles["edge_keywords"]) == {"a b", "b c", "a c"}
    inst = instance_from_doc(json.loads(out.read_text()))
    assert inst.m == 9


# SHA-256 of the gadget file and of its roles sidecar, pinned byte for byte;
# the third partition has an odd weight sum, so its gadget doubles (scale 2)
_REDUCE_PINS = {
    "partition-3122-c1": (
        ["--from", "partition", "--weights", "3,1,2,2", "--c", "1"], None,
        "18d9126fc3fcde435ee344526f49e2dd71252bdab29a851f0f1a466858c135c0",
        "171f6292a706096d11f8df2d6ca298889c68078f5a76fbaea51599f7ae3dc1dd",
    ),
    "partition-11-c3": (
        ["--from", "partition", "--weights", "1,1", "--c", "3"], None,
        "40f1768a0168b76d297c5aa890798df0de19fb28c2e73fb75e2ec971b7dbc4c5",
        "a021b2d6e28b34b000f5bf0dcdce42571b7c0ec6cb15fd412072a19ca489c2e7",
    ),
    "partition-odd-c2": (
        ["--from", "partition", "--weights", "5,4,3,1,2,2", "--c", "2"], None,
        "b3475cd984b07d85b33825c80f0f407eb1b0fb76ee980ef69f4c0f9f5169c4d1",
        "264be495860f68881013f6fc5f50788778c22f96ddd21cd8a7ca3fd16fbced36",
    ),
    "vc-triangle": (
        ["--from", "vertex-cover"], "a b\nb c\na c\n",
        "8e319f7ff5cd87fc6f61599df0e61534de8f5bce4298a27efd6e0247bdc566f8",
        "9b9d399187f2cb386acc34c7529a74505fa1dbe63aae3e704b455eff99170f71",
    ),
    "vc-path4": (
        ["--from", "vertex-cover"], "a b\nb c\nc d\nd e\n",
        "8ecc3bc5c771704498f69facfa6cf03a93ddd407cecb1db3329e098727045031",
        "3297540f3612e5049961663be646c43bc6620588e46144db074f05da79795437",
    ),
}


@pytest.mark.parametrize("name", sorted(_REDUCE_PINS))
def test_reduce_files_match_their_pinned_digests(tmp_path, name):
    args, graph, gadget_digest, roles_digest = _REDUCE_PINS[name]
    if graph is not None:
        (tmp_path / "graph.txt").write_text(graph)
        args = [*args, "--graph", str(tmp_path / "graph.txt")]
    out = tmp_path / "gadget.json"
    assert main(["reduce", *args, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == gadget_digest
    roles = tmp_path / "gadget.json.roles.json"
    assert hashlib.sha256(roles.read_bytes()).hexdigest() == roles_digest


@pytest.mark.parametrize(
    "graph, message",
    [
        ("a y:a\n", "vertex labels give a duplicate bidder id 'y:a'"),
        ("a b-c\na-b c\n", "vertex labels give a duplicate keyword id 'e:a-b-c'"),
    ],
    ids=["vertex-is-a-y-bidder", "edges-share-a-name"],
)
def test_reduce_refuses_labels_that_repeat_a_gadget_id(tmp_path, capsys, graph, message):
    (tmp_path / "graph.txt").write_text(graph)
    argv = ["reduce", "--from", "vertex-cover", "--graph", str(tmp_path / "graph.txt")]
    assert main([*argv, "--out", str(tmp_path / "gadget.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["graph.txt"]


def test_reduce_vertex_cover_requires_graph():
    with pytest.raises(SystemExit) as err:
        main(["reduce", "--from", "vertex-cover", "--out", "x.json"])
    assert err.value.code == 2


# ----------------------------------------------------------------------
# exit codes: an out-of-range --params or flag value is a usage error (2),
# a bad input file is a data error (1); neither writes --out


@pytest.mark.parametrize(
    "argv, code, message",
    [
        (["generate", "--family", "chain", "--seed", "1", "--params", "m=0"], 2,
         "m must be >= 1, got 0"),
        (["generate", "--family", "gap", "--params", "k=1"], 2,
         "need c >= 1 and k >= 2, got c=1, k=1"),
        (["generate", "--family", "adversary", "--params", "policy=ranking"], 2,
         "unknown policy 'ranking'; choose from first-available, greedy, skip-all"),
        (["generate", "--family", "random-2pm", "--seed", "1", "--params", "edge_probability=2"],
         2, "edge probability 2.0 outside [0, 1]"),
        (["solve", "--algorithm", "top-c", "--c", "0"], 2, "--c must be >= 1"),
        (["solve", "--algorithm", "greedy", "--k", "0"], 2, "--k must be >= 1"),
        (["oracle", "--problem", "2pm", "--node-limit", "-1"], 2, "--node-limit must be >= 0"),
        (["reduce", "--from", "partition", "--weights", "1,2,3"], 2,
         "need an even positive number of weights, got 3"),
        (["reduce", "--from", "partition", "--weights", "1,1", "--c", "0"], 2,
         "c must be >= 1, got 0"),
        (["reduce", "--from", "partition", "--weights", "1,0"], 2,
         "weights must be positive ints, got 0"),
        (["reduce", "--from", "partition", "--weights", "1,x"], 2,
         "--weights must be comma-separated integers, got 'x'"),
        (["reduce", "--from", "vertex-cover", "--graph", "loop.txt"], 1, "self-loop at 'a'"),
        (["experiment", "--suite", "top-c", "--seed", "1", "--trials", "3", "--params", "c=0"],
         2, "c must be >= 1, got 0"),
        (["experiment", "--suite", "top-c", "--seed", "1", "--trials", "3",
          "--params", "max_bid=-1"], 2, "max_bid must be >= 0, got -1"),
        (["generate", "--family", "random-2pm", "--seed", "1", "--params", "num_bidders=1"],
         2, "num_bidders must be >= 2, got 1"),
        (["generate", "--family", "random-2pm", "--seed", "1", "--params", "num_keywords=-1"],
         2, "num_keywords must be >= 0, got -1"),
        (["generate", "--family", "random-2paa", "--seed", "1", "--params", "target_r_min=0"],
         2, "target_r_min must be >= 1, got 0"),
        (["generate", "--family", "random-2paa", "--seed", "1", "--params", "num_bidders=0"],
         2, "num_bidders must be >= 1, got 0"),
        (["experiment", "--suite", "greedy-chain", "--seed", "1", "--trials", "3",
          "--params", "m=x"], 2, "suite 'greedy-chain' parameter 'm' must be int, got 'x'"),
        (["experiment", "--suite", "greedy-chain", "--seed", "1", "--trials", "3",
          "--params", "m=3,m=5"], 2, "duplicate parameter 'm'"),
        (["experiment", "--suite", "greedy-chain", "--seed", "1", "--trials", "3",
          "--params", "m=3,,m=5"], 2, "duplicate parameter 'm'"),
        (["experiment", "--suite", "adversary", "--seed", "1", "--params", "m_max=0"], 2,
         "m_max must be >= 1, got 0"),
        (["experiment", "--suite", "ranking-simulate", "--seed", "1", "--trials", "3",
          "--params", "extra_edge_prob=2"], 2, "edge probability 2.0 outside [0, 1]"),
    ],
    ids=[
        "generate-chain-m", "generate-gap-k", "generate-adversary-policy",
        "generate-random-2pm-p", "solve-c", "solve-k", "oracle-node-limit",
        "reduce-odd-weights", "reduce-c",
        "reduce-zero-weight", "reduce-unparsable-weight", "reduce-graph-content",
        "experiment-top-c", "experiment-top-c-max-bid", "generate-random-2pm-n",
        "generate-random-2pm-m", "generate-random-2paa-r", "generate-random-2paa-n",
        "experiment-unparsable-param", "experiment-duplicate-param",
        "experiment-empty-param-chunk", "experiment-adversary-m-max",
        "experiment-simulate-p",
    ],
)
def test_refused_values_exit_two_and_bad_data_exits_one(
    tmp_path, monkeypatch, capsys, instance_file, argv, code, message
):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "loop.txt").write_text("a b\na a\n")
    if argv[0] in ("solve", "oracle"):
        argv = [*argv, "--input", str(instance_file)]
    if argv[0] == "reduce":
        argv = [*argv, "--out", "out.json"]
    if code == 2:
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        expected = f"auctionlab: error: {message}"
    else:
        assert main(argv) == 1
        expected = f"error: {message}"
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == expected
    assert sorted(p.name for p in tmp_path.iterdir()) == ["instance.json", "loop.txt"]


def _table_argv():
    """One argv per CLI table entry, with default params and --seed 0 where required."""
    for family, (_, needs_seed, _) in _FAMILIES.items():
        yield ["generate", "--family", family, *(["--seed", "0"] if needs_seed else [])]
    for name, factory in _POLICIES.items():
        seed = [] if factory().deterministic else ["--seed", "0"]
        yield ["solve", "--algorithm", name, *seed]
    for name, (_, takes_c) in _OFFLINE.items():
        yield ["solve", "--algorithm", name, *(["--c", "1"] if takes_c else [])]
    for problem in _ORACLES:
        yield ["oracle", "--problem", problem]


@pytest.mark.parametrize("argv", list(_table_argv()), ids=lambda argv: " ".join(argv[:3]))
def test_every_table_entry_runs_from_argv(unit_file, capsys, argv):
    if argv[0] != "generate":
        argv = [*argv, "--input", str(unit_file)]
    assert main(argv) == 0
    out = capsys.readouterr().out
    if argv[0] == "generate":
        assert load_instance(io.StringIO(out)).m > 0
        return
    doc = json.loads(out)
    if argv[0] == "oracle":
        with open(unit_file) as fp:
            assert doc["value"] == _ORACLES[argv[2]](load_instance(fp)).value
        assert set(doc) == {"value", "winners" if argv[2] == "1paa" else "trace"}
    else:
        assert set(doc) in ({"steps", "total"}, {"pairs", "size"})


# ----------------------------------------------------------------------
# experiment


def test_experiment_pass_writes_csv_and_exits_zero(tmp_path, capsys):
    out = tmp_path / "records.csv"
    code = main(
        [
            "experiment", "--suite", "greedy-chain",
            "--trials", "50", "--seed", "42", "--out", str(out),
        ]
    )
    assert code == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    assert line.startswith("PASS greedy-chain:")
    rows = out.read_text().splitlines()
    assert rows[0] == "suite,trial,seed,instance,value,reference,ratio"
    assert len(rows) == 51


def test_experiment_failed_verdict_exits_one(capsys):
    code = main(["experiment", "--suite", "greedy-chain", "--trials", "1", "--seed", "4"])
    assert code == 1
    assert capsys.readouterr().out.startswith("FAIL")


def test_experiment_requires_seed():
    with pytest.raises(SystemExit) as err:
        main(["experiment", "--suite", "greedy-chain", "--trials", "5"])
    assert err.value.code == 2


def test_experiment_rejects_unknown_params():
    with pytest.raises(SystemExit) as err:
        main(
            [
                "experiment", "--suite", "greedy-chain",
                "--trials", "5", "--seed", "0", "--params", "width=2",
            ]
        )
    assert err.value.code == 2


def test_experiment_structured_output(tmp_path, capsys):
    out = tmp_path / "records.json"
    code = main(
        [
            "experiment", "--suite", "adversary", "--seed", "0",
            "--params", "m_max=2", "--format", "structured", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["suite"] == "adversary"
    assert doc["report"]["violations"] == 0
    assert doc["report"]["workers"] >= 1
    assert "pooled_from" in doc["report"]
    assert len(doc["records"]) == 6


def test_experiment_structured_output_needs_out(capsys):
    argv = ["experiment", "--suite", "adversary", "--seed", "0", "--params", "m_max=2"]
    with pytest.raises(SystemExit) as err:
        main([*argv, "--format", "structured"])
    assert err.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--format structured needs --out" in captured.err


def test_experiment_default_stdout_is_the_report_line_only(capsys):
    argv = ["experiment", "--suite", "adversary", "--seed", "0", "--params", "m_max=2"]
    report, _ = run_experiment("adversary", params={"m_max": "2"}, trials=1000, seed=0)
    for extra in ([], ["--format", "csv"]):
        assert main([*argv, *extra]) == 0
        assert capsys.readouterr().out == format_report(report) + "\n"


# ----------------------------------------------------------------------
# validate


def test_validate_ok(instance_file, capsys):
    assert main(["validate", "--input", str(instance_file)]) == 0
    assert "ok: 2 keywords, 2 bidders" in capsys.readouterr().out


def test_validate_bad_instance(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "keywords": ["u"],
                "bidders": [{"id": "A", "budget": 2}],
                "bids": [{"keyword": "u", "bidder": "A", "amount": 5}],
            }
        )
    )
    assert main(["validate", "--input", str(path)]) == 1
    out, err = capsys.readouterr()
    assert "error: bid ('u', 'A') = 5 exceeds budget 2" in err
    assert "error:" not in out


def test_validate_warning_still_ok(tmp_path, capsys):
    path = tmp_path / "thin.json"
    path.write_text(
        json.dumps(
            {
                "keywords": ["u1", "u2"],
                "bidders": [{"id": "a", "budget": 1}, {"id": "b", "budget": 1}],
                "bids": [
                    {"keyword": "u1", "bidder": "a", "amount": 1},
                    {"keyword": "u2", "bidder": "a", "amount": 1},
                    {"keyword": "u2", "bidder": "b", "amount": 1},
                ],
            }
        )
    )
    assert main(["validate", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "warning:" in out
    assert "ok:" in out


def test_cold_start_never_loads_the_process_pool(instance_file):
    # only a pooled run_experiment needs concurrent.futures.process, which
    # pulls in multiprocessing, pickle, socket and subprocess at import
    code = (
        "import sys\n"
        "import auctionlab, auctionlab.cli, auctionlab.formats\n"
        f"assert auctionlab.cli.main(['validate', '--input', {str(instance_file)!r}]) == 0\n"
        "print(sorted({'concurrent.futures.process', 'multiprocessing'} & set(sys.modules)))\n"
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["ok: 2 keywords, 2 bidders", "[]"]


def test_a_closed_stdout_pipe_exits_1_with_nothing_on_stderr():
    # `auctionlab generate ... | head -c 50`: the instance is megabytes, so the
    # child is still writing when the reader goes
    code = "import sys\nfrom auctionlab.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    argv = ["generate", "--family", "random-2paa", "--seed", "0",
            "--params", "num_keywords=300,num_bidders=300"]
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    child = subprocess.Popen(
        [sys.executable, "-c", code, *argv], env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        head = child.stdout.read(50)
        assert len(head) == 50 and head.startswith(b'{\n  "keywords": [\n')
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=60) == 1
    finally:
        child.kill()
        child.wait()
    assert err == b""


def test_an_unwritable_out_still_prints_its_error_line(tmp_path, capsys):
    out = tmp_path / "missing" / "i.json"
    assert main(["generate", "--family", "random-2pm", "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: [Errno 2] No such file or directory")


DUPLICATE_BID = {
    "keywords": ["u"],
    "bidders": [{"id": "A", "budget": 3}, {"id": "B", "budget": 3}],
    "bids": [
        {"keyword": "u", "bidder": "A", "amount": 1},
        {"keyword": "u", "bidder": "A", "amount": 2},
    ],
}


@pytest.mark.parametrize(
    "doc, message",
    [
        ({}, "lacks 'keywords'"),
        ([], "must be an object"),
        (DUPLICATE_BID, "duplicate bid entry"),
        ({"keywords": [1, "1"], "bidders": []}, "keyword 1 is not a string"),
        ({"keywords": [], "bidders": [{"id": True, "budget": 1}]}, "has a non-string id"),
    ],
    ids=["empty-object", "list", "duplicate-bid", "int-keyword", "bool-bidder-id"],
)
def test_validate_rejects_malformed_documents_in_one_line(tmp_path, capsys, doc, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


# ----------------------------------------------------------------------
# fuzzing: no input file may reach a traceback

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
# mostly well-typed fields, so that many documents get past the load boundary
_ID = st.sampled_from(["u1", "u2", "u3", "a", "b", "c"]) | st.integers(0, 2) | _JSON
_MONEY = st.integers(-1, 3) | st.integers(-1, 3) | _JSON
_BIDDER = st.fixed_dictionaries({}, optional={"id": _ID, "budget": _MONEY}) | _JSON
_BID = st.fixed_dictionaries({}, optional={"keyword": _ID, "bidder": _ID, "amount": _MONEY}) | _JSON


def _near_list(items, max_size):
    return st.lists(items, max_size=max_size) | st.lists(items, max_size=max_size) | _JSON


_INSTANCE = st.fixed_dictionaries(
    {},
    optional={
        "keywords": _near_list(_ID, 4),
        "bidders": _near_list(_BIDDER, 4),
        "bids": _near_list(_BID, 8),
        "extra": _JSON,
    },
)


@st.composite
def _small_instances(draw):
    """Well-formed documents, all-ones about half of the time."""
    keywords = draw(st.lists(st.sampled_from(["u1", "u2", "u3", "u4"]), max_size=4, unique=True))
    bidders = draw(st.lists(st.sampled_from(["a", "b", "c", "d"]), max_size=4, unique=True))
    top = 1 if draw(st.booleans()) else 3
    budgets = {v: draw(st.integers(1, top)) for v in bidders}
    bids = [
        {"keyword": u, "bidder": v, "amount": draw(st.integers(1, budgets[v]))}
        for u in keywords
        for v in bidders
        if draw(st.booleans())
    ]
    return {
        "keywords": keywords,
        "bidders": [{"id": v, "budget": b} for v, b in budgets.items()],
        "bids": bids,
    }


FUZZED_COMMANDS = (
    ["validate"],
    ["solve", "--algorithm", "reverse-match"],
    ["solve", "--algorithm", "greedy"],
    ["solve", "--algorithm", "top-c", "--c", "2"],
    ["oracle", "--problem", "2pm"],
    ["oracle", "--problem", "2paa"],
    ["oracle", "--problem", "1paa"],
)


def _exit_code(argv):
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


@settings(max_examples=150, deadline=None)
@given(_small_instances() | _INSTANCE | _JSON)
def test_arbitrary_json_never_escapes_the_cli(doc):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in FUZZED_COMMANDS:
            assert _exit_code(command + ["--input", str(path)]) in (0, 1, 2), command


@pytest.mark.parametrize("command", FUZZED_COMMANDS, ids=" ".join)
def test_too_deep_json_is_one_error_line(tmp_path, capsys, command):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    assert main(command + ["--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: instance document is nested too deeply\n"
