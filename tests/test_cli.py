"""Command-line interface: exit codes, file outputs, stdout shapes."""

import io
import json
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from auctionlab import (
    Instance,
    gap_instance,
    opt_2paa,
    partition_to_2paa,
    random_2paa,
    reverse_match,
    top_c,
    unit_instance,
)
from auctionlab.cli import main
from auctionlab.formats import dump_instance, instance_from_doc, instance_to_doc, trace_to_doc


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


def reference_text(instance):
    return json.dumps(instance_to_doc(instance), indent=2) + "\n"


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


def test_generate_randomized_families_require_seed(capsys):
    for family in ("chain", "random-2pm", "random-2paa"):
        with pytest.raises(SystemExit) as err:
            main(["generate", "--family", family])
        assert err.value.code == 2


def test_generate_chain_to_stdout(capsys):
    assert main(["generate", "--family", "chain", "--seed", "6"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["keywords"]) == 9


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


def test_reduce_vertex_cover_requires_graph():
    with pytest.raises(SystemExit) as err:
        main(["reduce", "--from", "vertex-cover", "--out", "x.json"])
    assert err.value.code == 2


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
    assert len(doc["records"]) == 6


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
    ],
    ids=["empty-object", "list", "duplicate-bid"],
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
