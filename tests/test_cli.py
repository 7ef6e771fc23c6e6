import csv
import io
import json
import re

import pytest
from click.testing import CliRunner

import mcastsched.cli as cli_module
import mcastsched.congest as congest_module
import mcastsched.schedulers as schedulers_module
from mcastsched import (
    SCHEDULERS,
    Schedule,
    build_short_decompositions,
    compute_metrics,
    decomposition_to_json,
    distributed_multicast,
    distributed_rank_decomposition,
    instance_from_json,
    instance_to_json,
    log2_ceil,
    run_scheduler,
    schedule_from_json,
    simulate,
)
from mcastsched.cli import main
from conftest import shared_edge_instance


@pytest.fixture
def runner():
    return CliRunner()


def write_shared_edge(path):
    path.write_text(instance_to_json(shared_edge_instance()))


def test_gen_random_byte_identical(runner, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        res = runner.invoke(
            main,
            ["gen", "random", "--n", "64", "--trees", "8", "--depth", "5",
             "--seed", "1", "-o", str(out)],
        )
        assert res.exit_code == 0, res.output
    assert a.read_bytes() == b.read_bytes()
    inst = instance_from_json(a.read_text())
    assert instance_to_json(inst) == a.read_text().strip()


def test_gen_lowerbound_edge_count(runner, tmp_path):
    out = tmp_path / "lb.json"
    res = runner.invoke(
        main, ["gen", "lowerbound", "--congestion", "2", "--depth", "3",
               "-o", str(out)]
    )
    assert res.exit_code == 0, res.output
    inst = instance_from_json(out.read_text())
    assert len(inst.graph.edges) == 100


def test_gen_lowerbound_odd_congestion_exits_one(runner):
    res = runner.invoke(
        main, ["gen", "lowerbound", "--congestion", "3", "--depth", "2"]
    )
    assert res.exit_code == 1
    assert "even" in res.output


def test_gen_random_bad_params_exits_one(runner):
    res = runner.invoke(
        main, ["gen", "random", "--n", "4", "--trees", "1", "--depth", "9"]
    )
    assert res.exit_code == 1


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_schedule_validate_roundtrip(runner, tmp_path, scheduler):
    inst_file = tmp_path / "inst.json"
    res = runner.invoke(
        main,
        ["gen", "random", "--n", "24", "--trees", "3", "--depth", "4",
         "--seed", "2", "-o", str(inst_file)],
    )
    assert res.exit_code == 0
    sched_file = tmp_path / "sched.json"
    res = runner.invoke(
        main,
        ["schedule", str(inst_file), "--scheduler", scheduler, "--seed", "0",
         "-o", str(sched_file)],
    )
    assert res.exit_code == 0, res.output
    assert "length=" in res.output
    res = runner.invoke(main, ["validate", str(inst_file), str(sched_file)])
    assert res.exit_code == 0, res.output
    assert res.output.startswith("valid")
    # independent replay
    inst = instance_from_json(inst_file.read_text())
    sched = schedule_from_json(sched_file.read_text())
    assert simulate(inst, sched).valid
    assert sched == run_scheduler(inst, scheduler, 0).schedule


@pytest.mark.parametrize(
    "gen_args",
    [
        ["lowerbound", "--congestion", "4", "--depth", "2"],
        ["random", "--n", "40", "--trees", "6", "--depth", "5", "--seed", "3"],
        ["layered", "--n", "64", "--congestion", "8", "--depth", "12", "--seed", "1"],
    ],
    ids=["lowerbound-4-2", "random-40", "layered-64"],
)
@pytest.mark.parametrize("seed", range(3))
def test_schedule_frames_counts_frames_run(runner, tmp_path, monkeypatch, gen_args, seed):
    """`frames=` is the number of frames routed, one per
    `unicast_frame_schedule` call; frame numbers no chunk falls in are not
    counted."""
    inst_file = tmp_path / "inst.json"
    res = runner.invoke(main, ["gen", *gen_args, "-o", str(inst_file)])
    assert res.exit_code == 0, res.output
    calls = []
    route = schedulers_module.unicast_frame_schedule
    monkeypatch.setattr(
        schedulers_module,
        "unicast_frame_schedule",
        lambda *a: calls.append(1) or route(*a),
    )
    res = runner.invoke(
        main, ["schedule", str(inst_file), "--scheduler", "frames", "--seed", str(seed)]
    )
    assert res.exit_code == 0, res.output
    assert int(re.search(r" frames=(\d+)", res.output).group(1)) == len(calls)


def test_schedule_greedy_shared_edge_length_two(runner, tmp_path):
    inst_file = tmp_path / "shared_edge.json"
    write_shared_edge(inst_file)
    res = runner.invoke(
        main, ["schedule", str(inst_file), "--scheduler", "greedy", "-o", "-"]
    )
    assert res.exit_code == 0, res.output
    assert "length=2 " in res.output


def test_validate_flags_corrupt_schedule(runner, tmp_path):
    inst_file = tmp_path / "shared_edge.json"
    write_shared_edge(inst_file)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "length": 1,
        "sends": [
            {"round": 1, "from": 0, "to": 1, "msg": 0},
            {"round": 1, "from": 1, "to": 0, "msg": 1},
        ],
    }))
    res = runner.invoke(main, ["validate", str(inst_file), str(bad)])
    assert res.exit_code == 1
    assert "capacity" in res.output or "sender_missing" in res.output


def test_decompose_outputs_json(runner, tmp_path):
    inst_file = tmp_path / "inst.json"
    runner.invoke(
        main,
        ["gen", "random", "--n", "32", "--trees", "2", "--depth", "5",
         "--seed", "4", "-o", str(inst_file)],
    )
    for kind in ("heavy", "rank", "short"):
        res = runner.invoke(
            main, ["decompose", str(inst_file), "--tree", "0", "--kind", kind]
        )
        assert res.exit_code == 0, res.output
        doc = json.loads(res.output.splitlines()[-1])
        assert set(doc) == {"paths", "levels"}
    res = runner.invoke(main, ["decompose", str(inst_file), "--tree", "99"])
    assert res.exit_code == 1


def test_decompose_short_prints_the_frames_chunks(runner, tmp_path):
    inst_file = tmp_path / "inst.json"
    runner.invoke(
        main,
        ["gen", "random", "--n", "200", "--trees", "3", "--depth", "9",
         "--seed", "2", "-o", str(inst_file)],
    )
    inst = instance_from_json(inst_file.read_text())
    for ell in (None, 1, 2):
        args = ["decompose", str(inst_file), "--tree", "1", "--kind", "short"]
        res = runner.invoke(main, args + ([] if ell is None else ["--ell", str(ell)]))
        assert res.exit_code == 0, res.output
        chunks = build_short_decompositions(inst, ell or log2_ceil(200))[1]
        assert res.output.splitlines()[-1] == decomposition_to_json(chunks)
    res = runner.invoke(main, args + ["--ell", "0"])
    assert res.exit_code == 1
    assert "error:" in res.output


def test_opt_command(runner, tmp_path):
    inst_file = tmp_path / "shared_edge.json"
    write_shared_edge(inst_file)
    res = runner.invoke(main, ["opt", str(inst_file)])
    assert res.exit_code == 0
    assert "optimum=2" in res.output
    res = runner.invoke(main, ["opt", str(inst_file), "--horizon", "1"])
    assert res.exit_code == 1


def test_check_lemmas_command(runner):
    res = runner.invoke(main, ["check-lemmas", "--congestion", "2", "--depth", "2"])
    assert res.exit_code == 0, res.output
    assert "edges=6 predicted=6" in res.output
    res = runner.invoke(main, ["check-lemmas", "--congestion", "3", "--depth", "2"])
    assert res.exit_code == 1


def test_congest_sim_command(runner, tmp_path):
    inst_file = tmp_path / "inst.json"
    runner.invoke(
        main,
        ["gen", "random", "--n", "24", "--trees", "3", "--depth", "4",
         "--seed", "0", "-o", str(inst_file)],
    )
    res = runner.invoke(main, ["congest-sim", str(inst_file), "--multicast"])
    assert res.exit_code == 0, res.output
    assert "audit=pass" in res.output
    assert "multicast length=" in res.output


def test_congest_sim_multicast_decomposes_once(runner, tmp_path, monkeypatch):
    inst_file = tmp_path / "inst.json"
    runner.invoke(
        main,
        ["gen", "random", "--n", "60", "--trees", "8", "--depth", "5",
         "--seed", "1", "-o", str(inst_file)],
    )
    inst = instance_from_json(inst_file.read_text())
    sched, rounds = distributed_multicast(inst, seed=3, depths_known=False)
    dist = distributed_rank_decomposition(inst, seed=3)
    calls = []
    run = congest_module.run_congest
    monkeypatch.setattr(
        congest_module, "run_congest", lambda *a: calls.append(1) or run(*a)
    )
    res = runner.invoke(
        main, ["congest-sim", str(inst_file), "--seed", "3", "--multicast"]
    )
    assert res.exit_code == 0, res.output
    lines = res.output.splitlines()
    assert f"node_steps={sum(tr.steps for tr in dist.transcripts)} " in lines[0]
    assert lines[-1] == (
        f"multicast length={sched.declared_length} congest_rounds={rounds}"
    )
    assert len(calls) == 3  # one decomposition: rank, preferred, refine


def _assert_clean_error(res, *needles):
    assert res.exit_code == 1, res.output
    assert isinstance(res.exception, SystemExit)  # no traceback escaped
    assert "error:" in res.output
    for needle in needles:
        assert needle in res.output


@pytest.mark.parametrize(
    "doc, needle",
    [
        (  # defect (a): tree edge (1,2) is not a host-graph edge
            {"n": 3, "edges": [[0, 1]],
             "trees": [{"id": 0, "root": 0, "parent": {"1": 0, "2": 1}}]},
            "edge (1,2) missing from host graph",
        ),
        (  # defect (b): nodes 1 and 2 form a cycle the root cannot reach
            {"n": 3, "edges": [[0, 1], [1, 2]],
             "trees": [{"id": 0, "root": 0, "parent": {"1": 2, "2": 1}}]},
            "unreachable",
        ),
        (  # defect (c): `parent` given as a list
            {"n": 2, "edges": [[0, 1]],
             "trees": [{"id": 0, "root": 0, "parent": [[1, 0]]}]},
            "cannot read instance",
        ),
    ],
    ids=["edge-not-in-graph", "unreachable", "parent-list"],
)
def test_bad_instance_exits_one(runner, tmp_path, doc, needle):
    inst_file = tmp_path / "bad.json"
    inst_file.write_text(json.dumps(doc))
    res = runner.invoke(main, ["schedule", str(inst_file), "--scheduler", "greedy"])
    _assert_clean_error(res, needle)


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda doc: doc.update(n=4.0), "n must be an integer, not 4.0"),
        (lambda doc: doc.update(edges=[[0, "1"]]), "edge endpoint must be an integer, not '1'"),
        (lambda doc: doc["trees"][0].update(id=True), "tree id must be an integer, not True"),
        (lambda doc: doc["trees"][0].update(root="0"),
         "tree 0: root must be an integer, not '0'"),
        (lambda doc: doc["trees"][0].update(msg="a"), "tree 0: msg must be an integer, not 'a'"),
        (lambda doc: doc["trees"][0].update(parent={"1": 0.0}),
         "tree 0: parent must be an integer, not 0.0"),
        (lambda doc: doc["trees"][0].update(parent={"01": 0}),
         "tree 0: parent key '01' is not a decimal node id"),
        (lambda doc: doc.update(nodes=3), "unknown key 'nodes'"),
        # not read as absent, which would run the tree as message 0
        (lambda doc: doc["trees"][0].update(mesg=7), "tree 0: unknown key 'mesg'"),
        (lambda doc: doc.update(n=-3), "n must be >= 1, not -3"),
        (lambda doc: doc.update(n=0), "n must be >= 1, not 0"),
        (lambda doc: doc.update(edges=[[0, 1, 2]]), "edge [0, 1, 2] is not a pair of nodes"),
    ],
    ids=["n-float", "edge-str", "id-bool", "root-str", "msg-str", "parent-float",
         "parent-key-zero-padded", "unknown-key", "tree-unknown-key", "n-negative", "n-zero",
         "edge-triple"],
)
def test_non_integer_instance_field_exits_one(runner, tmp_path, edit, message):
    doc = json.loads(instance_to_json(shared_edge_instance()))
    edit(doc)
    inst_file = tmp_path / "bad.json"
    inst_file.write_text(json.dumps(doc))
    res = runner.invoke(main, ["schedule", str(inst_file), "--scheduler", "greedy"])
    _assert_clean_error(res, "cannot read instance", message)


BEYOND_64_BITS = [  # an edit of the shared-edge instance and the error it reads as
    (lambda doc: doc["trees"][1].update(msg=2**63), "tree 1: 'msg' is outside the 64-bit range"),
    (lambda doc: doc["trees"][1].update(id=2**64),
     f"tree {2**64}: 'id' is outside the 64-bit range"),
    (lambda doc: (doc.update(n=2**63 + 1), doc["edges"].append([1, 2**63]),
                  doc["trees"][1]["parent"].update({str(2**63): 1})),
     "edge 1: endpoint is outside the 64-bit range"),
]


@pytest.mark.parametrize(
    "command",
    [["schedule", "--scheduler", "greedy"], ["schedule", "--scheduler", "frames"],
     ["congest-sim", "--multicast"], ["congest-sim", "--multicast", "--depths-known"],
     ["decompose", "--tree", "0"]],
    ids=["greedy", "frames", "congest-multicast", "congest-depths-known", "decompose"],
)
def test_schedule_of_message_id_beyond_64_bits_exits_one(runner, tmp_path, command):
    """A schedule keeps 64-bit integers, so reading an instance refuses a
    tree id, message id or node id outside that range."""
    for edit, needle in BEYOND_64_BITS:
        doc = json.loads(instance_to_json(shared_edge_instance()))
        edit(doc)
        inst_file = tmp_path / "big.json"
        inst_file.write_text(json.dumps(doc))
        res = runner.invoke(main, [command[0], str(inst_file), *command[1:]])
        _assert_clean_error(res, f"error: cannot read instance {inst_file}: {needle}")
        assert len(res.output.splitlines()) == 1


@pytest.mark.parametrize("target", ["missing-dir", "directory"])
@pytest.mark.parametrize("command", ["gen", "schedule", "bench"])
def test_unwritable_output_exits_one(runner, tmp_path, command, target):
    inst_file, suite_file = tmp_path / "inst.json", tmp_path / "suite.json"
    write_shared_edge(inst_file)
    suite_file.write_text(json.dumps(GOOD_FILES["suite"]))
    out = tmp_path / "missing" / "out" if target == "missing-dir" else tmp_path / "dir"
    if target == "directory":
        out.mkdir()
    args = {
        "gen": ["gen", "random", "--n", "10", "--trees", "2", "--depth", "2"],
        "schedule": ["schedule", str(inst_file)],
        "bench": ["bench", "--suite", str(suite_file)],
    }[command]
    res = runner.invoke(main, [*args, "-o", str(out)])
    _assert_clean_error(res, f"error: cannot write {out}: ")
    assert res.stderr.count("error:") == 1
    if target == "directory":
        assert not any(out.iterdir())
    else:
        assert not out.parent.exists()


@pytest.mark.parametrize("fault", [AssertionError, KeyError])
def test_program_fault_is_not_read_as_refused_input(runner, tmp_path, monkeypatch, fault):
    """Only refused parameters become an `error:` line; a fault in the program
    escapes as itself."""
    inst_file = tmp_path / "inst.json"
    write_shared_edge(inst_file)

    def broken(*args, **kwargs):
        raise fault("broken scheduler")

    monkeypatch.setattr(cli_module, "run_scheduler", broken)
    res = runner.invoke(main, ["schedule", str(inst_file)])
    assert type(res.exception) is fault


def test_scheduler_with_invalid_schedule_exits_two(runner, tmp_path, monkeypatch):
    inst_file = tmp_path / "inst.json"
    write_shared_edge(inst_file)
    monkeypatch.setattr(
        cli_module, "run_scheduler", lambda *args, **kwargs: schedulers_module.Run(Schedule((), 0))
    )
    res = runner.invoke(main, ["schedule", str(inst_file), "-o", str(tmp_path / "out")])
    assert res.exit_code == 2 and isinstance(res.exception, SystemExit)
    assert res.stderr.startswith("internal error: schedule failed validation")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["validate", "markov-check"])
def test_sends_as_string_exits_one(runner, tmp_path, command):
    # defect (c): `sends` given as a string
    inst_file = tmp_path / "shared_edge.json"
    write_shared_edge(inst_file)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"length": 1, "sends": "0,1"}))
    res = runner.invoke(main, [command, str(inst_file), str(bad)])
    _assert_clean_error(res, "cannot read schedule")


@pytest.mark.parametrize("command", ["validate", "markov-check"])
@pytest.mark.parametrize(
    "key, value",
    [("round", "1"), ("from", "a"), ("to", None), ("msg", [1]), ("round", 1.5),
     ("round", True), ("length", "1"), ("length", -1), ("lenght", 3), ("mesg", 1),
     ("round", 2**63), ("to", -(2**63) - 1)],
    ids=["round-str", "from-str", "to-null", "msg-list", "round-float",
         "round-bool", "length-str", "length-negative", "unknown-key", "send-unknown-key",
         "round-beyond-64-bit", "to-beyond-64-bit"],
)
def test_non_integer_schedule_field_exits_one(runner, tmp_path, command, key, value):
    inst_file = tmp_path / "shared_edge.json"
    write_shared_edge(inst_file)
    doc = {"length": 2, "sends": [{"round": 1, "from": 0, "to": 1, "msg": 0},
                                  {"round": 2, "from": 0, "to": 1, "msg": 1}]}
    top_level = key in ("length", "lenght")  # a misspelt key is refused, not read as absent
    (doc if top_level else doc["sends"][1])[key] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    res = runner.invoke(main, [command, str(inst_file), str(bad)])
    _assert_clean_error(res, "cannot read schedule", key)
    assert len(res.output.splitlines()) == 1


@pytest.mark.parametrize(
    "epsilon, needle",
    [("8", "22-bit refine message"), ("1e6", "epsilon"), ("inf", "epsilon"),
     ("nan", "epsilon")],
)
def test_congest_sim_unrunnable_epsilon_exits_one(runner, tmp_path, epsilon, needle):
    inst_file = tmp_path / "inst.json"
    runner.invoke(
        main,
        ["gen", "random", "--n", "30", "--trees", "4", "--depth", "3",
         "--seed", "1", "-o", str(inst_file)],
    )
    res = runner.invoke(main, ["congest-sim", str(inst_file), "--epsilon", epsilon])
    _assert_clean_error(res, needle)
    assert len(res.output.splitlines()) == 1


@pytest.mark.parametrize("ell", ["0", "-3"])
@pytest.mark.parametrize("scheduler", ["frames", "deterministic"])
def test_schedule_bad_ell_on_root_only_trees_exits_one(runner, tmp_path, scheduler, ell):
    """With no tree edge there is no chunk to cut, and the offsets are still
    drawn with the chunk length; it must be rejected there too."""
    inst_file = tmp_path / "inst.json"
    inst_file.write_text(json.dumps({
        "n": 3, "edges": [[0, 1], [1, 2]],
        "trees": [{"id": 0, "root": 1, "msg": 0, "parent": {}}],
    }))
    res = runner.invoke(
        main, ["schedule", str(inst_file), "--scheduler", scheduler, "--ell", ell]
    )
    _assert_clean_error(res, "chunk length must be >= 1")
    assert len(res.output.splitlines()) == 1


def test_markov_check_command(runner, tmp_path):
    inst_file = tmp_path / "shared_edge.json"
    write_shared_edge(inst_file)
    sched_file = tmp_path / "s.json"
    res = runner.invoke(
        main, ["schedule", str(inst_file), "--scheduler", "greedy",
               "-o", str(sched_file)]
    )
    assert res.exit_code == 0
    res = runner.invoke(main, ["markov-check", str(inst_file), str(sched_file)])
    assert res.exit_code == 0
    assert "passed=True" in res.output


def test_bench_empty_suite_header_only(runner, tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"cells": []}))
    res = runner.invoke(main, ["bench", "--suite", str(suite)])
    assert res.exit_code == 0
    rows = res.output.strip().splitlines()
    assert rows == [
        "n,congestion,dilation,scheduler,seed,length,frame_count,"
        "max_frame_congestion,wall_time_s,error"
    ]


def test_bench_grid_row_count_and_greedy_bound(runner, tmp_path):
    suite = tmp_path / "suite.json"
    cells = [
        {"n": n, "congestion": c, "depth": d, "seeds": [0, 1],
         "schedulers": ["greedy", "frames"]}
        for n, c, d in [(32, 4, 6), (48, 6, 8), (64, 8, 10)]
    ]
    suite.write_text(json.dumps({"cells": cells}))
    out = tmp_path / "bench.csv"
    res = runner.invoke(main, ["bench", "--suite", str(suite), "-o", str(out)])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(io.StringIO(out.read_text())))
    assert len(rows) == 3 * 2 * 2
    for row in rows:
        assert row["error"] == ""
        c, d = int(row["congestion"]), int(row["dilation"])
        if row["scheduler"] == "greedy":
            assert int(row["length"]) <= c * d
        if row["scheduler"] == "frames":
            assert row["frame_count"] != ""


def test_bench_prefix_cap_int_null_or_absent_runs(runner, tmp_path):
    """A null prefix_cap runs like an absent one; an integer one is passed on."""
    suite = tmp_path / "suite.json"
    cell = {"n": 32, "congestion": 4, "depth": 6, "seeds": [0], "schedulers": ["greedy"]}
    cells = [cell, {**cell, "prefix_cap": None}, {**cell, "prefix_cap": 2}]
    suite.write_text(json.dumps({"cells": cells}))
    res = runner.invoke(main, ["bench", "--suite", str(suite)])
    assert res.exit_code == 0, res.output
    rows = list(csv.DictReader(io.StringIO(res.output)))
    assert [row["error"] for row in rows] == ["", "", ""]
    assert rows[0]["length"] == rows[1]["length"]


@pytest.mark.parametrize(
    "suite, needle",
    [
        ({"cells": [{"n": 8, "congestion": 2, "depth": 3,
                     "schedulers": ["greedy"]}]}, "KeyError: 'seeds'"),
        ({"cells": {"a": 1}}, "TypeError"),
        ([1], "TypeError"),
        ({"cells": [{"n": 8, "congestion": 2, "depth": 8, "seeds": [0],
                     "schedulers": ["greedy"]}]}, "depth must be < node_count"),
        # the second cell is refused before the first one runs
        ({"cells": [{"n": 8, "congestion": 2, "depth": 3, "seeds": [0],
                     "schedulers": ["greedy"]},
                    {"n": 8, "congestion": 2, "depth": 8, "seeds": [0],
                     "schedulers": ["greedy"]}]}, "cell 1: depth must be < node_count"),
        ({"cells": [{"n": 8, "congestion": 0, "depth": 3, "seeds": [0],
                     "schedulers": ["greedy"]}]}, "congestion must be >= 1"),
        ({"cells": [{"n": 8, "congestion": 2, "depth": 3, "seeds": [0],
                     "schedulers": "greedy"}]}, "cell 0: schedulers must be a list"),
        ({"cells": [{"n": 8, "congestion": 2, "depth": 3, "seeds": [0],
                     "schedulers": ["greedy", "fast"]}]}, "cell 0: schedulers must be a list"),
        ({"cells": [{"n": 8, "congestion": 2, "depth": 3, "seeds": "01",
                     "schedulers": ["greedy"]}]}, "cell 0: seeds must be a list of integers"),
        ({"cells": [{"n": 8, "congestion": 2, "depth": 3, "seeds": [0],
                     "schedulers": ["greedy"]},
                    {"n": 8, "congestion": 2, "depth": 3, "seeds": [True],
                     "schedulers": ["greedy"]}]}, "cell 1: seeds must be a list of integers"),
        ({"cells": [{"n": 8.0, "congestion": 2, "depth": 3, "seeds": [0],
                     "schedulers": ["greedy"]}]}, "cell 0: n must be an integer"),
        ({"cells": [{"n": 8, "congestion": True, "depth": 3, "seeds": [0],
                     "schedulers": ["greedy"]}]}, "cell 0: congestion must be an integer"),
        ({"cells": [{"n": 8, "congestion": 2, "depth": 3.5, "seeds": [0],
                     "schedulers": ["greedy"]}]}, "cell 0: depth must be an integer"),
        ({"cells": [{"n": 8, "congestion": 2, "depth": 3, "seeds": [0],
                     "schedulers": ["greedy"]},
                    {"n": 8, "congestion": 2, "depth": 3, "seeds": [0],
                     "schedulers": ["greedy"], "prefix_cap": True}]},
         "cell 1: prefix_cap must be an integer or null"),
        ({"cells": [{"n": 8, "congestion": 2, "depth": 3, "seeds": [0],
                     "schedulers": ["greedy"], "prefix_cap": 1.5}]},
         "cell 0: prefix_cap must be an integer or null"),
        # a misspelt prefix_cap is refused, not run uncapped
        ({"cells": [{"n": 8, "congestion": 2, "depth": 3, "seeds": [0],
                     "schedulers": ["greedy"], "prefixcap": 1}]},
         "cell 0: unknown key 'prefixcap'"),
        ({"cells": [], "cellz": 1}, "unknown key 'cellz'"),
    ],
    ids=["missing-seeds", "cells-dict", "suite-list", "depth-ge-n", "cell-1-depth-ge-n",
         "congestion-0",
         "schedulers-string", "scheduler-unknown", "seeds-string", "seeds-bool",
         "n-float", "congestion-bool", "depth-float", "prefix-cap-bool", "prefix-cap-float",
         "unknown-key", "suite-unknown-key"],
)
def test_bench_malformed_suite_exits_one(monkeypatch, runner, tmp_path, suite, needle):
    suite_file = tmp_path / "suite.json"
    suite_file.write_text(json.dumps(suite))
    runs = []  # every cell is checked before any schedule is computed
    real = cli_module.run_scheduler
    monkeypatch.setattr(
        cli_module, "run_scheduler", lambda *args: runs.append(args) or real(*args)
    )
    res = runner.invoke(main, ["bench", "--suite", str(suite_file)])
    _assert_clean_error(res, f"invalid suite {suite_file}", needle)
    assert len(res.output.splitlines()) == 1  # the error line, no partial CSV
    assert runs == []


GOOD_FILES = {
    "instance": json.loads(instance_to_json(shared_edge_instance())),
    "schedule": {"length": 2, "sends": [{"round": 1, "from": 0, "to": 1, "msg": 0},
                                        {"round": 2, "from": 0, "to": 1, "msg": 1}]},
    "suite": {"cells": [{"n": 8, "congestion": 2, "depth": 3, "seeds": [0],
                         "schedulers": ["greedy"]}]},
}


@pytest.mark.parametrize(
    "kind, edit, needle",
    [
        ("instance", lambda doc: doc["trees"][1].update(nodes=3), "tree 1: unknown key 'nodes'"),
        ("instance", lambda doc: doc["trees"][1].update(root=None),
         "tree 1: root must be an integer, not None"),
        ("instance", lambda doc: doc["trees"][1].pop("parent"), ": 'parent'"),
        ("schedule", lambda doc: doc["sends"][0].update(rnd=1), "send 0: unknown key 'rnd'"),
        ("schedule", lambda doc: doc["sends"][0].update(to="1"),
         "send 0: to must be an integer, not '1'"),
        ("schedule", lambda doc: doc.pop("length"), ": 'length'"),
        ("suite", lambda doc: doc["cells"][0].update(seed=[1]), "cell 0: unknown key 'seed'"),
        ("suite", lambda doc: doc.update(cells="x"), "cells must be a list, not 'x'"),
        ("suite", lambda doc: doc["cells"][0].pop("n"), "KeyError: 'n'"),
    ],
    ids=["instance-unknown-key", "instance-wrong-type", "instance-missing-key",
         "schedule-unknown-key", "schedule-wrong-type", "schedule-missing-key",
         "suite-unknown-key", "suite-wrong-type", "suite-missing-key"],
)
def test_malformed_file_exits_one_without_output(runner, tmp_path, kind, edit, needle):
    """Each file kind refuses an unknown key, a value of the wrong type and a
    missing key with one error line, and writes no output file. A schedule
    is read by `validate`, which writes no file."""
    doc = json.loads(json.dumps(GOOD_FILES[kind]))
    edit(doc)
    bad, out = tmp_path / "bad.json", tmp_path / "out"
    bad.write_text(json.dumps(doc))
    inst_file = tmp_path / "inst.json"
    write_shared_edge(inst_file)
    args = {
        "instance": ["schedule", str(bad), "--scheduler", "greedy", "-o", str(out)],
        "schedule": ["validate", str(inst_file), str(bad)],
        "suite": ["bench", "--suite", str(bad), "-o", str(out)],
    }[kind]
    res = runner.invoke(main, args)
    _assert_clean_error(res, needle)
    assert res.output.startswith("error: ") and len(res.output.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "args, needle",
    [
        (["--congestion", "3", "--depth", "3", "--prefix-cap", "0"],
         "prefix_cap must be >= 1"),
        (["--congestion", "3", "--depth", "0"], "depth must be >= 1"),
        (["--congestion", "1", "--depth", "-1"], "depth must be >= 0"),
    ],
    ids=["prefix-cap-0", "depth-0", "depth-negative"],
)
def test_gen_layered_names_bad_parameter(runner, args, needle):
    res = runner.invoke(main, ["gen", "layered", "--n", "8", *args])
    _assert_clean_error(res, needle)


def test_missing_instance_file_exits_nonzero(runner):
    res = runner.invoke(main, ["schedule", "/nonexistent.json"])
    assert res.exit_code != 0


@pytest.mark.parametrize(
    "args, env, needle",
    [
        (["schedule", "{inst}", "--seed", "x"], {}, "'x' is not a valid integer"),
        (["schedule", "{inst}", "--scheduler", "nope"], {}, "'nope' is not one of"),
        (["gen", "random", "--trees", "2", "--depth", "2"], {}, "Missing option '--n'"),
        (["schedule", "{missing}"], {}, "does not exist"),
        (["schedule", "{inst}"], {"MCAST_SEED": "abc"}, "'abc' is not a valid integer"),
    ],
    ids=["bad-seed", "unknown-scheduler", "missing-option", "missing-file", "bad-env-seed"],
)
def test_usage_error_exits_one_with_one_error_line(runner, tmp_path, args, env, needle):
    """Click's usage errors end like any invalid input, not in exit 2."""
    inst = tmp_path / "inst.json"
    write_shared_edge(inst)
    args = [a.format(inst=inst, missing=tmp_path / "missing.json") for a in args]
    res = runner.invoke(main, args, env=env)
    _assert_clean_error(res, needle)
    assert res.stderr.startswith("error: ") and res.stderr.count("\n") == 1
    assert res.stdout == ""


@pytest.mark.parametrize("args", [["--help"], ["gen", "random", "--help"]])
def test_help_exits_zero(runner, args):
    res = runner.invoke(main, args)
    assert res.exit_code == 0 and res.stdout.startswith("Usage:")


def _lowerbound_2_2(runner, tmp_path):
    inst_file = tmp_path / "lb.json"
    res = runner.invoke(
        main, ["gen", "lowerbound", "--congestion", "2", "--depth", "2", "-o", str(inst_file)]
    )
    assert res.exit_code == 0, res.output
    return inst_file


def test_markov_check_rejects_empty_schedule(runner, tmp_path):
    """A schedule that delivers nothing fails the replay before the check."""
    inst_file = _lowerbound_2_2(runner, tmp_path)
    sched_file = tmp_path / "empty.json"
    sched_file.write_text('{"length":0,"sends":[]}')
    res = runner.invoke(main, ["validate", str(inst_file), str(sched_file)])
    assert res.output == "invalid violations=0 incomplete_trees=4\n"
    res = runner.invoke(main, ["markov-check", str(inst_file), str(sched_file)])
    _assert_clean_error(res, "invalid schedule: incomplete_trees=4")
    assert len(res.output.splitlines()) == 1


def test_markov_check_rejects_capacity_violation(runner, tmp_path):
    inst_file = _lowerbound_2_2(runner, tmp_path)
    sched_file = tmp_path / "greedy.json"
    res = runner.invoke(
        main, ["schedule", str(inst_file), "--scheduler", "greedy", "-o", str(sched_file)]
    )
    assert res.exit_code == 0, res.output
    doc = json.loads(sched_file.read_text())
    first = doc["sends"][0]
    doc["sends"].insert(1, dict(first))  # the same edge twice in its round
    sched_file.write_text(json.dumps(doc))
    res = runner.invoke(main, ["markov-check", str(inst_file), str(sched_file)])
    edge = (min(first["from"], first["to"]), max(first["from"], first["to"]))
    _assert_clean_error(
        res,
        f"error: invalid schedule: capacity at round {first['round']}: "
        f"edge {edge} used twice in round {first['round']}",
    )
    assert len(res.output.splitlines()) == 1


@pytest.mark.parametrize("reader", ["instance", "schedule", "suite"])
def test_deeply_nested_json_exits_one(runner, tmp_path, reader):
    nested = tmp_path / "s2.json"
    nested.write_text("[" * 100000 + "]" * 100000)
    args, needle = {
        "instance": (["validate", str(nested), str(nested)], "cannot read instance"),
        "schedule": (["validate", str(_lowerbound_2_2(runner, tmp_path)), str(nested)],
                     "cannot read schedule"),
        "suite": (["bench", "--suite", str(nested)], f"invalid suite {nested}"),
    }[reader]
    res = runner.invoke(main, args)
    _assert_clean_error(res, f"error: {needle}", "maximum recursion depth exceeded")
    assert len(res.output.splitlines()) == 1
    assert "Traceback" not in res.stderr
