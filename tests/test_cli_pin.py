"""Pins the exact bytes of `mcast schedule` and `mcast bench` on one small
instance: the stderr stats line and the SHA-256 of stdout of every scheduler
at two seeds, and a bench CSV for one cell that lists all five schedulers.

A refactor of the dispatch between the CLI and the schedulers must leave all
of these unchanged. A change that means to alter output updates the values
here and says which output changed and why.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from mcastsched.cli import main

GEN = ["gen", "random", "--n", "40", "--trees", "6", "--depth", "5", "--seed", "3"]

STATS = "C=4 D=5 n=40"
SCHEDULE = {  # (args after the instance file) -> (stderr, sha256 of stdout)
    ("greedy", "0"): (
        f"length=7 {STATS} ratio=0.1556",
        "7f4322e0b5175c616953d48a272e2919c488c932bbf3d3b9605ae7f3ba4623e4",
    ),
    ("greedy", "1"): (
        f"length=7 {STATS} ratio=0.1556",
        "7f4322e0b5175c616953d48a272e2919c488c932bbf3d3b9605ae7f3ba4623e4",
    ),
    ("random-delay", "0"): (
        f"length=10 {STATS} ratio=0.2222",
        "6ea08f7eee7c23431f7eddc0f40c5b77bfde0609f24b1654b6b8a86b83b5545b",
    ),
    ("random-delay", "1"): (
        f"length=10 {STATS} ratio=0.2222",
        "03c8e8eb2fa11f02d9e45b12a5f8f73606244a5598573a953cbc215a411c57cc",
    ),
    ("frames", "0"): (
        f"length=14 {STATS} ratio=0.3111 frames=3 max_frame_congestion=3",
        "9f596f984d25204c4c4272d2954c1f72a058572693fe56c40c402c244776da8f",
    ),
    ("frames", "1"): (
        f"length=13 {STATS} ratio=0.2889 frames=3 max_frame_congestion=3",
        "9ca9816ae62408eca54faaadd218d0b4fe6b92a9dd365c1baaf0d00035f4e6f0",
    ),
    ("deterministic", "0"): (
        f"length=14 {STATS} ratio=0.3111 chosen_seed=0",
        "9f596f984d25204c4c4272d2954c1f72a058572693fe56c40c402c244776da8f",
    ),
    ("deterministic", "1"): (
        f"length=14 {STATS} ratio=0.3111 chosen_seed=0",
        "9f596f984d25204c4c4272d2954c1f72a058572693fe56c40c402c244776da8f",
    ),
    ("congest", "0"): (
        f"length=14 {STATS} ratio=0.3111 congest_rounds=14",
        "9f596f984d25204c4c4272d2954c1f72a058572693fe56c40c402c244776da8f",
    ),
    ("congest", "1"): (
        f"length=13 {STATS} ratio=0.2889 congest_rounds=13",
        "4198169a76027831f9204e6615df12347ccc65465a2754bf93ef2be359615a48",
    ),
    ("frames", "0", "--ell", "2"): (
        f"length=15 {STATS} ratio=0.3333 frames=5 max_frame_congestion=3",
        "a0261f0a2d30b930718f5cb2d57b5e9340eca6b4ede6550c9349aee96411249b",
    ),
    ("deterministic", "0", "--ell", "2", "--budget", "3"): (
        f"length=15 {STATS} ratio=0.3333 chosen_seed=0",
        "a0261f0a2d30b930718f5cb2d57b5e9340eca6b4ede6550c9349aee96411249b",
    ),
}

BENCH_CELL = {
    "n": 32, "congestion": 4, "depth": 6, "seeds": [0, 1],
    "schedulers": ["greedy", "random-delay", "frames", "deterministic", "congest"],
}
BENCH_CSV = """\
n,congestion,dilation,scheduler,seed,length,frame_count,max_frame_congestion,wall_time_s,error
32,4,6,greedy,0,6,,,,
32,4,6,random-delay,0,9,,,,
32,4,6,frames,0,9,2,4,,
32,4,6,deterministic,0,9,,,,
32,4,6,congest,0,9,,,,
32,4,6,greedy,1,6,,,,
32,4,6,random-delay,1,8,,,,
32,4,6,frames,1,10,2,4,,
32,4,6,deterministic,1,9,,,,
32,4,6,congest,1,9,,,,
"""


@pytest.fixture(scope="module")
def instance_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("pin") / "inst.json"
    res = CliRunner().invoke(main, [*GEN, "-o", str(path)])
    assert res.exit_code == 0, res.output
    return path


@pytest.mark.parametrize("args", sorted(SCHEDULE), ids=" ".join)
def test_schedule_output_bytes(instance_file, args):
    scheduler, seed, *rest = args
    res = CliRunner().invoke(
        main,
        ["schedule", str(instance_file), "--scheduler", scheduler, "--seed", seed, *rest],
    )
    assert res.exit_code == 0, res.output
    stderr, digest = SCHEDULE[args]
    assert res.stderr == stderr + "\n"
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == digest


def test_deterministic_budget_miss_bytes(instance_file):
    res = CliRunner().invoke(
        main,
        ["schedule", str(instance_file), "--scheduler", "deterministic", "--budget", "1"],
    )
    assert res.exit_code == 1
    assert res.stdout == ""
    assert res.stderr == (
        "error: no seed < 256 met frame-congestion budget 1; best was seed 0 with 3\n"
    )


def test_bench_csv_bytes(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"cells": [BENCH_CELL]}))
    res = CliRunner().invoke(main, ["bench", "--suite", str(suite)])
    assert res.exit_code == 0, res.output
    assert res.stderr == ""
    header, *rows = res.stdout.split("\n")
    wall = header.split(",").index("wall_time_s")
    blanked = [header]
    for row in rows:
        cells = row.split(",")
        if len(cells) > wall:
            cells[wall] = ""
        blanked.append(",".join(cells))
    assert "\n".join(blanked) == BENCH_CSV
