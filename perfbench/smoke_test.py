"""Smoke test of the benchmark itself, on tiny instances (a few seconds).

    python3 perfbench/smoke_test.py

Runs one pass of every kind (untraced, traced, tracemalloc) of each
workload's pipeline in-process, on a small stand-in instance with the same
schedulers and checks, and asserts that:

- every check passes and every metric named in BENCHMARK.json is produced,
  with the unit BENCHMARK.json gives it;
- each layer metric of a layer the workload exercises is non-zero;
- the `distributed` schedule equals `distributed_multicast(depths_known=False)`
  byte for byte, as the README states;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import bench
import run
from bench import (
    Workload,
    build_lowerbound,
    distributed_multicast,
    distributed_rank_decomposition,
    frame_schedule_from_decomps,
    gen_random_instance,
    schedule_to_json,
)

TINY = {
    "lb43": Workload("lb43", "lowerbound", lambda: build_lowerbound(2, 2).instance, ("markov",)),
    "random-c50": Workload(
        "random-c50", "model", lambda: gen_random_instance(300, 20, 6, 0), ("deterministic", "congest")
    ),
    "congest-random": Workload(
        "congest-random", "model", lambda: gen_random_instance(150, 12, 8, 0), ("distributed",)
    ),
}

# Layer metrics that must be non-zero on a workload that runs the layer.
EXERCISED = {
    "markov": ["lowerbound.build_s", "lowerbound.markov_s", "lowerbound.markov_edges"],
    "deterministic": ["schedulers.deterministic_s", "schedulers.profile_s", "schedulers.seeds_tried"],
    "congest": ["schedulers.congest_s", "schedulers.congest_ratio"],
    "distributed": [
        f"congest.{p}_{k}"
        for p in bench.PHASES
        for k in ("s", "rounds", "messages", "bits", "node_steps", "messages_per_step")
    ]
    + ["congest.distributed_s", "congest.distributed_ratio", "congest.rounds", "congest.max_bits",
       "congest.bit_budget", "congest.alloc_peak_mb"],
}


def in_process(workload, text, seed, cd, mode, budget):
    """A pass as the worker runs it, through the same JSON round trip."""
    return json.loads(json.dumps(bench.run_pass(workload, text, seed, cd, mode, budget)))


def main() -> int:
    spec = run.load_spec()
    problems = []
    assert set(TINY) == {w["name"] for w in spec["workloads"]} == set(bench.WORKLOADS)
    for name, workload in TINY.items():
        for trace, wanted in ((False, spec["end_to_end"]), (True, spec["per_layer"])):
            record = run.measure(workload, 1, 0.5, trace, run=in_process)
            _, metrics = run.summarize(record, workload, wanted, trace)
            problems += [f"{name}: check {c[0]} failed: {c[2]}" for c in record["checks"] if not c[1]]
            for m in wanted:
                got = metrics.get(m["name"])
                if got is None or got["unit"] != m["unit"] or not isinstance(got["value"], (int, float)):
                    problems.append(f"{name} trace={int(trace)}: {m['name']} not emitted in {m['unit']}: {got}")
            if not trace:
                problems += [f"{name}: {k} is 0" for k, v in metrics.items() if v["value"] == 0]
            else:
                for extra in workload.extras:
                    problems += [f"{name}: {k} is 0" for k in EXERCISED[extra] if metrics[k]["value"] == 0]

    instance = TINY["congest-random"].build()
    dist = distributed_rank_decomposition(instance, bench.CONGEST_EPSILON, 3, bench.CONGEST_BIT_FACTOR)
    ours, _ = frame_schedule_from_decomps(instance, dist.decompositions, dist.chunk_length, 3)
    theirs, _ = distributed_multicast(instance, epsilon=bench.CONGEST_EPSILON, seed=3, depths_known=False)
    if schedule_to_json(ours) != schedule_to_json(theirs):
        problems.append("distributed schedule differs from distributed_multicast(depths_known=False)")

    out = run.HERE / "out"
    out.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(run.HERE, Path(tmp) / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "lb43", "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=60,
        )
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")

    for p in problems:
        print(f"FAIL {p}")
    print("smoke test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
