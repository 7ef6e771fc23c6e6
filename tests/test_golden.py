"""Golden fixtures: the SHA-256 of `schedule_to_json` and the length of every
scheduler's output on a fixed corpus, plus the round count, decomposition,
per-phase transcripts and ranks of `distributed_rank_decomposition`.

Any change to a schedule's bytes fails here. When a change means to alter
output, regenerate the fixtures with

    PYTHONPATH=src python tests/test_golden.py

which prints every changed value as old → new, and say which output changed
and why.
"""

import hashlib
import json
import math
from pathlib import Path

import pytest

from mcastsched import (
    SeedSearchError,
    build_lowerbound,
    decomposition_to_json,
    deterministic_schedule,
    distributed_multicast,
    distributed_rank_decomposition,
    frame_schedule_from_decomps,
    gen_layered_instance,
    gen_random_instance,
    instance_from_json,
    instance_to_json,
    log2_ceil,
    run_scheduler,
    schedule_to_json,
)

GOLDEN = Path(__file__).parent / "golden" / "schedules.json"
REFERENCE = Path(__file__).parent.parent / "perfbench" / "reference.json"

CORPUS = {
    "lowerbound-2-2": lambda: build_lowerbound(2, 2).instance,
    "lowerbound-4-2": lambda: build_lowerbound(4, 2).instance,
    "layered-128-16-30-2": lambda: gen_layered_instance(128, 16, 30, 2),
    "random-2000-60-12-0": lambda: gen_random_instance(2000, 60, 12, 0),
}
SEEDS = (0, 1)
EPSILON = 0.25  # distributed_rank_decomposition's default, as in the benchmark
# At the default epsilon every corpus member is one frame with one slice per
# tree; at -1.0 layered-128-16-30-2 runs 6 frames and random-2000-60-12-0
# has ranges cut into several slices.
MULTIFRAME_EPSILON = -1.0
BIT_FACTOR = 4


def fingerprint(schedule) -> dict:
    text = schedule_to_json(schedule)
    return {
        "length": schedule.declared_length,
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def deterministic_result(instance) -> dict:
    """The seed search at budget ceil(1.25 * ell), or its best miss."""
    budget = math.ceil(1.25 * log2_ceil(instance.graph.node_count))
    try:
        schedule, seed = deterministic_schedule(instance, budget, seed_cap=32)
    except SeedSearchError as exc:
        return {"best_seed": exc.best_seed, "best_congestion": exc.best_congestion}
    return {"seed": seed, **fingerprint(schedule)}


def compute(name: str) -> dict:
    instance = CORPUS[name]()
    out = {
        "greedy": fingerprint(run_scheduler(instance, "greedy", 0).schedule),
        "deterministic": deterministic_result(instance),
    }
    for seed in SEEDS:
        dist = distributed_rank_decomposition(instance, EPSILON, seed, BIT_FACTOR)
        chunks = "\n".join(
            decomposition_to_json(dist.decompositions[tid])
            for tid in sorted(dist.decompositions)
        )
        out[str(seed)] = {
            "random_delay": fingerprint(run_scheduler(instance, "random-delay", seed).schedule),
            "frames": fingerprint(run_scheduler(instance, "frames", seed).schedule),
            # run_scheduler's congest runs at EPSILON, distributed_multicast's default
            "congest": fingerprint(run_scheduler(instance, "congest", seed).schedule),
            "congest_multiframe": fingerprint(
                distributed_multicast(instance, MULTIFRAME_EPSILON, seed, depths_known=True)[0]
            ),
            "distributed": fingerprint(
                frame_schedule_from_decomps(
                    instance, dist.decompositions, dist.chunk_length, seed
                )[0]
            ),
            "rank_rounds": dist.rounds,
            "rank_chunks_sha256": hashlib.sha256(chunks.encode()).hexdigest(),
            # every phase's rounds as ordered (edge, bits) items
            "rank_transcripts_sha256": sha256_json(
                [[list(rnd.items()) for rnd in tr.rounds] for tr in dist.transcripts]
            ),
            "ranks_sha256": sha256_json(
                [[tid, sorted(dist.ranks[tid].rank.items())] for tid in sorted(dist.ranks)]
            ),
        }
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_golden_schedules(golden, name):
    assert compute(name) == golden[name]


# The other benchmark workloads, built and loaded as perfbench/bench.py does,
# with the seeds and schedulers whose output is checked against the reference.
BENCHMARK_RUNS = {
    "lb43": (lambda: build_lowerbound(4, 3).instance, (0, 1),
             ("greedy", "random_delay", "frames")),
    "random-c50": (lambda: gen_random_instance(8000, 200, 10, 0), (0,),
                   ("greedy", "random_delay", "frames", "deterministic", "congest")),
}


def benchmark_fingerprint(instance, scheduler: str, seed: int) -> dict:
    """The schedule perfbench/bench.py makes; deterministic at its budget
    ceil(1.25 * ell)."""
    budget = math.ceil(1.25 * log2_ceil(instance.graph.node_count))
    return fingerprint(
        run_scheduler(instance, scheduler.replace("_", "-"), seed, budget=budget).schedule
    )


def test_golden_matches_benchmark_reference(golden):
    """The congest-random workload is the corpus's random instance; lb43 and
    random-c50 are scheduled here."""
    references = json.loads(REFERENCE.read_text())
    reference = references["congest-random"]
    ours = golden["random-2000-60-12-0"]
    for seed in SEEDS:
        ref = reference[str(seed)]
        for scheduler in ("greedy", "random_delay", "frames", "distributed"):
            mine = ours[scheduler] if scheduler == "greedy" else ours[str(seed)][scheduler]
            assert mine["sha256"] == ref["sha256"][scheduler], (seed, scheduler)
            assert mine["length"] == ref["length"][scheduler], (seed, scheduler)
    for workload, (build, seeds, schedulers) in BENCHMARK_RUNS.items():
        instance = instance_from_json(instance_to_json(build()))
        greedy = benchmark_fingerprint(instance, "greedy", 0)  # greedy takes no seed
        for seed in seeds:
            ref = references[workload][str(seed)]
            for scheduler in schedulers:
                mine = (
                    greedy if scheduler == "greedy"
                    else benchmark_fingerprint(instance, scheduler, seed)
                )
                key = (workload, seed, scheduler)
                assert mine["sha256"] == ref["sha256"][scheduler], key
                assert mine["length"] == ref["length"][scheduler], key


def leaves(value, key=()):
    """Yield (key path, value) for every non-dict value in a nested dict."""
    if isinstance(value, dict):
        for k in sorted(value):
            yield from leaves(value[k], key + (k,))
    else:
        yield key, value


if __name__ == "__main__":
    fresh = {name: compute(name) for name in sorted(CORPUS)}
    old = dict(leaves(json.loads(GOLDEN.read_text()))) if GOLDEN.exists() else {}
    new = dict(leaves(fresh))
    for key in sorted(old.keys() | new.keys()):
        if old.get(key) != new.get(key):
            print(f"{'/'.join(key)}: {old.get(key)} → {new.get(key)}")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
