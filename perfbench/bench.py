"""Workloads and one measured pass of a workload's pipeline.

A pass takes an instance as canonical JSON text and runs it through the
library's public API: load, validate, metrics, each scheduler, `simulate` on
every schedule, the workload's own checks, and `schedule_to_json` on every
schedule. Each public call is a span. In a traced pass the library's inner
calls (per-frame routing, seed-search profiles, CONGEST phases) are wrapped
at module level so they become spans too; in an alloc pass the first
top-level call of each name runs under `tracemalloc`. An untraced pass spends
the rest of its time budget repeating the end-to-end schedulers.

Run as a script, this file is the worker process of `run.py`:

    python3 perfbench/bench.py <workload> <seed> <plain|trace|alloc> <C> <D> <budget seconds> < instance.json

It prints one JSON object with the pass's spans, schedule lengths and
hashes, repeat times, checks, counts and peak RSS.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import resource
import sys
import time
import traceback
import tracemalloc
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def require_library() -> None:
    """Put the checkout's `src/` first on the path, or exit 2 if it is missing."""
    if not (SRC / "mcastsched" / "__init__.py").is_file():
        print(f"error: no mcastsched package under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


require_library()

import mcastsched  # noqa: E402
from mcastsched import (  # noqa: E402
    build_lowerbound,
    build_short_decompositions,
    compute_metrics,
    deterministic_schedule,
    distributed_multicast,
    distributed_rank_decomposition,
    frame_schedule_from_decomps,
    gen_random_instance,
    greedy_schedule,
    instance_from_json,
    instance_to_json,
    log2_ceil,
    markov_delay_check,
    message_size_audit,
    norm_edge,
    random_delay_schedule,
    schedule_to_json,
    simulate,
    validate_instance,
)

PHASES = ("rank", "preferred", "refine")
E2E_SCHEDULERS = ("greedy", "random_delay", "frames")  # run on every workload; their times are end-to-end metrics
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 20
SETUP_MIN_SECONDS = 2.0
CONGEST_EPSILON = 0.25
CONGEST_BIT_FACTOR = 4  # the library default; the audit budget is this * log2_ceil(n)


@dataclass(frozen=True)
class Workload:
    """One named, fixed instance plus the schedulers and checks its pipeline runs.

    The instance does not depend on the workload seed; the seed feeds every
    scheduler. (Seeding the generator too made tree-edge counts, and so every
    time, differ by up to 1.6x between seeds of `random-c50`.)

    Every workload runs greedy, random-delay and frames. `extras` adds:
    "markov" (Markov delay check on the greedy schedule), "deterministic"
    (seed search at budget ceil(1.25 * ell)), "congest" (the depths-known
    distributed multicast, as the CLI's `congest` scheduler) and
    "distributed" (the CONGEST rank decomposition, scheduled over its chunks,
    with the message-size audit).
    """

    name: str
    build_layer: str  # module whose builder makes the instance
    build: Callable[[], object]  # () -> MulticastInstance
    extras: tuple[str, ...]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lb43", "lowerbound", lambda: build_lowerbound(4, 3).instance, ("markov",)),
        Workload(
            "random-c50",
            "model",
            lambda: gen_random_instance(8000, 200, 10, 0),
            ("deterministic", "congest"),
        ),
        Workload(
            "congest-random",
            "model",
            lambda: gen_random_instance(2000, 60, 12, 0),
            ("distributed",),
        ),
    )
}


def setup(workload: Workload) -> tuple[str, list[int], list[float], list[float], bool]:
    """Build and serialize the instance SETUP_MIN_REPEATS times, and more (up
    to SETUP_MAX_REPEATS) until SETUP_MIN_SECONDS have passed, so that a short
    set-up is a median of many repeats.

    Returns (JSON text, [C, D] of the built instance, setup times, build
    times, whether every repeat gave the same text)."""
    texts, totals, builds = [], [], []
    while len(totals) < SETUP_MIN_REPEATS or (
        len(totals) < SETUP_MAX_REPEATS and sum(totals) < SETUP_MIN_SECONDS
    ):
        gc.collect()
        t0 = time.perf_counter()
        instance = workload.build()
        t1 = time.perf_counter()
        texts.append(instance_to_json(instance))
        totals.append(time.perf_counter() - t0)
        builds.append(t1 - t0)
    m = compute_metrics(instance)
    return texts[0], [m.congestion, m.dilation], totals, builds, len(set(texts)) == 1


class Recorder:
    """Spans kept in memory: (id, name, group, start, end, parent id).

    `group` names the scheduler a top-level call belongs to, so that a
    scheduler's end-to-end time is the sum of its own calls.
    """

    def __init__(self, alloc: bool = False):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.group: str | None = None
        self.alloc = alloc
        self.alloc_peak: dict[str, float] = {}  # top-level span name -> MB allocated at peak
        self.checks: list[list] = []  # [name, passed, detail]

    @contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        record = [sid, name, self.group, 0.0, 0.0, self.stack[-1] if self.stack else None]
        self.spans.append(record)
        self.stack.append(sid)
        record[3] = time.perf_counter()
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            self.stack.pop()

    def step(self, name: str, fn, *args, **kwargs):
        """One timed top-level call into the library; the collector runs before
        the timer starts and stays enabled inside it.

        In an alloc pass, the first call of each name runs under tracemalloc
        and records the peak of what it allocates; later calls of that name
        (simulate and emit of the other schedules) run untraced, which keeps
        the pass short."""
        gc.collect()
        measure = self.alloc and name not in self.alloc_peak
        if measure:
            tracemalloc.start()
        try:
            with self.span(name):
                result = fn(*args, **kwargs)
            if measure:
                self.alloc_peak[name] = tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            if measure:
                tracemalloc.stop()
        return result

    def check(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append([name, bool(passed), detail])


class Wrappers:
    """Module-level wrappers that turn the library's inner calls into spans.

    Installed only for a traced pass. Arguments and results are kept so that
    counts can be taken after the pass, outside every span.
    """

    TARGETS = (
        (mcastsched.schedulers, "unicast_frame_schedule", "schedulers.unicast"),
        (mcastsched.schedulers, "frame_congestion_profile", "schedulers.profile"),
        (mcastsched.congest, "run_congest", "congest.phase"),  # named congest.<phase> by call order
    )

    def __init__(self, rec: Recorder):
        self.rec = rec
        self.frame_paths: dict[int, list] = {}  # span id -> frame_paths argument
        self.phases: list[tuple[str, int, object]] = []  # (phase, programs, transcript)
        self.saved = []
        self.cost = 0.0  # seconds spent in the wrappers themselves

    def _wrap(self, name, fn):
        rec = self.rec

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            phase = PHASES[len(self.phases) % len(PHASES)]  # distributed_rank_decomposition runs them in order
            with rec.span(f"congest.{phase}" if name == "congest.phase" else name) as record:
                t1 = time.perf_counter()
                result = fn(*args, **kwargs)
                t2 = time.perf_counter()
            if name == "schedulers.unicast":
                self.frame_paths[record[0]] = args[0]
            elif name == "congest.phase":
                self.phases.append((phase, len(args[1]), result))
            self.cost += (t1 - t0) + (time.perf_counter() - t2)
            return result

        return wrapper

    def __enter__(self):
        for module, attr, name in self.TARGETS:
            fn = getattr(module, attr)
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()


def group_seconds(spans) -> dict[str, float]:
    """Summed duration of top-level spans by the scheduler they belong to."""
    out: dict[str, float] = defaultdict(float)
    for _, _, group, start, end, parent in spans:
        if parent is None and group is not None:
            out[group] += end - start
    return out


def _run_scheduler(rec, instance, name, produce):
    """Run one scheduler, `produce(rec)`, and replay its schedule. A call that
    raises or a replay that is invalid or of another length counts as a
    failed check."""
    rec.group = name
    try:
        schedule = produce(rec)
        report = rec.step("schedule.simulate", simulate, instance, schedule)
    except Exception:  # a failing scheduler is counted; the pass goes on
        rec.check(name, False, "raised " + traceback.format_exc(limit=-3))
        return None
    finally:
        rec.group = None
    ok = report.valid and report.length == schedule.declared_length
    rec.check(
        name,
        ok,
        f"valid={report.valid} replay={report.length} declared={schedule.declared_length}"
        f" violations={len(report.violations)}",
    )
    return (schedule, report) if ok else None


def run_pass(workload: Workload, text: str, seed: int, expected_cd, mode: str = "plain", budget: float = 0.0) -> dict:
    """One pass of the workload's pipeline. mode: plain | trace | alloc.

    Time left of `budget` seconds after the pipeline goes to repeats of the
    end-to-end schedulers (see `_repeat`)."""
    deadline = time.perf_counter() + budget
    rec = Recorder(alloc=mode == "alloc")
    wrappers = Wrappers(rec)
    if mode == "trace":
        with wrappers:
            out = _pipeline(rec, workload, text, seed, expected_cd)
    else:
        out = _pipeline(rec, workload, text, seed, expected_cd)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # the pipeline's peak, before repeats
    repeats = _repeat(rec, out, deadline)
    return {
        "mode": mode,
        "spans": rec.spans,
        "checks": rec.checks,
        "lengths": out["lengths"],
        "lower": out["lower"],
        "hashes": out["hashes"],
        "repeats": repeats,
        "counts": _counts(rec, wrappers, out) if mode == "trace" else {},
        "alloc_peak_mb": rec.alloc_peak,
        "rss_mb": rss_mb,
    }


def _pipeline(rec, workload, text, seed, expected_cd):
    instance = rec.step("model.load", instance_from_json, text)
    problems = rec.step("model.validate", validate_instance, instance)
    rec.check("instance valid", not problems, "; ".join(problems[:3]))
    metrics = rec.step("model.metrics", compute_metrics, instance)
    cd = [metrics.congestion, metrics.dilation]
    rec.check("C,D as generated", cd == list(expected_cd), f"loaded {cd}, generated {list(expected_cd)}")
    n = instance.graph.node_count
    ell = log2_ceil(n)
    results = {}  # scheduler -> (schedule, report)
    kept = {}  # objects the traced pass counts from

    def frames(r):
        decomps = r.step("decomposition.short", build_short_decompositions, instance, ell)
        kept["decomps"] = decomps
        return r.step("schedulers.frames_route", frame_schedule_from_decomps, instance, decomps, ell, seed)[0]

    def deterministic(r):
        budget = math.ceil(1.25 * ell)
        return r.step("schedulers.deterministic", deterministic_schedule, instance, budget)[0]

    def congest(r):
        return r.step("schedulers.congest", distributed_multicast, instance, seed=seed, depths_known=True)[0]

    def distributed(r):
        dist = r.step(
            "congest.distributed", distributed_rank_decomposition, instance, CONGEST_EPSILON, seed, CONGEST_BIT_FACTOR
        )
        kept["dist"] = dist
        return r.step(
            "schedulers.frames_route", frame_schedule_from_decomps, instance, dist.decompositions, dist.chunk_length, seed
        )[0]

    plan = [
        ("greedy", lambda r: r.step("schedulers.greedy", greedy_schedule, instance)),
        ("random_delay", lambda r: r.step("schedulers.random_delay", random_delay_schedule, instance, seed)),
        ("frames", frames),
    ]
    plan += [(x, fn) for x, fn in (("deterministic", deterministic), ("congest", congest), ("distributed", distributed)) if x in workload.extras]
    for name, produce in plan:
        done = _run_scheduler(rec, instance, name, produce)
        if done is not None:
            results[name] = done

    if "markov" in workload.extras and "greedy" in results:
        report = rec.step("lowerbound.markov", markov_delay_check, instance, results["greedy"][0])
        rec.check("markov delay check", report.passed, f"{len(report.per_edge)} shared edges")
        kept["markov_edges"] = len(report.per_edge)
    if "distributed" in workload.extras and "dist" in kept:
        budget = CONGEST_BIT_FACTOR * ell
        audit = rec.step("congest.audit", message_size_audit, kept["dist"].transcripts, budget)
        rec.check("message size audit", audit.passed, f"max_bits={audit.max_bits} budget={budget}")
        kept["audit"] = audit
        kept["budget"] = budget

    hashes = {}
    for name, (schedule, _) in results.items():
        text_out = rec.step("schedule.emit", schedule_to_json, schedule)
        hashes[name] = hashlib.sha256(text_out.encode()).hexdigest()
    return {
        "lengths": {name: s.declared_length for name, (s, _) in results.items()},
        "lower": max(metrics.congestion, metrics.dilation),
        "hashes": hashes,
        "instance": instance,
        "results": results,
        "kept": kept,
        "plan": plan,
    }


def _repeat(rec, out, deadline) -> dict[str, list[float]]:
    """Call the end-to-end schedulers again on the same instance, round-robin,
    each only while its next call still ends before `deadline`. Returns each
    scheduler's times; their checks join the pass's.

    One call of greedy on `congest-random` lasts 0.6 s, shorter than the
    speed swings of a shared host; the mean of several calls spread over the
    run is steadier."""
    est = group_seconds(rec.spans)
    todo = [(name, produce) for name, produce in out["plan"] if name in E2E_SCHEDULERS and name in out["results"]]
    times: dict[str, list[float]] = defaultdict(list)
    while True:
        ran = False
        for name, produce in todo:
            if time.perf_counter() + est[name] > deadline:
                continue
            r = Recorder()
            _run_scheduler(r, out["instance"], name, produce)
            est[name] = group_seconds(r.spans)[name]
            times[name].append(est[name])
            rec.checks += r.checks
            ran = True
        if not ran:
            return times


def _counts(rec, wrappers, out) -> dict:
    """Work counts of a traced pass, read from its arguments and results."""
    spans = rec.spans
    instance, results, kept = out["instance"], out["results"], out["kept"]
    counts = {
        "model.tree_edges": sum(len(t.edges) for t in instance.trees),
        "trace.overhead_s": wrappers.cost,
    }
    decomps = kept.get("decomps", {})
    counts["decomposition.chunks"] = sum(len(d.paths) for d in decomps.values())
    counts["decomposition.max_level"] = max((max(d.level.values(), default=0) for d in decomps.values()), default=0)

    frames_route = {s[0] for s in spans if s[1] == "schedulers.frames_route" and s[2] == "frames"}
    cprime = dprime = jobs = frames = 0
    for sid, paths in wrappers.frame_paths.items():
        if spans[sid][5] not in frames_route:
            continue
        frames += 1
        jobs += len(paths)
        load = Counter(norm_edge(a, b) for _, seq, _ in paths for a, b in zip(seq, seq[1:]))
        cprime = max(cprime, max(load.values(), default=0))
        dprime = max(dprime, max((len(seq) - 1 for _, seq, _ in paths), default=0))
    counts.update(
        {
            "schedulers.frames": frames,
            "schedulers.unicast_jobs": jobs,
            "schedulers.max_frame_congestion": cprime,
            "schedulers.max_frame_dilation": dprime,
            "schedulers.seeds_tried": sum(1 for s in spans if s[1] == "schedulers.profile"),
        }
    )
    sends = sum(len(s.sends) for s, _ in results.values())
    length = sum(s.declared_length for s, _ in results.values())
    redundant = sum(len(r.redundant) for _, r in results.values())
    counts["schedulers.packets"] = sends
    counts["schedulers.packets_per_round"] = sends / length if length else 0.0
    counts["schedule.sends_replayed"] = sends
    counts["schedule.redundant_ratio"] = redundant / sends if sends else 0.0
    counts["lowerbound.markov_edges"] = kept.get("markov_edges", 0)

    for phase in PHASES:
        for key in ("rounds", "idle_rounds", "messages", "bits", "node_steps"):
            counts[f"congest.{phase}_{key}"] = 0
    for phase, programs, transcript in wrappers.phases:
        rounds = transcript.rounds
        counts[f"congest.{phase}_rounds"] += len(rounds)
        counts[f"congest.{phase}_idle_rounds"] += sum(1 for r in rounds if not r)
        counts[f"congest.{phase}_messages"] += sum(len(r) for r in rounds)
        counts[f"congest.{phase}_bits"] += sum(len(b) for r in rounds for b in r.values())
        counts[f"congest.{phase}_node_steps"] += programs * len(rounds)
    for phase in PHASES:
        steps = counts[f"congest.{phase}_node_steps"]
        counts[f"congest.{phase}_messages_per_step"] = counts[f"congest.{phase}_messages"] / steps if steps else 0.0
    lengths, lower = out["lengths"], out["lower"]
    counts["schedulers.congest_ratio"] = lengths.get("congest", 0) / lower
    counts["congest.distributed_ratio"] = lengths.get("distributed", 0) / lower
    dist = kept.get("dist")
    counts["congest.rounds"] = dist.rounds if dist else 0
    counts["congest.max_bits"] = kept["audit"].max_bits if "audit" in kept else 0
    counts["congest.bit_budget"] = kept.get("budget", 0)
    return counts


def main() -> int:
    name, seed, mode, congestion, dilation, budget = sys.argv[1:7]
    text = sys.stdin.read()
    result = run_pass(WORKLOADS[name], text, int(seed), [int(congestion), int(dilation)], mode, float(budget))
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
