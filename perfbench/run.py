"""Benchmark of mcastsched: time to a validated schedule, and its quality.

    python3 perfbench/run.py --workload lb43 --seed 0 --seconds 35 --trace 0

Builds the workload's instance several times (the median is `setup_s`), then
runs one pass of its pipeline in a fresh worker process (`bench.py`). The
pass always completes; time left of `--seconds` goes to repeating the
greedy, random-delay and frames schedulers, whose times are the means of
their calls.

--trace 0 prints the end-to-end metrics. --trace 1 runs one traced and one
tracemalloc pass and prints the per-layer metrics, the traced pass's
`pipeline_s` and the time spent in the tracing wrappers. The last line of
standard output is one JSON object: {"correct", "attempted", "failed",
"metrics"}. Every run also writes its spans, checks, schedule hashes and
environment to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import bench  # exits 2 when the checkout has no library

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PASS_TIMEOUT_S = 170


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": git_commit(),
        "loadavg": list(os.getloadavg()),
    }


def run_worker(workload, text: str, seed: int, cd, mode: str, budget: float) -> dict:
    """One pass in a fresh interpreter; the instance goes in on stdin."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench.py"), workload.name, str(seed), mode, str(cd[0]), str(cd[1]), str(budget)],
        input=text,
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=PASS_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


# --- metrics from passes ----------------------------------------------------

def step_seconds(p: dict) -> dict[str, float]:
    """Summed duration of top-level spans by name."""
    out: dict[str, float] = defaultdict(float)
    for _, name, _, start, end, parent in p["spans"]:
        if parent is None:
            out[name] += end - start
    return out


def pipeline_seconds(p: dict) -> float:
    return sum(step_seconds(p).values())


def pass_metrics(p: dict) -> dict[str, float]:
    """End-to-end figures of one pass, for every scheduler it ran; a
    scheduler's time is the mean of its pipeline call and its repeats."""
    out = {"pipeline_s": pipeline_seconds(p), "peak_rss_mb": p["rss_mb"]}
    groups = bench.group_seconds(p["spans"])
    for name, length in p["lengths"].items():
        out[f"{name}_s"] = statistics.mean([groups[name]] + p["repeats"].get(name, []))
        out[f"{name}_ratio"] = length / p["lower"]
    return out


def self_seconds(spans) -> dict[str, float]:
    """Per span name: duration minus the part covered by child spans."""
    child = defaultdict(float)
    for _, _, _, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for sid, name, _, start, end, _ in spans:
        out[name] += end - start - child[sid]
    return out


def layer_metrics(traced: dict, alloc: dict, build_s: float, build_layer: str) -> dict[str, float]:
    """Per-layer figures from one traced pass and one tracemalloc pass."""
    spans = traced["spans"]
    steps = step_seconds(traced)
    groups = bench.group_seconds(spans)
    frames_route = [s for s in spans if s[1] == "schedulers.frames_route" and s[2] == "frames"]

    def total(name, parents=None):
        """Summed duration of spans of this name, optionally only those under `parents`."""
        return sum(e - s for _, n, _, s, e, par in spans if n == name and (parents is None or par in parents))

    out = {
        "model.load_s": steps["model.load"],
        "model.validate_s": steps["model.validate"],
        "model.metrics_s": steps["model.metrics"],
        "decomposition.short_s": steps["decomposition.short"],
        "schedulers.greedy_route_s": steps["schedulers.greedy"],
        "schedulers.random_delay_route_s": steps["schedulers.random_delay"],
        "schedulers.frames_route_s": sum(e - s for _, _, _, s, e, _ in frames_route),
        "schedulers.unicast_s": total("schedulers.unicast", {s[0] for s in frames_route}),
        "schedulers.profile_s": total("schedulers.profile"),
        "schedulers.deterministic_s": groups["deterministic"],
        "schedulers.congest_s": groups["congest"],
        "schedule.simulate_s": steps["schedule.simulate"],
        "schedule.emit_s": steps["schedule.emit"],
        "lowerbound.build_s": build_s if build_layer == "lowerbound" else 0.0,
        "lowerbound.markov_s": steps["lowerbound.markov"],
        "congest.distributed_s": groups["distributed"],
        "congest.assemble_s": self_seconds(spans)["congest.distributed"],
        "congest.audit_s": steps["congest.audit"],
        "trace.pipeline_s": pipeline_seconds(traced),
    }
    out["schedulers.frames_self_s"] = out["schedulers.frames_route_s"] - out["schedulers.unicast_s"]
    for phase in bench.PHASES:
        out[f"congest.{phase}_s"] = total(f"congest.{phase}")
    out.update(traced["counts"])

    peaks: dict[str, float] = defaultdict(float)
    for name, mb in alloc["alloc_peak_mb"].items():
        layer = name.split(".")[0]
        peaks[layer] = max(peaks[layer], mb)
    for layer in ("model", "decomposition", "schedulers", "schedule", "congest"):
        out[f"{layer}.alloc_peak_mb"] = peaks[layer]
    return out


# --- main ---------------------------------------------------------------------

def measure(workload, seed: int, seconds: float, trace: bool, run=run_worker) -> dict:
    """Set up, then run one untraced pass that measures for `seconds`, or one
    traced and one tracemalloc pass. `run(workload, text, seed, cd, mode,
    budget)` runs one pass."""
    text, cd, setup_times, build_times, same = bench.setup(workload)
    modes = ("trace", "alloc") if trace else ("plain",)
    passes = [run(workload, text, seed, cd, mode, 0.0 if trace else seconds) for mode in modes]
    checks = [["setup deterministic", same, ""]]
    for p in passes:
        checks += p["checks"]
    return {"C": cd[0], "D": cd[1], "setup_s": setup_times, "build_s": build_times,
            "checks": checks, "passes": passes}


def summarize(record: dict, workload, wanted: list[dict], trace: bool) -> tuple[dict, dict]:
    """(every end-to-end figure of the run's untraced or traced pass, the
    wanted metrics as {name: {"value", "unit"}}). A wanted metric the run did
    not produce is a failed check."""
    by_mode = {p["mode"]: p for p in record["passes"]}
    figures = pass_metrics(by_mode["trace" if trace else "plain"])
    figures["setup_s"] = statistics.median(record["setup_s"])
    if trace:
        values = layer_metrics(by_mode["trace"], by_mode["alloc"],
                               statistics.median(record["build_s"]), workload.build_layer)
    else:
        values = figures
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted if m["name"] in values}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    record["checks"].append(["every metric produced", not missing, f"missing {missing}"])
    return figures, metrics


def reference_notes(workload: str, seed: int, hashes: dict) -> list[str]:
    """Schedules that differ from the ones recorded in reference.json."""
    ref = json.loads((HERE / "reference.json").read_text()).get(workload, {}).get(str(seed))
    if ref is None:
        return []
    return [
        f"schedule changed vs reference.json: {name} sha256 {hashes.get(name)} (was {want})"
        for name, want in ref["sha256"].items()
        if hashes.get(name) != want
    ]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if args.workload not in bench.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    workload = bench.WORKLOADS[args.workload]
    spec = load_spec()
    env = environment()
    record = measure(workload, args.seed, args.seconds, bool(args.trace))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    figures, metrics = summarize(record, workload, wanted, bool(args.trace))
    hashes = record["passes"][0]["hashes"]

    print(f"workload={workload.name} seed={args.seed} passes={len(record['passes'])} "
          f"C={record['C']} D={record['D']} python={env['python']} nproc={env['nproc']} "
          f"commit={env['commit'][:12]} loadavg={env['loadavg'][0]:.2f}")
    for name in sorted(figures):  # every scheduler the pipeline ran
        print(f"  {name:<24} {figures[name]:.6g}")
    for name in sorted(hashes):
        print(f"  sha256 {name:<14} {hashes[name]}")
    if args.trace:
        traced = next(p for p in record["passes"] if p["mode"] == "trace")
        for name, secs in sorted(self_seconds(traced["spans"]).items()):
            print(f"  self {name:<28} {secs:.6g} s")
    for note in reference_notes(workload.name, args.seed, hashes):
        print(f"NOTE {note}")
    checks = record["checks"]
    for name, ok, detail in checks:
        if not ok:
            print(f"FAILED {name}: {detail}")
    failed = sum(1 for c in checks if not c[1])

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    record.update(workload=workload.name, seed=args.seed, trace=args.trace, environment=env,
                  figures=figures, metrics=metrics, hashes=hashes)
    (out_dir / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record))

    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
