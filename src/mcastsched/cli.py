"""Command-line front end: generation, scheduling, validation, decomposition
inspection, CONGEST runs, and benchmark sweeps.

Exit codes: 0 success, 1 invalid input, parameter or usage, 2 internal invariant
breach (a scheduler produced a schedule that fails its own simulation).
"""

from __future__ import annotations

import csv
import io
import json
import sys
import time

import click

from .congest import (
    CongestNetwork,
    distributed_multicast,
    distributed_rank_decomposition,
    message_size_audit,
)
from .decomposition import (
    decomposition_to_json,
    heavy_path_decomposition,
    rank_decomposition,
    short_decomposition,
    verify_short,
)
from .lowerbound import (
    build_lowerbound,
    check_lemmas,
    exhaustive_opt,
    markov_delay_check,
    predicted_edge_count,
)
from .model import (
    REQUIRED,
    check_layered_params,
    compute_metrics,
    gen_layered_instance,
    gen_random_instance,
    instance_from_json,
    instance_to_json,
    log2_ceil,
    read_object,
    validate_instance,
)
from .schedule import schedule_from_json, schedule_to_json, simulate
from .schedulers import (
    SCHEDULERS,
    SeedSearchError,
    frame_schedule_from_decomps,
    run_scheduler,
)

BENCH_SUITE = {"cells": ("a list", REQUIRED)}
BENCH_CELL = {  # in gen_layered_instance's order, then the sweep's
    "n": ("an integer", REQUIRED), "congestion": ("an integer", REQUIRED),
    "depth": ("an integer", REQUIRED), "prefix_cap": ("an integer or null", None),
    "seeds": ("a list of integers", REQUIRED), "schedulers": ("a list", REQUIRED),
}
BENCH_COLUMNS = [
    "n", "congestion", "dilation", "scheduler", "seed", "length", "frame_count",
    "max_frame_congestion", "wall_time_s", "error",
]

seed_option = click.option(
    "--seed", type=int, default=0, envvar="MCAST_SEED", show_default=True,
    help="Random seed (default from MCAST_SEED when set).",
)


def _fail(message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(1)


# What a wrong-shaped or too deeply nested JSON document raises while it is read.
_READ_ERRORS = (OSError, ValueError, KeyError, TypeError, RecursionError)


def _load_instance(path: str):
    try:
        with open(path) as fh:
            instance = instance_from_json(fh.read())
        problems = validate_instance(instance)
    except _READ_ERRORS as exc:
        _fail(f"cannot read instance {path}: {exc}")
    if problems:
        _fail(f"invalid instance {path}: {problems[0]}")
    return instance


def _load_schedule(path: str):
    try:
        with open(path) as fh:
            return schedule_from_json(fh.read())
    except _READ_ERRORS as exc:
        _fail(f"cannot read schedule {path}: {exc}")


def _write(text: str, output: str) -> None:
    """Echo text to stdout for "-", else write it to the file `output`."""
    if output == "-":
        click.echo(text, nl=False)
    else:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            _fail(f"cannot write {output}: {exc}")


class _Main(click.Group):
    """Usage errors (bad or missing options, arguments, commands or input
    files) and parameters the library refuses end like any invalid input, in
    one `error:` line and exit 1."""

    def main(self, *args, **kwargs):
        try:
            return super().main(*args, **kwargs, standalone_mode=False)
        except click.ClickException as exc:
            _fail(exc.format_message())
        except (ValueError, SeedSearchError) as exc:
            _fail(str(exc))
        except click.Abort:
            _fail("aborted")


@click.group(cls=_Main, no_args_is_help=False)
def main():
    """Simultaneous multicast scheduling in the store-and-forward model."""


@main.group(no_args_is_help=False)
def gen():
    """Generate instances."""


@gen.command("random")
@click.option("--n", "node_count", type=int, required=True)
@click.option("--trees", type=int, required=True)
@click.option("--depth", type=int, required=True)
@seed_option
@click.option("-o", "--output", type=click.Path(), default="-")
def gen_random(node_count, trees, depth, seed, output):
    """Random connected graph with random multicast trees."""
    _emit_instance(gen_random_instance(node_count, trees, depth, seed), output)


@gen.command("layered")
@click.option("--n", "node_count", type=int, required=True)
@click.option("--congestion", type=int, required=True)
@click.option("--depth", type=int, required=True)
@click.option("--prefix-cap", type=int, default=None)
@seed_option
@click.option("-o", "--output", type=click.Path(), default="-")
def gen_layered(node_count, congestion, depth, prefix_cap, seed, output):
    """Instance hitting exact congestion and dilation targets."""
    _emit_instance(gen_layered_instance(node_count, congestion, depth, seed, prefix_cap), output)


@gen.command("lowerbound")
@click.option("--congestion", type=int, required=True)
@click.option("--depth", type=int, required=True)
@click.option("--bit-cap", type=int, default=64, show_default=True)
@click.option("-o", "--output", type=click.Path(), default="-")
def gen_lowerbound(congestion, depth, bit_cap, output):
    """Hard instance from the recursive lower-bound construction."""
    lb = build_lowerbound(congestion, depth, bit_cap)
    click.echo(
        f"predicted_edges={predicted_edge_count(congestion, depth)} "
        f"built_edges={len(lb.instance.graph.edges)}",
        err=True,
    )
    _emit_instance(lb.instance, output)


def _emit_instance(instance, output):
    problems = validate_instance(instance)
    if problems:
        _fail(f"generated instance invalid: {problems[0]}")
    m = compute_metrics(instance)
    click.echo(
        f"n={instance.graph.node_count} edges={len(instance.graph.edges)} "
        f"trees={len(instance.trees)} C={m.congestion} D={m.dilation}",
        err=True,
    )
    _write(instance_to_json(instance) + "\n", output)


@main.command("schedule")
@click.argument("instance_file", type=click.Path(exists=True))
@click.option(
    "--scheduler",
    type=click.Choice(SCHEDULERS),
    default="frames",
    show_default=True,
)
@seed_option
@click.option("--ell", type=int, default=None, help="Chunk length (default ceil(log2 n)).")
@click.option("--budget", type=int, default=None,
              help="Frame-congestion budget for the deterministic scheduler.")
@click.option("-o", "--output", type=click.Path(), default="-")
def cmd_schedule(instance_file, scheduler, seed, ell, budget, output):
    """Run a scheduler and write the validated schedule as JSON."""
    instance = _load_instance(instance_file)
    run = run_scheduler(instance, scheduler, seed, ell=ell, budget=budget)
    sched = run.schedule
    report = simulate(instance, sched)
    if not report.valid:
        click.echo(
            f"internal error: schedule failed validation: {report.violations[:1]}",
            err=True,
        )
        sys.exit(2)
    m = compute_metrics(instance)
    n = instance.graph.node_count
    denom = m.congestion + m.dilation + log2_ceil(n) ** 2
    stats = (
        f"length={sched.declared_length} C={m.congestion} D={m.dilation} n={n} "
        f"ratio={sched.declared_length / denom:.4f}"
    )
    for k, v in vars(run).items():
        if k != "schedule" and v is not None:
            stats += f" {k}={v}"
    click.echo(stats, err=True)
    _write(schedule_to_json(sched) + "\n", output)


@main.command("validate")
@click.argument("instance_file", type=click.Path(exists=True))
@click.argument("schedule_file", type=click.Path(exists=True))
def cmd_validate(instance_file, schedule_file):
    """Replay a schedule against an instance; exit 1 on any violation."""
    instance = _load_instance(instance_file)
    sched = _load_schedule(schedule_file)
    report = simulate(instance, sched)
    for v in report.violations:
        click.echo(f"{v.kind} at round {v.round}: {v.detail}")
    if report.valid:
        click.echo(f"valid length={report.length}")
    else:
        undelivered = len(instance.trees) - len(report.per_tree_completion_round)
        click.echo(f"invalid violations={len(report.violations)} incomplete_trees={undelivered}")
        sys.exit(1)


@main.command("decompose")
@click.argument("instance_file", type=click.Path(exists=True))
@click.option("--tree", "tree_id", type=int, required=True)
@click.option(
    "--kind", type=click.Choice(["heavy", "rank", "short"]),
    default="heavy", show_default=True,
)
@click.option("--ell", type=int, default=None, help="Chunk length for --kind short.")
def cmd_decompose(instance_file, tree_id, kind, ell):
    """Print a tree's path decomposition as JSON."""
    instance = _load_instance(instance_file)
    tree = instance.tree_by_id.get(tree_id)
    if tree is None:
        _fail(f"no tree with id {tree_id}")
    if tree.max_depth == 0:
        _fail(f"tree {tree_id} has no edges")
    if kind == "heavy":
        dec = heavy_path_decomposition(tree)
    elif kind == "rank":
        dec, _ = rank_decomposition(tree)
    else:
        if ell is None:
            ell = log2_ceil(instance.graph.node_count)
        dec = short_decomposition(tree, ell)  # the chunks the frames scheduler uses
        report = verify_short(dec, tree, ell, log2_ceil(instance.graph.node_count) + 1)
        click.echo(
            f"max_intersections={report.max_intersections} bound={report.bound:.2f}",
            err=True,
        )
    click.echo(decomposition_to_json(dec))


@main.command("congest-sim")
@click.argument("instance_file", type=click.Path(exists=True))
@seed_option
@click.option("--epsilon", type=float, default=0.25, show_default=True)
@click.option("--bit-factor", type=int, default=4, show_default=True)
@click.option("--multicast/--decompose-only", default=False,
              help="Also run the distributed multicast after decomposing.")
@click.option("--depths-known/--no-depths-known", default=False)
def cmd_congest_sim(instance_file, seed, epsilon, bit_factor, multicast, depths_known):
    """Run the distributed decomposition (and optionally multicast) in CONGEST."""
    instance = _load_instance(instance_file)
    budget = CongestNetwork(instance.graph, bit_factor).bits_per_edge_per_round
    dist = distributed_rank_decomposition(instance, epsilon, seed, bit_factor)
    audit = message_size_audit(dist.transcripts, budget)
    node_steps = sum(tr.steps for tr in dist.transcripts)
    click.echo(
        f"decomposition rounds={dist.rounds} chunk_length={dist.chunk_length} "
        f"node_steps={node_steps} max_bits={audit.max_bits} budget={budget} "
        f"audit={'pass' if audit.passed else 'FAIL'}"
    )
    if not audit.passed:
        sys.exit(2)
    if multicast:
        if depths_known:
            sched, rounds = distributed_multicast(
                instance, epsilon, seed, True, bit_factor
            )
        else:  # the schedule distributed_multicast builds over `dist`
            sched, _ = frame_schedule_from_decomps(
                instance, dist.decompositions, dist.chunk_length, seed
            )
            rounds = dist.rounds + sched.declared_length
        report = simulate(instance, sched)
        if not report.valid:
            click.echo("internal error: multicast schedule invalid", err=True)
            sys.exit(2)
        click.echo(f"multicast length={sched.declared_length} congest_rounds={rounds}")


@main.command("check-lemmas")
@click.option("--congestion", type=int, required=True)
@click.option("--depth", type=int, required=True)
@click.option("--bit-cap", type=int, default=64, show_default=True)
def cmd_check_lemmas(congestion, depth, bit_cap):
    """Build a lower-bound instance and verify its structural lemmas."""
    lb = build_lowerbound(congestion, depth, bit_cap)
    report = check_lemmas(lb, congestion, depth)
    predicted = predicted_edge_count(congestion, depth)
    built = len(lb.instance.graph.edges)
    click.echo(f"edges={built} predicted={predicted}")
    click.echo(
        f"congestion={'ok' if report.congestion_ok else 'FAIL'} "
        f"dilation={'ok' if report.dilation_ok else 'FAIL'} "
        f"trees={'ok' if report.trees_ok else 'FAIL'} "
        f"node_bound={'ok' if report.node_bound_ok else 'FAIL'}"
    )
    if not report.all_ok or built != predicted:
        for f in report.failures:
            click.echo(f, err=True)
        sys.exit(1)


@main.command("opt")
@click.argument("instance_file", type=click.Path(exists=True))
@click.option("--horizon", type=int, default=8, show_default=True)
def cmd_opt(instance_file, horizon):
    """Exhaustive optimum for toy instances (<= 12 edges, <= 6 messages)."""
    instance = _load_instance(instance_file)
    best = exhaustive_opt(instance, horizon)
    if best is None:
        click.echo(f"no schedule within horizon {horizon}")
        sys.exit(1)
    click.echo(f"optimum={best}")


@main.command("markov-check")
@click.argument("instance_file", type=click.Path(exists=True))
@click.argument("schedule_file", type=click.Path(exists=True))
def cmd_markov_check(instance_file, schedule_file):
    """Per-edge delay-set check on a schedule that replays as valid."""
    instance = _load_instance(instance_file)
    sched = _load_schedule(schedule_file)
    replay = simulate(instance, sched)
    if replay.violations:
        v = replay.violations[0]
        _fail(f"invalid schedule: {v.kind} at round {v.round}: {v.detail}")
    if not replay.valid:
        undelivered = len(instance.trees) - len(replay.per_tree_completion_round)
        _fail(f"invalid schedule: incomplete_trees={undelivered}")
    report = markov_delay_check(instance, sched)
    click.echo(f"edges_checked={len(report.per_edge)} passed={report.passed}")
    if not report.passed:
        sys.exit(1)


def _bench_row(instance, scheduler, seed) -> dict:
    """One CSV row of `mcast bench`; a failed run fills the error column."""
    row = {
        "n": instance.graph.node_count,
        "congestion": instance.metrics.congestion,
        "dilation": instance.metrics.dilation,
        "scheduler": scheduler,
        "seed": seed,
    }
    t0 = time.perf_counter()
    try:
        run = run_scheduler(instance, scheduler, seed)
        if not simulate(instance, run.schedule).valid:
            raise AssertionError("schedule failed validation")
        row["length"] = run.schedule.declared_length
        row["frame_count"] = run.frames  # csv writes None as ""
        row["max_frame_congestion"] = run.max_frame_congestion
    except Exception as exc:  # per-row failure, sweep continues
        row["error"] = f"{type(exc).__name__}: {exc}"
    row["wall_time_s"] = f"{time.perf_counter() - t0:.4f}"
    return row


@main.command("bench")
@click.option(
    "--suite", "suite_file", type=click.Path(exists=True), required=True,
    help='JSON suite: {"cells":[{"n":..,"congestion":..,"depth":..,'
         '"seeds":[..],"schedulers":[..],"prefix_cap":..?}]}',
)
@click.option("-o", "--output", type=click.Path(), default="-")
def cmd_bench(suite_file, output):
    """Benchmark sweep over layered instances.

    CSV columns: n, congestion, dilation, scheduler, seed, length,
    frame_count, max_frame_congestion, wall_time_s, error. Per-row failures
    are recorded in the error column and the sweep continues.
    """
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_COLUMNS)  # missing columns: ""
    writer.writeheader()
    try:
        with open(suite_file) as fh:
            (raw_cells,) = read_object(json.load(fh), "", BENCH_SUITE)
        cells = [read_object(cell, f"cell {i}: ", BENCH_CELL) for i, cell in enumerate(raw_cells)]
        for i, (n, congestion, depth, prefix_cap, _, names) in enumerate(cells):
            if any(s not in SCHEDULERS for s in names):
                raise ValueError(f"cell {i}: schedulers must be a list of {', '.join(SCHEDULERS)}")
            check_layered_params(n, congestion, depth, prefix_cap, f"cell {i}: ")
        for n, congestion, depth, prefix_cap, seeds, names in cells:
            for seed in seeds:
                instance = gen_layered_instance(n, congestion, depth, seed, prefix_cap)
                for scheduler in names:
                    writer.writerow(_bench_row(instance, scheduler, seed))
    except _READ_ERRORS as exc:
        _fail(f"invalid suite {suite_file}: {type(exc).__name__}: {exc}")
    _write(buf.getvalue(), output)


if __name__ == "__main__":
    main()
