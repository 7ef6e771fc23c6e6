"""Acceptance suite: one criterion per test, each printing one PASS/FAIL line.

Pinned tolerances:
- criterion 7: >= 99 of 100 trials under the 8*ceil(log2 n) frame-congestion cap
- criterion 8: ratio cap 20 per cell; growth slack factor 1.25 between
  consecutive n at a fixed C=D multiplier
- criteria 10/11: fitted round constant c <= 64
Grid cells whose C = D target exceeds n - 1 clamp D to n - 1 (a tree on n
nodes cannot be deeper) and keep the congestion target.
"""

import math
import random
import time

import pytest

import conftest

from mcastsched import (
    SCHEDULERS,
    build_lowerbound,
    build_short_decompositions,
    check_lemmas,
    compute_metrics,
    compute_ranks,
    deterministic_schedule,
    distributed_multicast,
    distributed_rank_decomposition,
    exhaustive_opt,
    frame_congestion_profile,
    frame_multicast_schedule,
    gen_layered_instance,
    gen_random_instance,
    heavy_path_decomposition,
    log2_ceil,
    markov_delay_check,
    message_size_audit,
    norm_edge,
    pad_to_n,
    rank_decomposition,
    run_scheduler,
    schedule_to_json,
    short_decomposition,
    simulate,
    verify_short,
)
from conftest import shared_edge_instance, random_tree
from test_decomposition import reference_shorten


def report(num: int, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}"
    print(line)
    conftest.acceptance_lines.append(line)
    assert ok, line


def all_schedulers(instance, seed):
    for name in SCHEDULERS:
        yield name, run_scheduler(instance, name, seed).schedule


# --- shared suites ---------------------------------------------------------

@pytest.fixture(scope="module")
def mixed_suite():
    """1,000 instances (900 random, 100 lower-bound, n <= 1,024) with every
    scheduler's simulate report and length."""
    lbs = {cd: build_lowerbound(*cd) for cd in [(2, 1), (2, 2), (2, 3), (4, 2)]}
    lb_cycle = sorted(lbs)
    records = []
    for i in range(1000):
        if i % 10 == 9:
            lb = lbs[lb_cycle[(i // 10) % 4]]
            n = min(1024, lb.instance.graph.node_count + (i % 7) * 13)
            inst = pad_to_n(lb, n)
        elif i % 100 == 50:
            inst = gen_random_instance(512 + i % 512, 2 + i % 6, 2 + i % 8, i)
        else:
            inst = gen_random_instance(
                8 + (i * 37) % 56, 2 + i % 5, 2 + i % 5, i
            )
        m = compute_metrics(inst)
        runs = {}
        for name, sched in all_schedulers(inst, i):
            runs[name] = (simulate(inst, sched), sched.declared_length)
        records.append((m, runs))
    return records


@pytest.fixture(scope="module")
def concentration_suite():
    """Criterion 7/9 suite: 10 layered instances at n = 1,024 with
    C = 200 >= 20*ceil(log2 n), 10 offset seeds each (100 trials)."""
    instances = [
        gen_layered_instance(1024, 200, 40 + 5 * g, g, prefix_cap=40)
        for g in range(10)
    ]
    return instances


@pytest.fixture(scope="module")
def grid_cells():
    """Criterion 8/11 grid: n in {256, 1024, 4096}, C = D targets
    {1,4,16} * ceil(log2 n)^2, D clamped to n-1."""
    cells = {}
    for n in (256, 1024, 4096):
        log2n = log2_ceil(n)
        for mult in (1, 4, 16):
            target = mult * log2n**2
            c, d = target, min(target, n - 1)
            inst = gen_layered_instance(n, c, d, mult, prefix_cap=32)
            cells[(n, mult)] = inst
    return cells


# --- criteria --------------------------------------------------------------

def test_criterion_01_validity_universal(mixed_suite):
    bad = 0
    for m, runs in mixed_suite:
        for name, (rep, _) in runs.items():
            if not rep.valid or rep.violations:
                bad += 1
    ok = bad == 0 and len(mixed_suite) == 1000
    report(
        1,
        ok,
        f"{len(mixed_suite)} instances x {len(mixed_suite[0][1])} schedulers, "
        f"{bad} invalid runs",
    )


def test_criterion_02_greedy_and_trivial_bounds(mixed_suite):
    over_cd = sum(
        1 for m, runs in mixed_suite if runs["greedy"][1] > m.congestion * m.dilation
    )
    under_max = sum(
        1
        for m, runs in mixed_suite
        for name, (rep, length) in runs.items()
        if rep.valid and length < max(m.congestion, m.dilation)
    )
    ok = over_cd == 0 and under_max == 0
    report(
        2,
        ok,
        f"greedy <= C*D violations: {over_cd}; "
        f"length < max(C,D) violations: {under_max}",
    )


def test_criterion_03_lowerbound_lemmas():
    def recursion(c, d):
        if d == 1:
            return 1
        return 2 ** (d - 1) + math.comb(c, c // 2) ** (2 ** (d - 1)) * recursion(
            c, d - 1
        )

    expected = {(2, 1): 1, (2, 2): 6, (2, 3): 100, (4, 2): 38}
    t0 = time.time()
    failures = []
    for (c, d), count in expected.items():
        if recursion(c, d) != count:
            failures.append(f"recursion({c},{d}) != {count}")
        lb = build_lowerbound(c, d)
        if len(lb.instance.graph.edges) != count:
            failures.append(f"built edges for ({c},{d}) != {count}")
        rep = check_lemmas(lb, c, d)
        if not rep.all_ok:
            failures.append(f"lemmas ({c},{d}): {rep.failures[:1]}")
    elapsed = time.time() - t0
    ok = not failures and elapsed < 10
    report(3, ok, f"4 (C,D) pairs in {elapsed:.1f}s; failures: {failures or 'none'}")


def test_criterion_04_tiny_optimum_oracle():
    t0 = time.time()
    lb22 = build_lowerbound(2, 2)
    opt22 = exhaustive_opt(lb22.instance, 8)
    fig = exhaustive_opt(shared_edge_instance(), 8)
    elapsed = time.time() - t0
    # ground truth frozen at first run: optimum of the (2,2) instance is 4
    ok = opt22 == 4 and opt22 >= 2 and fig == 2 and elapsed < 30
    report(4, ok, f"opt(2,2)={opt22} (frozen 4, >= CD/2=2), shared_edge opt={fig}, {elapsed:.1f}s")


def test_criterion_05_lowerbound_at_scale():
    t0 = time.time()
    lb = build_lowerbound(4, 3)
    build_s = time.time() - t0
    inst = lb.instance
    edges = len(inst.graph.edges)
    failures = []
    if not (40_000 <= edges <= 60_000):
        failures.append(f"unexpected edge count {edges}")
    if build_s >= 60:
        failures.append(f"build took {build_s:.0f}s")
    for name, sched in all_schedulers(inst, 0):
        rep = simulate(inst, sched)
        if not rep.valid:
            failures.append(f"{name} invalid")
            continue
        if sched.declared_length < 6:
            failures.append(f"{name} length {sched.declared_length} < CD/2")
        if not markov_delay_check(inst, sched).passed:
            failures.append(f"{name} markov check failed")
    report(
        5,
        not failures,
        f"(4,3) instance: {edges} edges in {build_s:.1f}s, "
        f"5 schedulers; failures: {failures or 'none'}",
    )


def test_criterion_06_decomposition_bounds():
    t0 = time.time()
    failures = 0
    for i in range(1000):
        n = 4 + (i * 97) % 500 if i < 950 else 1024 + (i * 61) % 3073
        tree = random_tree(n, i)
        log_bound = math.floor(math.log2(n)) + 1
        heavy = heavy_path_decomposition(tree)
        ranked, ranks = rank_decomposition(tree)
        size = tree.subtree_sizes()
        for dec in (heavy, ranked):
            worst = 0
            for leaf in tree.leaves:
                met, v = set(), leaf
                while v != tree.root:
                    met.add(dec.edge_to_path[norm_edge(tree.parent[v], v)])
                    v = tree.parent[v]
                worst = max(worst, len(met))
            if worst > log_bound:
                failures += 1
        ell = math.ceil(math.log2(n))
        short = short_decomposition(tree, ell)
        if not verify_short(short, tree, ell, math.ceil(math.log2(n)) + 1).passed:
            failures += 1
        if any(size[v] < 2**r for v, r in ranks.rank.items()):
            failures += 1
    elapsed = time.time() - t0
    ok = failures == 0 and elapsed < 60
    report(6, ok, f"1000 trees (n <= 4096) in {elapsed:.1f}s, {failures} failures")


def test_criterion_07_frame_concentration(concentration_suite):
    cap = 8 * log2_ceil(1024)
    trials, hits, worst = 0, 0, 0
    for inst in concentration_suite:
        m = compute_metrics(inst)
        assert m.congestion >= 20 * log2_ceil(1024)
        ell = log2_ceil(1024)
        decomps = build_short_decompositions(inst, ell)
        from mcastsched.schedulers import _draw_offsets

        for seed in range(10):
            offsets = _draw_offsets(inst, ell, random.Random(seed))
            cong = max(frame_congestion_profile(decomps, offsets).values())
            trials += 1
            worst = max(worst, cong)
            if cong <= cap:
                hits += 1
    ok = trials == 100 and hits >= 99
    report(7, ok, f"{hits}/{trials} trials <= {cap} (worst {worst})")


def test_criterion_08_additive_polylog_tracking(grid_cells):
    t0 = time.time()
    ratios = {}
    failures = []
    for (n, mult), inst in sorted(grid_cells.items()):
        m = compute_metrics(inst)
        sched, _ = frame_multicast_schedule(inst, seed=1)
        if not simulate(inst, sched).valid:
            failures.append(f"n={n} mult={mult} invalid")
            continue
        denom = m.congestion + m.dilation + log2_ceil(n) ** 2
        ratios[(n, mult)] = sched.declared_length / denom
        if ratios[(n, mult)] > 20:
            failures.append(f"n={n} mult={mult} ratio {ratios[(n, mult)]:.2f} > 20")
    for mult in (1, 4, 16):
        for small, big in [(256, 1024), (1024, 4096)]:
            if ratios[(big, mult)] > ratios[(small, mult)] * 1.25:
                failures.append(
                    f"mult={mult}: ratio grew {ratios[(small, mult)]:.2f} -> "
                    f"{ratios[(big, mult)]:.2f}"
                )
    elapsed = time.time() - t0
    pretty = ", ".join(f"{k}:{v:.2f}" for k, v in sorted(ratios.items()))
    ok = not failures and elapsed < 600
    report(8, ok, f"ratios {pretty} in {elapsed:.0f}s; failures: {failures or 'none'}")


def test_criterion_09_derandomization(concentration_suite):
    budget = 8 * log2_ceil(1024)
    failures = []
    for g, inst in enumerate(concentration_suite):
        s1, seed1 = deterministic_schedule(inst, budget)
        if seed1 >= 64:
            failures.append(f"instance {g} needed seed {seed1}")
        s2, seed2 = deterministic_schedule(inst, budget)
        if seed1 != seed2 or schedule_to_json(s1) != schedule_to_json(s2):
            failures.append(f"instance {g} not reproducible")
        if not simulate(inst, s1).valid:
            failures.append(f"instance {g} invalid schedule")
    report(
        9,
        not failures,
        f"{len(concentration_suite)} instances, budget {budget}; "
        f"failures: {failures or 'none'}",
    )


def test_criterion_10_congest_equivalence_and_budget():
    t0 = time.time()
    failures = []
    fitted = 0.0
    # single-tree equality with the centralized pipeline
    for seed in range(20):
        inst = gen_random_instance(16 + 4 * seed, 1, 3 + seed % 6, seed)
        dist = distributed_rank_decomposition(inst, seed=seed)
        tree = inst.trees[0]
        cen, _ = rank_decomposition(tree)
        cen = reference_shorten(cen, dist.chunk_length)
        got = dist.decompositions[tree.tree_id]
        if sorted(got.paths) != sorted(cen.paths):
            failures.append(f"single-tree mismatch seed {seed}")
    # 100 multi-tree instances: verify_short, audit, fitted round constant
    for seed in range(100):
        n = 16 + (seed * 13) % 90
        inst = gen_random_instance(n, 2 + seed % 5, 2 + seed % 6, seed)
        m = compute_metrics(inst)
        dist = distributed_rank_decomposition(inst, seed=seed)
        if not message_size_audit(dist.transcripts, 4 * log2_ceil(n)).passed:
            failures.append(f"audit failed seed {seed}")
        k = log2_ceil(n) + 1
        for tree in inst.trees:
            if tree.max_depth == 0:
                continue
            if not verify_short(
                dist.decompositions[tree.tree_id], tree, dist.chunk_length, k
            ).passed:
                failures.append(f"verify_short failed seed {seed} tree {tree.tree_id}")
        c_, d_ = max(1, m.congestion), max(1, m.dilation)
        factor = 1 + (
            math.log2(min(c_, d_)) / math.log2(math.log2(n)) if min(c_, d_) > 1 else 0
        )
        fitted = max(fitted, dist.rounds / ((c_ + d_) * factor))
    elapsed = time.time() - t0
    ok = not failures and fitted <= 64 and elapsed < 300
    report(
        10,
        ok,
        f"20 single-tree + 100 multi-tree runs in {elapsed:.1f}s, "
        f"fitted c={fitted:.2f} (<= 64); failures: {failures or 'none'}",
    )


def test_criterion_11_distributed_multicast(grid_cells):
    epsilon = 0.25
    failures = []
    fitted = 0.0
    for (n, mult), inst in sorted(grid_cells.items()):
        m = compute_metrics(inst)
        sched, rounds = distributed_multicast(
            inst, epsilon, seed=2, depths_known=True
        )
        if not simulate(inst, sched).valid:
            failures.append(f"n={n} mult={mult} invalid")
            continue
        denom = m.congestion + m.dilation + math.ceil(
            math.log2(n) ** (2 + epsilon)
        )
        fitted = max(fitted, rounds / denom)
    ok = not failures and fitted <= 64
    report(
        11,
        ok,
        f"9 grid cells, fitted c={fitted:.2f} (<= 64); failures: {failures or 'none'}",
    )
