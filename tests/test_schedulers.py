import copy
import functools
import gc
import multiprocessing
import random
import resource
from collections import Counter, defaultdict
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastsched import (
    Graph,
    MulticastInstance,
    MulticastTree,
    Schedule,
    SeedSearchError,
    Send,
    build_lowerbound,
    build_short_decompositions,
    compute_metrics,
    deterministic_schedule,
    distributed_multicast,
    frame_congestion_profile,
    frame_multicast_schedule,
    frame_schedule_from_decomps,
    gen_layered_instance,
    gen_random_instance,
    greedy_schedule,
    log2_ceil,
    norm_edge,
    random_delay_schedule,
    run_scheduler,
    schedule_to_json,
    simulate,
    unicast_frame_schedule,
)
from mcastsched import congest, schedulers
from mcastsched.schedulers import _draw_offsets, _route_instance
from conftest import cyclic_garbage, schedule_of, shared_edge_instance
from test_golden import CORPUS, MULTIFRAME_EPSILON, SEEDS


# --- oracles ---------------------------------------------------------------

def oracle_frame_paths(instance, decomps, offsets):
    """frame -> its unicasts (source, chunk path, message id), grouped straight
    from each chunk's level and its tree's offset, frames and chunks sorted."""
    frame_of = {
        (tid, pidx): dec.level[pidx] + offsets[tid]
        for tid, dec in decomps.items()
        for pidx in range(len(dec.paths))
    }
    by_frame = defaultdict(list)
    for (tid, pidx), f in sorted(frame_of.items()):
        seq = decomps[tid].paths[pidx]
        by_frame[f].append((seq[0], seq, instance.tree_by_id[tid].message_id))
    return {f: by_frame[f] for f in sorted(by_frame)}


def oracle_frame_congestion(instance, decomps, offsets):
    """frame -> C', recounted edge by edge from the chunk paths."""
    out = {}
    for f, paths in oracle_frame_paths(instance, decomps, offsets).items():
        load = Counter()
        for _, seq, _ in paths:
            for a, b in zip(seq, seq[1:]):
                load[norm_edge(a, b)] += 1
        out[f] = max(load.values(), default=0)
    return out


def assert_valid(instance, schedule):
    report = simulate(instance, schedule)
    assert report.valid, report.violations[:3]
    return report


# --- greedy ----------------------------------------------------------------

def test_greedy_shared_edge_length_two(shared_edge):
    sched = greedy_schedule(shared_edge)
    assert_valid(shared_edge, sched)
    assert sched.declared_length == 2


@pytest.mark.parametrize("seed", range(25))
def test_greedy_within_cd_and_above_maxcd(seed):
    inst = gen_random_instance(12 + seed, 2 + seed % 4, 2 + seed % 5, seed)
    m = compute_metrics(inst)
    sched = greedy_schedule(inst)
    assert_valid(inst, sched)
    assert max(m.congestion, m.dilation) <= sched.declared_length
    assert sched.declared_length <= m.congestion * m.dilation


def test_greedy_deterministic():
    inst = gen_random_instance(30, 4, 4, 11)
    assert schedule_to_json(greedy_schedule(inst)) == schedule_to_json(
        greedy_schedule(inst)
    )


# --- random delay ----------------------------------------------------------

@pytest.mark.parametrize("seed", range(10))
def test_random_delay_valid(seed):
    inst = gen_layered_instance(40, 6, 10, seed)
    sched = random_delay_schedule(inst, seed)
    assert_valid(inst, sched)


def test_random_delay_seed_changes_schedule():
    inst = gen_layered_instance(64, 8, 12, 0)
    a = random_delay_schedule(inst, 0)
    b = random_delay_schedule(inst, 1)
    assert a != b  # overwhelmingly likely with 8 delayed trees


# --- unicast frames --------------------------------------------------------

def test_unicast_frame_respects_cprime_dprime():
    # 4 unicasts all crossing edge (3,4): C'=4, D'=7
    jobs = [(0, tuple(range(8)), m) for m in range(4)]
    sched, cprime = unicast_frame_schedule(jobs, random.Random(0))
    assert cprime == 4
    per_round_edge = Counter((s.round, norm_edge(s.u, s.v)) for s in sched.sends)
    assert max(per_round_edge.values()) == 1
    assert sched.declared_length <= 4 * 7


def test_unicast_frame_rejects_bad_source():
    with pytest.raises(ValueError):
        unicast_frame_schedule([(1, (0, 1, 2), 0)], random.Random(0))


@settings(max_examples=25, deadline=None)
@given(k=st.integers(1, 6), seed=st.integers(0, 10**6))
def test_unicast_frame_property(k, seed):
    rng = random.Random(seed)
    jobs = []
    for m in range(k):
        a = rng.randrange(9)
        b = rng.randrange(a + 1, 10)
        jobs.append((a, tuple(range(a, b + 1)), m))
    sched, got_cprime = unicast_frame_schedule(jobs, rng)
    load = Counter()
    for _, seq, _ in jobs:
        for a, b in zip(seq, seq[1:]):
            load[(a, b)] += 1
    cprime = max(load.values())
    assert got_cprime == cprime
    dprime = max(len(j[1]) - 1 for j in jobs)
    assert sched.declared_length <= cprime * dprime
    # each message traverses its whole path in order
    for src, seq, mid in jobs:
        hops = sorted(
            (s for s in sched.sends if s.message_id == mid), key=lambda s: s.round
        )
        assert [(s.u, s.v) for s in hops] == list(zip(seq, seq[1:]))


# --- frame scheduler -------------------------------------------------------

@pytest.mark.parametrize("seed", range(15))
def test_frame_scheduler_valid_random(seed):
    inst = gen_random_instance(20 + 10 * (seed % 4), 3 + seed % 4, 4 + seed % 3, seed)
    sched, congestion = frame_multicast_schedule(inst, seed)
    assert_valid(inst, sched)
    assert len(congestion) >= 1


def test_frame_scheduler_valid_layered():
    inst = gen_layered_instance(128, 16, 30, 2)
    sched, _ = frame_multicast_schedule(inst, 2)
    assert_valid(inst, sched)


def check_frame_congestion(inst, ell, seed):
    """The driver's {frame: C'} equals `frame_congestion_profile` for the same
    offsets and a recount from the chunk paths, ascending, one entry per
    routed frame."""
    decomps = build_short_decompositions(inst, ell)
    offsets = _draw_offsets(inst, ell, random.Random(seed))
    with mock.patch.object(
        schedulers, "unicast_frame_schedule", wraps=schedulers.unicast_frame_schedule
    ) as spy:
        _, congestion = frame_schedule_from_decomps(inst, decomps, ell, seed)
    want = oracle_frame_congestion(inst, decomps, offsets)
    assert list(congestion.items()) == list(want.items())
    assert frame_congestion_profile(decomps, offsets) == want
    assert len(congestion) == spy.call_count


def test_frame_profile_matches_oracle():
    check_frame_congestion(gen_layered_instance(64, 10, 20, 4), 6, 4)


def test_frame_offsets_bounded_by_span():
    """Offsets are the rng's next draws in [0, ceil(C / ell)), one per tree in
    instance order."""
    inst = gen_layered_instance(64, 12, 20, 1)
    ell = 4
    span = -(-compute_metrics(inst).congestion // ell)
    offsets = _draw_offsets(inst, ell, random.Random(1))
    rng = random.Random(1)
    assert offsets == {t.tree_id: rng.randrange(span) for t in inst.trees}
    assert all(0 <= off < span for off in offsets.values())
    assert len(set(offsets.values())) > 1


def test_fixed_frame_length_pads_and_rejects():
    inst = gen_layered_instance(32, 4, 10, 0)
    sched, _ = frame_multicast_schedule(inst, 0, fixed_frame_length=64)
    assert_valid(inst, sched)
    with pytest.raises(ValueError):
        frame_multicast_schedule(inst, 0, fixed_frame_length=1)


def test_frame_scheduler_single_tree_is_fast():
    inst = gen_layered_instance(40, 1, 30, 0)
    sched, _ = frame_multicast_schedule(inst, 0)
    assert_valid(inst, sched)
    assert sched.declared_length == 30  # one path, no contention


def test_depth_zero_trees_skipped():
    g = Graph.build(3, [(0, 1), (1, 2)])
    inst = MulticastInstance.build(
        g, [MulticastTree(0, 0, {1: 0}, 0), MulticastTree(1, 2, {}, 1)]
    )
    decomps = build_short_decompositions(inst, 2)
    assert set(decomps) == {0}
    sched, _ = frame_schedule_from_decomps(inst, decomps, 2, 0)
    assert_valid(inst, sched)


def test_frames_driver_calls_module_unicast_once_per_frame(monkeypatch):
    """Each frame goes through the module-level `unicast_frame_schedule`, its
    paths (sorted by tree id and chunk index) as the first argument."""
    inst = gen_random_instance(60, 8, 6, 3)
    calls = []
    real = schedulers.unicast_frame_schedule

    def spy(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(schedulers, "unicast_frame_schedule", spy)
    _, congestion = frame_multicast_schedule(inst, 5, ell=2)
    decomps = build_short_decompositions(inst, 2)
    by_frame = oracle_frame_paths(inst, decomps, _draw_offsets(inst, 2, random.Random(5)))
    assert len(by_frame) > 1
    assert calls == list(by_frame.values())
    assert list(congestion) == list(by_frame)


def _schedule_root_with_parent(conn):
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))  # a loop must not eat memory
    inst = MulticastInstance.build(
        Graph.build(2, [(0, 1)]), [MulticastTree(0, 0, {0: 1, 1: 0}, 0)]
    )
    conn.send([
        greedy_schedule(inst),
        random_delay_schedule(inst, 0),
        frame_multicast_schedule(inst, 0)[0],
        deterministic_schedule(inst, 1)[0],
    ])


def test_root_with_parent_schedules_return():
    """A root with a parent (a cycle through the root) once sent the message
    round the cycle forever; the schedulers run in a child process so that
    a regression fails here instead of hanging the suite."""
    ctx = multiprocessing.get_context("spawn")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_schedule_root_with_parent, args=(send,))
    child.start()
    send.close()  # with no copy of the child's end left here, a crash ends the wait
    done = recv.poll(30)
    if not done:
        child.kill()
    child.join(10)
    assert done, "a scheduler did not return within 30 s"
    assert child.exitcode == 0
    for sched in recv.recv():
        assert sched.sends == (Send(1, 0, 1, 0),)


# --- deterministic search --------------------------------------------------

def test_deterministic_reproducible():
    inst = gen_layered_instance(256, 24, 20, 5)
    budget = 8 * log2_ceil(256)
    s1, seed1 = deterministic_schedule(inst, budget)
    s2, seed2 = deterministic_schedule(inst, budget)
    assert seed1 == seed2
    assert schedule_to_json(s1) == schedule_to_json(s2)
    assert_valid(inst, s1)
    _, congestion = frame_multicast_schedule(inst, seed1)
    assert max(congestion.values()) <= budget


def test_profile_runs_once_per_seed_tried(monkeypatch):
    """The seed search calls the module-level `frame_congestion_profile` once
    per seed it tries, so its calls count the seeds tried; the frames driver
    returns each frame's C' itself and calls it never, nor do
    `frame_multicast_schedule` and `run_scheduler(..., "frames")`."""
    inst = gen_layered_instance(64, 16, 20, 0)
    ell = log2_ceil(64)
    calls = []
    real = schedulers.frame_congestion_profile
    monkeypatch.setattr(
        schedulers, "frame_congestion_profile", lambda *a: calls.append(1) or real(*a)
    )
    _, seed = deterministic_schedule(inst, 6)
    assert seed == 9  # seeds 0-8 are over budget
    assert len(calls) == seed + 1
    calls.clear()
    frame_schedule_from_decomps(inst, build_short_decompositions(inst, ell), ell, 0)
    frame_multicast_schedule(inst, 0)
    run_scheduler(inst, "frames", 0)
    assert calls == []


def test_deterministic_exhausts_and_reports_best():
    inst = gen_layered_instance(64, 16, 20, 0)
    with pytest.raises(SeedSearchError) as exc:
        deterministic_schedule(inst, 1, seed_cap=8)
    assert exc.value.best_congestion > 1
    assert 0 <= exc.value.best_seed < 8


def test_deterministic_rejects_bad_budget():
    inst = gen_layered_instance(16, 2, 4, 0)
    with pytest.raises(ValueError):
        deterministic_schedule(inst, 0)


# --- differential: the routing engine against the loops it replaced ---------
# `_route_trees` (greedy, random-delay) and `_route_paths` (frame unicasts)
# are the two round loops the single engine `_route` replaced, kept verbatim
# as references together with the scheduler bodies that called them.

def _route_trees(instance: MulticastInstance, priority, gate=None) -> Schedule:
    """Forward every message down its tree, one packet per edge per round.

    priority(tree_id, parent, child) orders candidates per edge (min wins);
    gate(tree_id, round) may hold a tree back. Runs until every tree node
    holds its tree's message.
    """
    candidates: dict[tuple[int, int], list[tuple[int, int, int]]] = defaultdict(list)
    waiting = 0

    def arm(tree, node):
        nonlocal waiting
        for c in tree.children.get(node, ()):
            candidates[norm_edge(node, c)].append((tree.tree_id, node, c))
            waiting += 1

    for t in instance.trees:
        arm(t, t.root)

    by_id = instance.tree_by_id
    sends = []
    rnd = 0
    while waiting:
        rnd += 1
        delivered = []
        for edge in sorted(e for e, lst in candidates.items() if lst):
            lst = candidates[edge]
            pool = lst if gate is None else [c for c in lst if gate(c[0], rnd)]
            if not pool:
                continue
            best = min(pool, key=lambda c: priority(*c))
            lst.remove(best)
            waiting -= 1
            tid, parent, child = best
            sends.append(Send(rnd, parent, child, by_id[tid].message_id))
            delivered.append((tid, child))
        for tid, child in delivered:
            arm(by_id[tid], child)
        if not delivered and gate is None:
            raise AssertionError("greedy routing stalled")  # cannot happen
    return schedule_of(sends)


def reference_greedy(instance: MulticastInstance) -> Schedule:
    """Per round and edge, forward the eligible message with the deepest
    undelivered subtree below it; length is at most C*D."""
    height: dict[tuple[int, int], int] = {}
    for t in instance.trees:
        for v in t.depth:
            height[(t.tree_id, v)] = 0
        for v in sorted(t.depth, key=lambda v: -t.depth[v]):
            p = t.parent.get(v)
            if p is not None:
                height[(t.tree_id, p)] = max(
                    height[(t.tree_id, p)], height[(t.tree_id, v)] + 1
                )
    return _route_trees(instance, lambda tid, p, c: (-height[(tid, c)], tid))


def reference_random_delay(instance: MulticastInstance, seed: int) -> Schedule:
    """Each tree waits a uniform delay in [0, C) and then forwards greedily."""
    metrics = compute_metrics(instance)
    rng = random.Random(seed)
    delay = {
        t.tree_id: rng.randrange(max(1, metrics.congestion)) for t in instance.trees
    }
    depth = {t.tree_id: t.depth for t in instance.trees}
    return _route_trees(
        instance,
        lambda tid, p, c: (delay[tid] + depth[tid][c], tid),
        gate=lambda tid, rnd: rnd > delay[tid],
    )


def _route_paths(jobs, delays) -> tuple[list[Send], int]:
    """Unicast jobs (job_id, message_id, node path) with per-job start delays.

    Farthest-to-go priority; one packet per edge per round; a packet advances
    at most one hop per round. Returns (sends, length).
    """
    pos = {j[0]: 0 for j in jobs}
    path = {j[0]: j[2] for j in jobs}
    msg = {j[0]: j[1] for j in jobs}
    active = {j[0] for j in jobs if len(j[2]) > 1}
    sends: list[Send] = []
    rnd = 0
    while active:
        rnd += 1
        requests: dict[tuple[int, int], list[int]] = defaultdict(list)
        for jid in active:
            if rnd <= delays[jid]:
                continue
            p = path[jid]
            i = pos[jid]
            requests[norm_edge(p[i], p[i + 1])].append(jid)
        moved = []
        for edge, pool in requests.items():
            win = min(pool, key=lambda j: (-(len(path[j]) - 1 - pos[j]), j))
            p = path[win]
            i = pos[win]
            sends.append(Send(rnd, p[i], p[i + 1], msg[win]))
            moved.append(win)
        for jid in moved:
            pos[jid] += 1
            if pos[jid] == len(path[jid]) - 1:
                active.discard(jid)
    return sends, rnd


def reference_unicast_frame(frame_paths, rng: random.Random):
    """`unicast_frame_schedule` as it was over `_route_paths`; also returns
    whether the zero-delay fallback fired.

    Schedule one frame's unicasts along their given paths.

    frame_paths: list of (source, node sequence, message_id). Random start
    delays in [0, C'); falls back to zero delays if the result ever exceeds
    the C'*D' guarantee of plain greedy routing.
    """
    jobs = []
    for jid, (src, seq, mid) in enumerate(frame_paths):
        seq = tuple(seq)
        if src != seq[0]:
            raise ValueError("source must head its path")
        jobs.append((jid, mid, seq))
    edge_load = Counter()
    for _, _, seq in jobs:
        for a, b in zip(seq, seq[1:]):
            edge_load[norm_edge(a, b)] += 1
    cprime = max(edge_load.values(), default=0)
    dprime = max((len(j[2]) - 1 for j in jobs), default=0)
    delays = {j[0]: rng.randrange(cprime) if cprime > 1 else 0 for j in jobs}
    sends, length = _route_paths(jobs, delays)
    fell_back = length > cprime * dprime
    if fell_back:
        sends, length = _route_paths(jobs, {j[0]: 0 for j in jobs})
    assert length <= cprime * dprime or not jobs
    return schedule_of(sends), fell_back


small_instances = st.one_of(
    st.builds(
        lambda n, k, depth, seed: gen_random_instance(n, k, min(depth, n - 1), seed),
        st.integers(2, 30),
        st.integers(1, 6),
        st.integers(1, 6),
        st.integers(0, 10**6),
    ),
    st.builds(
        lambda n, c, depth, seed: gen_layered_instance(n, c, min(depth, n - 1), seed),
        st.integers(2, 30),
        st.integers(1, 8),
        st.integers(1, 8),
        st.integers(0, 10**6),
    ),
)


@settings(max_examples=60, deadline=None)
@given(inst=small_instances)
def test_greedy_matches_reference(inst):
    assert greedy_schedule(inst) == reference_greedy(inst)


def reference_greedy_heights(instance: MulticastInstance) -> dict[tuple[int, int], int]:
    """`greedy_schedule`'s height loop as it was, over (tree id, node) keys."""
    height: dict[tuple[int, int], int] = {}
    for t in instance.trees:
        for v in t.depth:
            height[(t.tree_id, v)] = 0
        for v in reversed(t.depth):  # children before their parents
            if v != t.root:
                p = t.parent[v]
                height[(t.tree_id, p)] = max(
                    height[(t.tree_id, p)], height[(t.tree_id, v)] + 1
                )
    return height


@settings(max_examples=60, deadline=None)
@given(
    inst=st.one_of(
        small_instances,
        st.sampled_from([(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (6, 1)]).map(
            lambda cd: build_lowerbound(*cd).instance
        ),
    )
)
def test_greedy_matches_reference_heights(inst):
    height = reference_greedy_heights(inst)
    assert greedy_schedule(inst) == _route_instance(
        inst, lambda tid: 1, lambda tid, c, depth: -height[(tid, c)]
    )


@settings(max_examples=60, deadline=None)
@given(inst=small_instances, seed=st.integers(0, 10**6))
def test_random_delay_matches_reference(inst, seed):
    assert random_delay_schedule(inst, seed) == reference_random_delay(inst, seed)


def random_frame(rng, n, k, max_hops):
    """k unicasts along the path graph 0-1-...-(n-1), either direction."""
    paths = []
    for m in range(k):
        a = rng.randrange(n)
        b = rng.randrange(max(0, a - max_hops), min(n, a + max_hops + 1))
        step = 1 if b >= a else -1
        seq = tuple(range(a, b + step, step))
        paths.append((a, seq, m % 3))  # messages may repeat across jobs
    return paths


def _route_frame(seqs, mids, delays, start):
    """A frame's unicasts through the general engine `_route`."""
    return schedulers._route(
        [
            (start + d + 1, jid, mids[jid], seqs[jid][0])
            for jid, d in enumerate(delays)
        ],
        lambda jid, node, depth: seqs[jid][depth + 1 : depth + 2],
        lambda jid, c, depth: depth - len(seqs[jid]),
    )


def send_counts(schedule):
    return Counter((s.u, s.v, s.message_id) for s in schedule.sends)


@settings(max_examples=80, deadline=None)
@given(
    n=st.integers(2, 8),
    k=st.integers(0, 10),
    max_hops=st.integers(0, 4),
    seed=st.integers(0, 10**6),
)
def test_unicast_frame_matches_reference(n, k, max_hops, seed):
    """A frame with D' >= 2 gives the old rule's schedule. A one-hop frame
    keeps the old rule's length and sends, in an order that may differ: its
    edges send with zero delays, as `_route` does with zero delays, and it
    leaves the rng untouched."""
    paths = random_frame(random.Random(seed), n, k, max_hops)
    ref_rng, rng = random.Random(seed), random.Random(seed)
    want, _ = reference_unicast_frame(paths, ref_rng)
    got, _ = unicast_frame_schedule(paths, rng)
    seqs = [seq for _, seq, _ in paths]
    if max(map(len, seqs), default=1) >= 3:
        assert rng.getstate() == ref_rng.getstate()
        assert got == want
        return
    assert rng.getstate() == random.Random(seed).getstate()
    assert got.declared_length == want.declared_length
    assert send_counts(got) == send_counts(want)
    mids = [mid for _, _, mid in paths]
    assert got == _route_frame(seqs, mids, [0] * len(seqs), 0)


# A D' = 2 frame of C' = 2 through edge (1, 4) and (0, 1): when all four
# delays are 1, the delayed route takes 5 > C'*D' = 4 rounds.
FALLBACK_FRAME = [(4, (4, 1, 5), 0), (4, (4, 1, 2), 1), (0, (0, 1, 3), 2), (0, (0, 1, 2), 3)]


def test_unicast_frame_matches_reference_when_fallback_fires():
    """The delays overshoot C'*D' at some seeds, so the zero-delay fallback
    runs; the rng must be left in the same state too."""
    fired = set()
    for seed in range(200):
        ref_rng, rng = random.Random(seed), random.Random(seed)
        want, fell_back = reference_unicast_frame(FALLBACK_FRAME, ref_rng)
        assert unicast_frame_schedule(FALLBACK_FRAME, rng)[0] == want
        assert rng.getstate() == ref_rng.getstate()
        if fell_back:
            fired.add(seed)
    assert {16, 17, 45} <= fired and len(fired) >= 10  # 12 of the 200 seeds


def check_single_hop_frame(paths, seed, start):
    """A frame with D' <= 1 gives `_route`'s zero-delay schedule, takes C'
    rounds and draws nothing from the rng; returns (an edge used both ways,
    a zero-hop job)."""
    seqs = [seq for _, seq, _ in paths]
    mids = [mid for _, _, mid in paths]
    cprime = max(Counter(norm_edge(*seq) for seq in seqs if len(seq) == 2).values(), default=0)
    rng, want_rng = random.Random(seed), random.Random(seed)
    got, got_cprime = unicast_frame_schedule(paths, rng, start)
    assert got == _route_frame(seqs, mids, [0] * len(seqs), start)
    assert got_cprime == cprime
    assert (got.declared_length - start if got.sends else 0) == cprime
    assert rng.getstate() == want_rng.getstate()
    both_ways = any(seq[::-1] in seqs for seq in seqs if len(seq) == 2)
    return both_ways, any(len(seq) == 1 for seq in seqs)


@pytest.mark.parametrize("seed", range(20))
def test_one_hop_frame_leaves_the_stream_to_the_next_frame(seed):
    """A D' >= 2 frame routed after a one-hop frame on the same rng equals
    that frame routed alone on a fresh rng."""
    draw = random.Random(seed)
    # each frame crosses edge (0, 1) at least twice, so C' >= 2 in both
    one_hop = random_frame(draw, 6, 8, 1) + [(0, (0, 1), 0), (1, (1, 0), 1)]
    longer = random_frame(draw, 6, 8, 3) + [(0, (0, 1, 2), 0), (0, (0, 1, 2), 1)]
    rng = random.Random(seed)
    first, _ = unicast_frame_schedule(one_hop, rng)
    second = unicast_frame_schedule(longer, rng, first.declared_length)
    assert second == unicast_frame_schedule(longer, random.Random(seed), first.declared_length)


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(2, 8),
    k=st.integers(0, 20),
    max_hops=st.integers(0, 1),
    start=st.integers(0, 5),
    seed=st.integers(0, 10**6),
)
def test_single_hop_router_matches_route(n, k, max_hops, start, seed):
    paths = random_frame(random.Random(seed), n, k, max_hops)
    check_single_hop_frame(paths, seed, start)


def test_single_hop_router_covers_its_cases():
    """Over fixed seeds the single-hop frames meet every case at least 20
    times: an edge crossed both ways, zero-hop jobs, and a start after
    round 0."""
    seen = Counter()
    for seed in range(300):
        rng = random.Random(seed)
        n = rng.randrange(2, 6)
        paths = random_frame(rng, n, rng.randrange(12), 1)
        start = rng.randrange(4)
        both_ways, zero_hop = check_single_hop_frame(paths, seed, start)
        seen.update(both_ways=both_ways, zero_hop=zero_hop, start=start > 0)
    assert min(seen[case] for case in ("both_ways", "zero_hop", "start")) >= 20


@pytest.mark.parametrize("seed", range(3))
def test_frames_route_each_frame_once(monkeypatch, seed):
    """Each frame of the lower-bound family is routed exactly once: by
    `_route_single_hops` when its D' <= 1, by `_route` otherwise (no frame
    with D' >= 2 falls back at these seeds)."""
    inst = build_lowerbound(4, 2).instance
    calls, expected = [], []

    def spy(name):
        real = getattr(schedulers, name)
        return lambda *args: calls.append(name) or real(*args)

    def unicast(paths, *args, real=schedulers.unicast_frame_schedule):
        one_hop = max(len(seq) for _, seq, _ in paths) <= 2
        expected.append("_route_single_hops" if one_hop else "_route")
        return real(paths, *args)

    monkeypatch.setattr(schedulers, "_route", spy("_route"))
    monkeypatch.setattr(schedulers, "_route_single_hops", spy("_route_single_hops"))
    monkeypatch.setattr(schedulers, "unicast_frame_schedule", unicast)
    _, congestion = frame_multicast_schedule(inst, seed)
    assert len(calls) == len(congestion)
    assert calls == expected
    assert set(calls) == {"_route", "_route_single_hops"}


# --- differential: whole schedules under the old one-hop rule ----------------
# A one-hop frame used to keep its random delays when their route took C'
# rounds; every frame must still take as many rounds as it did then, so every
# schedule keeps its length and its sends.

def old_rule_frame(frame_paths, rng, start=0):
    """`unicast_frame_schedule` under the old rule: `reference_unicast_frame`,
    begun after round `start`. A one-hop frame draws on a copy of the rng,
    since it no longer draws delays, so later frames read the same stream."""
    if max(len(seq) for _, seq, _ in frame_paths) <= 2:
        rng = copy.copy(rng)
    want, _ = reference_unicast_frame(frame_paths, rng)
    sends = tuple(Send(s.round + start, s.u, s.v, s.message_id) for s in want.sends)
    load = Counter(norm_edge(a, b) for _, seq, _ in frame_paths for a, b in zip(seq, seq[1:]))
    return Schedule(sends, want.declared_length + start), max(load.values(), default=0)


FRAME_RUNS = {
    "frames": lambda inst, seed, ell, budget: frame_multicast_schedule(inst, seed, ell)[0],
    "deterministic": lambda inst, seed, ell, budget: deterministic_schedule(
        inst, budget, seed_cap=8, ell=ell
    )[0],
    "congest": lambda inst, seed, ell, budget: distributed_multicast(
        inst, seed=seed, depths_known=True
    )[0],
    "congest_multiframe": lambda inst, seed, ell, budget: distributed_multicast(
        inst, MULTIFRAME_EPSILON, seed, depths_known=True
    )[0],
}


@settings(max_examples=80, deadline=None)
@given(
    inst=st.one_of(
        small_instances,
        st.sampled_from([(2, 1), (2, 2), (4, 1), (4, 2)]).map(
            lambda cd: build_lowerbound(*cd).instance
        ),
    ),
    run=st.sampled_from(sorted(FRAME_RUNS)),
    ell=st.sampled_from([1, 2, None]),
    budget=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
def test_frame_schedules_keep_old_rule_lengths(inst, run, ell, budget, seed):
    """Frame by frame, the new rule and the old one route the same unicasts
    from the same round: identically when D' >= 2, else in as many rounds
    with the same sends."""

    def outcome(unicast):
        frames = []  # (paths, start, schedule) of every routed frame

        def record(paths, rng, start=0):
            frag = unicast(paths, rng, start)
            frames.append((paths, start, frag[0]))
            return frag

        with mock.patch.object(schedulers, "unicast_frame_schedule", record):
            try:
                return FRAME_RUNS[run](inst, seed, ell, budget), frames
            except SeedSearchError as exc:  # decided before any frame is routed
                return str(exc), frames

    got, got_frames = outcome(unicast_frame_schedule)
    want, want_frames = outcome(old_rule_frame)
    assert len(got_frames) == len(want_frames)
    for (paths, start, frag), (want_paths, want_start, want_frag) in zip(
        got_frames, want_frames
    ):
        assert (paths, start) == (want_paths, want_start)
        if max(len(seq) for _, seq, _ in paths) >= 3:
            assert frag == want_frag
        else:
            length = max(frag.declared_length - start, 0)
            assert length == max(want_frag.declared_length - start, 0)
            assert send_counts(frag) == send_counts(want_frag)
    if isinstance(want, str):
        assert got == want
        return
    assert got.declared_length == want.declared_length
    assert send_counts(got) == send_counts(want)
    assert_valid(inst, got)


# --- differential: the frames driver against the loop it replaced ----------
# Each frame used to be routed from round 1; every send was then rebuilt,
# shifted by the clock, and the whole list sorted again. That loop is kept
# verbatim as the reference.

def reference_frame_schedule_from_decomps(
    instance, decomps, ell, seed, fixed_frame_length=None
):
    """`frame_schedule_from_decomps` as it was; also returns its chunk -> frame
    map and its rng."""
    rng = random.Random(seed)  # draws the offsets, then every frame's delays
    offsets = _draw_offsets(instance, ell, rng)
    frame_of = {
        (tid, pidx): dec.level[pidx] + offsets[tid]
        for tid, dec in decomps.items()
        for pidx in range(len(dec.paths))
    }

    by_frame: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for (tid, pidx), f in frame_of.items():
        by_frame[f].append((tid, pidx))

    by_id = instance.tree_by_id
    delivered = {t.tree_id: {t.root} for t in instance.trees}
    sends: list[Send] = []
    clock = 0
    for f in sorted(by_frame):
        paths = []
        for tid, pidx in sorted(by_frame[f]):
            seq = decomps[tid].paths[pidx]
            if seq[0] not in delivered[tid]:
                raise AssertionError(
                    f"chunk top {seq[0]} of tree {tid} not delivered before frame {f}"
                )
            paths.append((seq[0], seq, by_id[tid].message_id))
        frag, _ = unicast_frame_schedule(paths, rng)
        for s in frag.sends:
            sends.append(Send(s.round + clock, s.u, s.v, s.message_id))
        if fixed_frame_length is not None:
            if frag.declared_length > fixed_frame_length:
                raise ValueError(
                    f"frame {f} needs {frag.declared_length} rounds, "
                    f"over the fixed frame length {fixed_frame_length}"
                )
            clock += fixed_frame_length
        else:
            clock += frag.declared_length
        for tid, pidx in by_frame[f]:
            delivered[tid].update(decomps[tid].paths[pidx])
    return schedule_of(sends), frame_of, rng


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


@settings(max_examples=80, deadline=None)
@given(
    inst=small_instances,
    ell=st.integers(1, 4),
    seed=st.integers(0, 10**6),
    fixed=st.one_of(st.none(), st.integers(1, 12)),
)
def test_frames_driver_matches_reference(inst, ell, seed, fixed):
    decomps = build_short_decompositions(inst, ell)
    want = _outcome(
        lambda: reference_frame_schedule_from_decomps(inst, decomps, ell, seed, fixed)
    )
    with mock.patch.object(
        schedulers, "unicast_frame_schedule", wraps=schedulers.unicast_frame_schedule
    ) as spy:
        got = _outcome(
            lambda: frame_schedule_from_decomps(inst, decomps, ell, seed, fixed)
        )
    if isinstance(want, str):
        assert got == want
        return
    sched, congestion = got
    want_sched, want_frame_of, want_rng = want
    assert schedule_to_json(sched) == schedule_to_json(want_sched)
    assert sched == want_sched
    assert list(congestion) == sorted(set(want_frame_of.values()))
    rng = spy.call_args.args[1]  # the driver's rng, after the last frame
    assert rng.getstate() == want_rng.getstate()


# --- differential: each frame's C' against a recount -------------------------

@settings(max_examples=60, deadline=None)
@given(inst=small_instances, ell=st.integers(1, 4), seed=st.integers(0, 10**6))
def test_frame_congestion_matches_recount(inst, ell, seed):
    check_frame_congestion(inst, ell, seed)


corpus_instance = functools.cache(lambda name: CORPUS[name]())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_frame_congestion_matches_recount_on_corpus(name, seed):
    inst = corpus_instance(name)
    check_frame_congestion(inst, log2_ceil(inst.graph.node_count), seed)


# --- the cyclic collector is paused while sends are built --------------------
# The wrapped loops allocate a few tracked tuples per send and build no
# reference cycle, so reference counting frees all they drop and the
# collector's passes over them could find nothing.


def _frames(inst, fixed=False):
    ell = log2_ceil(inst.graph.node_count)
    decomps = build_short_decompositions(inst, ell)
    fixed_length = None
    if fixed:  # no frame is longer than the whole schedule
        schedule, _ = frame_schedule_from_decomps(inst, decomps, ell, 0)
        fixed_length = schedule.declared_length
    return lambda: frame_schedule_from_decomps(inst, decomps, ell, 0, fixed_length)


PAUSED_CALLS = {
    "greedy": lambda inst: lambda: greedy_schedule(inst),
    "random_delay": lambda inst: lambda: random_delay_schedule(inst, 0),
    "short_decompositions": lambda inst: lambda: build_short_decompositions(
        inst, log2_ceil(inst.graph.node_count)
    ),
    "frames": _frames,
    "frames_fixed_length": lambda inst: _frames(inst, fixed=True),
    "congest_depths_known": lambda inst: lambda: distributed_multicast(
        inst, seed=0, depths_known=True
    ),
}


@pytest.mark.parametrize("call", sorted(PAUSED_CALLS))
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_paused_calls_leave_no_cyclic_garbage(name, call):
    assert cyclic_garbage(PAUSED_CALLS[call](corpus_instance(name))) == 0


def test_collector_back_on_after_return_and_raise():
    inst = gen_layered_instance(32, 4, 10, 0)
    decomps = build_short_decompositions(inst, 2)
    frame_schedule_from_decomps(inst, decomps, 2, 0)
    assert gc.isenabled()
    with pytest.raises(ValueError, match="over the fixed frame length 1"):
        frame_schedule_from_decomps(inst, decomps, 2, 0, fixed_frame_length=1)
    assert gc.isenabled()


@pytest.mark.parametrize("call", sorted(PAUSED_CALLS))
def test_callers_disabled_collector_stays_off(call):
    run = PAUSED_CALLS[call](gen_random_instance(60, 8, 6, 3))
    gc.disable()
    try:
        run()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_collector_stays_off_across_frames(monkeypatch):
    """The per-frame `_route` calls nest in the driver's pause and must not
    switch the collector back on between frames."""
    inst = gen_random_instance(60, 8, 6, 3)
    enabled = []
    real = schedulers.unicast_frame_schedule

    def spy(*args, **kwargs):
        result = real(*args, **kwargs)
        enabled.append(gc.isenabled())
        return result

    monkeypatch.setattr(schedulers, "unicast_frame_schedule", spy)
    frame_multicast_schedule(inst, 5, ell=2)
    assert len(enabled) > 1
    assert not any(enabled)
    assert gc.isenabled()


def test_schedulers_never_build_a_chunk_edge_map(monkeypatch):
    """The frames, deterministic and congest paths never read a chunk's edge
    map, so no decomposition they schedule holds one: it is derived on read."""
    inst = gen_random_instance(200, 12, 10, 3)
    seen = []
    real = frame_schedule_from_decomps

    def spy(instance, decomps, *args, **kwargs):
        seen.append(decomps)
        return real(instance, decomps, *args, **kwargs)

    decomps = build_short_decompositions(inst, 3)
    frame_schedule_from_decomps(inst, decomps, 3, 0)
    monkeypatch.setattr(schedulers, "frame_schedule_from_decomps", spy)
    monkeypatch.setattr(congest, "frame_schedule_from_decomps", spy)
    deterministic_schedule(inst, 10**6)
    for depths_known in (False, True):
        distributed_multicast(inst, depths_known=depths_known)
    assert len(seen) == 3
    for dec in (d for ds in (decomps, *seen) for d in ds.values()):
        assert "edge_to_path" not in vars(dec)
