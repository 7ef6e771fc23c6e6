"""Schedule construction: greedy, random-delay, frame-based, seed search, and
`run_scheduler`, which runs any of them or the CONGEST multicast by name."""

from __future__ import annotations

import heapq
import math
import random
from array import array
from collections import Counter, defaultdict
from dataclasses import dataclass

from .decomposition import PathDecomposition, short_decomposition
from .model import MulticastInstance, log2_ceil, norm_edge
from .schedule import Schedule, _append_round, _gc_paused, _new_columns


class SeedSearchError(RuntimeError):
    def __init__(self, budget: int, seed_cap: int, best_seed: int, best_congestion: int):
        super().__init__(
            f"no seed < {seed_cap} met frame-congestion budget {budget}; "
            f"best was seed {best_seed} with {best_congestion}"
        )
        self.best_seed = best_seed
        self.best_congestion = best_congestion


@_gc_paused
def _route(sources, below, value) -> Schedule:
    """Route messages down trees, one packet per edge per round.

    sources: (start round >= 1, key, message id, root) for each tree.
    below(key, node, depth) lists the children of `node`, at `depth` in tree
    `key`; a unicast path is a chain whose node at depth d is seq[d]. In each
    round each edge forwards its candidate hop of least (value(key, child,
    depth of child), key), and the child forwards from the next round on.
    Rounds before the first start round are skipped.
    """
    release = defaultdict(list)
    for source in sources:
        release[source[0]].append(source)
    waiting: dict[tuple[int, int], list] = {}  # edge -> heap of candidate hops

    def arm(key, mid, node, depth):
        for c in below(key, node, depth):
            hop = (value(key, c, depth + 1), key, mid, node, c, depth + 1)
            heapq.heappush(waiting.setdefault(norm_edge(node, c), []), hop)

    columns = _new_columns()  # one send per edge and round
    rnd, last_start = min(release, default=1) - 1, max(release, default=0)
    while waiting or rnd < last_start:
        rnd += 1
        for _, key, mid, root in release.pop(rnd, ()):
            arm(key, mid, root, 0)
        moved = []
        for edge in list(waiting):
            heap = waiting[edge]
            moved.append(heapq.heappop(heap))
            if not heap:
                del waiting[edge]
        rows = []
        for _, key, mid, parent, child, depth in moved:
            rows.append((parent, child, mid))
            arm(key, mid, child, depth)
        _append_round(columns, rnd, rows)
    return Schedule._of(columns, columns[0][-1] if columns[0] else 0)


def _route_instance(instance: MulticastInstance, start, value) -> Schedule:
    """Route every tree of the instance; tree `tid` starts in round start(tid)."""
    children = {t.tree_id: t.children for t in instance.trees}
    return _route(
        [(start(t.tree_id), t.tree_id, t.message_id, t.root) for t in instance.trees],
        lambda tid, node, depth: children[tid].get(node, ()),
        value,
    )


def greedy_schedule(instance: MulticastInstance) -> Schedule:
    """Per round and edge, forward the eligible message with the deepest
    undelivered subtree below it; length is at most C*D."""
    height: dict[int, dict[int, int]] = {}  # tree id -> node -> height
    for t in instance.trees:
        h = height[t.tree_id] = dict.fromkeys(t.depth, 0)
        parent, root = t.parent, t.root
        for v in reversed(t.depth):  # children before their parents
            if v != root and h[v] >= h[parent[v]]:
                h[parent[v]] = h[v] + 1
    return _route_instance(instance, lambda tid: 1, lambda tid, c, depth: -height[tid][c])


def _draw_offsets(instance, ell: int, rng: random.Random) -> dict[int, int]:
    """Per-tree level offsets, uniform in [0, ceil(C / ell)), drawn from rng."""
    if ell < 1:
        raise ValueError("chunk length must be >= 1")
    span = max(1, math.ceil(instance.metrics.congestion / ell))
    return {t.tree_id: rng.randrange(span) for t in instance.trees}


def random_delay_schedule(instance: MulticastInstance, seed: int) -> Schedule:
    """Each tree waits a uniform delay in [0, C) and then forwards greedily."""
    delay = _draw_offsets(instance, 1, random.Random(seed))
    return _route_instance(
        instance, lambda tid: delay[tid] + 1, lambda tid, c, depth: delay[tid] + depth
    )


def _route_single_hops(seqs, mids, on_edge, start) -> Schedule:
    """`_route` for jobs of at most one hop, all released in round start + 1:
    each edge sends its jobs one per round, in index order.
    on_edge: edge -> its jobs in index order, at least one."""
    columns = _new_columns()
    queues, sent = list(on_edge.values()), 0  # edges with jobs left; jobs each has sent
    while queues:
        _append_round(columns, start + sent + 1, [(*seqs[q[sent]], mids[q[sent]]) for q in queues])
        sent += 1
        queues = [q for q in queues if len(q) > sent]
    return Schedule._of(columns, start + sent if sent else 0)


def unicast_frame_schedule(
    frame_paths, rng: random.Random, start: int = 0
) -> tuple[Schedule, int]:
    """Schedule one frame's unicasts along their given paths; returns the
    schedule and the frame's congestion C'.

    frame_paths: list of (source, node sequence, message_id). The frame
    begins after round `start`: its sends fall in rounds start + 1, ...
    A frame of dilation D' >= 2 gives each unicast a random delay in
    [0, C'), and on each edge the packet with the most hops left goes
    first; if that takes more than the C'*D' rounds of plain greedy
    routing, the frame is routed again with zero delays. A frame with
    D' <= 1 is one queue per edge, whose busiest edge needs C' rounds: zero
    delays take exactly that, so each edge sends its jobs in index order,
    and the frame draws nothing from rng.
    """
    seqs, mids = [], []
    for src, seq, mid in frame_paths:
        seq = tuple(seq)
        if src != seq[0]:
            raise ValueError("source must head its path")
        seqs.append(seq)
        mids.append(mid)
    dprime = max(map(len, seqs), default=1) - 1
    if dprime <= 1:
        on_edge = defaultdict(list)  # edge -> the jobs crossing it, in job order
        for jid, seq in enumerate(seqs):
            if len(seq) == 2:
                on_edge[norm_edge(*seq)].append(jid)
        cprime = max(map(len, on_edge.values()), default=0)
        return _route_single_hops(seqs, mids, on_edge, start), cprime

    load = Counter(norm_edge(a, b) for seq in seqs for a, b in zip(seq, seq[1:]))
    cprime = max(load.values())
    delays = [rng.randrange(cprime) if cprime > 1 else 0 for _ in seqs]

    def route(delays):
        return _route(
            [
                (start + d + 1, jid, mids[jid], seqs[jid][0])
                for jid, d in enumerate(delays)
            ],
            lambda jid, node, depth: seqs[jid][depth + 1 : depth + 2],
            lambda jid, c, depth: depth - len(seqs[jid]),
        )

    schedule = route(delays)
    if schedule.declared_length - start > cprime * dprime:
        schedule = route([0] * len(seqs))
    assert schedule.declared_length - start <= cprime * dprime
    return schedule, cprime


@_gc_paused
def build_short_decompositions(
    instance: MulticastInstance, ell: int
) -> dict[int, PathDecomposition]:
    return {
        t.tree_id: short_decomposition(t, ell)
        for t in instance.trees
        if t.max_depth > 0
    }


def _frames(decomps, offsets) -> dict[int, tuple[array, array]]:
    """Group the chunks into frames: chunk `pidx` of tree `tid` runs in frame
    level + offsets[tid]. Frames ascend, and each holds its chunks' keys as a
    column of tree ids and one of path indices, in (tree id, path index) order."""
    by_frame = defaultdict(lambda: (array("q"), array("q")))
    for tid in sorted(decomps):
        level, offset = decomps[tid].level, offsets[tid]
        for pidx in range(len(decomps[tid].paths)):
            tids, pidxs = by_frame[level[pidx] + offset]
            tids.append(tid)
            pidxs.append(pidx)
    return {f: by_frame[f] for f in sorted(by_frame)}


@_gc_paused
def frame_schedule_from_decomps(
    instance: MulticastInstance,
    decomps: dict[int, PathDecomposition],
    ell: int,
    seed: int,
    fixed_frame_length: int | None = None,
    *,
    start: int = 0,
) -> tuple[Schedule, dict[int, int]]:
    """Shift each tree's chunk levels by a random offset and run the frames
    sequentially, each as a simultaneous-unicast sub-problem routed from the
    round where the previous frame ended. The first frame begins after round
    `start`. Returns the schedule and each routed frame's congestion C'."""
    rng = random.Random(seed)  # draws the offsets, then the delays of each frame with D' >= 2
    frames = _frames(decomps, _draw_offsets(instance, ell, rng))

    by_id = instance.tree_by_id
    delivered = {t.tree_id: {t.root} for t in instance.trees}
    columns = _new_columns()
    congestion: dict[int, int] = {}  # frame -> C'
    clock = start
    for f, keys in frames.items():
        paths = []
        for tid, pidx in zip(*keys):
            seq = decomps[tid].paths[pidx]
            if seq[0] not in delivered[tid]:
                raise AssertionError(
                    f"chunk top {seq[0]} of tree {tid} not delivered before frame {f}"
                )
            paths.append((seq[0], seq, by_id[tid].message_id))
        frag, congestion[f] = unicast_frame_schedule(paths, rng, clock)
        for column, part in zip(columns, frag.columns):
            column.extend(part)  # rounds after the clock, in (round, u, v) order
        length = max(frag.declared_length - clock, 0)
        if fixed_frame_length is not None:
            if length > fixed_frame_length:
                raise ValueError(
                    f"frame {f} needs {length} rounds, "
                    f"over the fixed frame length {fixed_frame_length}"
                )
            clock += fixed_frame_length
        else:
            clock += length
        for tid, pidx in zip(*keys):
            delivered[tid].update(decomps[tid].paths[pidx])
    return Schedule._of(columns, columns[0][-1] if columns[0] else start), congestion


def frame_multicast_schedule(
    instance: MulticastInstance,
    seed: int,
    ell: int | None = None,
    fixed_frame_length: int | None = None,
) -> tuple[Schedule, dict[int, int]]:
    """Main scheduler: heavy-path decompositions cut into chunks of ell edges,
    random level offsets, frames run back to back. Returns the schedule and
    each routed frame's congestion C'."""
    if ell is None:
        ell = log2_ceil(instance.graph.node_count)
    decomps = build_short_decompositions(instance, ell)
    return frame_schedule_from_decomps(
        instance, decomps, ell, seed, fixed_frame_length
    )


def frame_congestion_profile(decomps, offsets) -> dict[int, int]:
    """Each frame's congestion C' under these offsets, without routing: the
    most of its chunks that cross one edge."""
    profile = {}
    for f, keys in _frames(decomps, offsets).items():
        load: Counter = Counter()
        for tid, pidx in zip(*keys):
            seq = decomps[tid].paths[pidx]
            load.update(map(norm_edge, seq, seq[1:]))
        profile[f] = max(load.values(), default=0)
    return profile


def deterministic_schedule(
    instance: MulticastInstance,
    congestion_budget: int,
    seed_cap: int = 256,
    ell: int | None = None,
) -> tuple[Schedule, int]:
    """Enumerate seeds until the frame-congestion profile fits the budget."""
    if congestion_budget < 1:
        raise ValueError("congestion_budget must be >= 1")
    if ell is None:
        ell = log2_ceil(instance.graph.node_count)
    decomps = build_short_decompositions(instance, ell)
    best_seed, best_cong = -1, None
    for seed in range(seed_cap):
        offsets = _draw_offsets(instance, ell, random.Random(seed))
        cong = max(frame_congestion_profile(decomps, offsets).values(), default=0)
        if best_cong is None or cong < best_cong:
            best_seed, best_cong = seed, cong
        if cong <= congestion_budget:
            schedule, _ = frame_schedule_from_decomps(instance, decomps, ell, seed)
            return schedule, seed
    raise SeedSearchError(congestion_budget, seed_cap, best_seed, best_cong or 0)


SCHEDULERS = ("greedy", "random-delay", "frames", "deterministic", "congest")


@dataclass(frozen=True)
class Run:
    """A schedule and the counts its scheduler reports: frames and max_frame_congestion
    for frames, chosen_seed for deterministic, congest_rounds for congest, else None."""

    schedule: Schedule
    frames: int | None = None
    max_frame_congestion: int | None = None
    chosen_seed: int | None = None
    congest_rounds: int | None = None


def run_scheduler(
    instance: MulticastInstance, name: str, seed: int, *, ell=None, budget=None
) -> Run:
    """Run the scheduler `name`, one of SCHEDULERS. `ell` is the chunk length of
    frames and deterministic. Deterministic ignores `seed` and searches seeds for
    one whose frame congestion is at most `budget`, 8 * ceil(log2 n) by default."""
    if name == "greedy":
        return Run(greedy_schedule(instance))
    if name == "random-delay":
        return Run(random_delay_schedule(instance, seed))
    if name == "frames":
        schedule, congestion = frame_multicast_schedule(instance, seed, ell)
        return Run(schedule, len(congestion), max(congestion.values(), default=0))
    if name == "deterministic":
        if budget is None:
            budget = 8 * log2_ceil(instance.graph.node_count)
        schedule, found = deterministic_schedule(instance, budget, ell=ell)
        return Run(schedule, chosen_seed=found)
    if name == "congest":
        from .congest import distributed_multicast  # congest.py imports this module
        schedule, rounds = distributed_multicast(instance, seed=seed, depths_known=True)
        return Run(schedule, congest_rounds=rounds)
    raise ValueError(f"unknown scheduler {name}")
