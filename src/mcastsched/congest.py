"""Synchronous CONGEST simulation: bit-budgeted rounds, the distributed
rank-based decomposition, and the distributed multicast built on it."""

from __future__ import annotations

import math
import operator
import random
from collections import defaultdict, deque
from dataclasses import dataclass, field

from .decomposition import PathDecomposition, RankMap
from .model import (
    Graph,
    MulticastInstance,
    MulticastTree,
    compute_metrics,
    log2_ceil,
    norm_edge,
)
from .schedule import Schedule, _new_columns
from .schedulers import build_short_decompositions, frame_schedule_from_decomps


class BudgetViolation(RuntimeError):
    def __init__(self, round: int, edge: tuple[int, int], bits: int, budget: int):
        super().__init__(
            f"round {round}: {bits} bits on edge {edge} exceed budget {budget}"
        )
        self.round = round
        self.edge = edge


class RoundLimitError(RuntimeError):
    pass


@dataclass(frozen=True)
class CongestNetwork:
    graph: Graph
    bit_factor: int = 4

    @property
    def bits_per_edge_per_round(self) -> int:
        return self.bit_factor * log2_ceil(self.graph.node_count)


@dataclass
class CongestTranscript:
    """Per round, per directed edge, the bit string sent; and `steps`, the
    number of node steps the driver ran. Within one transcript, equal edge
    keys are one tuple and equal bit strings one string."""

    rounds: list[dict[tuple[int, int], str]] = field(default_factory=list)
    steps: int = 0

    @property
    def total_rounds(self) -> int:
        return len(self.rounds)

    @property
    def idle_rounds(self) -> int:
        """Rounds in which no node sent bits; each one advances the frame."""
        return sum(1 for rnd in self.rounds if not rnd)


@dataclass
class AuditReport:
    max_bits: int
    budget: int
    passed: bool


def message_size_audit(transcripts, budget: int) -> AuditReport:
    """Check the widest (round, edge, direction) payload against the bit budget."""
    if isinstance(transcripts, CongestTranscript):
        transcripts = [transcripts]
    max_bits = max(
        (len(bits) for tr in transcripts for rnd in tr.rounds for bits in rnd.values()),
        default=0,
    )
    return AuditReport(max_bits, budget, max_bits <= budget)


def run_congest(
    network: CongestNetwork, programs: dict[int, object], max_rounds: int
) -> CongestTranscript:
    """Synchronous rounds: the bits sent in round r are delivered together at
    the start of round r + 1.

    A program exposes `done`; `busy`, true while its last step left output
    queued; `release_frames`, fixed at construction, the frames at which it
    holds work to start; and `step(frame, inbox) -> {neighbor: bits}`.

    The driver owns the frame: the number of rounds so far in which no node
    sent bits (a global quiescence signal; time-frame schedules advance on
    it). Every program steps in round 0. After that a program steps only in
    a round in which it has mail, is `busy`, or the frame has just reached
    one of its release frames; a step in any other round would send nothing
    and change nothing. Stepped programs run in the order of `programs`, so
    each round's record lists its edges as stepping every node would.
    """
    budget = network.bits_per_edge_per_round
    edges = network.graph.edges
    transcript = CongestTranscript()
    position = {v: i for i, v in enumerate(programs)}
    releases: dict[int, list[int]] = defaultdict(list)
    for v, prog in programs.items():
        for f in prog.release_frames:
            releases[f].append(v)
    done = {v: prog.done for v, prog in programs.items()}
    pending = sum(1 for d in done.values() if not d)
    frame = 0
    inbox: dict[int, dict[int, str]] = {}
    wake: set[int] = set(programs)  # nodes due to step without mail
    empty: dict[int, str] = {}
    keys: dict[tuple[int, int], tuple[int, int]] = {}  # one tuple per directed edge
    payloads: dict[str, str] = {}  # one string per distinct payload
    for r in range(max_rounds):
        if not inbox and not pending:
            return transcript
        delivered, inbox = inbox, {}
        wake.update(delivered)
        order = sorted(wake, key=position.__getitem__)
        wake = set()
        record: dict[tuple[int, int], str] = {}
        for v in order:
            prog = programs[v]
            out = prog.step(frame, delivered.get(v, empty))
            if prog.busy:
                wake.add(v)
            if prog.done != done[v]:
                done[v] = not done[v]
                pending += -1 if done[v] else 1
            for u, bits in out.items():
                if not bits:
                    continue
                if norm_edge(v, u) not in edges:
                    raise ValueError(f"node {v} sent on non-edge ({v},{u})")
                if len(bits) > budget:
                    raise BudgetViolation(r, (v, u), len(bits), budget)
                bits, key = payloads.setdefault(bits, bits), (v, u)
                record[keys.setdefault(key, key)] = bits
                inbox.setdefault(u, {})[v] = bits
        transcript.steps += len(order)
        transcript.rounds.append(record)
        if not record:
            frame += 1
            wake.update(releases.get(frame, ()))
    if inbox or pending:
        raise RoundLimitError(f"no convergence within {max_rounds} rounds")
    return transcript


# ---------------------------------------------------------------------------
# bit packing

def _bits(value: int, width: int) -> str:
    return format(value, f"0{width}b")


def _width(max_value: int) -> int:
    return max(1, max_value.bit_length())


@dataclass(frozen=True)
class _Params:
    congestion: int
    dilation: int
    chunk_length: int
    rank_bits: int
    idx_bits: int
    counter_bits: int
    budget: int


def _make_params(instance, chunk_length, budget) -> _Params:
    metrics = compute_metrics(instance)
    n = instance.graph.node_count
    c = max(1, metrics.congestion)
    d = max(1, metrics.dilation)
    p = _Params(
        congestion=c,
        dilation=d,
        chunk_length=chunk_length,
        rank_bits=_width(max(1, math.floor(math.log2(max(2, n))))),
        idx_bits=_width(c - 1),
        counter_bits=_width(max(1, chunk_length - 1)),
        budget=budget,
    )
    # rank: (rank, idx); preferred: (idx, one bit); refine: (idx, counter)
    width, phase = max(
        (p.rank_bits, "rank"), (1, "preferred"), (p.counter_bits, "refine")
    )
    widest = p.idx_bits + width
    if widest > p.budget:
        raise ValueError(
            f"bit budget {p.budget} cannot carry a {widest}-bit {phase} message; "
            f"increase bit_factor"
        )
    return p


def _polylog(n: int, k: int, epsilon: float) -> int:
    """ceil(log2(n)^(k + epsilon)), at least 1; a ValueError naming epsilon
    when the power is not finite."""
    try:
        value = math.log2(max(2, n)) ** (k + epsilon)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"epsilon={epsilon}: log2(n)^({k}+epsilon) is not finite")
    return max(1, math.ceil(value))


def tree_offsets(instance, seed: int | str, span: int) -> dict[int, int]:
    """Shared-randomness offsets in [0, span): every node derives the same
    X_T locally, from the string f"{seed}:{tree id}"."""
    return {
        t.tree_id: random.Random(f"{seed}:{t.tree_id}").randrange(max(1, span))
        for t in instance.trees
    }


@dataclass(slots=True)
class _NodeRecord:
    """One node's knowledge across the three phases: for each tree through
    it, its parent there (None at the root) and its children; the edge-tree
    table; and what the phases leave behind (rank and preferred child from
    the rank phase, the parent-edge counter from the refine phase)."""

    trees: dict = field(default_factory=dict)  # tid -> (parent, children)
    edge_trees: dict = field(default_factory=dict)  # nbr -> tids; filled on first use
    rank: dict = field(default_factory=dict)  # tid -> own rank
    preferred: dict = field(default_factory=dict)  # tid -> child at the top rank
    counter: dict = field(default_factory=dict)  # tid -> parent-edge counter

    def trees_on_edge(self, nbr) -> list[int]:
        """Ids of the trees using the edge to `nbr`, ascending: identical at
        both endpoints, so a tree's position is its message tag there."""
        if not self.edge_trees:
            for tid, (parent, children) in self.trees.items():
                if parent is not None:
                    self.edge_trees.setdefault(parent, []).append(tid)
                for c in children:
                    self.edge_trees.setdefault(c, []).append(tid)
            for tids in self.edge_trees.values():
                tids.sort()
        return self.edge_trees[nbr]


class _PhaseProgram:
    """Common plumbing: per-neighbor message queues drained under the bit
    budget, work held until the frame reaches its tree's offset X_T, and
    `expect`, the events still awaited. Results go into the node's record;
    the program itself ends with its phase."""

    def __init__(self, record: _NodeRecord, params, offsets):
        self.record = record
        self.params = params
        self.offsets = offsets
        self.queues: dict[int, deque[str]] = defaultdict(deque)
        self.busy = False
        self.held: dict[int, list[int]] = defaultdict(list)  # frame -> tids
        self.expect = 0

    def hold(self, tid):
        self.held[self.offsets[tid]].append(tid)

    @property
    def release_frames(self):
        return self.held.keys()

    def release(self, frame) -> list[int]:
        """The held trees due at `frame`; the driver steps this program in the
        round in which the frame reaches each of its release frames."""
        return self.held.pop(frame, [])

    def drain(self) -> dict[int, str]:
        out = {}
        budget = self.params.budget
        busy = False
        for nbr, q in self.queues.items():
            payload = []
            used = 0
            while q and used + len(q[0]) <= budget:
                msg = q.popleft()
                payload.append(msg)
                used += len(msg)
            if payload:
                out[nbr] = "".join(payload)
            if q:
                busy = True
        self.busy = busy
        return out

    @property
    def done(self) -> bool:
        return not self.held and not self.expect and not self.busy


class _RankProgram(_PhaseProgram):
    """Bottom-up rank convergecast. Leaves of tree T start once frame X_T is
    reached; internal nodes report to their parent as soon as every child has.
    Each message carries (rank, edge-tree index). `expect` counts the roots
    still waiting for their rank."""

    def __init__(self, record, params, offsets):
        super().__init__(record, params, offsets)
        self.waiting = {}  # tid -> number of children still silent
        self.top = {}  # tid -> highest child rank so far
        self.ties = {}  # tid -> number of children at that rank
        for tid, (parent, children) in record.trees.items():
            if children:
                self.waiting[tid] = len(children)
                if parent is None:
                    self.expect += 1
            else:
                record.rank[tid] = 0
                if parent is not None:
                    self.hold(tid)

    def step(self, frame, inbox):
        p = self.params
        rec = self.record
        width = p.rank_bits + p.idx_bits
        ready = self.release(frame)  # leaves whose tree starts now
        for nbr, payload in inbox.items():
            trees = rec.trees_on_edge(nbr)
            for i in range(0, len(payload), width):
                msg = payload[i : i + width]
                rank = int(msg[: p.rank_bits], 2)
                idx = int(msg[p.rank_bits : p.rank_bits + p.idx_bits], 2)
                tid = trees[idx]
                top = self.top.get(tid, -1)
                if rank > top:
                    self.top[tid], self.ties[tid], rec.preferred[tid] = rank, 1, nbr
                elif rank == top:
                    self.ties[tid] += 1
                    rec.preferred[tid] = min(rec.preferred[tid], nbr)
                self.waiting[tid] -= 1
                if not self.waiting[tid]:
                    top = self.top[tid]
                    rec.rank[tid] = top + 1 if self.ties[tid] > 1 else top
                    if rec.trees[tid][0] is not None:
                        ready.append(tid)
                    else:
                        self.expect -= 1
        for tid in sorted(ready):
            parent = rec.trees[tid][0]
            idx = rec.trees_on_edge(parent).index(tid)
            self.queues[parent].append(
                _bits(rec.rank[tid], p.rank_bits) + _bits(idx, p.idx_bits)
            )
        return self.drain()


class _PreferredProgram(_PhaseProgram):
    """Downward notification, one tagged bit per (tree, child): whether the
    child's edge is the parent's preferred (highest-rank) edge.

    Nothing reads the bits on arrival: the refine phase takes the preferred
    child from the parent's side, which the rank phase already knows. The
    phase still runs because the paper's algorithm sends these bits, and
    their rounds and bits are part of the reported CONGEST cost. A node only
    counts them, to know when it is done."""

    def __init__(self, record, params, offsets):
        super().__init__(record, params, offsets)
        for tid, (parent, children) in record.trees.items():
            if children:
                self.hold(tid)
            if parent is not None:
                self.expect += 1  # parent-edge bits still to arrive

    def step(self, frame, inbox):
        p = self.params
        rec = self.record
        width = p.idx_bits + 1
        for payload in inbox.values():
            self.expect -= len(payload) // width
        for tid in sorted(self.release(frame)):
            best = rec.preferred[tid]
            for c in rec.trees[tid][1]:
                idx = rec.trees_on_edge(c).index(tid)
                bit = "1" if c == best else "0"
                self.queues[c].append(_bits(idx, p.idx_bits) + bit)
        return self.drain()


class _RefineProgram(_PhaseProgram):
    """Top-down chunk refinement: a counter walks down each preferred chain
    and wraps modulo the chunk length; light edges restart it at zero."""

    def __init__(self, record, params, offsets):
        super().__init__(record, params, offsets)
        for tid, (parent, children) in record.trees.items():
            if parent is not None:
                self.expect += 1  # parent-edge counters still to arrive
            elif children:
                self.hold(tid)

    def _emit(self, tid, own_counter):
        p = self.params
        rec = self.record
        for c in rec.trees[tid][1]:
            if c == rec.preferred.get(tid) and own_counter is not None:
                val = (own_counter + 1) % p.chunk_length
            else:
                val = 0
            idx = rec.trees_on_edge(c).index(tid)
            self.queues[c].append(_bits(idx, p.idx_bits) + _bits(val, p.counter_bits))

    def step(self, frame, inbox):
        p = self.params
        rec = self.record
        width = p.idx_bits + p.counter_bits
        for nbr, payload in inbox.items():
            trees = rec.trees_on_edge(nbr)
            for i in range(0, len(payload), width):
                msg = payload[i : i + width]
                tid = trees[int(msg[: p.idx_bits], 2)]
                val = int(msg[p.idx_bits :], 2)
                rec.counter[tid] = val
                self.expect -= 1
                self._emit(tid, val)
        for tid in self.release(frame):  # roots whose tree starts now
            self._emit(tid, None)
        return self.drain()


@dataclass
class DistributedDecomposition:
    decompositions: dict[int, PathDecomposition]
    ranks: dict[int, RankMap]
    chunk_length: int
    rounds: int
    transcripts: list[CongestTranscript]


def _assemble_chunks(tree, records) -> PathDecomposition:
    """Rebuild the chunked paths from per-node counters: an edge whose child
    counter is zero opens a chunk; the chunk follows preferred edges until
    the counter wraps. Chunks open in tree.depth order (parents first), so
    the chunk entering a chunk's top node is already built: the new chunk's
    level is that chunk's plus 1 (1 at the root)."""
    tid = tree.tree_id
    chunks, level = [], {}
    entry = {tree.root: 0}  # node -> level of the chunk that enters it
    for u in tree.depth:
        if u == tree.root or records[u].counter[tid] != 0:
            continue
        seq = [tree.parent[u], u]
        cur = records[u].preferred.get(tid)
        while cur is not None and records[cur].counter[tid] != 0:
            seq.append(cur)
            cur = records[cur].preferred.get(tid)
        level[len(chunks)] = lvl = entry[seq[0]] + 1
        entry.update(dict.fromkeys(seq[1:], lvl))
        chunks.append(tuple(seq))
    return PathDecomposition(tuple(chunks), level)


def distributed_rank_decomposition(
    instance: MulticastInstance,
    epsilon: float = 0.25,
    seed: int = 0,
    bit_factor: int = 4,
) -> DistributedDecomposition:
    """Three CONGEST phases: rank convergecast, preferred-edge notification,
    and top-down refinement into chunks of length ceil(log2(n)^(1+epsilon)).
    Each phase's programs live only while the phase runs; what a node learns
    stays in its record."""
    n = instance.graph.node_count
    chunk_length = _polylog(n, 1, epsilon)
    network = CongestNetwork(instance.graph, bit_factor)
    params = _make_params(instance, chunk_length, network.bits_per_edge_per_round)
    offsets = tree_offsets(instance, seed, params.congestion)

    # nodes in no tree never send or receive; ascending ids keep the step order
    records = {v: _NodeRecord() for v in sorted({v for t in instance.trees for v in t.depth})}
    for t in instance.trees:
        for v in t.depth:
            parent = None if v == t.root else t.parent[v]
            records[v].trees[t.tree_id] = (parent, t.children.get(v, ()))
    transcripts = [
        run_congest(
            network,
            {v: phase(rec, params, offsets) for v, rec in records.items()},
            256 + 64 * (params.congestion + params.dilation),
        )
        for phase in (_RankProgram, _PreferredProgram, _RefineProgram)
    ]

    decomps = {}
    ranks = {}
    for t in instance.trees:
        if t.max_depth == 0:
            continue
        decomps[t.tree_id] = _assemble_chunks(t, records)
        ranks[t.tree_id] = RankMap({v: records[v].rank[t.tree_id] for v in t.depth})

    rounds = sum(tr.total_rounds for tr in transcripts)
    return DistributedDecomposition(decomps, ranks, chunk_length, rounds, transcripts)


def _level_range_slices(tree, band: int):
    """Split a tree into forests of `band` consecutive depth levels; yields
    (range_index, slice root, slice tree as a parent map), ranges in order
    and each range's slices in the order tree.depth meets them."""
    ranges = defaultdict(dict)  # range index -> slice root -> parent map
    slice_root = {}
    for c, d in tree.depth.items():  # each parent before its children
        if c != tree.root:
            p = tree.parent[c]
            r, top = divmod(d - 1, band)
            slice_root[c] = s = p if top == 0 else slice_root[p]
            ranges[r].setdefault(s, {})[c] = p
    for r in sorted(ranges):
        for root, comp in ranges[r].items():
            yield r, root, comp


def distributed_multicast(
    instance: MulticastInstance,
    epsilon: float = 0.25,
    seed: int = 0,
    depths_known: bool = False,
    bit_factor: int = 4,
) -> tuple[Schedule, int]:
    """Distributed multicast; returns the realized schedule and CONGEST rounds.

    With depths_known, trees are sliced into ranges of L = ceil(log2(n)^(2+eps))
    consecutive levels, delayed by X_T time frames, and each frame's slices,
    numbered 0, 1, ... as trees of their own, go through the frames driver
    at seed `seed * 7919 + frame`, from the round where the previous frame
    ended. When C and D are both <= L (ceil(log2(n)^2.25) at the default
    eps), every tree is one slice and every delay is 0, so there is one
    frame. A clean tree (root parentless, each parent entry reachable) that
    fits in one range at a place in its frame equal to its id is its own
    slice: the frame holds the tree itself, parent map and views not copied.
    Without depths_known, the distributed rank decomposition runs first and
    the schedule is built over its chunks.
    """
    n = instance.graph.node_count
    if not depths_known:
        dist = distributed_rank_decomposition(instance, epsilon, seed, bit_factor)
        schedule, _ = frame_schedule_from_decomps(
            instance, dist.decompositions, dist.chunk_length, seed
        )
        return schedule, dist.rounds + schedule.declared_length

    band = _polylog(n, 2, epsilon)
    span = max(1, math.ceil(compute_metrics(instance).congestion / band))
    offsets = tree_offsets(instance, f"{seed}:mc", span)
    by_frame = defaultdict(list)  # frame -> its slices, as trees 0, 1, ...
    for t in instance.trees:
        if (0 < t.max_depth <= band and len(slices := by_frame[offsets[t.tree_id]]) == t.tree_id
                and t.is_clean):
            slices.append(t)  # a clean one-band tree is its own only slice
            continue
        for r, root, comp in _level_range_slices(t, band):
            slices = by_frame[offsets[t.tree_id] + r]
            # a slice keeps its tree's message: the driver keys by tree id only
            slices.append(MulticastTree(len(slices), root, comp, t.message_id))

    ell = log2_ceil(n)
    columns = _new_columns()
    clock = 0
    for f in sorted(by_frame):
        trees = by_frame[f]  # when these are the instance's trees, its cached views are kept
        whole = len(trees) == len(instance.trees) and all(map(operator.is_, trees, instance.trees))
        sub = instance if whole else MulticastInstance.build(instance.graph, trees)
        frag, _ = frame_schedule_from_decomps(
            sub, build_short_decompositions(sub, ell), ell, seed * 7919 + f, start=clock
        )
        for column, part in zip(columns, frag.columns):
            column.extend(part)  # rounds after the clock, in (round, u, v) order
        clock = frag.declared_length
    return Schedule._of(columns, clock), clock
