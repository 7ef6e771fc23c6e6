"""Recursive hard instances whose optimal schedules need C*D/2 rounds,
plus structural checkers and a tiny-instance exact optimum search."""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from dataclasses import dataclass

from .model import (
    Graph,
    MulticastInstance,
    MulticastTree,
    compute_metrics,
    validate_instance,
)
from .schedule import Schedule, _gc_paused


@dataclass(frozen=True)
class LowerBoundInstance:
    instance: MulticastInstance  # tree i carries label i and message i


def interleave(s1: frozenset, s2: frozenset) -> list[frozenset]:
    """All unions of a half-size subset of each of two disjoint C-sets."""
    if len(s1) != len(s2):
        raise ValueError("label sets must have equal size")
    c = len(s1)
    if c % 2 != 0:
        raise ValueError("label set size must be even")
    if s1 & s2:
        raise ValueError("label sets must be disjoint")
    half = c // 2
    out = []
    for a in itertools.combinations(sorted(s1), half):
        for b in itertools.combinations(sorted(s2), half):
            out.append(frozenset(a) | frozenset(b))
    return out


def interleavings(sets: tuple[frozenset, ...]):
    """Lazily stream the Cartesian product of pairwise interleavings."""
    if len(sets) % 2 != 0:
        raise ValueError("partition must have an even number of sets")
    pair_choices = [
        interleave(sets[2 * i], sets[2 * i + 1]) for i in range(len(sets) // 2)
    ]
    return itertools.product(*pair_choices)


def _construct(sets, roots, alloc, edges):
    """Build the gadget for one partition, hanging sets[i] from roots[i].

    alloc yields fresh node ids, in the order nodes first appear in `edges`,
    which accumulates (parent, child, label set). The top level passes
    roots=None and gets fresh roots; every sub-gadget is rooted at the guess
    vertices one level up (step 3 of the construction).
    """
    pick = alloc if roots is None else iter(roots)
    if len(sets) == 1:
        r, v = next(pick), next(alloc)
        edges.append((r, v, sets[0]))
        return
    joint = []
    for i in range(0, len(sets), 2):
        r1, vi, r2 = next(pick), next(alloc), next(pick)
        edges.append((r1, vi, sets[i]))
        edges.append((r2, vi, sets[i + 1]))
        joint.append(vi)
    for combo in interleavings(sets):
        _construct(combo, joint, alloc, edges)


def build_lowerbound(
    congestion: int, depth: int, bit_cap: int = 64
) -> LowerBoundInstance:
    """Recursive construction over congestion*2^(depth-1) labels; every edge
    carries exactly `congestion` labels and every label induces a tree of
    depth exactly `depth`."""
    if congestion < 2 or congestion % 2 != 0:
        raise ValueError("congestion must be even and >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if congestion * 2 ** (depth + 1) > bit_cap:
        raise ValueError(
            f"parameters too large: congestion*2^(depth+1) = "
            f"{congestion * 2 ** (depth + 1)} exceeds cap {bit_cap} "
            f"(node count may reach 2^{congestion * 2 ** (depth + 1)})"
        )
    labels = list(range(congestion * 2 ** (depth - 1)))
    sets = tuple(
        frozenset(labels[i * congestion : (i + 1) * congestion])
        for i in range(2 ** (depth - 1))
    )
    alloc = itertools.count()
    edges: list[tuple[int, int, frozenset]] = []
    _construct(sets, None, alloc, edges)

    parents: dict[int, dict[int, int]] = {lab: {} for lab in labels}
    for p, c, labelset in edges:
        for lab in labelset:
            parents[lab][c] = p
    # the top level's first edges hang sets[0], sets[1], ... from their roots
    root = {lab: edges[i][0] for i, s in enumerate(sets) for lab in s}
    graph = Graph.build(next(alloc), [(p, c) for p, c, _ in edges])
    trees = [MulticastTree(lab, root[lab], parents[lab], lab) for lab in labels]

    instance = MulticastInstance.build(graph, trees)
    problems = validate_instance(instance)
    if problems:
        raise AssertionError(f"construction produced invalid instance: {problems[:3]}")
    return LowerBoundInstance(instance)


def predicted_edge_count(congestion: int, depth: int) -> int:
    """Edge-count recursion: m_1 = 1, m_D = 2^(D-1) + binom(C, C/2)^(2^(D-1)) * m_(D-1)."""
    m = 1
    for d in range(2, depth + 1):
        m = 2 ** (d - 1) + math.comb(congestion, congestion // 2) ** (2 ** (d - 1)) * m
    return m


@dataclass
class LemmaReport:
    congestion_ok: bool
    dilation_ok: bool
    trees_ok: bool
    node_bound_ok: bool
    failures: list[str]

    @property
    def all_ok(self) -> bool:
        return not self.failures


def check_lemmas(lb: LowerBoundInstance, congestion: int, depth: int) -> LemmaReport:
    """Verify the structural properties of a built hard instance."""
    failures: list[str] = []
    inst = lb.instance
    per_edge: dict[tuple[int, int], int] = defaultdict(int)
    for t in inst.trees:
        for e in t.edges:
            per_edge[e] += 1
    bad_edges = [e for e in inst.graph.edges if per_edge.get(e, 0) != congestion]
    congestion_ok = not bad_edges
    if bad_edges:
        failures.append(f"edges without exactly {congestion} labels: {bad_edges[:3]}")
    metrics = compute_metrics(inst)
    if metrics.congestion != congestion:
        congestion_ok = False
        failures.append(f"congestion {metrics.congestion} != {congestion}")

    bad_depth = [t.tree_id for t in inst.trees if t.max_depth != depth]
    dilation_ok = not bad_depth and metrics.dilation == depth
    if bad_depth:
        failures.append(f"trees without depth exactly {depth}: {bad_depth[:5]}")

    unrooted = [t.tree_id for t in inst.trees if not t.is_clean]
    failures += [f"label {tid} does not induce a rooted tree" for tid in unrooted]
    problems = validate_instance(inst)
    trees_ok = not unrooted and not problems
    if problems:
        failures.append(f"instance invalid: {problems[:3]}")

    bound = 2 ** (congestion * 2 ** (depth + 1))
    node_bound_ok = inst.graph.node_count <= bound
    if not node_bound_ok:
        failures.append(f"node count {inst.graph.node_count} exceeds 2^(C*2^(D+1))")
    return LemmaReport(congestion_ok, dilation_ok, trees_ok, node_bound_ok, failures)


def pad_to_n(lb: LowerBoundInstance, n: int) -> MulticastInstance:
    """Append isolated dummy nodes until the graph has n nodes."""
    inst = lb.instance
    if n < inst.graph.node_count:
        raise ValueError(
            f"cannot pad down: have {inst.graph.node_count} nodes, asked for {n}"
        )
    graph = Graph(n, inst.graph.edges)
    return MulticastInstance(graph, inst.trees)


@dataclass(frozen=True, slots=True)
class EdgeDelayResult:
    edge: tuple[int, int]
    congestion: int
    check_round: int
    delayed_trees: tuple[int, ...]
    required: int

    @property
    def passed(self) -> bool:
        return len(self.delayed_trees) >= self.required


@dataclass
class MarkovReport:
    per_edge: list[EdgeDelayResult]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.per_edge)


@_gc_paused
def markov_delay_check(
    instance: MulticastInstance, schedule: Schedule
) -> MarkovReport:
    """For each edge shared by c >= 2 trees: after floor(c/2) rounds from the
    first round any of its messages could cross, at least ceil(c/2) of those
    trees must not have crossed yet (at most one message per round crossed)."""
    rounds, _, receivers, mids = schedule.columns
    receipt: dict[int, dict[int, int]] = defaultdict(dict)  # message -> node -> first round
    for r, v, mid in zip(rounds, receivers, mids):
        got = receipt[mid]
        if r < got.get(v, math.inf):
            got[v] = r

    # each node c below a tree's root names one tree edge, which a message
    # could cross first in round depth(c)
    users: dict[tuple[int, int], int] = defaultdict(int)
    first: dict[tuple[int, int], int] = {}
    for t in instance.trees:
        parent = t.parent
        for c, d in itertools.islice(t.depth.items(), 1, None):
            p = parent[c]
            edge = (c, p) if c < p else (p, c)
            users[edge] += 1
            if d < first.get(edge, math.inf):
                first[edge] = d
    # after floor(c/2) rounds from `first`, at most floor(c/2) messages
    # crossed, so at least ceil(c/2) trees are still waiting
    check_round = {e: first[e] + c // 2 - 1 for e, c in users.items() if c >= 2}
    delayed = defaultdict(list)  # edge -> its delayed trees, in tree order
    for t in instance.trees:
        got, parent = receipt.get(t.message_id, {}), t.parent
        for c in itertools.islice(t.depth, 1, None):
            p = parent[c]
            edge = (c, p) if c < p else (p, c)
            if edge in check_round and got.get(c, math.inf) > check_round[edge]:
                delayed[edge].append(t.tree_id)
    return MarkovReport([
        EdgeDelayResult(e, users[e], r, tuple(delayed.get(e, ())), math.ceil(users[e] / 2))
        for e, r in sorted(check_round.items())
    ])


def exhaustive_opt(
    instance: MulticastInstance, horizon: int
) -> int | None:
    """Exact minimum schedule length by a round-by-round search over knowledge
    states, the sets of (node, message) pairs held; None if no schedule of
    length <= horizon exists. Each round, every edge with a message to move
    sends exactly one, in either direction.

    Knowledge only grows and an extra send never delays anyone, so a state
    contained in one reached no later cannot finish sooner, and is dropped.
    By induction on r, every state reachable in r rounds is contained in a
    kept state of round <= r, so the first round in which a new state holds
    the goal is the optimum.

    Guarded to toy sizes: <= 12 edges, <= 6 messages, horizon <= 8.
    """
    if len(instance.graph.edges) > 12:
        raise ValueError("too many edges for exhaustive search (max 12)")
    if len(instance.trees) > 6:
        raise ValueError("too many messages for exhaustive search (max 6)")
    if horizon > 8:
        raise ValueError("horizon too large for exhaustive search (max 8)")

    trees = instance.trees
    goal = frozenset(
        (leaf, t.message_id) for t in trees for leaf in t.leaves if leaf != t.root
    )
    start = frozenset((t.root, t.message_id) for t in trees)
    if goal <= start:
        return 0
    tree_edges = [(t.message_id, t.edges) for t in trees]  # `edges` is built on each read
    edges = [(u, v, [m for m, es in tree_edges if (u, v) in es])  # the messages using it
             for u, v in sorted(instance.graph.edges)]

    reached, frontier = [start], [start]  # kept states of all rounds; of the last one
    for r in range(1, horizon + 1):
        layer: list[frozenset] = []  # this round's maximal new states
        for state in frontier:
            moves = []  # per edge: the (receiver, message) deliveries it may make
            for u, v, mids in edges:
                out = [(v, m) if (u, m) in state else (u, m)
                       for m in mids if ((u, m) in state) != ((v, m) in state)]
                if out:
                    moves.append(out)
            for combo in itertools.product(*moves):
                new = state.union(combo)
                if goal <= new:
                    return r
                if not any(new <= s for s in itertools.chain(reached, layer)):
                    layer = [s for s in layer if not s <= new] + [new]
        reached += layer
        frontier = sorted(layer, key=len, reverse=True)
    return None
