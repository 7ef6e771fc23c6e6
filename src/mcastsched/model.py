"""Core data model: store-and-forward networks and simultaneous multicast instances."""

from __future__ import annotations

import json
import math
import random
import re
import reprlib
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, filterfalse, islice
from typing import Collection, Iterable, Mapping


def norm_edge(u: int, v: int) -> tuple[int, int]:
    """Canonical unordered-edge key (smaller endpoint first)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on nodes 0..node_count-1."""

    node_count: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on node {u}")
            if not (0 <= u < self.node_count and 0 <= v < self.node_count):
                raise ValueError(f"edge ({u},{v}) endpoint out of range")
            if u > v:
                raise ValueError(f"edge ({u},{v}) not normalized")

    @classmethod
    def build(cls, node_count: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        return cls(node_count, frozenset(norm_edge(u, v) for u, v in edges))

    @cached_property
    def neighbors(self) -> dict[int, list[int]]:
        adj: dict[int, list[int]] = {v: [] for v in range(self.node_count)}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        for v in adj:
            adj[v].sort()
        return adj


@dataclass(frozen=True)
class MulticastTree:
    """A rooted tree given by a child -> parent map, carrying one message.

    The parent map may describe a malformed structure (cycles, disconnection);
    `validate_instance` reports such problems instead of the constructor
    raising, so derived views only cover nodes reachable from the root.
    """

    tree_id: int
    root: int
    parent: Mapping[int, int]
    message_id: int

    @cached_property
    def _views(self) -> tuple[dict, dict, frozenset]:
        """`children`, `depth` and `leaves`: one pass over `parent` groups the
        children, one stack walk from the root fills the rest."""
        root = self.root
        children: dict[int, list[int]] = {}
        for c, p in self.parent.items():
            if c != root:  # so no walk down from the root comes back to it
                children.setdefault(p, []).append(c)
        for ch in children.values():
            ch.sort()
        depth = {root: 0}
        leaves = []
        stack = [root]
        while stack:  # each reachable node has one parent, so none comes twice
            v = stack.pop()
            ch = children.get(v)
            if ch is None:
                leaves.append(v)
                continue
            d = depth[v] + 1
            for c in ch:
                depth[c] = d
            stack.extend(ch)
        return children, depth, frozenset(leaves)

    # Sorted children of each inner node, reachable or not; a parent entry
    # for the root (which `validate_instance` reports) is left out.
    children = cached_property(lambda self: self._views[0])
    # Hop distance from the root, for nodes reachable through the parent
    # map, the root first and each parent before its children.
    depth = cached_property(lambda self: self._views[1])
    leaves = cached_property(lambda self: self._views[2])

    @property
    def edges(self) -> frozenset[tuple[int, int]]:
        """Normalized tree edges, reachable part only (no root parent link),
        built on each read so that no tree keeps a set as large as itself."""
        return frozenset(norm_edge(c, self.parent[c]) for c in islice(self.depth, 1, None))

    @cached_property
    def is_clean(self) -> bool:
        """The walk from the root reaches every parent-map key; as it never
        counts the root as a key, a clean tree's root has no parent entry."""
        return len(self.depth) == len(self.parent) + 1

    @cached_property
    def max_depth(self) -> int:
        return max(self.depth.values())

    def subtree_sizes(self) -> dict[int, int]:
        """Node count of each subtree (the node itself included)."""
        size = dict.fromkeys(self.depth, 1)
        for v in reversed(self.depth):  # children before their parents
            if v != self.root:
                size[self.parent[v]] += size[v]
        return size


@dataclass(frozen=True)
class MulticastInstance:
    graph: Graph
    trees: tuple[MulticastTree, ...]

    @classmethod
    def build(cls, graph: Graph, trees: Iterable[MulticastTree]) -> "MulticastInstance":
        return cls(graph, tuple(trees))

    @cached_property
    def tree_by_message(self) -> dict[int, MulticastTree]:
        return {t.message_id: t for t in self.trees}

    @cached_property
    def tree_by_id(self) -> dict[int, MulticastTree]:
        return {t.tree_id: t for t in self.trees}

    @cached_property
    def metrics(self) -> InstanceMetrics:
        counts: Counter = Counter()
        for t in self.trees:  # each node below the root names one tree edge
            counts.update([norm_edge(c, t.parent[c]) for c in islice(t.depth, 1, None)])
        dilation = max((t.max_depth for t in self.trees), default=0)
        return InstanceMetrics(max(counts.values(), default=0), dilation)


@dataclass(frozen=True)
class InstanceMetrics:
    congestion: int
    dilation: int


def compute_metrics(instance: MulticastInstance) -> InstanceMetrics:
    """Congestion = max trees sharing an edge; dilation = max tree depth (cached)."""
    return instance.metrics


def validate_instance(instance: MulticastInstance) -> list[str]:
    """Return a list of invariant violations; empty iff the instance is valid."""
    problems: list[str] = []
    g = instance.graph
    seen_ids: set[int] = set()
    seen_msgs: set[int] = set()
    for t in instance.trees:
        if t.tree_id in seen_ids:
            problems.append(f"duplicate tree_id {t.tree_id}")
        seen_ids.add(t.tree_id)
        if t.message_id in seen_msgs:
            problems.append(f"duplicate message_id {t.message_id} (tree {t.tree_id})")
        seen_msgs.add(t.message_id)
        # A clean tree skips the per-link checks: its walk reached every child
        # and so every parent, so each link is a tree edge, its ends in range.
        if (t.is_clean and g.edges.issuperset(map(norm_edge, t.parent, t.parent.values()))
                and 0 <= t.root < g.node_count):
            continue
        nodes = {t.root}
        for c, p in t.parent.items():
            nodes.update((c, p))
        for v in frozenset(nodes):  # the order this list has always had
            if not (0 <= v < g.node_count):
                problems.append(f"tree {t.tree_id}: node {v} out of range")
        if t.root in t.parent:
            problems.append(f"tree {t.tree_id}: root {t.root} has a parent")
        for c, p in t.parent.items():
            if c == p:
                problems.append(f"tree {t.tree_id}: node {c} is its own parent")
            elif norm_edge(c, p) not in g.edges:
                problems.append(
                    f"tree {t.tree_id}: edge ({p},{c}) missing from host graph"
                )
        unreachable = nodes - set(t.depth)
        if unreachable:
            problems.append(
                f"tree {t.tree_id}: nodes {sorted(unreachable)} unreachable from "
                f"root {t.root} (cycle or disconnection)"
            )
    return problems


def gen_random_instance(
    node_count: int, tree_count: int, target_depth: int, seed: int
) -> MulticastInstance:
    """Random connected graph plus random multicast trees of depth <= target_depth."""
    if node_count < 2:
        raise ValueError("node_count must be >= 2")
    if tree_count < 1:
        raise ValueError("tree_count must be >= 1")
    if not (1 <= target_depth < node_count):
        raise ValueError("need 1 <= target_depth < node_count")
    rng = random.Random(seed)
    edges = set()
    for v in range(1, node_count):
        edges.add(norm_edge(v, rng.randrange(v)))
    for _ in range(node_count // 2):
        u, v = rng.sample(range(node_count), 2)
        edges.add(norm_edge(u, v))
    graph = Graph.build(node_count, edges)

    trees = []
    for tid in range(tree_count):
        root = rng.randrange(node_count)
        parent: dict[int, int] = {}
        depth = {root: 0}
        frontier = [root]
        while frontier:
            nxt = []
            for v in frontier:
                if depth[v] >= target_depth:
                    continue
                for w in graph.neighbors[v]:
                    if w not in depth and rng.random() < 0.6:
                        parent[w] = v
                        depth[w] = depth[v] + 1
                        nxt.append(w)
            frontier = nxt
        if not parent:
            w = graph.neighbors[root][rng.randrange(len(graph.neighbors[root]))]
            parent[w] = root
        trees.append(MulticastTree(tid, root, parent, tid))
    instance = MulticastInstance.build(graph, trees)
    assert not validate_instance(instance)
    return instance


def check_layered_params(node_count: int, congestion: int, depth: int,
                         prefix_cap: int | None, where: str = "") -> int:
    """Refuse what `gen_layered_instance` refuses under every seed, in a ValueError
    whose message starts with `where`; return the cap on the prefix lengths."""
    if depth >= node_count:
        raise ValueError(f"{where}depth must be < node_count")
    if congestion < 1:
        raise ValueError(f"{where}congestion must be >= 1")
    if depth < 0:
        raise ValueError(f"{where}depth must be >= 0")
    cap = depth if prefix_cap is None else min(prefix_cap, depth)
    if congestion > 1 and cap < 1:  # the other trees need a prefix of >= 1 edge
        name = "depth" if depth < 1 else "prefix_cap"
        raise ValueError(f"{where}{name} must be >= 1 when congestion > 1")
    return cap


def gen_layered_instance(
    node_count: int,
    congestion: int,
    depth: int,
    seed: int,
    prefix_cap: int | None = None,
) -> MulticastInstance:
    """Instance with congestion and dilation hitting the given targets exactly.

    A spine path 0, 1, ..., depth carries one full-depth tree; the remaining
    congestion-1 trees follow a random prefix of the spine (length capped by
    prefix_cap), so the first spine edge is shared by all trees.
    """
    cap = check_layered_params(node_count, congestion, depth, prefix_cap)
    rng = random.Random(seed)
    graph = Graph.build(node_count, [(i, i + 1) for i in range(depth)])
    trees = [MulticastTree(0, 0, {i + 1: i for i in range(depth)}, 0)]
    for tid in range(1, congestion):
        plen = rng.randint(1, cap)
        trees.append(MulticastTree(tid, 0, {i + 1: i for i in range(plen)}, tid))
    instance = MulticastInstance.build(graph, trees)
    assert not validate_instance(instance)
    return instance


def instance_to_json(instance: MulticastInstance) -> str:
    """Canonical JSON form: edges sorted, trees sorted by id, keys sorted."""
    doc = {
        "n": instance.graph.node_count,
        "edges": sorted([u, v] for u, v in instance.graph.edges),
        "trees": [
            {
                "id": t.tree_id,
                "root": t.root,
                "msg": t.message_id,
                "parent": {str(c): p for c, p in sorted(t.parent.items())},
            }
            for t in sorted(instance.trees, key=lambda t: t.tree_id)
        ],
    }
    return json.dumps(doc, sort_keys=True, indent=None, separators=(",", ":"))


REQUIRED = object()  # the default of a key that must be present
# What each kind admits, by the name messages give it; a bool is never an int.
KINDS = {
    "an integer": lambda x: type(x) is int,
    "an integer or null": lambda x: x is None or type(x) is int,
    "a list": lambda x: type(x) is list,
    "a list of integers": lambda x: type(x) is list and {*map(type, x)} <= {int},
    "an object": lambda x: type(x) is dict,
}


def check_kind(what: str, kind: str, values: Collection) -> None:
    """Raise a TypeError naming `what` and the first of `values` not of `kind`."""
    if kind == "an integer" and {*map(type, values)} <= {int}:  # bulk, no call per value
        return
    for x in filterfalse(KINDS[kind], values):
        raise TypeError(f"{what} must be {kind}, not {reprlib.repr(x)}")


def read_object(doc, where: str, fields: dict) -> list:
    """Check one JSON object against `fields`, which maps each allowed key to
    its (kind, default), and return the values in table order. An unknown key
    raises ValueError, a wrong kind (of `doc` too) TypeError, and a missing
    key KeyError if its default is REQUIRED; `where`, the object's path such
    as "tree 3: ", starts every message but a KeyError's."""
    check_kind(where.rstrip(": ") or "document", "an object", [doc])
    if unknown := doc.keys() - fields:
        raise ValueError(f"{where}unknown key {min(unknown)!r}")
    values = []
    for key, (kind, default) in fields.items():
        if key in doc:
            check_kind(where + key, kind, [doc[key]])
        elif default is REQUIRED:
            raise KeyError(key)
        values.append(doc.get(key, default))
    return values


_INSTANCE = {"n": ("an integer", REQUIRED), "edges": ("a list", REQUIRED),
             "trees": ("a list", REQUIRED)}
_TREE = {"id": ("an integer", REQUIRED), "root": ("an integer", REQUIRED),
         "msg": ("an integer", None), "parent": ("an object", REQUIRED)}
_NODE_KEY = re.compile(r"0|-?[1-9][0-9]*")  # str(c) of an int c
INT64 = range(-(2**63), 2**63)  # the ids a schedule's integer columns hold


def _outside_64_bits(ends: list[int], trees: list[MulticastTree]) -> ValueError:
    """The error naming the first id outside `INT64`: edge ends first, then
    each tree's id, root, message and parent map, trees in file order."""
    for i, v in enumerate(ends):
        if v not in INT64:
            return ValueError(f"edge {i // 2}: endpoint is outside the 64-bit range")
    for t in trees:
        for key, ids in (("id", [t.tree_id]), ("root", [t.root]), ("msg", [t.message_id]),
                         ("parent", chain.from_iterable(t.parent.items()))):
            if any(v not in INT64 for v in ids):
                return ValueError(f"tree {t.tree_id}: {key!r} is outside the 64-bit range")


def instance_from_json(text: str) -> MulticastInstance:
    """Parse an instance: `read_object` reads the document and each tree (a
    tree's message defaults to its id), and bulk passes check that each edge
    is a pair of int nodes and each parent map maps decimal keys to ints.
    Checked node ids are interned by first occurrence, in no table sized by
    `n`: each edge end, root, parent key and value is one int per node. A
    min and a max over them, the tree ids and the message ids refuse any id
    outside the 64-bit range, so that every later layer can store it."""
    n, edges, raw_trees = read_object(json.loads(text), "", _INSTANCE)
    if n < 1:
        raise ValueError(f"n must be >= 1, not {n}")
    for bad in (e for e in edges if type(e) is not list or len(e) != 2):
        raise ValueError(f"edge {reprlib.repr(bad)} is not a pair of nodes")
    ends = list(chain.from_iterable(edges))
    check_kind("edge endpoint", "an integer", ends)
    node: dict[int, int] = {}  # node id -> its one int object
    ends = list(map(node.setdefault, ends, ends))
    check_kind("tree", "an object", raw_trees)
    ids = [t["id"] for t in raw_trees]  # a tree's id names it in its messages
    check_kind("tree id", "an integer", ids)
    trees = []
    for tid, t in zip(ids, raw_trees):
        _, root, msg, raw = read_object(t, f"tree {tid}: ", _TREE)
        check_kind(f"tree {tid}: parent", "an integer", raw.values())
        for bad in filterfalse(_NODE_KEY.fullmatch, raw):
            raise ValueError(f"tree {tid}: parent key {bad!r} is not a decimal node id")
        keys, values = list(map(int, raw)), raw.values()
        parent = dict(zip(map(node.setdefault, keys, keys), map(node.setdefault, values, values)))
        root = node.setdefault(root, root)
        trees.append(MulticastTree(tid, root, parent, tid if msg is None else msg))
    bounds = (min(node, default=0), max(node, default=0), *ids, *(t.message_id for t in trees))
    if not (min(bounds) in INT64 and max(bounds) in INT64):
        raise _outside_64_bits(ends, trees)
    return MulticastInstance.build(Graph.build(n, zip(ends[::2], ends[1::2])), trees)


def log2_ceil(n: int) -> int:
    """ceil(log2 n); clamps to 1 for n < 2."""
    if n < 2:
        return 1
    return max(1, math.ceil(math.log2(n)))
