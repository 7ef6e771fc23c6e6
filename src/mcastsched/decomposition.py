"""Heavy-path and rank-based tree decompositions, with (l,k)-short refinement."""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property

from .model import MulticastTree, norm_edge


@dataclass(frozen=True)
class PathDecomposition:
    """Partition of a tree's edges into downward paths.

    Each path is a node sequence, top node first, consecutive nodes
    parent -> child. level maps a path index to 1 + the number of other
    decomposition paths strictly between the path's top node and the root.
    edge_to_path (normalized edge -> path index) is derived on first read.
    """

    paths: tuple[tuple[int, ...], ...]
    level: dict[int, int]

    @cached_property
    def edge_to_path(self) -> dict[tuple[int, int], int]:
        return {norm_edge(a, b): i for i, p in enumerate(self.paths) for a, b in zip(p, p[1:])}


@dataclass(frozen=True)
class RankMap:
    rank: dict[int, int]


def _decompose(
    tree: MulticastTree, weight: dict[int, int], ell: int | None
) -> PathDecomposition:
    """Preferred-chain decomposition in one top-down walk over tree.depth,
    which lists every parent before its children.

    A node's preferred child is its child of largest weight, ties toward the
    smallest id. A chain starts at the root or at a non-preferred child, takes
    its top node's parent edge, and follows preferred children; it is cut into
    chunks of at most ell edges as it is walked (ell None: no cut). A chunk's
    level is 1 + the level of the chunk that enters its top node (0 at the
    root). Chunks come out chain by chain, each chain at the place in
    tree.depth of the node that starts it.
    """
    children, parent, root = tree.children, tree.parent, tree.root
    preferred = {  # children are sorted, and max keeps the first of a tie
        v: max(ch, key=weight.__getitem__)
        for v in tree.depth
        if (ch := children.get(v))
    }
    cut = ell or len(tree.depth)
    paths: list[tuple[int, ...]] = []
    level: dict[int, int] = {}
    entry = {root: 0}  # node -> level of the chunk that enters it (0: none)
    for v in tree.depth:
        if v == root:
            prev, cur, lvl = root, preferred.get(root), 1
        elif preferred[parent[v]] == v:
            continue
        else:
            prev, cur = parent[v], v
            lvl = entry[prev] + 1  # one level below the chunk that enters prev
        if cur is None:
            continue
        pid, chunk = len(paths), [prev]
        while cur is not None:
            if len(chunk) > cut:
                paths.append(tuple(chunk))
                level[pid] = lvl
                pid, lvl, chunk = pid + 1, lvl + 1, [prev]
            chunk.append(cur)
            entry[cur] = lvl
            prev, cur = cur, preferred.get(cur)
        paths.append(tuple(chunk))
        level[pid] = lvl
    return PathDecomposition(tuple(paths), level)


def heavy_path_decomposition(tree: MulticastTree) -> PathDecomposition:
    """Each non-leaf's heavy edge goes to the child with the largest subtree,
    ties broken toward the smallest child id."""
    return _decompose(tree, tree.subtree_sizes(), None)


def short_decomposition(tree: MulticastTree, ell: int) -> PathDecomposition:
    """The heavy-path decomposition with every path cut top-down into chunks
    of at most ell edges, built in one walk."""
    if ell < 1:
        raise ValueError("chunk length must be >= 1")
    return _decompose(tree, tree.subtree_sizes(), ell)


def compute_ranks(tree: MulticastTree) -> RankMap:
    """Leaf rank 0; internal rank is the max child rank, +1 when the max is tied."""
    rank: dict[int, int] = {}
    for v in reversed(tree.depth):  # children before their parents
        ch = tree.children.get(v)
        if not ch:
            rank[v] = 0
        else:
            top = max(rank[c] for c in ch)
            ties = sum(1 for c in ch if rank[c] == top)
            rank[v] = top + 1 if ties > 1 else top
    return RankMap(rank)


def rank_decomposition(tree: MulticastTree) -> tuple[PathDecomposition, RankMap]:
    """Preferred edge goes to a child of highest rank, ties toward smallest id."""
    ranks = compute_ranks(tree)
    return _decompose(tree, ranks.rank, None), ranks


@dataclass(frozen=True)
class ShortReport:
    max_intersections: int
    bound: float
    passed: bool


def verify_short(
    decomposition: PathDecomposition, tree: MulticastTree, ell: int, k: int
) -> ShortReport:
    """Max number of decomposition paths met on any root-to-leaf walk,
    checked against depth/ell + k."""
    worst = 0
    for leaf in tree.leaves:
        met = set()
        v = leaf
        while v != tree.root:
            p = tree.parent[v]
            met.add(decomposition.edge_to_path[norm_edge(p, v)])
            v = p
        worst = max(worst, len(met))
    bound = tree.max_depth / ell + k
    return ShortReport(worst, bound, worst <= bound)


def decomposition_to_json(decomposition: PathDecomposition) -> str:
    doc = {
        "paths": [list(p) for p in decomposition.paths],
        "levels": [decomposition.level[i] for i in range(len(decomposition.paths))],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))
