import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastsched import (
    MulticastTree,
    PathDecomposition,
    RankMap,
    compute_ranks,
    decomposition_to_json,
    distributed_rank_decomposition,
    heavy_path_decomposition,
    log2_ceil,
    norm_edge,
    rank_decomposition,
    short_decomposition,
    verify_short,
)
from conftest import random_tree
from test_golden import CORPUS


# --- oracles ---------------------------------------------------------------

def oracle_walk_paths(tree, decomposition):
    """Max number of distinct decomposition paths met on any root-to-leaf walk,
    by walking every leaf upward."""
    worst = 0
    for leaf in tree.leaves:
        met, v = set(), leaf
        while v != tree.root:
            met.add(decomposition.edge_to_path[norm_edge(tree.parent[v], v)])
            v = tree.parent[v]
        worst = max(worst, len(met))
    return worst


def oracle_edge_to_path(tree, decomposition):
    """The edge map the decompositions stored before it was derived on read:
    each tree edge, normalized, to the one path that steps from its parent
    end to its child end."""
    step = {}
    for i, p in enumerate(decomposition.paths):
        for a, b in zip(p, p[1:]):
            assert (a, b) not in step, (a, b)
            step[a, b] = i
    return {norm_edge(tree.parent[c], c): step[tree.parent[c], c]
            for c in tree.depth if c != tree.root}


def oracle_rank(tree, v):
    """Recursive rank definition, computed independently."""
    ch = tree.children.get(v, ())
    if not ch:
        return 0
    ranks = [oracle_rank(tree, c) for c in ch]
    top = max(ranks)
    return top + 1 if ranks.count(top) > 1 else top


def oracle_level(paths, pid):
    """1 + the number of paths strictly between path pid's top and the root,
    walking the parent pointers implied by the paths themselves."""
    parent = {}
    of_edge = {}
    for i, p in enumerate(paths):
        for a, b in zip(p, p[1:]):
            parent[b] = a
            of_edge[(a, b)] = i
    v = paths[pid][0]
    seen = set()
    while v in parent:
        seen.add(of_edge[(parent[v], v)])
        v = parent[v]
    return len(seen) + 1


def check_partition(tree, decomposition):
    """Every tree edge lies on exactly one path; paths run parent -> child."""
    covered = set()
    for p in decomposition.paths:
        for a, b in zip(p, p[1:]):
            assert tree.parent[b] == a
            e = norm_edge(a, b)
            assert e not in covered
            covered.add(e)
    assert covered == set(tree.edges)


# --- hand example ----------------------------------------------------------

def caterpillar():
    #        0
    #      / | \
    #     1  2  3
    #     |     |
    #     4     5
    #     |
    #     6
    return MulticastTree(0, 0, {1: 0, 2: 0, 3: 0, 4: 1, 5: 3, 6: 4}, 0)


def test_heavy_picks_largest_subtree_child():
    dec = heavy_path_decomposition(caterpillar())
    assert (0, 1, 4, 6) in dec.paths  # subtree of 1 has 3 nodes
    assert len(dec.paths) == 3


def test_heavy_tie_breaks_to_smallest_child_id():
    # node 1 has two leaf children 2 and 3: equal subtree sizes, pick 2
    t = MulticastTree(0, 0, {1: 0, 2: 1, 3: 1}, 0)
    dec = heavy_path_decomposition(t)
    assert (0, 1, 2) in dec.paths and (1, 3) in dec.paths
    assert dec.level[dec.paths.index((0, 1, 2))] == 1
    assert dec.level[dec.paths.index((1, 3))] == 2


def test_rank_hand_example():
    t = caterpillar()
    ranks = compute_ranks(t)
    assert ranks.rank[6] == 0 and ranks.rank[2] == 0
    assert ranks.rank[0] == 1  # three children all rank 0: tie at the max
    for v in t.depth:
        assert ranks.rank[v] == oracle_rank(t, v), v


def test_levels_hand_example():
    dec = heavy_path_decomposition(caterpillar())
    # every path starts at the root, so all sit at level 1
    assert all(dec.level[i] == 1 for i in range(len(dec.paths)))


# --- randomized oracle checks ----------------------------------------------

@pytest.mark.parametrize("seed", range(30))
@pytest.mark.parametrize("kind", ["heavy", "rank"])
def test_walk_bound_log_n(seed, kind):
    n = 10 + 37 * seed % 300
    tree = random_tree(max(4, n), seed)
    if kind == "heavy":
        dec = heavy_path_decomposition(tree)
    else:
        dec, _ = rank_decomposition(tree)
    check_partition(tree, dec)
    assert oracle_walk_paths(tree, dec) <= math.floor(math.log2(len(tree.depth))) + 1


@pytest.mark.parametrize("seed", range(15))
def test_rank_descendant_bound(seed):
    tree = random_tree(60, seed + 100)
    size = tree.subtree_sizes()
    ranks = compute_ranks(tree)
    for v, r in ranks.rank.items():
        assert size[v] >= 2**r


@pytest.mark.parametrize("seed", range(15))
def test_levels_match_oracle(seed):
    tree = random_tree(80, seed + 7)
    for dec in (heavy_path_decomposition(tree), rank_decomposition(tree)[0]):
        for i in range(len(dec.paths)):
            assert dec.level[i] == oracle_level(dec.paths, i), (seed, i)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 120), ell=st.integers(1, 10), seed=st.integers(0, 10**6))
def test_shorten_chunks_and_bound(n, ell, seed):
    tree = random_tree(n, seed)
    short = short_decomposition(tree, ell)
    check_partition(tree, short)
    assert all(len(p) - 1 <= ell for p in short.paths)
    k = math.ceil(math.log2(n)) + 1
    report = verify_short(short, tree, ell, k)
    assert report.max_intersections == oracle_walk_paths(tree, short)
    assert report.passed


def test_shorten_levels_count_paths_above():
    # single path of 6 edges, ell=2 -> 3 chunks at levels 0,1,2
    tree = MulticastTree(0, 0, {i: i - 1 for i in range(1, 7)}, 0)
    short = short_decomposition(tree, 2)
    assert sorted(short.paths) == [(0, 1, 2), (2, 3, 4), (4, 5, 6)]
    by_top = {p[0]: short.level[i] for i, p in enumerate(short.paths)}
    assert by_top == {0: 1, 2: 2, 4: 3}


def test_shorten_rejects_bad_ell():
    with pytest.raises(ValueError):
        short_decomposition(caterpillar(), 0)


def test_decomposition_json():
    dec = heavy_path_decomposition(caterpillar())
    doc = json.loads(decomposition_to_json(dec))
    assert set(doc) == {"paths", "levels"}
    assert len(doc["paths"]) == len(doc["levels"]) == len(dec.paths)


def test_root_with_parent_decomposes_its_edge_once():
    # the root's parent entry (which validate_instance reports) is ignored
    t = MulticastTree(0, 0, {0: 1, 1: 0}, 0)
    assert t.children == {0: [1]}  # no 1 -> 0 link; leaves have no entry
    for dec in (
        heavy_path_decomposition(t),
        rank_decomposition(t)[0],
        short_decomposition(t, 1),
    ):
        assert dec.paths == ((0, 1),) and dec.level == {0: 1}


# --- differential: the one-walk decompositions against the code they replaced
# `_chain_paths`, `_levels`, `_build`, `heavy_path_decomposition`,
# `compute_ranks`, `rank_decomposition` and `shorten` as they were before
# chains were cut and levelled in one walk over `tree.depth`, kept verbatim
# (only the public names carry a `reference_` prefix).

def _chain_paths(tree: MulticastTree, preferred: dict[int, int]) -> list[list[int]]:
    """Paths from a preferred-child map: maximal preferred chains, each
    extended upward by the top node's parent edge (if any)."""
    paths = []
    for v in tree.depth:
        is_top = v == tree.root or preferred.get(tree.parent[v]) != v
        if not is_top:
            continue
        chain = [v]
        cur = v
        while cur in preferred:
            cur = preferred[cur]
            chain.append(cur)
        if v != tree.root:
            chain.insert(0, tree.parent[v])
        if len(chain) >= 2:
            paths.append(chain)
    return paths


def _levels(paths: list[list[int]]) -> tuple[dict[tuple[int, int], int], dict[int, int]]:
    """edge->path map and per-path levels, reconstructed from the paths alone."""
    edge_to_path: dict[tuple[int, int], int] = {}
    parent: dict[int, int] = {}
    for i, p in enumerate(paths):
        for a, b in zip(p, p[1:]):
            edge_to_path[norm_edge(a, b)] = i
            parent[b] = a
    roots = {p[0] for p in paths} - set(parent)
    level: dict[int, int] = {}
    # paths-above count per node, walking top-down from each root
    children: dict[int, list[int]] = {}
    for c, p in parent.items():
        children.setdefault(p, []).append(c)
    for root in roots:
        stack = [(root, 0, None)]  # node, paths met so far, path of edge above
        while stack:
            v, count, above = stack.pop()
            for c in children.get(v, ()):
                pid = edge_to_path[norm_edge(v, c)]
                ccount = count + (1 if pid != above else 0)
                if pid not in level or ccount < level[pid]:
                    level[pid] = ccount
                stack.append((c, ccount, pid))
    return edge_to_path, level


def _build(tree: MulticastTree, preferred: dict[int, int]) -> PathDecomposition:
    paths = _chain_paths(tree, preferred)
    edge_to_path, level = _levels(paths)
    return PathDecomposition(tuple(tuple(p) for p in paths), level)


def reference_heavy_path_decomposition(tree: MulticastTree) -> PathDecomposition:
    """Each non-leaf's heavy edge goes to the child with the largest subtree,
    ties broken toward the smallest child id."""
    size = tree.subtree_sizes()
    preferred = {}
    for v in tree.depth:
        ch = tree.children.get(v)
        if ch:
            preferred[v] = max(ch, key=lambda c: (size[c], -c))
    return _build(tree, preferred)


def reference_compute_ranks(tree: MulticastTree) -> RankMap:
    """Leaf rank 0; internal rank is the max child rank, +1 when the max is tied."""
    order = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(tree.children.get(v, ()))
    rank: dict[int, int] = {}
    for v in reversed(order):
        ch = tree.children.get(v)
        if not ch:
            rank[v] = 0
        else:
            top = max(rank[c] for c in ch)
            ties = sum(1 for c in ch if rank[c] == top)
            rank[v] = top + 1 if ties > 1 else top
    return RankMap(rank)


def reference_rank_decomposition(tree: MulticastTree) -> tuple[PathDecomposition, RankMap]:
    """Preferred edge goes to a child of highest rank, ties toward smallest id."""
    ranks = reference_compute_ranks(tree)
    preferred = {}
    for v in tree.depth:
        ch = tree.children.get(v)
        if ch:
            preferred[v] = max(ch, key=lambda c: (ranks.rank[c], -c))
    return _build(tree, preferred), ranks


def reference_shorten(decomposition: PathDecomposition, ell: int) -> PathDecomposition:
    """Cut each path top-down into chunks of at most ell edges."""
    if ell < 1:
        raise ValueError("chunk length must be >= 1")
    chunks: list[tuple[int, ...]] = []
    for p in decomposition.paths:
        length = len(p) - 1
        for i in range(0, length, ell):
            chunks.append(tuple(p[i : i + ell + 1]))
    edge_to_path, level = _levels([list(c) for c in chunks])
    return PathDecomposition(tuple(chunks), level)


def reference_subtree_sizes(tree: MulticastTree) -> dict[int, int]:
    """`MulticastTree.subtree_sizes` as it was: a stack walk, then post-order."""
    order = []
    stack = [tree.root]
    while stack:
        v = stack.pop()
        order.append(v)
        stack.extend(tree.children.get(v, ()))
    size = {}
    for v in reversed(order):
        size[v] = 1 + sum(size[c] for c in tree.children.get(v, ()))
    return size


def assert_same(got: PathDecomposition, want: PathDecomposition):
    assert got.paths == want.paths
    assert got.level == want.level
    # the map the reference builds eagerly, as the one-walk code once did
    assert got.edge_to_path == _levels([list(p) for p in want.paths])[0]


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 150), ell=st.integers(1, 8), seed=st.integers(0, 10**6))
def test_one_walk_matches_reference(n, ell, seed):
    tree = random_tree(n, seed)
    assert tree.subtree_sizes() == reference_subtree_sizes(tree)
    heavy = reference_heavy_path_decomposition(tree)
    assert_same(heavy_path_decomposition(tree), heavy)
    got, ranks = rank_decomposition(tree)
    want, want_ranks = reference_rank_decomposition(tree)
    assert_same(got, want)
    assert ranks == want_ranks
    assert_same(short_decomposition(tree, ell), reference_shorten(heavy, ell))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_derived_edge_map_matches_eager_map_on_corpus(name):
    """Heavy, short, rank and distributed decompositions derive the edge map
    the eager walks stored, on first read and not before."""
    instance = CORPUS[name]()
    ell = log2_ceil(instance.graph.node_count)
    dist = distributed_rank_decomposition(instance)
    for t in instance.trees:
        if t.max_depth == 0:
            continue
        for dec in (heavy_path_decomposition(t), short_decomposition(t, ell),
                    rank_decomposition(t)[0], dist.decompositions[t.tree_id]):
            assert "edge_to_path" not in vars(dec)
            assert dec.edge_to_path == oracle_edge_to_path(t, dec)
            assert "edge_to_path" in vars(dec)


@pytest.mark.parametrize("shape", ["path", "star", "broom"])
@pytest.mark.parametrize("ell", [1, 2, 3, 7])
def test_one_walk_matches_reference_on_extreme_shapes(shape, ell):
    n = 40
    if shape == "path":  # one long chain: many chunks of one path
        parent = {v: v - 1 for v in range(1, n)}
    elif shape == "star":  # every child ties: the smallest id is preferred
        parent = {v: 0 for v in range(1, n)}
    else:  # a handle of 10 edges, then a star of leaves
        parent = {v: v - 1 for v in range(1, 11)}
        parent.update({v: 10 for v in range(11, n)})
    tree = MulticastTree(0, 0, parent, 0)
    heavy = reference_heavy_path_decomposition(tree)
    assert_same(heavy_path_decomposition(tree), heavy)
    assert_same(rank_decomposition(tree)[0], reference_rank_decomposition(tree)[0])
    assert_same(short_decomposition(tree, ell), reference_shorten(heavy, ell))
