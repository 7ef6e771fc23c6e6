import itertools
import math
from collections import Counter, defaultdict
from itertools import combinations

import pytest

from mcastsched import (
    Graph,
    LowerBoundInstance,
    MulticastInstance,
    MulticastTree,
    build_lowerbound,
    check_lemmas,
    compute_metrics,
    exhaustive_opt,
    gen_random_instance,
    greedy_schedule,
    instance_to_json,
    interleave,
    interleavings,
    markov_delay_check,
    norm_edge,
    pad_to_n,
    predicted_edge_count,
    random_delay_schedule,
    simulate,
    validate_instance,
)
from conftest import schedule_of, shared_edge_instance


# --- oracles ---------------------------------------------------------------

def oracle_edge_count(c, d):
    """Edge-count recursion, written independently of the library."""
    if d == 1:
        return 1
    half = math.comb(c, c // 2)
    prev = oracle_edge_count(c, d - 1)
    return 2 ** (d - 1) + half ** (2 ** (d - 1)) * prev


def oracle_interleave(s1, s2):
    out = set()
    for a in combinations(sorted(s1), len(s1) // 2):
        for b in combinations(sorted(s2), len(s2) // 2):
            out.add(frozenset(a) | frozenset(b))
    return out


# --- interleavings ---------------------------------------------------------

def test_interleave_matches_subset_enumeration():
    s1 = frozenset({0, 1, 2, 3})
    s2 = frozenset({4, 5, 6, 7})
    got = interleave(s1, s2)
    assert len(got) == len(set(got)) == math.comb(4, 2) ** 2
    assert set(got) == oracle_interleave(s1, s2)


def test_interleave_rejects_bad_inputs():
    with pytest.raises(ValueError):
        interleave(frozenset({0, 1}), frozenset({2}))
    with pytest.raises(ValueError):
        interleave(frozenset({0}), frozenset({1}))
    with pytest.raises(ValueError):
        interleave(frozenset({0, 1}), frozenset({1, 2}))


def test_interleavings_lazy_product():
    sets = tuple(
        frozenset(range(2 * i, 2 * i + 2)) for i in range(4)
    )  # 4 sets -> 2 pairs
    combos = list(interleavings(sets))
    # each pair contributes comb(2,1)^2 = 4 choices
    assert len(combos) == 4 * 4
    for combo in combos:
        assert len(combo) == 2
        for i, s in enumerate(combo):
            assert s in oracle_interleave(sets[2 * i], sets[2 * i + 1])


# --- construction ----------------------------------------------------------

EXPECTED_EDGES = {(2, 1): 1, (2, 2): 6, (2, 3): 100, (4, 2): 38}


@pytest.mark.parametrize("c,d", sorted(EXPECTED_EDGES))
def test_edge_counts_match_recursion(c, d):
    assert predicted_edge_count(c, d) == EXPECTED_EDGES[(c, d)]
    assert predicted_edge_count(c, d) == oracle_edge_count(c, d)
    lb = build_lowerbound(c, d)
    assert len(lb.instance.graph.edges) == EXPECTED_EDGES[(c, d)]


@pytest.mark.parametrize("c,d", sorted(EXPECTED_EDGES))
def test_lemmas_hold(c, d):
    lb = build_lowerbound(c, d)
    report = check_lemmas(lb, c, d)
    assert report.all_ok, report.failures
    assert validate_instance(lb.instance) == []


def test_every_edge_has_exactly_c_labels_oracle():
    c, d = 2, 3
    lb = build_lowerbound(c, d)
    per_edge = Counter()
    for t in lb.instance.trees:
        for child, parent in t.parent.items():
            per_edge[norm_edge(parent, child)] += 1
    assert set(per_edge) == set(lb.instance.graph.edges)
    assert set(per_edge.values()) == {c}


def test_tree_count_and_exact_depth():
    c, d = 2, 3
    lb = build_lowerbound(c, d)
    assert len(lb.instance.trees) == c * 2 ** (d - 1)
    for t in lb.instance.trees:
        assert t.max_depth == d


def test_node_bound():
    for c, d in EXPECTED_EDGES:
        lb = build_lowerbound(c, d)
        assert lb.instance.graph.node_count <= 2 ** (c * 2 ** (d + 1))


def test_build_rejects_bad_params():
    with pytest.raises(ValueError):
        build_lowerbound(3, 2)  # odd congestion
    with pytest.raises(ValueError):
        build_lowerbound(0, 2)
    with pytest.raises(ValueError):
        build_lowerbound(2, 0)
    with pytest.raises(ValueError):
        build_lowerbound(4, 4)  # 4*2^5 = 128 > default bit cap 64


def test_bit_cap_can_tighten():
    with pytest.raises(ValueError):
        build_lowerbound(2, 2, bit_cap=8)  # 2*2^3 = 16 > 8
    assert len(build_lowerbound(2, 2, bit_cap=16).instance.graph.edges) == 6


def test_pad_to_n():
    lb = build_lowerbound(2, 2)
    inst = pad_to_n(lb, 50)
    assert inst.graph.node_count == 50
    assert validate_instance(inst) == []
    m = compute_metrics(inst)
    assert (m.congestion, m.dilation) == (2, 2)


# --- differential: the construction against the one it replaced -----------
# Sub-gadget roots used to be fresh nodes, merged with their guess vertices
# through a union-find and renumbered densely in order of first appearance;
# each label's tree was then re-rooted by a BFS over its undirected edges.
# That code is kept verbatim as the reference.

class _UnionFind:
    def __init__(self):
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        root = x
        while self.parent.get(root, root) != root:
            root = self.parent[root]
        while self.parent.get(x, x) != x:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def _construct(sets, alloc, uf, edges):
    """Build the gadget for one partition; returns root node per label set index.

    alloc yields fresh raw node ids; edges accumulates (u, v, labelset) with
    raw ids; uf records the step-3 identifications of sub-roots with their
    guess vertices.
    """
    if len(sets) == 1:
        r, v = next(alloc), next(alloc)
        edges.append((r, v, sets[0]))
        return {0: r}

    roots = {}
    joint = {}
    for i in range(len(sets) // 2):
        r1, r2, vi = next(alloc), next(alloc), next(alloc)
        edges.append((r1, vi, sets[2 * i]))
        edges.append((r2, vi, sets[2 * i + 1]))
        roots[2 * i] = r1
        roots[2 * i + 1] = r2
        joint[i] = vi
    for combo in interleavings(sets):
        sub_roots = _construct(tuple(combo), alloc, uf, edges)
        for i, _ in enumerate(combo):
            uf.union(sub_roots[i], joint[i])
    return roots


def reference_build_lowerbound(
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
    alloc, uf = itertools.count(), _UnionFind()
    raw_edges: list[tuple[int, int, frozenset]] = []
    top_roots = _construct(sets, alloc, uf, raw_edges)

    dense: dict[int, int] = {}

    def node_id(raw: int) -> int:
        rep = uf.find(raw)
        if rep not in dense:
            dense[rep] = len(dense)
        return dense[rep]

    label_edges: dict[int, list[tuple[int, int]]] = defaultdict(list)
    graph_edges = []
    for u, v, labelset in raw_edges:
        a, b = node_id(u), node_id(v)
        graph_edges.append(norm_edge(a, b))
        for lab in labelset:
            label_edges[lab].append((a, b))

    label_root = {}
    for idx, r in top_roots.items():
        for lab in sets[idx]:
            label_root[lab] = node_id(r)

    n = len(dense)
    graph = Graph.build(n, graph_edges)
    trees = []
    for lab in labels:
        # root each label's edge set by a BFS walk from the label's root
        adj = defaultdict(list)
        for a, b in label_edges[lab]:
            adj[a].append(b)
            adj[b].append(a)
        root = label_root[lab]
        parent: dict[int, int] = {}
        seen = {root}
        frontier = [root]
        while frontier:
            nxt = []
            for x in frontier:
                for y in adj[x]:
                    if y not in seen:
                        seen.add(y)
                        parent[y] = x
                        nxt.append(y)
            frontier = nxt
        trees.append(MulticastTree(lab, root, parent, lab))

    instance = MulticastInstance.build(graph, trees)
    problems = validate_instance(instance)
    if problems:
        raise AssertionError(f"construction produced invalid instance: {problems[:3]}")
    return LowerBoundInstance(instance)


DIFFERENTIAL_CASES = [(2, 1), (2, 2), (2, 3), (2, 4), (4, 1), (4, 2), (4, 3),
                      (6, 1), (6, 2), (8, 1), (8, 2)]


@pytest.mark.parametrize("c,d", DIFFERENTIAL_CASES)
def test_build_matches_reference_construction(c, d):
    want = reference_build_lowerbound(c, d).instance
    got = build_lowerbound(c, d).instance
    assert instance_to_json(got) == instance_to_json(want)
    assert [t.root for t in got.trees] == [t.root for t in want.trees]
    assert [t.parent for t in got.trees] == [t.parent for t in want.trees]


# --- markov delay check ----------------------------------------------------

def test_markov_passes_on_valid_schedules():
    lb = build_lowerbound(2, 2)
    for sched in (greedy_schedule(lb.instance), random_delay_schedule(lb.instance, 3)):
        assert simulate(lb.instance, sched).valid
        report = markov_delay_check(lb.instance, sched)
        assert report.passed
        assert report.per_edge  # every edge has c=2 >= 2 trees


def test_markov_counts_shared_edges_only():
    inst = gen_random_instance(16, 1, 4, 0)  # single tree: no shared edges
    report = markov_delay_check(inst, greedy_schedule(inst))
    assert report.per_edge == []
    assert report.passed


def test_markov_detects_overfast_crossing():
    # fabricated schedule where both messages cross the shared edge at once
    from mcastsched import Send

    fig = shared_edge_instance()
    cheat = schedule_of([Send(1, 0, 1, 0), Send(1, 0, 1, 1)])
    assert not simulate(fig, cheat).valid  # capacity violation
    assert not markov_delay_check(fig, cheat).passed


# --- exhaustive optimum ----------------------------------------------------

def test_opt_shared_edge_exactly_two():
    assert exhaustive_opt(shared_edge_instance(), 4) == 2


def test_opt_matches_greedy_on_tiny_instance():
    inst = gen_random_instance(6, 2, 2, 3)
    best = exhaustive_opt(inst, 8)
    m = compute_metrics(inst)
    assert best is not None
    assert max(m.congestion, m.dilation) <= best
    assert best <= greedy_schedule(inst).declared_length


def test_opt_infeasible_horizon_returns_none():
    assert exhaustive_opt(shared_edge_instance(), 1) is None


def test_opt_guards():
    with pytest.raises(ValueError):
        exhaustive_opt(build_lowerbound(2, 3).instance, 8)
    with pytest.raises(ValueError):
        exhaustive_opt(shared_edge_instance(), 99)
