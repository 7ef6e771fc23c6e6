import itertools
import math
import random
from collections import Counter, defaultdict
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastsched import (
    Graph,
    LowerBoundInstance,
    MulticastInstance,
    MulticastTree,
    build_lowerbound,
    check_lemmas,
    compute_metrics,
    exhaustive_opt,
    gen_layered_instance,
    gen_random_instance,
    greedy_schedule,
    instance_to_json,
    interleave,
    interleavings,
    markov_delay_check,
    norm_edge,
    MarkovReport,
    Schedule,
    pad_to_n,
    predicted_edge_count,
    random_delay_schedule,
    simulate,
    validate_instance,
)
from mcastsched.lowerbound import EdgeDelayResult
from conftest import schedule_of, shared_edge_instance
from test_golden import CORPUS
from test_schedule import REPLAY_SCHEDULERS, corpus_case, replay_instances


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


# --- differential: the Markov check against the body it replaced -----------
# The check once sorted every send by round, keyed receipts by (node,
# message) and listed (tree, parent, child) per tree edge; that body is kept
# verbatim as the reference.

def reference_markov(
    instance: MulticastInstance, schedule: Schedule
) -> MarkovReport:
    """For each edge shared by c >= 2 trees: after floor(c/2) rounds from the
    first round any of its messages could cross, at least ceil(c/2) of those
    trees must not have crossed yet (at most one message per round crossed)."""
    receipt: dict[tuple[int, int], int] = {}
    for s in sorted(schedule.sends, key=lambda s: s.round):
        key = (s.v, s.message_id)
        if key not in receipt:
            receipt[key] = s.round

    users: dict[tuple[int, int], list[tuple[int, int, int]]] = defaultdict(list)
    for t in instance.trees:
        for c, p in t.parent.items():
            if c in t.depth and c != t.root:
                users[norm_edge(c, p)].append((t.tree_id, p, c))

    results = []
    for edge, lst in sorted(users.items()):
        c = len(lst)
        if c < 2:
            continue
        first = min(
            instance.tree_by_id[tid].depth[parent] + 1 for tid, parent, _ in lst
        )
        need = math.ceil(c / 2)
        # after floor(c/2) rounds from `first`, at most floor(c/2) messages
        # crossed, so at least ceil(c/2) trees are still waiting
        check_round = first + c // 2 - 1
        delayed = tuple(
            tid
            for tid, _, child in lst
            if receipt.get(
                (child, instance.tree_by_id[tid].message_id), math.inf
            )
            > check_round
        )
        results.append(EdgeDelayResult(edge, c, check_round, delayed, need))
    return MarkovReport(results)


def perturbed(schedule, how, rng):
    """The schedule's sends shuffled, with some sent again, or with some
    moved to random rounds from 0 to two past its length."""
    sends, length = list(schedule.sends), schedule.declared_length
    k = max(1, len(sends) // 8)
    if how == "shuffle":
        rng.shuffle(sends)
    elif how == "repeat" and sends:  # a delivery made again, in its round or later
        for s in rng.choices(sends, k=k):
            sends.insert(rng.randrange(len(sends) + 1), s._replace(round=s.round + rng.randrange(3)))
    elif how == "reround":
        for i in rng.sample(range(len(sends)), min(k, len(sends))):
            sends[i] = sends[i]._replace(round=rng.randrange(length + 3))
    return Schedule(tuple(sends), length)


PERTURBATIONS = (None, "shuffle", "repeat", "reround")


def assert_markov_like_reference(instance, schedule):
    got, want = markov_delay_check(instance, schedule), reference_markov(instance, schedule)
    assert [r.edge for r in got.per_edge] == [r.edge for r in want.per_edge]
    assert got == want


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_markov_matches_reference_on_corpus(name):
    """Every scheduler's schedule as it is, and perturbed in one of the
    three ways, each way on two of the six schedulers."""
    rng = random.Random(name)
    instance, schedules = corpus_case(name)
    for k, schedule in enumerate(schedules.values()):
        assert_markov_like_reference(instance, schedule)
        how = PERTURBATIONS[1 + k % 3]
        assert_markov_like_reference(instance, perturbed(schedule, how, rng))


@settings(max_examples=200, deadline=None)
@given(
    inst=replay_instances,
    scheduler=st.sampled_from(sorted(REPLAY_SCHEDULERS)),
    how=st.sampled_from(PERTURBATIONS),
    seed=st.integers(0, 10**6),
)
def test_markov_matches_reference(inst, scheduler, how, seed):
    schedule = REPLAY_SCHEDULERS[scheduler](inst, seed)
    assert_markov_like_reference(inst, perturbed(schedule, how, random.Random(seed)))


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


# --- differential: the exhaustive optimum against the search it replaced ----
# The optimum was once a recursive branch and bound over per-round edge
# assignments; that body is kept verbatim as the reference.

def reference_exhaustive_opt(
    instance: MulticastInstance, horizon: int
) -> int | None:
    """Exact minimum schedule length by branch and bound over per-round edge
    assignments; None if no schedule of length <= horizon exists.

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
    tree_edges = {t.message_id: t.edges for t in trees}
    edges = sorted(instance.graph.edges)

    best = [None]
    visited: dict[int, list[frozenset]] = defaultdict(list)

    def dominated(state, rnd) -> bool:
        for r in range(1, rnd + 1):
            for s in visited[r]:
                if state <= s:
                    return True
        visited[rnd].append(state)
        return False

    def options(state, edge):
        u, v = edge
        out = []
        for t in trees:
            m = t.message_id
            if edge not in tree_edges[m]:
                continue
            if (u, m) in state and (v, m) not in state:
                out.append((u, v, m))
            if (v, m) in state and (u, m) not in state:
                out.append((v, u, m))
        return out

    def dfs(state, rnd):
        if goal <= state:
            if best[0] is None or rnd < best[0]:
                best[0] = rnd
            return
        if rnd >= horizon or (best[0] is not None and rnd + 1 >= best[0]):
            return
        per_edge = [o for o in (options(state, e) for e in edges) if o]
        if not per_edge:
            return
        for combo in itertools.product(*per_edge):
            new = set(state)
            for _, v, m in combo:
                new.add((v, m))
            new = frozenset(new)
            if dominated(new, rnd + 1):
                continue
            dfs(new, rnd + 1)

    if goal <= start:
        return 0
    dfs(start, 0)
    return best[0]


def opt_sweep_instances():
    """400 random draws kept at <= 12 edges, three lower-bound members and 40
    layered instances: the toy sizes the search is guarded to."""
    rng = random.Random(1)
    out = []
    for _ in range(400):
        n = rng.randrange(2, 9)
        k = rng.randrange(1, 5)
        d = rng.randrange(1, min(4, n - 1) + 1)
        inst = gen_random_instance(n, k, d, rng.randrange(10**6))
        if len(inst.graph.edges) <= 12:
            out.append(inst)
    out += [build_lowerbound(c, d).instance for c, d in ((2, 1), (2, 2), (4, 1))]
    for s in range(20):
        out += [gen_layered_instance(8, 4, 5, s), gen_layered_instance(10, 6, 6, s, 3)]
    return out


def test_opt_matches_reference_on_sweep():
    instances = opt_sweep_instances()
    assert len(instances) == 443
    optima = set()
    for inst in instances:
        for horizon in (8, 3):
            got = exhaustive_opt(inst, horizon)
            assert got == reference_exhaustive_opt(inst, horizon)
            optima.add(got)
    assert optima == {None, *range(1, 8)}  # every optimum from 1 to 7, and None


opt_instances = st.one_of(
    st.builds(
        lambda n, k, d, seed: gen_random_instance(n, k, min(d, n - 1), seed),
        st.integers(2, 8), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10**6),
    ).filter(lambda inst: len(inst.graph.edges) <= 12),
    st.sampled_from([(2, 1), (2, 2), (4, 1)]).map(lambda cd: build_lowerbound(*cd).instance),
    st.builds(gen_layered_instance, st.just(8), st.just(4), st.just(5), st.integers(0, 10**6)),
    st.builds(gen_layered_instance, st.just(10), st.just(6), st.just(6), st.integers(0, 10**6), st.just(3)),
)


@settings(max_examples=100, deadline=None)
@given(inst=opt_instances, horizon=st.integers(0, 8))
def test_opt_matches_reference(inst, horizon):
    assert exhaustive_opt(inst, horizon) == reference_exhaustive_opt(inst, horizon)
