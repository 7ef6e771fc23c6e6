import json
import math
import types
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mcastsched import (
    Graph,
    InstanceMetrics,
    MulticastInstance,
    MulticastTree,
    compute_metrics,
    distributed_multicast,
    gen_layered_instance,
    gen_random_instance,
    instance_from_json,
    instance_to_json,
    greedy_schedule,
    log2_ceil,
    markov_delay_check,
    norm_edge,
    simulate,
    validate_instance,
)
from test_golden import CORPUS


# --- oracles ---------------------------------------------------------------

def oracle_metrics(instance):
    """Independent recount: per-edge tree multiplicity and max tree depth."""
    per_edge = Counter()
    for t in instance.trees:
        for c, p in t.parent.items():
            per_edge[norm_edge(p, c)] += 1
    dilation = 0
    for t in instance.trees:
        for v in t.depth:
            d, cur = 0, v
            while cur != t.root:
                cur = t.parent[cur]
                d += 1
            dilation = max(dilation, d)
    return max(per_edge.values(), default=0), dilation


# --- basics ----------------------------------------------------------------

def test_norm_edge_orders_endpoints():
    assert norm_edge(5, 2) == (2, 5)
    assert norm_edge(2, 5) == (2, 5)


def test_log2_ceil_matches_math_oracle():
    for n in range(1, 5000):
        assert log2_ceil(n) == max(1, math.ceil(math.log2(n))), n


def test_graph_neighbors_oracle():
    g = Graph.build(5, [(0, 1), (1, 2), (2, 3), (0, 3)])
    for v in range(5):
        expect = {u for e in g.edges for u in e if v in e} - {v}
        assert set(g.neighbors.get(v, ())) == expect


def test_tree_depth_and_leaves():
    t = MulticastTree(0, 0, {1: 0, 2: 0, 3: 1, 4: 3}, 0)
    assert t.depth == {0: 0, 1: 1, 2: 1, 3: 2, 4: 3}
    assert t.max_depth == 3
    assert set(t.leaves) == {2, 4}
    assert t.subtree_sizes() == {0: 5, 1: 3, 2: 1, 3: 2, 4: 1}


def test_root_with_parent_is_not_its_parents_child():
    t = MulticastTree(0, 0, {0: 2, 1: 0, 2: 1}, 0)  # cycle 0 -> 1 -> 2 -> 0
    assert t.children == {0: [1], 1: [2]}  # no 2 -> 0 link; leaves have no entry
    assert t.depth == {0: 0, 1: 1, 2: 2}
    assert t.subtree_sizes() == {0: 3, 1: 2, 2: 1}
    assert any("root 0 has a parent" in p for p in validate_instance(
        MulticastInstance.build(Graph.build(3, [(0, 1), (1, 2), (0, 2)]), [t])
    ))


def test_root_parent_link_is_no_tree_edge():
    """The root's parent link, which no walk from the root uses, counts for
    no congestion, no shared edge and no slice; it is still reported."""
    graph = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    inst = MulticastInstance.build(graph, [
        MulticastTree(0, 0, {0: 2, 1: 0, 2: 1}, 0),  # cycle 0 -> 1 -> 2 -> 0
        MulticastTree(1, 0, {2: 0}, 1),
    ])
    assert inst.trees[0].edges == {(0, 1), (1, 2)}
    assert compute_metrics(inst).congestion == 1
    assert markov_delay_check(inst, greedy_schedule(inst)).per_edge == []
    for depths_known in (False, True):
        sched, _ = distributed_multicast(inst, -1.5, 0, depths_known=depths_known)
        report = simulate(inst, sched)
        assert report.valid, (depths_known, report.violations)
    assert validate_instance(inst) == ["tree 0: root 0 has a parent"]


def test_package_all_lists_every_public_name():
    import mcastsched

    assert len(set(mcastsched.__all__)) == len(mcastsched.__all__)
    for name in mcastsched.__all__:
        assert getattr(mcastsched, name) is not None, name
    public = {
        name for name, value in vars(mcastsched).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(mcastsched.__all__)


def test_validate_catches_off_graph_edge():
    g = Graph.build(3, [(0, 1)])
    inst = MulticastInstance.build(g, [MulticastTree(0, 0, {1: 0, 2: 1}, 0)])
    assert any("edge" in p for p in validate_instance(inst))


def test_validate_catches_parent_cycle():
    g = Graph.build(3, [(0, 1), (1, 2), (0, 2)])
    inst = MulticastInstance.build(g, [MulticastTree(0, 0, {1: 2, 2: 1}, 0)])
    assert validate_instance(inst)


def test_validate_catches_duplicate_message_ids():
    g = Graph.build(3, [(0, 1), (1, 2)])
    inst = MulticastInstance.build(
        g, [MulticastTree(0, 0, {1: 0}, 7), MulticastTree(1, 1, {2: 1}, 7)]
    )
    assert any("message" in p for p in validate_instance(inst))


def test_validate_problem_list_is_pinned():
    """Every defect kind at once: the full list, strings and order."""
    g = Graph.build(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    trees = [
        MulticastTree(0, 0, {1: 0, 2: 1}, 0),
        MulticastTree(0, 0, {1: 0}, 0),  # duplicate tree id and message id
        MulticastTree(1, 0, {1: 0, 7: 1}, 1),  # node 7 is out of range
        MulticastTree(2, 1, {1: 0, 2: 1}, 2),  # the root has a parent
        MulticastTree(3, 0, {1: 0, 2: 2}, 3),  # a self-parent
        MulticastTree(4, 0, {1: 0, 3: 1}, 4),  # (1,3) is no host edge
        MulticastTree(5, 0, {1: 0, 3: 4, 4: 3}, 5),  # an unreachable cycle
    ]
    assert validate_instance(MulticastInstance.build(g, trees)) == [
        "duplicate tree_id 0",
        "duplicate message_id 0 (tree 0)",
        "tree 1: node 7 out of range",
        "tree 1: edge (1,7) missing from host graph",
        "tree 2: root 1 has a parent",
        "tree 2: nodes [0] unreachable from root 1 (cycle or disconnection)",
        "tree 3: node 2 is its own parent",
        "tree 3: nodes [2] unreachable from root 0 (cycle or disconnection)",
        "tree 4: edge (1,3) missing from host graph",
        "tree 5: nodes [3, 4] unreachable from root 0 (cycle or disconnection)",
    ]


# --- generators ------------------------------------------------------------

@pytest.mark.parametrize("seed", range(20))
def test_gen_random_valid_and_metrics_oracle(seed):
    inst = gen_random_instance(24, 4, 5, seed)
    assert validate_instance(inst) == []
    m = compute_metrics(inst)
    assert (m.congestion, m.dilation) == oracle_metrics(inst)
    assert m.dilation <= 5


def test_gen_random_deterministic():
    a = instance_to_json(gen_random_instance(40, 5, 4, 9))
    b = instance_to_json(gen_random_instance(40, 5, 4, 9))
    assert a == b


@pytest.mark.parametrize("c,d", [(1, 3), (4, 6), (10, 20), (50, 7)])
def test_gen_layered_hits_targets_exactly(c, d):
    inst = gen_layered_instance(64, c, d, 0)
    assert validate_instance(inst) == []
    m = compute_metrics(inst)
    assert (m.congestion, m.dilation) == (c, d)
    assert (m.congestion, m.dilation) == oracle_metrics(inst)


def test_gen_layered_prefix_cap_bounds_other_trees():
    inst = gen_layered_instance(128, 20, 100, 1, prefix_cap=5)
    depths = sorted(t.max_depth for t in inst.trees)
    assert depths[-1] == 100
    assert all(d <= 5 for d in depths[:-1])


def test_generator_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_random_instance(1, 1, 1, 0)
    with pytest.raises(ValueError):
        gen_random_instance(10, 2, 10, 0)
    with pytest.raises(ValueError):
        gen_layered_instance(10, 0, 3, 0)
    with pytest.raises(ValueError):
        gen_layered_instance(10, 2, 10, 0)


# --- serialization ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(8, 40),
    trees=st.integers(1, 5),
    depth=st.integers(1, 6),
    seed=st.integers(0, 10**6),
)
def test_instance_json_roundtrip(n, trees, depth, seed):
    inst = gen_random_instance(n, trees, min(depth, n - 1), seed)
    text = instance_to_json(inst)
    back = instance_from_json(text)
    assert back == inst
    # canonical form: serialization is a fixed point
    assert instance_to_json(back) == text


def test_instance_json_shape():
    inst = gen_random_instance(8, 2, 2, 0)
    doc = json.loads(instance_to_json(inst))
    assert set(doc) == {"n", "edges", "trees"}
    assert doc["edges"] == sorted(doc["edges"])
    for t in doc["trees"]:
        assert set(t) == {"id", "root", "parent", "msg"}


PLACES = {  # where an id goes in a one-edge instance, and how a refusal names it
    "edge": (lambda doc, v: doc["edges"].append([1, v]), "edge 1: endpoint"),
    "root": (lambda doc, v: doc["trees"][0].update(root=v), "tree 0: 'root'"),
    "id": (lambda doc, v: doc["trees"][0].update(id=v), "tree {}: 'id'"),
    "msg": (lambda doc, v: doc["trees"][0].update(msg=v), "tree 0: 'msg'"),
    "parent-key": (lambda doc, v: doc["trees"][0]["parent"].update({str(v): 0}),
                   "tree 0: 'parent'"),
    "parent-value": (lambda doc, v: doc["trees"][0]["parent"].update({"1": v}),
                     "tree 0: 'parent'"),
}


@pytest.mark.parametrize("place", PLACES)
def test_instance_reader_refuses_ids_beyond_64_bits(place):
    """Every id must fit a schedule's 64-bit columns; `n` alone may exceed them."""
    edit, name = PLACES[place]
    for v, refused in [(2**63 - 1, False), (-(2**63), False), (2**63, True),
                       (-(2**63) - 1, True), (10**400, True)]:
        if place == "edge" and v == -(2**63):  # in range, but no node of the graph
            continue
        doc = {"n": 2**64, "edges": [[0, 1]],
               "trees": [{"id": 0, "root": 0, "msg": 0, "parent": {"1": 0}}]}
        edit(doc, v)
        if refused:
            with pytest.raises(ValueError) as exc:
                instance_from_json(json.dumps(doc))
            assert str(exc.value) == name.format(v) + " is outside the 64-bit range"
        else:
            instance_from_json(json.dumps(doc))


def reference_metrics(instance: MulticastInstance) -> InstanceMetrics:
    """`compute_metrics` as it was before the result was cached."""
    counts: Counter = Counter()
    for t in instance.trees:
        counts.update(t.edges)
    congestion = max(counts.values()) if counts else 0
    dilation = max((t.max_depth for t in instance.trees), default=0)
    return InstanceMetrics(congestion, dilation)


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_metrics_computed_once_per_instance(name):
    inst = CORPUS[name]()
    first = compute_metrics(inst)
    assert compute_metrics(inst) is first is inst.metrics
    assert first == reference_metrics(inst)


# --- the tree views against their former definitions ------------------------
# Each view used to be its own cached walk, `children` also listed every leaf
# with an empty list, and `validate_instance` looked every link up in the
# host graph's edge set. Those bodies are kept verbatim as the reference.

def reference_views(t: MulticastTree):
    """(children, depth, edges, leaves, max_depth) of the former definitions."""
    ch: dict[int, list[int]] = {t.root: []}
    for c, p in t.parent.items():
        ch.setdefault(p, [])
        ch.setdefault(c, [])
        ch[p].append(c)
    if t.root in t.parent:
        ch[t.parent[t.root]].remove(t.root)
    for v in ch:
        ch[v].sort()
    d = {t.root: 0}
    stack = [t.root]
    while stack:
        v = stack.pop()
        for c in ch.get(v, ()):
            if c not in d:
                d[c] = d[v] + 1
                stack.append(c)
    leaves = frozenset(v for v in d if not ch.get(v))
    edges = frozenset(
        norm_edge(c, p) for c, p in t.parent.items() if c in d and c != t.root
    )
    return ch, d, edges, leaves, max(d.values())


def reference_nodes(t: MulticastTree) -> frozenset[int]:
    out = {t.root}
    for c, p in t.parent.items():
        out.add(c)
        out.add(p)
    return frozenset(out)


def reference_validate(instance: MulticastInstance) -> list[str]:
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
        for v in reference_nodes(t):
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
        unreachable = reference_nodes(t) - set(reference_views(t)[1])
        if unreachable:
            problems.append(
                f"tree {t.tree_id}: nodes {sorted(unreachable)} unreachable from "
                f"root {t.root} (cycle or disconnection)"
            )
    return problems


@st.composite
def parent_maps(draw, n: int):
    """(root, parent map): a random tree on some of 0..n-1, in random map
    order, with extra links that may make cycles, self-parents, a parent for
    the root, disconnected parts and out-of-range nodes; sometimes a random
    root instead."""
    nodes = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    parent = {v: nodes[draw(st.integers(0, i - 1))] for i, v in enumerate(nodes) if i}
    node = st.integers(-2, n + 1)
    parent.update(draw(st.dictionaries(node, node, max_size=3)))
    root = draw(st.one_of(st.just(nodes[0]), node))
    return root, dict(draw(st.permutations(list(parent.items()))))


@st.composite
def instances_with_defects(draw):
    n = draw(st.integers(1, 9))
    trees = [
        MulticastTree(draw(st.integers(0, 3)), root, parent, draw(st.integers(0, 3)))
        for root, parent in draw(st.lists(parent_maps(n), min_size=1, max_size=3))
    ]
    links = sorted({
        norm_edge(c, p) for t in trees for c, p in t.parent.items()
        if c != p and 0 <= c < n and 0 <= p < n
    })
    dropped = draw(st.sets(st.sampled_from(links))) if links else set()
    return MulticastInstance.build(Graph.build(n, set(links) - dropped), trees)


@settings(max_examples=300, deadline=None)
@given(instances_with_defects())
def test_tree_views_and_validation_match_former_definitions(inst):
    for t in inst.trees:
        children, depth, edges, leaves, max_depth = reference_views(t)
        assert list(t.depth.items()) == list(depth.items())
        assert t.children == {v: ch for v, ch in children.items() if ch}
        assert (t.edges, t.leaves, t.max_depth) == (edges, leaves, max_depth)
    assert validate_instance(inst) == reference_validate(inst)


# --- one clean-tree test ------------------------------------------------------
# `validate_instance`, `check_lemmas` and the CONGEST multicast each used to
# decide cleanliness on their own; the two-clause form is kept as the oracle.

def reference_is_clean(t: MulticastTree) -> bool:
    return t.root not in t.parent and len(t.depth) == len(t.parent) + 1


@pytest.mark.parametrize(
    "root, parent, clean",
    [
        (0, {1: 0, 2: 1}, True),
        (0, {}, True),  # root only
        (0, {0: 1, 1: 0}, False),  # the root has a parent, in a cycle with it
        (0, {0: 2, 1: 0, 2: 1}, False),  # the root's parent is reachable
        (0, {0: 5, 1: 0}, False),  # the root has a parent outside the walk
        (0, {1: 0, 2: 3, 3: 2}, False),  # an unreachable cycle
        (0, {1: 0, 2: 7}, False),  # an unreachable key
        (0, {1: 0, 2: 2}, False),  # a self-parent
    ],
)
def test_is_clean_cases(root, parent, clean):
    t = MulticastTree(0, root, parent, 0)
    assert t.is_clean is clean is reference_is_clean(t)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 9).flatmap(parent_maps))
def test_is_clean_matches_two_clause_form(tree):
    root, parent = tree
    t = MulticastTree(0, root, parent, 0)
    assert t.is_clean == reference_is_clean(t)
