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
    assert t.children == {0: [1], 1: [2], 2: []}
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
