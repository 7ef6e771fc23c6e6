import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcastsched import (
    Graph,
    MulticastInstance,
    MulticastTree,
    Schedule,
    Send,
    frame_multicast_schedule,
    gen_layered_instance,
    gen_random_instance,
    greedy_schedule,
    knowledge_at,
    norm_edge,
    random_delay_schedule,
    schedule_from_json,
    schedule_to_json,
    simulate,
    validate_instance,
)


def chain_instance():
    """One path tree 0->1->2 plus one single-edge tree 0->1."""
    g = Graph.build(3, [(0, 1), (1, 2)])
    return MulticastInstance.build(
        g,
        [MulticastTree(0, 0, {1: 0, 2: 1}, 0), MulticastTree(1, 0, {1: 0}, 1)],
    )


# --- oracle: hand-replay of a tiny schedule --------------------------------

def test_valid_schedule_hand_checked():
    inst = chain_instance()
    sched = Schedule.from_sends(
        [Send(1, 0, 1, 0), Send(2, 1, 2, 0), Send(2, 0, 1, 1)]
    )
    report = simulate(inst, sched)
    assert report.valid
    assert report.length == 2
    assert report.per_tree_completion_round == {0: 2, 1: 2}
    assert report.redundant == []


def test_capacity_one_packet_per_edge_per_round():
    inst = chain_instance()
    sched = Schedule.from_sends([Send(1, 0, 1, 0), Send(1, 0, 1, 1)])
    report = simulate(inst, sched)
    assert not report.valid
    assert any(v.kind == "capacity" for v in report.violations)


def test_sender_must_hold_message_at_round_start():
    inst = chain_instance()
    # 1 -> 2 in round 1, but node 1 only receives message 0 at end of round 1
    sched = Schedule.from_sends([Send(1, 1, 2, 0), Send(1, 0, 1, 0)])
    report = simulate(inst, sched)
    assert any(v.kind == "sender_missing" for v in report.violations)


def test_same_round_receive_does_not_enable_forward():
    inst = chain_instance()
    sched = Schedule.from_sends(
        [Send(1, 0, 1, 0), Send(2, 1, 2, 0), Send(2, 0, 1, 1)]
    )
    holds = knowledge_at(inst, sched, 1)
    assert holds[1] == frozenset({0})
    assert 2 not in holds


def test_off_tree_and_unknown_message_flagged():
    inst = chain_instance()
    report = simulate(inst, Schedule.from_sends([Send(1, 1, 2, 1)]))
    assert any(v.kind == "off_tree" for v in report.violations)
    report = simulate(inst, Schedule.from_sends([Send(1, 0, 1, 99)]))
    assert any(v.kind == "unknown_message" for v in report.violations)


def test_link_missing_from_host_graph_flagged():
    """Tree 0->1->2 over a graph that lacks (1,2): validate_instance flags the
    instance, and the replay flags the send greedy makes over that link."""
    inst = MulticastInstance.build(
        Graph.build(3, [(0, 1)]), [MulticastTree(0, 0, {1: 0, 2: 1}, 0)]
    )
    assert validate_instance(inst)
    sched = greedy_schedule(inst)
    assert Send(2, 1, 2, 0) in sched.sends
    report = simulate(inst, sched)
    assert not report.valid
    assert [(v.kind, v.round) for v in report.violations] == [("not_in_graph", 2)]


def test_bad_round_flagged():
    inst = chain_instance()
    report = simulate(inst, Schedule(sends=(Send(0, 0, 1, 0),), declared_length=0))
    assert any(v.kind == "bad_round" for v in report.violations)
    report = simulate(inst, Schedule(sends=(Send(5, 0, 1, 0),), declared_length=2))
    assert any(v.kind == "bad_round" for v in report.violations)


def test_incomplete_schedule_invalid_without_violations():
    inst = chain_instance()
    report = simulate(inst, Schedule.from_sends([Send(1, 0, 1, 0)]))
    assert not report.valid
    assert report.violations == []
    assert report.length is None


def test_redundant_resend_recorded_not_fatal():
    inst = chain_instance()
    sched = Schedule.from_sends(
        [Send(1, 0, 1, 0), Send(2, 0, 1, 0), Send(3, 1, 2, 0), Send(4, 0, 1, 1)]
    )
    report = simulate(inst, sched)
    assert report.valid
    assert len(report.redundant) == 1


def test_single_node_tree_completes_at_round_zero():
    g = Graph.build(2, [(0, 1)])
    inst = MulticastInstance.build(g, [MulticastTree(0, 0, {}, 0)])
    report = simulate(inst, Schedule.from_sends([]))
    assert report.valid
    assert report.per_tree_completion_round == {0: 0}


def test_knowledge_at_rejects_invalid_prefix():
    inst = chain_instance()
    sched = Schedule.from_sends([Send(1, 1, 2, 0)])
    with pytest.raises(ValueError):
        knowledge_at(inst, sched, 1)


def assert_knowledge_monotone(inst, sched, last_round):
    """knowledge_at never shrinks over rounds 0..last_round; returns the last."""
    prev: dict = {}
    for r in range(last_round + 1):
        holds = knowledge_at(inst, sched, r)
        for v, ms in prev.items():
            assert ms <= holds.get(v, frozenset())
        prev = holds
    return prev


def test_knowledge_prefix_monotone():
    inst = gen_random_instance(20, 3, 4, 5)
    sched = greedy_schedule(inst)
    prev = assert_knowledge_monotone(inst, sched, sched.declared_length)
    for t in inst.trees:
        for leaf in t.leaves:
            assert t.message_id in prev[leaf]


def test_schedule_json_roundtrip():
    inst = gen_random_instance(16, 3, 3, 2)
    sched = greedy_schedule(inst)
    back = schedule_from_json(schedule_to_json(sched))
    assert back == sched
    assert schedule_to_json(back) == schedule_to_json(sched)


# --- the oracle under mutation ---------------------------------------------
# A valid schedule with one send broken. simulate must report that send's
# kind first; every other violation may only be a send from a node that the
# broken send no longer feeds (sender_missing), and the tree stays incomplete.

SCHEDULERS = {
    "frames": lambda inst, seed: frame_multicast_schedule(inst, seed)[0],
    "greedy": lambda inst, seed: greedy_schedule(inst),
    "random_delay": random_delay_schedule,
}
MUTATIONS = {  # mutation -> the violation kind it must raise (None: none)
    "bad_round": "bad_round",
    "drop": None,
    "early": "sender_missing",
    "not_in_graph": "not_in_graph",
    "off_tree": "off_tree",
    "twice_on_edge": "capacity",
    "unknown_message": "unknown_message",
}

mutation_instances = st.one_of(
    st.builds(
        lambda n, k, depth, seed: gen_random_instance(n, k, min(depth, n - 1), seed),
        st.integers(3, 20), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6),
    ),
    st.builds(
        lambda n, c, depth, seed: gen_layered_instance(n, c, min(depth, n - 1), seed),
        st.integers(3, 20), st.integers(1, 5), st.integers(1, 5), st.integers(0, 10**6),
    ),
)


def _replacements(instance, schedule, mutation, s, busy, got, rng):
    """What send `s` may become under the mutation: a list of one send, []
    to drop it, or None when the mutation does not fit `s`."""
    tree = instance.tree_by_message[s.message_id]
    graph = instance.graph
    if mutation == "drop":
        return []
    if mutation == "twice_on_edge":
        return [s, s]
    if mutation == "unknown_message":
        return [Send(s.round, s.u, s.v, max(instance.tree_by_message) + 1)]
    if mutation == "bad_round":
        return [Send(rng.choice([0, schedule.declared_length + 1]), s.u, s.v, s.message_id)]
    if mutation == "early":  # a free round in which the sender does not hold it
        if s.u == tree.root:
            return None
        rounds = [r for r in range(1, got[(s.u, s.message_id)] + 1) if (r, s.edge) not in busy]
        return [Send(rng.choice(rounds), s.u, s.v, s.message_id)] if rounds else None
    if mutation == "off_tree":
        to = [
            w for w in graph.neighbors[s.u]
            if norm_edge(s.u, w) not in tree.edges and (s.round, norm_edge(s.u, w)) not in busy
        ]
    else:  # not_in_graph
        to = [w for w in range(graph.node_count) if w != s.u and not graph.has_edge(s.u, w)]
    return [Send(s.round, s.u, rng.choice(to), s.message_id)] if to else None


def check_mutation(instance, schedule, mutation, rng) -> bool:
    """Break one send and check simulate's verdict; False if no send fits."""
    busy = {(s.round, s.edge) for s in schedule.sends}
    got = {(s.v, s.message_id): s.round for s in schedule.sends}  # receipt round
    fits = []
    for i, s in enumerate(schedule.sends):
        new = _replacements(instance, schedule, mutation, s, busy, got, rng)
        if new is not None:
            fits.append((i, new))
    if not fits:
        return False
    i, new = rng.choice(fits)
    sends = list(schedule.sends[:i]) + new + list(schedule.sends[i + 1 :])
    sends.sort(key=lambda s: (s.round, s.u, s.v))
    report = simulate(instance, Schedule(tuple(sends), schedule.declared_length))

    assert not report.valid
    kinds = [v.kind for v in report.violations]
    if MUTATIONS[mutation] is not None:
        assert kinds[0] == MUTATIONS[mutation], report.violations[:3]
        assert report.violations[0].round == new[-1].round
        kinds = kinds[1:]
    assert set(kinds) <= {"sender_missing"}, report.violations[:3]
    if mutation != "twice_on_edge":
        tree = instance.tree_by_message[schedule.sends[i].message_id]
        assert tree.tree_id not in report.per_tree_completion_round
    return True


@settings(max_examples=150, deadline=None)
@given(
    inst=mutation_instances,
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    mutation=st.sampled_from(sorted(MUTATIONS)),
    seed=st.integers(0, 10**6),
)
def test_simulate_flags_each_mutation(inst, scheduler, mutation, seed):
    schedule = SCHEDULERS[scheduler](inst, seed)
    assert simulate(inst, schedule).valid
    assume(check_mutation(inst, schedule, mutation, random.Random(seed)))


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
def test_each_mutation_reaches_its_kind(mutation):
    """Each mutation fits, and raises its kind, on most of 21 fixed small
    instances, scheduled by each scheduler in turn."""
    fitted = 0
    for seed in range(21):
        inst = gen_random_instance(12, 3, 4, seed)
        schedule = SCHEDULERS[sorted(SCHEDULERS)[seed % 3]](inst, seed)
        fitted += check_mutation(inst, schedule, mutation, random.Random(seed))
    assert fitted >= 15


@settings(max_examples=60, deadline=None)
@given(
    inst=mutation_instances,
    scheduler=st.sampled_from(sorted(SCHEDULERS)),
    seed=st.integers(0, 10**6),
)
def test_knowledge_never_shrinks(inst, scheduler, seed):
    schedule = SCHEDULERS[scheduler](inst, seed)
    assert_knowledge_monotone(inst, schedule, schedule.declared_length + 1)
