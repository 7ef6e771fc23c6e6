import pytest

from mcastsched import (
    Graph,
    MulticastInstance,
    MulticastTree,
    Schedule,
    Send,
    gen_random_instance,
    greedy_schedule,
    knowledge_at,
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


def test_knowledge_prefix_monotone():
    inst = gen_random_instance(20, 3, 4, 5)
    sched = greedy_schedule(inst)
    prev: dict = {}
    for r in range(sched.declared_length + 1):
        holds = knowledge_at(inst, sched, r)
        for v, ms in prev.items():
            assert ms <= holds.get(v, frozenset())
        prev = holds
    for t in inst.trees:
        for leaf in t.leaves:
            assert t.message_id in prev[leaf]


def test_schedule_json_roundtrip():
    inst = gen_random_instance(16, 3, 3, 2)
    sched = greedy_schedule(inst)
    back = schedule_from_json(schedule_to_json(sched))
    assert back == sched
    assert schedule_to_json(back) == schedule_to_json(sched)
