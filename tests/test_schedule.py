import functools
import gc
import json
import pickle
import random
from collections import defaultdict
from dataclasses import fields

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mcastsched import (
    DeliveryReport,
    Graph,
    MulticastInstance,
    MulticastTree,
    Schedule,
    Send,
    Violation,
    build_lowerbound,
    compute_metrics,
    deterministic_schedule,
    distributed_multicast,
    distributed_rank_decomposition,
    frame_multicast_schedule,
    frame_schedule_from_decomps,
    gen_layered_instance,
    gen_random_instance,
    greedy_schedule,
    instance_from_json,
    instance_to_json,
    knowledge_at,
    norm_edge,
    random_delay_schedule,
    schedule_from_json,
    schedule_to_json,
    simulate,
    validate_instance,
)
from conftest import cyclic_garbage, schedule_of
from test_golden import CORPUS, EPSILON
from test_model import instances_with_defects


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
    sched = schedule_of(
        [Send(1, 0, 1, 0), Send(2, 1, 2, 0), Send(2, 0, 1, 1)]
    )
    report = simulate(inst, sched)
    assert report.valid
    assert report.length == 2
    assert report.per_tree_completion_round == {0: 2, 1: 2}
    assert report.redundant == []


def test_capacity_one_packet_per_edge_per_round():
    inst = chain_instance()
    sched = schedule_of([Send(1, 0, 1, 0), Send(1, 0, 1, 1)])
    report = simulate(inst, sched)
    assert not report.valid
    assert any(v.kind == "capacity" for v in report.violations)


def test_sender_must_hold_message_at_round_start():
    inst = chain_instance()
    # 1 -> 2 in round 1, but node 1 only receives message 0 at end of round 1
    sched = schedule_of([Send(1, 1, 2, 0), Send(1, 0, 1, 0)])
    report = simulate(inst, sched)
    assert any(v.kind == "sender_missing" for v in report.violations)


def test_same_round_receive_does_not_enable_forward():
    inst = chain_instance()
    sched = schedule_of(
        [Send(1, 0, 1, 0), Send(2, 1, 2, 0), Send(2, 0, 1, 1)]
    )
    holds = knowledge_at(inst, sched, 1)
    assert holds[1] == frozenset({0})
    assert 2 not in holds


def test_off_tree_and_unknown_message_flagged():
    inst = chain_instance()
    report = simulate(inst, schedule_of([Send(1, 1, 2, 1)]))
    assert any(v.kind == "off_tree" for v in report.violations)
    report = simulate(inst, schedule_of([Send(1, 0, 1, 99)]))
    assert [(v.kind, v.detail) for v in report.violations] == [
        ("unknown_message", "message 99: Send(round=1, u=0, v=1, message_id=99)")
    ]


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
    assert [(v.kind, v.detail) for v in report.violations] == [
        ("bad_round", "round < 1: Send(round=0, u=0, v=1, message_id=0)")
    ]
    report = simulate(inst, Schedule(sends=(Send(5, 0, 1, 0),), declared_length=2))
    assert any(v.kind == "bad_round" for v in report.violations)


def test_incomplete_schedule_invalid_without_violations():
    inst = chain_instance()
    report = simulate(inst, schedule_of([Send(1, 0, 1, 0)]))
    assert not report.valid
    assert report.violations == []
    assert report.length is None


def test_redundant_resend_recorded_not_fatal():
    inst = chain_instance()
    sched = schedule_of(
        [Send(1, 0, 1, 0), Send(2, 0, 1, 0), Send(3, 1, 2, 0), Send(4, 0, 1, 1)]
    )
    report = simulate(inst, sched)
    assert report.valid
    assert len(report.redundant) == 1


def test_single_node_tree_completes_at_round_zero():
    g = Graph.build(2, [(0, 1)])
    inst = MulticastInstance.build(g, [MulticastTree(0, 0, {}, 0)])
    report = simulate(inst, schedule_of([]))
    assert report.valid
    assert report.per_tree_completion_round == {0: 0}


def test_knowledge_at_rejects_invalid_prefix():
    inst = chain_instance()
    sched = schedule_of([Send(1, 1, 2, 0)])
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
        rounds = [
            r for r in range(1, got[(s.u, s.message_id)] + 1)
            if (r, norm_edge(s.u, s.v)) not in busy
        ]
        return [Send(rng.choice(rounds), s.u, s.v, s.message_id)] if rounds else None
    if mutation == "off_tree":
        to = [
            w for w in graph.neighbors[s.u]
            if norm_edge(s.u, w) not in tree.edges and (s.round, norm_edge(s.u, w)) not in busy
        ]
    else:  # not_in_graph
        to = [w for w in range(graph.node_count) if w != s.u and norm_edge(s.u, w) not in graph.edges]
    return [Send(s.round, s.u, rng.choice(to), s.message_id)] if to else None


def mutate(instance, schedule, mutation, rng):
    """Break one send: (its index, what it became, the broken schedule), or
    None if no send fits the mutation."""
    busy = {(s.round, norm_edge(s.u, s.v)) for s in schedule.sends}
    got = {(s.v, s.message_id): s.round for s in schedule.sends}  # receipt round
    fits = []
    for i, s in enumerate(schedule.sends):
        new = _replacements(instance, schedule, mutation, s, busy, got, rng)
        if new is not None:
            fits.append((i, new))
    if not fits:
        return None
    i, new = rng.choice(fits)
    sends = list(schedule.sends[:i]) + new + list(schedule.sends[i + 1 :])
    sends.sort(key=lambda s: (s.round, s.u, s.v))
    return i, new, Schedule(tuple(sends), schedule.declared_length)


def check_mutation(instance, schedule, mutation, rng) -> bool:
    """Break one send and check simulate's verdict; False if no send fits."""
    mutated = mutate(instance, schedule, mutation, rng)
    if mutated is None:
        return False
    i, new, broken = mutated
    report = simulate(instance, broken)

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


# --- Send is a named tuple -------------------------------------------------

def test_send_contract():
    s = Send(1, 0, 1, 0)
    assert repr(s) == "Send(round=1, u=0, v=1, message_id=0)"  # in violation details
    with pytest.raises(AttributeError):
        s.round = 2
    assert s == Send(round=1, u=0, v=1, message_id=0)
    assert hash(s) == hash(Send(1, 0, 1, 0))
    rnd, u, v, mid = Send(4, 2, 3, 1)
    assert (rnd, u, v, mid) == (4, 2, 3, 1)
    assert sorted([Send(2, 0, 1, 0), Send(1, 1, 2, 0), Send(1, 0, 1, 1)]) == [
        Send(1, 0, 1, 1), Send(1, 1, 2, 0), Send(2, 0, 1, 0)
    ]


# --- Schedule keeps its sends as integer columns ----------------------------

def test_schedule_keeps_given_sends_in_order():
    sends = (Send(2, 1, 2, 0), Send(1, 0, 1, 7), (2, 0, 1, 3), Send(1, 0, 1, 4))
    sched = Schedule(sends, 2)
    assert sched.sends == tuple(sends)
    assert all(type(s) is Send for s in sched.sends)
    assert Schedule(iter(sends), 2) == sched  # any iterable of 4-tuples
    assert Schedule(sends=[], declared_length=3).sends == ()


def test_built_schedule_equals_one_built_from_its_sends():
    inst = gen_random_instance(60, 6, 5, 3)
    for scheduler in sorted(SCHEDULERS):
        built = SCHEDULERS[scheduler](inst, 1)
        again = Schedule(built.sends, built.declared_length)
        assert again == built and hash(again) == hash(built)
        assert again != Schedule(built.sends, built.declared_length + 1)
        assert again != Schedule(built.sends[:-1], built.declared_length)


def test_schedule_pickles_and_hashes_like_its_sends():
    sched = greedy_schedule(gen_random_instance(40, 4, 4, 0))
    back = pickle.loads(pickle.dumps(sched))
    assert back == sched and back.sends == sched.sends
    assert hash(back) == hash(sched)
    assert len({sched, back, Schedule(sched.sends, sched.declared_length)}) == 1
    swapped = Schedule(reversed(sched.sends), sched.declared_length)
    assert swapped != sched  # the same sends in another order


def test_schedule_keeps_node_ids_beyond_32_bits():
    big = (Send(1, 5, 7, 10**12), Send(2, 7, 10**11, 2**63 - 1), Send(0, -(2**63), 1, 0))
    sched = Schedule(big, 2)
    assert sched.sends == big
    assert schedule_from_json(schedule_to_json(sched)).sends == tuple(sorted(big))
    with pytest.raises(OverflowError):
        Schedule([Send(1, 0, 2**63, 0)], 1)


def test_schedule_reader_refuses_field_beyond_64_bits():
    text = '{"length":1,"sends":[{"from":0,"msg":0,"round":1,"to":1},{"from":0,"msg":%d,"round":1,"to":1}]}'
    with pytest.raises(ValueError, match="send 1: 'msg' is outside the 64-bit range"):
        schedule_from_json(text % 2**63)
    assert schedule_from_json(text % (2**63 - 1)).sends[1].message_id == 2**63 - 1


# --- differential: the emitter against the json.dumps body it replaced -------

def reference_schedule_to_json(schedule: Schedule) -> str:
    doc = {
        "length": schedule.declared_length,
        "sends": [
            {"round": s.round, "from": s.u, "to": s.v, "msg": s.message_id}
            for s in sorted(schedule.sends, key=lambda s: (s.round, s.u, s.v))
        ],
    }
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


@functools.cache
def corpus_case(name) -> tuple[MulticastInstance, dict[str, Schedule]]:
    """A corpus instance and every scheduler's output on it at seed 0, built
    once per session for the tests that read them."""
    instance = CORPUS[name]()
    return instance, corpus_schedules(instance)


def corpus_schedules(instance, seed=0) -> dict[str, Schedule]:
    """Every scheduler's output on one instance."""
    dist = distributed_rank_decomposition(instance, EPSILON, seed)
    budget = max(1, compute_metrics(instance).congestion)  # always met
    return {
        "greedy": greedy_schedule(instance),
        "random_delay": random_delay_schedule(instance, seed),
        "frames": frame_multicast_schedule(instance, seed)[0],
        "deterministic": deterministic_schedule(instance, budget)[0],
        "congest": distributed_multicast(instance, EPSILON, seed, depths_known=True)[0],
        "distributed": frame_schedule_from_decomps(
            instance, dist.decompositions, dist.chunk_length, seed
        )[0],
    }


def assert_emits_like_reference(schedule: Schedule):
    """Byte-equal to the reference, and read back as the schedule's sends in
    (round, u, v) order, ties kept in input order."""
    text = schedule_to_json(schedule)
    assert text == reference_schedule_to_json(schedule)
    back = schedule_from_json(text)
    assert back.declared_length == schedule.declared_length
    assert back.sends == tuple(sorted(schedule.sends, key=lambda s: (s.round, s.u, s.v)))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_emitter_matches_reference_on_corpus(name):
    rng = random.Random(name)
    instance, schedules = corpus_case(name)
    assert instance_from_json(instance_to_json(instance)) == instance  # the reader's round trip
    for scheduler, schedule in schedules.items():
        assert_emits_like_reference(schedule)
        shuffled = list(schedule.sends)
        rng.shuffle(shuffled)
        shuffled = Schedule(tuple(shuffled), schedule.declared_length)
        assert schedule_to_json(shuffled) == reference_schedule_to_json(shuffled), scheduler


@pytest.mark.parametrize(
    "sends, length",
    [
        ((Send(1, 0, 1, 5), Send(1, 0, 1, 2)), 1),  # tied on (round, u, v)
        ((Send(1, 0, 1, 2), Send(1, 0, 1, 5)), 1),
        ((Send(2, 1, 2, 0), Send(1, 0, 1, 7), Send(2, 1, 2, 3), Send(1, 0, 1, 4)), 2),
        ((), 0),
        ((), 3),
        ((Send(1, 0, 1, 0), Send(2, 1, 2, 0)), 9),  # declared beyond the last send
    ],
    ids=["tie", "tie-reversed", "ties-shuffled", "empty", "empty-length-3", "long"],
)
def test_emitter_matches_reference_on_edge_cases(sends, length):
    assert_emits_like_reference(Schedule(sends, length))


# --- differential: the replay against the loop it replaced -------------------
# `_replay` once bucketed the in-range sends into a dict of per-round lists;
# that loop and the `simulate` and `knowledge_at` bodies over it are kept
# verbatim as references.

def reference_replay(instance: MulticastInstance, schedule: Schedule, upto_round=None):
    by_msg = instance.tree_by_message
    graph_edges = instance.graph.edges
    holds: dict[int, set[int]] = defaultdict(set)
    remaining: dict[int, set[int]] = {}
    completion: dict[int, int] = {}
    for t in instance.trees:
        holds[t.root].add(t.message_id)
        remaining[t.tree_id] = set(t.leaves) - {t.root}
        if not remaining[t.tree_id]:
            completion[t.tree_id] = 0

    violations: list[Violation] = []
    redundant: list[Send] = []
    rounds: dict[int, list[Send]] = defaultdict(list)
    for s in schedule.sends:
        if s.round < 1:
            violations.append(Violation("bad_round", s.round, f"round < 1: {s}"))
            continue
        if s.round > schedule.declared_length:
            violations.append(
                Violation("bad_round", s.round, f"round beyond declared length: {s}")
            )
            continue
        if upto_round is not None and s.round > upto_round:
            continue
        rounds[s.round].append(s)

    for r in sorted(rounds):
        used_edges: set[tuple[int, int]] = set()
        deliveries: list[Send] = []
        for s in rounds[r]:
            tree = by_msg.get(s.message_id)
            if tree is None:
                violations.append(
                    Violation("unknown_message", r, f"message {s.message_id}: {s}")
                )
                continue
            edge = norm_edge(s.u, s.v)
            if edge in used_edges:
                violations.append(
                    Violation("capacity", r, f"edge {edge} used twice in round {r}")
                )
                continue
            used_edges.add(edge)
            if edge not in graph_edges:
                violations.append(
                    Violation("not_in_graph", r, f"edge {edge} not in the host graph")
                )
                continue
            if edge not in tree.edges:
                violations.append(
                    Violation("off_tree", r, f"edge {edge} not in tree {tree.tree_id}")
                )
                continue
            if s.message_id not in holds[s.u]:
                violations.append(
                    Violation(
                        "sender_missing",
                        r,
                        f"node {s.u} does not hold message {s.message_id} in round {r}",
                    )
                )
                continue
            if s.message_id in holds[s.v]:
                redundant.append(s)
            deliveries.append(s)
        for s in deliveries:
            if s.message_id not in holds[s.v]:
                holds[s.v].add(s.message_id)
                tree = by_msg[s.message_id]
                rem = remaining[tree.tree_id]
                rem.discard(s.v)
                if not rem and tree.tree_id not in completion:
                    completion[tree.tree_id] = r
    return holds, violations, redundant, completion


def reference_simulate(instance: MulticastInstance, schedule: Schedule) -> DeliveryReport:
    _, violations, redundant, completion = reference_replay(instance, schedule)
    complete = len(completion) == len(instance.trees)
    length = max(completion.values(), default=0) if complete else None
    return DeliveryReport(
        valid=complete and not violations,
        length=length,
        violations=violations,
        per_tree_completion_round=completion,
        redundant=redundant,
    )


def reference_knowledge_at(
    instance: MulticastInstance, schedule: Schedule, round: int
) -> dict[int, frozenset[int]]:
    holds, violations, _, _ = reference_replay(instance, schedule, upto_round=round)
    if violations:
        raise ValueError(f"invalid schedule prefix: {violations[0]}")
    return {v: frozenset(ms) for v, ms in holds.items() if ms}


def _outcome(call):
    try:
        return call()
    except ValueError as exc:
        return str(exc)


REPLAY_SCHEDULERS = {
    **SCHEDULERS,
    "congest": lambda inst, seed: distributed_multicast(inst, seed=seed, depths_known=True)[0],
    "deterministic": lambda inst, seed: deterministic_schedule(
        inst, max(1, compute_metrics(inst).congestion)
    )[0],
    "distributed": lambda inst, seed: distributed_multicast(inst, seed=seed)[0],
}
replay_instances = st.one_of(
    mutation_instances,
    st.sampled_from([(2, 1), (2, 2), (2, 3), (4, 1), (4, 2), (6, 1)]).map(
        lambda cd: build_lowerbound(*cd).instance
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    inst=replay_instances,
    scheduler=st.sampled_from(sorted(REPLAY_SCHEDULERS)),
    mutation=st.sampled_from([None, *sorted(MUTATIONS)]),
    merged=st.none() | st.sampled_from(sorted(REPLAY_SCHEDULERS)),
    shuffle=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_replay_matches_reference(inst, scheduler, mutation, merged, shuffle, seed):
    """simulate and knowledge_at agree with the reference on valid schedules,
    on each mutation of them, on their union with a second scheduler's
    sends (many violations and resends per round), and on any send order."""
    rng = random.Random(seed)
    schedule = REPLAY_SCHEDULERS[scheduler](inst, seed)
    if mutation is not None:
        mutated = mutate(inst, schedule, mutation, rng)
        schedule = schedule if mutated is None else mutated[2]
    sends, length = list(schedule.sends), schedule.declared_length
    if merged is not None:
        other = REPLAY_SCHEDULERS[merged](inst, seed + 1)
        sends += other.sends
        length = max(length, other.declared_length)
    if shuffle:
        rng.shuffle(sends)
    schedule = Schedule(tuple(sends), length)
    report, expected = simulate(inst, schedule), reference_simulate(inst, schedule)
    for f in fields(DeliveryReport):
        assert getattr(report, f.name) == getattr(expected, f.name), f.name
    for r in range(schedule.declared_length + 2):
        assert _outcome(lambda: knowledge_at(inst, schedule, r)) == _outcome(
            lambda: reference_knowledge_at(inst, schedule, r)
        ), r


@settings(max_examples=300, deadline=None)
@given(inst=instances_with_defects(), data=st.data())
def test_replay_matches_reference_on_malformed_trees(inst, data):
    """Trees whose root has a parent, with unreachable keys, cycles and
    self-parents: every message crosses every graph edge both ways, in
    random rounds, and the replay's on-tree test (from parent links and
    depths) agrees with the reference's `edge in tree.edges`."""
    last = data.draw(st.integers(1, 4))
    sends = [
        Send(data.draw(st.integers(1, last)), a, b, mid)
        for mid in sorted({t.message_id for t in inst.trees})
        for u, v in sorted(inst.graph.edges)
        for a, b in ((u, v), (v, u))
    ]
    assert_replays_like_reference(inst, Schedule(tuple(data.draw(st.permutations(sends))), last))


@settings(max_examples=150, deadline=None)
@given(
    inst=replay_instances,
    scheduler=st.sampled_from(sorted(REPLAY_SCHEDULERS)),
    how=st.sampled_from(["ascending", "permuted", "below_one", "beyond_length"]),
    data=st.data(),
)
def test_replay_paths_match_reference(inst, scheduler, how, data):
    """The replay walks the columns as they are when rounds ascend inside
    [1, last], and otherwise filters and sorts them: both ways agree with
    the reference, on every prefix `knowledge_at` cuts."""
    schedule = REPLAY_SCHEDULERS[scheduler](inst, data.draw(st.integers(0, 10**6)))
    sends, length = list(schedule.sends), schedule.declared_length
    if how == "permuted":
        sends = data.draw(st.permutations(sends))
    elif sends and how != "ascending":
        i = data.draw(st.integers(0, len(sends) - 1))
        bad = data.draw(st.integers(-2, 0) if how == "below_one" else st.integers(length + 1, length + 3))
        sends[i] = sends[i]._replace(round=bad)
    schedule = Schedule(sends, length)
    rounds = [s.round for s in sends]
    if how == "ascending":
        assert rounds == sorted(rounds) and all(1 <= r <= length for r in rounds)
    report, expected = simulate(inst, schedule), reference_simulate(inst, schedule)
    for f in fields(DeliveryReport):
        assert getattr(report, f.name) == getattr(expected, f.name), f.name
    cut = data.draw(st.integers(0, length + 1))
    assert _outcome(lambda: knowledge_at(inst, schedule, cut)) == _outcome(
        lambda: reference_knowledge_at(inst, schedule, cut)
    )


# --- hand-made replay cases, each against the reference ----------------------

def assert_replays_like_reference(inst, schedule) -> DeliveryReport:
    report, expected = simulate(inst, schedule), reference_simulate(inst, schedule)
    for f in fields(DeliveryReport):
        assert getattr(report, f.name) == getattr(expected, f.name), f.name
    for r in range(schedule.declared_length + 2):
        assert _outcome(lambda: knowledge_at(inst, schedule, r)) == _outcome(
            lambda: reference_knowledge_at(inst, schedule, r)
        ), r
    return report


def test_replay_repeated_message_id_held_at_every_root():
    """Two trees carry message 7: tree 0 from root 0 to nodes 1 and 4, and
    tree 1 from root 3 down the path to node 0. validate_instance rejects
    the repeated id. Both roots hold the message, and sends are checked
    against tree 1, the last tree with that id."""
    g = Graph.build(5, [(0, 1), (1, 2), (2, 3), (0, 4)])
    inst = MulticastInstance.build(
        g,
        [
            MulticastTree(0, 0, {1: 0, 4: 0}, 7),
            MulticastTree(1, 3, {2: 3, 1: 2, 0: 1}, 7),
        ],
    )
    assert validate_instance(inst)
    sched = schedule_of([Send(1, 0, 1, 7), Send(1, 3, 2, 7), Send(2, 0, 4, 7)])
    report = assert_replays_like_reference(inst, sched)
    assert [(v.kind, v.round) for v in report.violations] == [("off_tree", 2)]
    assert report.redundant == []
    assert knowledge_at(inst, sched, 0) == {0: frozenset({7}), 3: frozenset({7})}
    assert set(knowledge_at(inst, sched, 1)) == {0, 1, 2, 3}


def test_replay_two_deliveries_in_one_round_not_redundant():
    """Roots 0 and 2 both hold message 7 and send it to node 1 in round 1:
    neither delivery is redundant, and a resend in round 2 is."""
    g = Graph.build(3, [(0, 1), (1, 2)])
    inst = MulticastInstance.build(
        g, [MulticastTree(0, 0, {1: 0, 2: 1}, 7), MulticastTree(1, 2, {1: 2, 0: 1}, 7)]
    )
    sched = schedule_of([Send(1, 0, 1, 7), Send(1, 2, 1, 7), Send(2, 2, 1, 7)])
    report = assert_replays_like_reference(inst, sched)
    assert report.violations == []
    assert report.redundant == [Send(2, 2, 1, 7)]


def test_replay_forward_in_arrival_round_is_sender_missing():
    """Node 1 receives message 0 in round 1, and the forward listed after it
    in the same round is still refused."""
    inst = chain_instance()
    sched = Schedule((Send(1, 0, 1, 0), Send(1, 1, 2, 0)), 1)
    report = assert_replays_like_reference(inst, sched)
    assert [(v.kind, v.round) for v in report.violations] == [("sender_missing", 1)]


def test_replay_send_back_to_root_is_redundant():
    inst = chain_instance()
    sched = schedule_of([Send(1, 0, 1, 0), Send(2, 1, 0, 0)])
    report = assert_replays_like_reference(inst, sched)
    assert report.violations == []
    assert report.redundant == [Send(2, 1, 0, 0)]


# --- the cyclic collector is paused while the replay runs --------------------

@pytest.mark.parametrize("name", sorted(CORPUS))
def test_replay_leaves_no_cyclic_garbage(name):
    inst = CORPUS[name]()
    schedule = greedy_schedule(inst)
    assert cyclic_garbage(lambda: simulate(inst, schedule)) == 0
    half = schedule.declared_length // 2
    assert cyclic_garbage(lambda: knowledge_at(inst, schedule, half)) == 0
    text = schedule_to_json(schedule)
    assert cyclic_garbage(lambda: schedule_from_json(text)) == 0


def test_replay_keeps_callers_disabled_collector(shared_edge):
    schedule = greedy_schedule(shared_edge)
    gc.disable()
    try:
        assert simulate(shared_edge, schedule).valid
        knowledge_at(shared_edge, schedule, 1)
        assert schedule_from_json(schedule_to_json(schedule)) == schedule
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_schedule_reader_turns_collector_back_on():
    """`schedule_from_json` runs with the collector paused, and switches it
    back on after a file it reads and after one it refuses."""
    text = '{"length":1,"sends":[{"from":0,"msg":0,"round":1,"to":1}]}'
    assert schedule_from_json(text).sends == (Send(1, 0, 1, 0),)
    assert gc.isenabled()
    with pytest.raises(ValueError, match="send 0: unknown key 'mesg'"):
        schedule_from_json(text.replace('"msg"', '"msg":0,"mesg"'))
    assert gc.isenabled()


def test_schedule_reader_refuses_negative_length():
    """A negative length is refused before any send is read; 0 is a length."""
    with pytest.raises(ValueError, match="length must be >= 0, not -3"):
        schedule_from_json('{"length":-3,"sends":[]}')
    assert schedule_from_json('{"length":0,"sends":[]}') == Schedule((), 0)
