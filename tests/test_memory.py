"""What a run holds: one object per repeated value, and bounds on the heap.

A loaded instance keeps one int per node id, trees build their edge sets on
read instead of keeping them, a CONGEST transcript keeps one key tuple per
directed edge and one string per distinct payload, and a schedule keeps its
sends as four integer columns. The live-heap bounds sit between this layout
and the one that kept a copy per occurrence or a tuple per send.
"""

import gc
import json
import tracemalloc
from collections import defaultdict

import pytest

from mcastsched import (
    build_lowerbound,
    compute_metrics,
    distributed_rank_decomposition,
    gen_random_instance,
    greedy_schedule,
    instance_from_json,
    instance_to_json,
    pad_to_n,
    schedule_to_json,
    simulate,
    validate_instance,
)
from test_golden import CORPUS
from test_model import reference_views

MB = 2**20


def assert_one_object_per_value(values):
    ids = defaultdict(set)
    for x in values:
        ids[x].add(id(x))
    shared = {x: len(i) for x, i in ids.items() if len(i) > 1}
    assert not shared, f"values held more than once: {dict(list(shared.items())[:5])}"


def node_ids(instance):
    for u, v in instance.graph.edges:
        yield u
        yield v
    for t in instance.trees:
        yield t.root
        yield from t.parent
        yield from t.parent.values()


def test_loaded_node_ids_are_one_object_each():
    # ids above 256 are not among CPython's cached small ints
    text = instance_to_json(gen_random_instance(600, 8, 5, 1))
    inst = instance_from_json(text)
    assert max(node_ids(inst)) > 256
    assert_one_object_per_value(node_ids(inst))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_trees_keep_no_edge_set(name):
    inst = instance_from_json(instance_to_json(CORPUS[name]()))
    assert not validate_instance(inst)
    compute_metrics(inst)
    assert simulate(inst, greedy_schedule(inst)).valid
    for t in inst.trees:
        assert "edges" not in vars(t)
        assert t.edges == reference_views(t)[2]
        assert "edges" not in vars(t)


def test_transcript_keys_and_payloads_are_one_object_each():
    inst = gen_random_instance(120, 12, 5, 3)
    for tr in distributed_rank_decomposition(inst, seed=0).transcripts:
        assert any(len(rnd) for rnd in tr.rounds)
        assert_one_object_per_value(k for rnd in tr.rounds for k in rnd)
        assert_one_object_per_value(b for rnd in tr.rounds for b in rnd.values())


def test_huge_node_count_costs_nothing_per_node():
    """`n` comes from the file: a table sized by it would not fit in memory."""
    text = json.dumps({"n": 10**12, "edges": [[5, 7], [7, 10**11]],
                       "trees": [{"id": 0, "root": 5, "parent": {"7": 5, str(10**11): 7}}]})
    tracemalloc.start()
    try:
        inst = instance_from_json(text)
        assert not validate_instance(inst)
        schedule = greedy_schedule(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert schedule.declared_length == 2
    assert peak <= 1 * MB, peak


def test_decomposition_costs_nothing_per_idle_node():
    """Only nodes of some tree get a record and a program, so padding the
    graph with nodes in no tree adds nothing (a 116 MB peak at this size when
    every node had one)."""
    inst = pad_to_n(build_lowerbound(2, 2), 100_000)
    compute_metrics(inst)
    gc.collect()
    tracemalloc.start()
    try:
        dist = distributed_rank_decomposition(inst, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist.rounds == 16
    assert peak <= 2 * MB, peak


# --- bounds on the live heap ---------------------------------------------------
# On gen_random_instance(2000, 60, 12, 0), with Python 3.11: load, validate and
# metrics leave 7.3 MB live (13.4 MB when each occurrence of a node id was its
# own int and each tree kept its edge set); the three transcripts hold 5.6 MB
# (17.5 MB with one key tuple and one string per message); the greedy
# schedule's 42,200 sends hold 1.33 MB (3.54 MB as a tuple of `Send`), and
# writing it as JSON peaks at 3.66 MB, of which the text is 1.69 MB (5.65 MB
# when the emitter built one string per send and joined the body twice).

@pytest.fixture(scope="module")
def congest_text():
    return instance_to_json(gen_random_instance(2000, 60, 12, 0))


def live_heap(call):
    """(what `call()` returns, the MB still allocated after it, past a collection)."""
    gc.collect()
    tracemalloc.start()
    try:
        result = call()
        gc.collect()
        return result, tracemalloc.get_traced_memory()[0] / MB
    finally:
        tracemalloc.stop()


def load_validate_metrics(text):
    inst = instance_from_json(text)
    assert not validate_instance(inst)
    compute_metrics(inst)
    return inst


def test_loaded_instance_live_heap(congest_text):
    _, mb = live_heap(lambda: load_validate_metrics(congest_text))
    assert mb <= 9.0, mb


def test_transcripts_live_heap(congest_text):
    inst = load_validate_metrics(congest_text)
    transcripts, mb = live_heap(
        lambda: distributed_rank_decomposition(inst, seed=0).transcripts
    )
    assert len(transcripts) == 3
    assert mb <= 7.5, mb


@pytest.fixture(scope="module")
def congest_greedy(congest_text):
    return greedy_schedule(load_validate_metrics(congest_text))


def test_schedule_live_heap(congest_text):
    inst = load_validate_metrics(congest_text)
    schedule, mb = live_heap(lambda: greedy_schedule(inst))
    assert len(schedule.columns[0]) == 42_200
    assert mb <= 1.6, mb


def test_schedule_emit_peak(congest_greedy):
    gc.collect()
    tracemalloc.start()
    try:
        text = schedule_to_json(congest_greedy)
        peak = tracemalloc.get_traced_memory()[1] / MB
    finally:
        tracemalloc.stop()
    assert len(text) > 1.6 * MB
    assert peak <= 4.5, peak
