import gc
import random
from operator import itemgetter

import pytest

from mcastsched import Graph, MulticastInstance, MulticastTree, Schedule

# one line per acceptance criterion, printed in the terminal summary
acceptance_lines: list[str] = []


@pytest.fixture(autouse=True)
def collector_left_on():
    """Fail any test after which the cyclic garbage collector is off: a
    wrapper that pauses it must switch it back on, also when it raises."""
    yield
    assert gc.isenabled(), "the cyclic garbage collector was left disabled"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


def cyclic_garbage(call) -> int:
    """Objects in reference cycles that `call()` leaves behind, its result
    dropped, counted with the collector off from before the call."""
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def schedule_of(sends) -> Schedule:
    """The sends stably sorted by (round, u, v), declared as long as the last
    send's round (0 when there are none)."""
    sends = tuple(sorted(sends, key=itemgetter(0, 1, 2)))
    return Schedule(sends, max((s.round for s in sends), default=0))


def shared_edge_instance() -> MulticastInstance:
    """Two single-edge trees sharing one edge: C=2, D=1, optimum 2."""
    graph = Graph.build(2, [(0, 1)])
    return MulticastInstance.build(
        graph,
        [MulticastTree(0, 0, {1: 0}, 0), MulticastTree(1, 0, {1: 0}, 1)],
    )


def random_tree(node_count: int, seed: int) -> MulticastTree:
    """Uniform random parent assignment (parent id < child id)."""
    rng = random.Random(seed)
    parent = {v: rng.randrange(v) for v in range(1, node_count)}
    return MulticastTree(0, 0, parent, 0)


@pytest.fixture
def shared_edge():
    return shared_edge_instance()
