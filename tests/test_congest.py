import gc
import math
import weakref
from collections import Counter, defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcastsched.congest as congest_module
from mcastsched import (
    BudgetViolation,
    CongestNetwork,
    CongestTranscript,
    Graph,
    MulticastInstance,
    MulticastTree,
    RoundLimitError,
    Send,
    build_lowerbound,
    compute_metrics,
    decomposition_to_json,
    distributed_multicast,
    distributed_rank_decomposition,
    frame_multicast_schedule,
    gen_layered_instance,
    gen_random_instance,
    instance_from_json,
    instance_to_json,
    log2_ceil,
    message_size_audit,
    norm_edge,
    pad_to_n,
    rank_decomposition,
    run_congest,
    schedule_to_json,
    simulate,
    tree_offsets,
    verify_short,
)
from mcastsched.congest import _level_range_slices
from conftest import schedule_of
from test_decomposition import oracle_edge_to_path, reference_shorten


# --- driver ----------------------------------------------------------------

def lockstep_run_congest(network, programs, max_rounds):
    """Reference for `run_congest`: the lock-step driver it replaced. Every
    node steps in every round; the frame advances after each round in which
    no node sent bits."""
    budget = network.bits_per_edge_per_round
    transcript = CongestTranscript()
    inbox = defaultdict(dict)
    frame = 0
    for r in range(max_rounds):
        if not inbox and all(p.done for p in programs.values()):
            return transcript
        delivered, inbox = inbox, defaultdict(dict)
        record = {}
        for v, prog in programs.items():
            out = prog.step(frame, delivered.get(v, {}))
            for u, bits in out.items():
                if not bits:
                    continue
                if norm_edge(v, u) not in network.graph.edges:
                    raise ValueError(f"node {v} sent on non-edge ({v},{u})")
                if len(bits) > budget:
                    raise BudgetViolation(r, (v, u), len(bits), budget)
                record[(v, u)] = bits
                inbox[u][v] = bits
        transcript.steps += len(programs)
        transcript.rounds.append(record)
        if not record:
            frame += 1
    if inbox or not all(p.done for p in programs.values()):
        raise RoundLimitError(f"no convergence within {max_rounds} rounds")
    return transcript


class _Echo:
    """Sends one fixed payload to each neighbor in round 0, then stops."""

    busy = False
    release_frames = ()

    def __init__(self, node, neighbors, payload):
        self.node = node
        self.neighbors = neighbors
        self.payload = payload
        self.sent = False
        self.got = {}

    @property
    def done(self):
        return self.sent

    def step(self, frame, inbox):
        self.got.update(inbox)
        if self.sent:
            return {}
        self.sent = True
        return {u: self.payload for u in self.neighbors}


def test_run_congest_delivers_next_round(driver=run_congest):
    g = Graph.build(2, [(0, 1)])
    net = CongestNetwork(g, bit_factor=4)
    progs = {v: _Echo(v, g.neighbors[v], "1010") for v in (0, 1)}
    tr = driver(net, progs, 10)
    assert tr.total_rounds == 2
    assert progs[0].got == {1: "1010"}
    assert tr.rounds == [{(0, 1): "1010", (1, 0): "1010"}, {}]
    assert tr.steps == 4
    assert tr.idle_rounds == 1


class _Late:
    """Holds one payload for its neighbor until the frame reaches `due`, and
    logs the frame of every step it is given."""

    busy = False

    def __init__(self, neighbor, due, log):
        self.neighbor = neighbor
        self.release_frames = (due,)
        self.log = log
        self.sent = False

    @property
    def done(self):
        return self.sent

    def step(self, frame, inbox):
        self.log.append(frame)
        if self.sent or frame < self.release_frames[0]:
            return {}
        self.sent = True
        return {self.neighbor: "1"}


def test_run_congest_steps_only_on_mail_busy_or_release():
    g = Graph.build(2, [(0, 1)])
    log0, log1 = [], []
    progs = {0: _Late(1, 3, log0), 1: _Late(0, 1, log1)}
    tr = run_congest(CongestNetwork(g), progs, 20)
    # Round 0 steps all; frames 1..3 are reached after the idle rounds 0, 2
    # and 3. Node 1 sends at frame 1 (round 1), node 0 at frame 3 (round 4).
    assert [list(r) for r in tr.rounds] == [[], [(1, 0)], [], [], [(0, 1)], []]
    assert tr.idle_rounds == 4
    # node 0: round 0, round 2 (mail from node 1), round 4 (frame 3 reached);
    # node 1: round 0, round 1 (frame 1 reached), round 5 (mail from node 0).
    assert log0 == [0, 1, 3]
    assert log1 == [0, 1, 3]
    assert tr.steps == 6
    ref = lockstep_run_congest(CongestNetwork(g), {
        0: _Late(1, 3, []), 1: _Late(0, 1, [])
    }, 20)
    assert [list(r.items()) for r in ref.rounds] == [
        list(r.items()) for r in tr.rounds
    ]
    assert ref.steps == 2 * len(ref.rounds)


def test_run_congest_enforces_budget(driver=run_congest):
    g = Graph.build(2, [(0, 1)])
    net = CongestNetwork(g, bit_factor=1)  # budget = 1 * ceil(log2 2) = 1
    progs = {v: _Echo(v, g.neighbors[v], "1010") for v in (0, 1)}
    with pytest.raises(BudgetViolation):
        driver(net, progs, 10)


def test_run_congest_rejects_non_edges(driver=run_congest):
    g = Graph.build(3, [(0, 1)])
    net = CongestNetwork(g)
    progs = {v: _Echo(v, [2] if v == 0 else [], "1") for v in range(3)}
    with pytest.raises(ValueError):
        driver(net, progs, 10)


def test_run_congest_round_limit(driver=run_congest):
    class Forever:
        done = False
        busy = False
        release_frames = ()

        def step(self, frame, inbox):
            return {}

    g = Graph.build(2, [(0, 1)])
    with pytest.raises(RoundLimitError):
        driver(CongestNetwork(g), {0: Forever(), 1: Forever()}, 5)


@pytest.mark.parametrize("check", [
    test_run_congest_delivers_next_round,
    test_run_congest_enforces_budget,
    test_run_congest_rejects_non_edges,
    test_run_congest_round_limit,
], ids=["delivers_next_round", "enforces_budget", "rejects_non_edges",
        "round_limit"])
def test_lockstep_reference_same_contract(check):
    """The lock-step reference passes the driver checks `run_congest` does."""
    check(lockstep_run_congest)


def test_message_size_audit_max_bits():
    g = Graph.build(2, [(0, 1)])
    net = CongestNetwork(g, bit_factor=4)
    progs = {v: _Echo(v, g.neighbors[v], "101") for v in (0, 1)}
    tr = run_congest(net, progs, 10)
    report = message_size_audit(tr, 4)
    assert (report.max_bits, report.budget, report.passed) == (3, 4, True)
    bad = message_size_audit(tr, 2)
    assert (bad.max_bits, bad.passed) == (3, False)
    # a list of transcripts, as the CLI and perfbench pass them: the widest
    # payload is in the second one
    wide = CongestTranscript(rounds=[{}, {(1, 0): "10110"}])
    both = message_size_audit([tr, wide], 4)
    assert (both.max_bits, both.passed) == (5, False)
    assert message_size_audit([tr, wide], 5).passed


def test_tree_offsets_shared_randomness():
    inst = gen_random_instance(20, 4, 3, 0)
    a = tree_offsets(inst, 7, 5)
    b = tree_offsets(inst, 7, 5)
    assert a == b
    assert all(0 <= x < 5 for x in a.values())
    assert tree_offsets(inst, 8, 5) != a or len(a) == 1


# --- distributed decomposition ---------------------------------------------

def centralized_chunks(tree, chunk_length):
    dec, ranks = rank_decomposition(tree)
    return reference_shorten(dec, chunk_length), ranks


@pytest.mark.parametrize("seed", range(10))
def test_matches_centralized_single_tree(seed):
    inst = gen_random_instance(40, 1, 8, seed)
    dist = distributed_rank_decomposition(inst, seed=seed)
    tree = inst.trees[0]
    cen, ranks = centralized_chunks(tree, dist.chunk_length)
    got = dist.decompositions[tree.tree_id]
    assert sorted(got.paths) == sorted(cen.paths)
    assert dist.ranks[tree.tree_id].rank == ranks.rank


@pytest.mark.parametrize("seed", range(8))
def test_matches_centralized_multi_tree(seed):
    inst = gen_random_instance(30, 4, 5, seed)
    dist = distributed_rank_decomposition(inst, seed=seed)
    for tree in inst.trees:
        if tree.max_depth == 0:
            continue
        cen, ranks = centralized_chunks(tree, dist.chunk_length)
        got = dist.decompositions[tree.tree_id]
        assert sorted(got.paths) == sorted(cen.paths), tree.tree_id
        assert {p: got.level[i] for i, p in enumerate(got.paths)} == {
            p: cen.level[i] for i, p in enumerate(cen.paths)
        }
        assert dist.ranks[tree.tree_id].rank == ranks.rank
        assert got.edge_to_path == oracle_edge_to_path(tree, got)


@pytest.mark.parametrize("seed", range(5))
def test_distributed_short_and_budget(seed):
    inst = gen_layered_instance(60, 6, 20, seed)
    dist = distributed_rank_decomposition(inst, seed=seed)
    budget = 4 * log2_ceil(60)
    assert message_size_audit(dist.transcripts, budget).passed
    k = log2_ceil(60) + 1
    for tree in inst.trees:
        if tree.max_depth == 0:
            continue
        assert verify_short(
            dist.decompositions[tree.tree_id], tree, dist.chunk_length, k
        ).passed


def test_rank_message_is_rank_and_tag():
    inst = gen_random_instance(200, 30, 6, 3)  # C = 12 > D = 6
    m = compute_metrics(inst)
    assert m.congestion > m.dilation
    width = (math.floor(math.log2(200))).bit_length() + (m.congestion - 1).bit_length()
    rank_phase = distributed_rank_decomposition(inst, seed=5).transcripts[0]
    assert all(
        len(bits) % width == 0 for rnd in rank_phase.rounds for bits in rnd.values()
    )


def test_chunk_length_formula():
    inst = gen_random_instance(100, 2, 4, 0)
    dist = distributed_rank_decomposition(inst, epsilon=0.25)
    assert dist.chunk_length == max(1, math.ceil(math.log2(100) ** 1.25))


def test_decomposition_deterministic():
    inst = gen_random_instance(30, 3, 5, 2)
    a = distributed_rank_decomposition(inst, seed=4)
    b = distributed_rank_decomposition(inst, seed=4)
    assert a.decompositions == b.decompositions
    assert a.rounds == b.rounds


@pytest.mark.parametrize(
    "make, seed, bit_factor",
    [
        (lambda: gen_random_instance(2000, 60, 12, 0), 0, 4),  # C > D
        (lambda: gen_random_instance(2000, 60, 12, 0), 1, 4),
        (lambda: gen_layered_instance(300, 4, 20, 1), 2, 4),  # C <= D
        (lambda: gen_random_instance(200, 30, 6, 3), 5, 2),  # drains span rounds
    ],
    ids=["random2000-s0", "random2000-s1", "layered-c-le-d", "bit-factor-2"],
)
def test_event_driver_matches_lockstep(monkeypatch, make, seed, bit_factor):
    inst = make()
    busy_seen = []
    drain = congest_module._PhaseProgram.drain

    def spy(self):
        out = drain(self)
        busy_seen.append(self.busy)
        return out

    monkeypatch.setattr(congest_module._PhaseProgram, "drain", spy)
    got = distributed_rank_decomposition(inst, seed=seed, bit_factor=bit_factor)
    monkeypatch.undo()
    monkeypatch.setattr(congest_module, "run_congest", lockstep_run_congest)
    ref = distributed_rank_decomposition(inst, seed=seed, bit_factor=bit_factor)
    assert got.rounds == ref.rounds
    assert len(got.transcripts) == len(ref.transcripts) == 3
    for a, b in zip(got.transcripts, ref.transcripts):
        assert a.total_rounds == b.total_rounds
        for ra, rb in zip(a.rounds, b.rounds):
            assert list(ra.items()) == list(rb.items())  # key order too
        assert a.idle_rounds == b.idle_rounds
        assert a.steps < b.steps
    assert {t: r.rank for t, r in got.ranks.items()} == {
        t: r.rank for t, r in ref.ranks.items()
    }
    assert {t: decomposition_to_json(d) for t, d in got.decompositions.items()} == {
        t: decomposition_to_json(d) for t, d in ref.decompositions.items()
    }
    if bit_factor == 2:
        assert any(busy_seen)


def test_phase_programs_die_with_their_phase(monkeypatch):
    """What a node learns in one phase lives in its record, so no program of
    a phase is reachable once the next phase starts."""
    inst = gen_random_instance(200, 30, 6, 3)
    refs = []  # one program of each phase started so far
    dead_at_start = []  # per phase: which earlier phases' programs are gone
    run = congest_module.run_congest

    def spy(network, programs, max_rounds):
        gc.collect()
        dead_at_start.append([ref() is None for ref in refs])
        refs.append(weakref.ref(next(iter(programs.values()))))
        return run(network, programs, max_rounds)

    monkeypatch.setattr(congest_module, "run_congest", spy)
    distributed_rank_decomposition(inst, seed=1)
    assert dead_at_start == [[], [True], [True, True]]


def test_event_driver_steps_well_below_lockstep():
    inst = gen_random_instance(300, 20, 8, 0)
    dist = distributed_rank_decomposition(inst, seed=0)
    programs = len({v for t in inst.trees for v in t.depth})  # nodes in some tree
    assert programs == 289
    assert all(tr.steps >= programs for tr in dist.transcripts)  # round 0
    steps = sum(tr.steps for tr in dist.transcripts)
    assert 4 * steps < programs * dist.rounds


def test_round_zero_steps_exactly_the_tree_nodes(monkeypatch):
    """Every phase runs one program per node of some tree, in ascending id
    order; a node in no tree never sends or receives, so it gets none."""
    inst = pad_to_n(build_lowerbound(2, 2), 1000)
    tree_nodes = sorted({v for t in inst.trees for v in t.depth})
    stepped = []  # per phase: the nodes stepped in round 0
    run = congest_module.run_congest

    def spy(network, programs, max_rounds):
        stepped.append(list(programs))  # round 0 steps every program, in this order
        return run(network, programs, max_rounds)

    monkeypatch.setattr(congest_module, "run_congest", spy)
    distributed_rank_decomposition(inst, seed=0)
    assert len(tree_nodes) < 100
    assert stepped == [tree_nodes] * 3


# --- distributed multicast -------------------------------------------------

@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("depths_known", [False, True])
def test_distributed_multicast_delivers(seed, depths_known):
    inst = gen_random_instance(24, 3, 4, seed)
    sched, rounds = distributed_multicast(inst, seed=seed, depths_known=depths_known)
    report = simulate(inst, sched)
    assert report.valid, report.violations[:3]
    assert rounds >= sched.declared_length


def test_distributed_multicast_deterministic():
    inst = gen_layered_instance(48, 5, 12, 1)
    a = distributed_multicast(inst, seed=3, depths_known=True)
    b = distributed_multicast(inst, seed=3, depths_known=True)
    assert a == b


def test_single_edge_tree_instance():
    g = Graph.build(2, [(0, 1)])
    inst = MulticastInstance.build(g, [MulticastTree(0, 0, {1: 0}, 0)])
    dist = distributed_rank_decomposition(inst)
    assert sorted(dist.decompositions[0].paths) == [(0, 1)]
    sched, _ = distributed_multicast(inst, depths_known=True)
    assert simulate(inst, sched).valid


def test_root_only_tree_sends_nothing():
    """A tree that is only its root has no parent edge to report its rank
    on: the phases run as if it were absent."""
    g = Graph.build(3, [(0, 1), (1, 2)])
    path = MulticastTree(0, 0, {1: 0, 2: 1}, 0)
    alone = distributed_rank_decomposition(MulticastInstance.build(g, [path]))
    inst = MulticastInstance.build(g, [path, MulticastTree(1, 2, {}, 1)])
    dist = distributed_rank_decomposition(inst)
    assert [tr.rounds for tr in dist.transcripts] == [
        tr.rounds for tr in alone.transcripts
    ]
    assert dist.decompositions == alone.decompositions
    assert dist.ranks == alone.ranks


# --- differential: depths-known multicast against the loop it replaced -----
# Each frame's slices used to be renumbered into a copy of the instance and
# scheduled from round 1 by `frame_multicast_schedule`; every send was then
# rebuilt, shifted by the clock and mapped back to its message, and the whole
# list sorted again. That body is kept verbatim as the reference.

def reference_depths_known(instance, epsilon, seed):
    n = instance.graph.node_count
    metrics = compute_metrics(instance)
    band = max(1, math.ceil(math.log2(max(2, n)) ** (2 + epsilon)))
    span = max(1, math.ceil(metrics.congestion / band))
    offsets = tree_offsets(instance, f"{seed}:mc", span)
    by_frame = defaultdict(list)  # frame -> (orig message, root, parent map)
    for t in instance.trees:
        for r, root, comp in _level_range_slices(t, band):
            by_frame[offsets[t.tree_id] + r].append((t.message_id, root, comp))

    sends: list[Send] = []
    clock = 0
    for f in sorted(by_frame):
        temp_trees = []
        back = {}
        for temp_id, (msg, root, comp) in enumerate(by_frame[f]):
            temp_trees.append(MulticastTree(temp_id, root, comp, temp_id))
            back[temp_id] = msg
        sub = MulticastInstance.build(instance.graph, temp_trees)
        frag, _ = frame_multicast_schedule(sub, seed=seed * 7919 + f)
        for s in frag.sends:
            sends.append(Send(s.round + clock, s.u, s.v, back[s.message_id]))
        clock += frag.declared_length
    schedule = schedule_of(sends)
    return schedule, clock


def multiframe_shape(instance, epsilon, seed) -> tuple[int, int]:
    """(frames, level ranges cut into more than one slice) of a depths-known run."""
    band = max(1, math.ceil(math.log2(max(2, instance.graph.node_count)) ** (2 + epsilon)))
    span = max(1, math.ceil(compute_metrics(instance).congestion / band))
    offsets = tree_offsets(instance, f"{seed}:mc", span)
    frames, multi_slice = set(), 0
    for t in instance.trees:
        per_range = Counter()
        for r, _, _ in _level_range_slices(t, band):
            per_range[r] += 1
            frames.add(offsets[t.tree_id] + r)
        multi_slice += sum(1 for count in per_range.values() if count > 1)
    return len(frames), multi_slice


MULTIFRAME_EPSILONS = (-1.5, -1.0, -0.5, 0.25)
MULTIFRAME_EXAMPLES = (  # (instance, epsilon, seed)
    (lambda: gen_random_instance(200, 12, 10, 3), -1.5, 0),
    (lambda: gen_layered_instance(128, 16, 30, 2), -1.0, 1),
)

small_instances = st.one_of(
    st.builds(
        lambda n, k, depth, seed: gen_random_instance(n, k, min(depth, n - 1), seed),
        st.integers(2, 40),
        st.integers(1, 8),
        st.integers(1, 10),
        st.integers(0, 10**6),
    ),
    st.builds(
        lambda n, c, depth, seed: gen_layered_instance(n, c, min(depth, n - 1), seed),
        st.integers(2, 40),
        st.integers(1, 10),
        st.integers(1, 20),
        st.integers(0, 10**6),
    ),
)


def reference_level_range_slices(tree, band):
    """`_level_range_slices` as it was: the nodes grouped by range, then per
    range a children map and a walk down from each slice root."""
    ranges = defaultdict(dict)
    for c, d in tree.depth.items():
        if c != tree.root:
            ranges[(d - 1) // band][c] = tree.parent[c]
    for r in sorted(ranges):
        parent = ranges[r]
        kids = defaultdict(list)
        for c, p in parent.items():
            kids[p].append(c)
        roots = [p for p in kids if p not in parent]
        for root in roots:
            comp = {}
            stack = [root]
            while stack:
                v = stack.pop()
                for c in kids.get(v, ()):
                    comp[c] = v
                    stack.append(c)
            yield r, root, comp


@settings(max_examples=100, deadline=None)
@given(inst=small_instances, band=st.integers(1, 6))
def test_level_range_slices_match_reference(inst, band):
    """Same slices, with the same roots in the same order (slice order numbers
    the trees of each frame)."""
    for t in inst.trees:
        assert list(_level_range_slices(t, band)) == list(reference_level_range_slices(t, band))


def assert_matches_reference(inst, epsilon, seed):
    want, want_rounds = reference_depths_known(inst, epsilon, seed)
    got, rounds = distributed_multicast(inst, epsilon, seed, depths_known=True)
    assert schedule_to_json(got) == schedule_to_json(want)
    assert got == want
    assert rounds == want_rounds


@settings(max_examples=150, deadline=None)
@given(
    inst=small_instances,
    epsilon=st.sampled_from(MULTIFRAME_EPSILONS),
    seed=st.integers(0, 10**6),
)
def test_depths_known_matches_reference(inst, epsilon, seed):
    assert_matches_reference(inst, epsilon, seed)


def reversed_parent_maps(instance):
    """The same instance with every parent map in reverse insertion order."""
    trees = [
        MulticastTree(t.tree_id, t.root, dict(reversed(t.parent.items())), t.message_id)
        for t in instance.trees
    ]
    return MulticastInstance.build(instance.graph, trees)


@settings(max_examples=100, deadline=None)
@given(
    inst=small_instances,
    epsilon=st.sampled_from((-1.5, -1.0, -0.5)),
    seed=st.integers(0, 10**6),
)
def test_depths_known_ignores_parent_map_order(inst, epsilon, seed):
    """The schedule depends on the trees, not on how their maps were filled."""
    want = distributed_multicast(inst, epsilon, seed, depths_known=True)
    for same in (instance_from_json(instance_to_json(inst)), reversed_parent_maps(inst)):
        assert distributed_multicast(same, epsilon, seed, depths_known=True) == want


@pytest.mark.parametrize(
    "make, epsilon, seed", MULTIFRAME_EXAMPLES, ids=["random-200", "layered-128"]
)
def test_depths_known_matches_reference_over_frames_and_slices(make, epsilon, seed):
    assert_matches_reference(make(), epsilon, seed)


def test_multiframe_examples_cover_frames_and_slices():
    """The pinned cases run several frames, and one cuts a level range into
    several slices, so the differential test sees both."""
    shapes = [multiframe_shape(make(), eps, seed) for make, eps, seed in MULTIFRAME_EXAMPLES]
    assert max(frames for frames, _ in shapes) > 1
    assert max(multi for _, multi in shapes) > 0


# --- a clean tree that fits in one range is its own slice -------------------

def renumbered(instance, ids):
    """The same trees, in the same order and with the same messages, under
    the tree ids `ids`."""
    trees = [MulticastTree(i, t.root, t.parent, t.message_id) for i, t in zip(ids, instance.trees)]
    return MulticastInstance.build(instance.graph, trees)


def frame_instances(monkeypatch, inst, epsilon=0.25, seed=0):
    """The instance of each frame that a depths-known run hands the frames driver."""
    seen = []
    real = congest_module.frame_schedule_from_decomps

    def spy(sub, *args, **kwargs):
        seen.append(sub)
        return real(sub, *args, **kwargs)

    with monkeypatch.context() as m:
        m.setattr(congest_module, "frame_schedule_from_decomps", spy)
        distributed_multicast(inst, epsilon, seed, depths_known=True)
    return seen


def frame_trees(monkeypatch, inst, epsilon=0.25, seed=0):
    """The trees of each frame that a depths-known run hands the frames driver."""
    return [sub.trees for sub in frame_instances(monkeypatch, inst, epsilon, seed)]


def with_root_only_trees(instance):
    """The instance with a root-only tree at place 1 (id 1) and one at the
    end; the trees after place 1 move one id up."""
    first, *rest = instance.trees
    trees = [first, MulticastTree(1, 0, {}, 1)]
    trees += [MulticastTree(t.tree_id + 1, t.root, t.parent, t.tree_id + 1) for t in rest]
    trees.append(MulticastTree(len(trees), 0, {}, len(trees)))
    return MulticastInstance.build(instance.graph, trees)


def one_frame_instance():
    return gen_random_instance(200, 12, 10, 3)  # C and D <= L = 97


REUSE_EXAMPLES = {  # name -> instance whose frames hold some trees reused, some copied
    "shuffled": lambda: renumbered(one_frame_instance(), [0, 1, 2, 5, 4, 3, 6, 7, 11, 9, 10, 8]),
    "gaps": lambda: renumbered(one_frame_instance(), [0, 1, 2, 3, *range(10, 18)]),
    "root-only": lambda: with_root_only_trees(one_frame_instance()),
}


@pytest.mark.parametrize("name", sorted(REUSE_EXAMPLES))
def test_depths_known_reuses_trees_whose_place_is_their_id(monkeypatch, name):
    """A tree goes to its frame as itself when its place there is its id and
    is copied as a slice otherwise; both match the slice-every-tree reference.
    A root-only tree still yields no slice."""
    inst = REUSE_EXAMPLES[name]()
    assert_matches_reference(inst, 0.25, 0)
    (trees,) = frame_trees(monkeypatch, inst)
    own = {id(t) for t in inst.trees}
    reused = [t for t in trees if id(t) in own]
    assert reused and len(reused) < len(trees)
    assert [t.tree_id for t in trees] == list(range(len(trees)))
    assert len(trees) == sum(t.max_depth > 0 for t in inst.trees)


def test_one_frame_run_schedules_the_instances_own_trees(monkeypatch):
    inst = one_frame_instance()
    (trees,) = frame_trees(monkeypatch, inst)
    assert len(trees) == len(inst.trees)
    assert all(a is b for a, b in zip(trees, inst.trees))


def test_one_frame_run_hands_the_driver_the_callers_instance(monkeypatch):
    """A frame that is the instance's own trees, in order, is routed as the
    caller's instance, whose metrics and tree_by_id are cached already; the
    schedule stays the slice-every-tree reference's, byte for byte. A frame
    that reuses only some trees is a new instance."""
    inst = one_frame_instance()
    (sub,) = frame_instances(monkeypatch, inst)
    assert sub is inst
    assert_matches_reference(inst, 0.25, 0)
    shuffled = REUSE_EXAMPLES["shuffled"]()
    (sub,) = frame_instances(monkeypatch, shuffled)
    assert sub is not shuffled and sub.graph is shuffled.graph


@settings(max_examples=100, deadline=None)
@given(
    inst=small_instances,
    epsilon=st.sampled_from(MULTIFRAME_EPSILONS),
    seed=st.integers(0, 10**6),
    data=st.data(),
)
def test_depths_known_matches_reference_under_any_tree_ids(inst, epsilon, seed, data):
    k = len(inst.trees)
    ids = data.draw(st.lists(st.integers(0, 3 * k), min_size=k, max_size=k, unique=True))
    assert_matches_reference(renumbered(inst, ids), epsilon, seed)
