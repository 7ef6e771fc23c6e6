"""Schedules for the store-and-forward model, replay, and validation."""

from __future__ import annotations

import functools
import gc
import json
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, groupby, islice
from operator import itemgetter, le
from typing import NamedTuple

from .model import REQUIRED, MulticastInstance, read_object

_by_round_u_v = itemgetter(0, 1, 2)


class Send(NamedTuple):
    """One packet crossing one edge in one round, in the given direction.
    A tuple (round, u, v, message_id): it unpacks and orders like one."""

    round: int
    u: int  # sender
    v: int  # receiver
    message_id: int


def _gc_paused(fn):
    """Run fn with the cyclic garbage collector off, unless it is off already.
    Sends are tracked tuples, but the loops this wraps make no reference cycles."""
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()

    return paused


@dataclass(frozen=True)
class Schedule:
    sends: tuple[Send, ...]
    declared_length: int


@dataclass(frozen=True)
class Violation:
    kind: str  # capacity | sender_missing | off_tree | not_in_graph | unknown_message | bad_round
    round: int
    detail: str


@dataclass
class DeliveryReport:
    valid: bool
    length: int | None
    violations: list[Violation]
    per_tree_completion_round: dict[int, int]
    redundant: list[Send] = field(default_factory=list)


@_gc_paused
def _replay(instance: MulticastInstance, schedule: Schedule, upto_round=None):
    """Shared replay loop: returns (arrived, violations, redundant, completion)
    where arrived maps message id -> node -> the round the message arrived
    there (0 at a root). A message sent in round t is held by the receiver
    from the start of round t+1, so it may be forwarded from then on. Sends
    of one round are checked in schedule order, and a send that passes its
    checks is applied at once."""
    graph_edges = instance.graph.edges
    arrived: dict[int, dict[int, int]] = {}
    remaining: dict[int, set[int]] = {}
    completion: dict[int, int] = {}
    for t in instance.trees:
        arrived.setdefault(t.message_id, {})[t.root] = 0
        remaining[t.tree_id] = set(t.leaves) - {t.root}
        if not remaining[t.tree_id]:
            completion[t.tree_id] = 0
    # message id -> (its last tree, as in tree_by_message; its parent map and
    # depths; arrivals; undelivered)
    state = {
        mid: (t, t.parent, t.depth, arrived[mid], remaining[t.tree_id])
        for mid, t in instance.tree_by_message.items()
    }

    violations: list[Violation] = []
    redundant: list[Send] = []
    last = schedule.declared_length if upto_round is None else upto_round
    in_range = []
    for s in schedule.sends:
        if s.round < 1:
            violations.append(Violation("bad_round", s.round, f"round < 1: {s}"))
        elif s.round > schedule.declared_length:
            violations.append(
                Violation("bad_round", s.round, f"round beyond declared length: {s}")
            )
        elif s.round <= last:
            in_range.append(s)
    in_range.sort(key=itemgetter(0))  # stable: schedule order within a round

    for r, sends in groupby(in_range, itemgetter(0)):
        used_edges: set[tuple[int, int]] = set()
        for s in sends:
            _, u, v, mid = s
            known = state.get(mid)
            if known is None:
                violations.append(Violation("unknown_message", r, f"message {mid}: {s}"))
                continue
            tree, parent, depth, arr, rem = known
            edge = (u, v) if u < v else (v, u)
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
            # A depth is positive exactly at the reachable nodes below the
            # root, each reached from its parent: this is `edge in tree.edges`.
            if not (depth.get(v) and parent[v] == u or depth.get(u) and parent[u] == v):
                violations.append(
                    Violation("off_tree", r, f"edge {edge} not in tree {tree.tree_id}")
                )
                continue
            if arr.get(u, r) >= r:
                detail = f"node {u} does not hold message {mid} in round {r}"
                violations.append(Violation("sender_missing", r, detail))
                continue
            at = arr.get(v)
            if at is None:
                arr[v] = r
                rem.discard(v)
                if not rem and tree.tree_id not in completion:
                    completion[tree.tree_id] = r
            elif at < r:
                redundant.append(s)
    return arrived, violations, redundant, completion


def simulate(instance: MulticastInstance, schedule: Schedule) -> DeliveryReport:
    """Replay the schedule and report violations and delivery completion."""
    _, violations, redundant, completion = _replay(instance, schedule)
    complete = len(completion) == len(instance.trees)
    length = max(completion.values(), default=0) if complete else None
    return DeliveryReport(
        valid=complete and not violations,
        length=length,
        violations=violations,
        per_tree_completion_round=completion,
        redundant=redundant,
    )


def knowledge_at(
    instance: MulticastInstance, schedule: Schedule, round: int
) -> dict[int, frozenset[int]]:
    """Exact per-node knowledge sets after the given round's sends apply.

    Raises ValueError if the schedule prefix violates model constraints.
    """
    arrived, violations, _, _ = _replay(instance, schedule, upto_round=round)
    if violations:
        raise ValueError(f"invalid schedule prefix: {violations[0]}")
    holds: dict[int, set[int]] = defaultdict(set)
    for mid, arr in arrived.items():
        for v in arr:
            holds[v].add(mid)
    return {v: frozenset(ms) for v, ms in holds.items()}


def schedule_to_json(schedule: Schedule) -> str:
    """Canonical JSON: sends in (round, u, v) order, ties in schedule order,
    keys sorted, no spaces."""
    sends = schedule.sends
    # sends in whole-tuple order are in (round, u, v) order, ties kept
    if not all(map(le, sends, islice(sends, 1, None))):
        sends = sorted(sends, key=_by_round_u_v)
    body = ",".join(
        [f'{{"from":{u},"msg":{m},"round":{r},"to":{v}}}' for r, u, v, m in sends]
    )
    return f'{{"length":{schedule.declared_length},"sends":[{body}]}}'


_SCHEDULE = {"length": ("an integer", REQUIRED), "sends": ("a list", REQUIRED)}
_SEND = {key: ("an integer", REQUIRED) for key in ("round", "from", "to", "msg")}


@_gc_paused
def schedule_from_json(text: str) -> Schedule:
    """Parse a schedule. `read_object` reads the document; one bulk pass
    checks every send as `read_object` would, and on a refusal `read_object`
    reads the sends in order, so that it names the first one refused."""
    length, raw = read_object(json.loads(text), "", _SCHEDULE)
    if length < 0:
        raise ValueError(f"length must be >= 0, not {length}")
    try:
        rows = list(map(itemgetter(*_SEND), raw))
        ok = {*map(len, raw)} <= {4} and {*map(type, chain.from_iterable(rows))} <= {int}
    except (KeyError, TypeError):  # a send that is no object or lacks a key
        ok = False
    if not ok:
        for i, s in enumerate(raw):
            read_object(s, f"send {i}: ", _SEND)
    return Schedule(tuple(sorted(map(Send._make, rows), key=_by_round_u_v)), length)
