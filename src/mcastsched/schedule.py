"""Schedules for the store-and-forward model, replay, and validation."""

from __future__ import annotations

import functools
import gc
import json
from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
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
    The loops this wraps build many tracked tuples, but no reference cycles."""
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


@dataclass(frozen=True, init=False)
class Schedule:
    """The sends as four integer columns, round, sender, receiver and message
    id, in schedule order. `Schedule(sends, declared_length)` takes any
    iterable of 4-tuples; `sends` builds them as `Send` tuples on each read."""

    columns: tuple[array, array, array, array]
    declared_length: int

    def __init__(self, sends, declared_length: int):
        rows = list(sends)
        columns = tuple(array("q", map(itemgetter(i), rows)) for i in range(4))
        object.__setattr__(self, "columns", columns)
        object.__setattr__(self, "declared_length", declared_length)

    @classmethod
    def _of(cls, columns, declared_length: int) -> Schedule:
        """A schedule that takes over the given columns."""
        self = cls((), declared_length)
        object.__setattr__(self, "columns", columns)
        return self

    @property
    def sends(self) -> tuple[Send, ...]:
        return tuple(map(Send, *self.columns))

    def __hash__(self):
        return hash((self.declared_length, *(c.tobytes() for c in self.columns)))


def _new_columns():
    return tuple(array("q") for _ in range(4))


def _append_round(columns, rnd: int, rows: list) -> None:
    """Append one round's (sender, receiver, message id) rows, sorted."""
    rows.sort()
    columns[0].extend(repeat(rnd, len(rows)))
    for column, values in zip(columns[1:], zip(*rows)):
        column.extend(values)


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
    declared = schedule.declared_length
    last = declared if upto_round is None else min(upto_round, declared)
    rounds = schedule.columns[0]
    rows = zip(*schedule.columns)
    if rounds and not (1 <= rounds[0] and rounds[-1] <= last
                       and all(map(le, rounds, islice(rounds, 1, None)))):
        in_range = []
        for s in rows:
            if s[0] < 1:
                violations.append(Violation("bad_round", s[0], f"round < 1: {Send(*s)}"))
            elif s[0] > declared:
                violations.append(
                    Violation("bad_round", s[0], f"round beyond declared length: {Send(*s)}")
                )
            elif s[0] <= last:
                in_range.append(s)
        in_range.sort(key=itemgetter(0))  # stable: schedule order within a round
        rows = in_range

    prev = None
    for r, u, v, mid in rows:
        if r != prev:
            used_edges: set[tuple[int, int]] = set()
            prev = r
        known = state.get(mid)
        if known is None:
            violations.append(
                Violation("unknown_message", r, f"message {mid}: {Send(r, u, v, mid)}")
            )
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
            redundant.append(Send(r, u, v, mid))
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


@_gc_paused
def schedule_to_json(schedule: Schedule) -> str:
    """Canonical JSON: sends in (round, u, v) order, ties in schedule order,
    keys sorted, no spaces."""
    rows = zip(*schedule.columns)
    # rows in whole-tuple order are in (round, u, v) order, ties kept
    if not all(map(le, zip(*schedule.columns), islice(zip(*schedule.columns), 1, None))):
        rows = iter(sorted(rows, key=_by_round_u_v))
    # one batch of sends at a time, each send after a comma; the first drops its comma
    parts = [f'{{"length":{schedule.declared_length},"sends":[']
    for batch in iter(lambda: list(islice(rows, 4096)), []):
        parts.append(
            "".join([f',{{"from":{u},"msg":{m},"round":{r},"to":{v}}}' for r, u, v, m in batch])
        )
    if len(parts) > 1:
        parts[1] = parts[1][1:]
    parts.append("]}")
    return "".join(parts)


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
    try:
        return Schedule(sorted(rows, key=_by_round_u_v), length)
    except OverflowError:  # the columns hold 64-bit integers
        i, key = next((i, k) for i, row in enumerate(rows)
                      for k, x in zip(_SEND, row) if not -(2**63) <= x < 2**63)
        raise ValueError(f"send {i}: {key!r} is outside the 64-bit range") from None
