"""Seeded mutation fuzzing of the CLI's file inputs: whatever an instance,
schedule or suite document holds, a command ends in exit 0 or 1 (one
`error:` line), never in a traceback."""

import json
import random
from copy import deepcopy

import pytest
from click.testing import CliRunner

from mcastsched import (
    SCHEDULERS, build_lowerbound, instance_to_json, run_scheduler, schedule_to_json,
)
from mcastsched.cli import main

VALUES = (0, -1, 2**63, 2**64, 10**400, 1.5, True, None, "3", [], {})
SIZE_CAP = 10**4  # a suite cell above it would run for hours, not fail

_LB = build_lowerbound(2, 2).instance
GOOD = {
    "instance": json.loads(instance_to_json(_LB)),
    "schedule": json.loads(schedule_to_json(run_scheduler(_LB, "greedy", 0).schedule)),
    "suite": {"cells": [{"n": 8, "congestion": 2, "depth": 3, "prefix_cap": 2, "seeds": [0],
                         "schedulers": ["greedy", "frames"]}]},
}
COMMANDS = {  # each file kind and the commands that read it, given its path
    "instance": [*(["schedule", "{}", "--scheduler", s] for s in SCHEDULERS),
                 ["validate", "{}", "{schedule}"], ["markov-check", "{}", "{schedule}"],
                 ["decompose", "{}", "--tree", "0", "--kind", "short"], ["opt", "{}"],
                 ["congest-sim", "{}", "--multicast"],
                 ["congest-sim", "{}", "--multicast", "--depths-known"]],
    "schedule": [["validate", "{instance}", "{}"], ["markov-check", "{instance}", "{}"]],
    "suite": [["bench", "--suite", "{}"]],
}


def mutate(doc, rng: random.Random) -> None:
    """Walk from the root to a random entry, going one level deeper at each
    container with odds 0.85, and replace it with one of VALUES (three times
    in five), delete it, or append to it if it is a list."""
    while True:
        keys = list(doc) if type(doc) is dict else range(len(doc))
        if not keys:
            break
        key = rng.choice(keys)
        if type(doc[key]) not in (dict, list) or rng.random() >= 0.85:
            break
        doc = doc[key]
    op = rng.choice([0, 0, 0, 1, 2])
    if op == 2 and type(doc) is list:
        doc.append(deepcopy(rng.choice([*doc, *VALUES])))
    elif keys and op == 1:
        del doc[key]
    elif keys:
        doc[key] = deepcopy(rng.choice(VALUES))


def oversized(suite) -> bool:
    cells = suite.get("cells") if type(suite) is dict else None
    return type(cells) is list and any(
        type(cell) is dict and any(type(x) is int and x > SIZE_CAP for x in cell.values())
        for cell in cells
    )


# Within its count, each seed feeds `congest-sim --multicast` an instance that
# is valid but for a tree or message id >= 2**63; unless refused at load, such
# an id overflows a schedule's 64-bit columns in a traceback.
@pytest.mark.parametrize("seed, docs", [(1, 500), (2, 500)])
def test_mutated_inputs_end_in_exit_zero_or_one(tmp_path, seed, docs):
    """Each mutated document goes through every command that reads its kind."""
    rng = random.Random(seed)
    runner = CliRunner()
    paths = {kind: tmp_path / f"{kind}.json" for kind in GOOD}
    for kind, doc in GOOD.items():
        paths[kind].write_text(json.dumps(doc))
    bad = tmp_path / "bad.json"
    for case in range(docs):
        kind = rng.choice(list(GOOD))
        doc = json.loads(json.dumps(GOOD[kind]))
        for _ in range(rng.randint(1, 3)):
            mutate(doc, rng)
        if kind == "suite" and oversized(doc):
            continue
        bad.write_text(json.dumps(doc))
        for command in COMMANDS[kind]:
            args = [a.format(bad, **paths) for a in command]
            res = runner.invoke(main, args)
            assert isinstance(res.exception, (SystemExit, type(None))), (case, doc, args)
            assert res.exit_code in (0, 1), (case, doc, args, res.output)
            # one error line on exit 1, except where a verdict on valid input
            # (an invalid schedule, no optimum within the horizon) exits 1 alone
            errors = res.stderr.count("error: ")
            verdict = args[0] in ("validate", "markov-check", "opt") and errors == 0
            assert errors == res.exit_code or verdict, (case, doc, args, res.stderr)
