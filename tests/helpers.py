"""Shared generators and comparison helpers for the test suite."""

import dataclasses
import hashlib
import itertools
import json

from hypothesis import strategies as st

from bankmap import (
    ProblemSpec,
    SchedulePair,
    SolveOptions,
    Status,
    baseline_solve,
    solve,
    validate_permutation,
)
from bankmap.cli import build_report


def size_parallelism_pairs(max_size, parallelisms):
    return [
        (length, x)
        for x in parallelisms
        for length in range(x, max_size + 1, x)
    ]


def random_problem(rng, pairs):
    """One random instance with (size, parallelism) drawn from pairs."""
    length, x = rng.choice(pairs)
    entries = list(range(length))
    rng.shuffle(entries)
    return ProblemSpec(validate_permutation(entries), x)


@st.composite
def problems(draw, max_size=24, parallelisms=(1, 2, 3, 4)):
    x = draw(st.sampled_from(parallelisms))
    cycles = draw(st.integers(1, max(1, max_size // x)))
    entries = draw(st.permutations(tuple(range(x * cycles))))
    return ProblemSpec(validate_permutation(entries), x)


def relabel_equal(a, b):
    """True when some bank relabeling carries mapping a onto mapping b."""
    if len(a) != len(b):
        return False
    banks = sorted(set(a) | set(b))
    for sigma in itertools.permutations(banks):
        if all(sigma[v] == w for v, w in zip(a, b)):
            return True
    return False


def outcome_digest(outcome):
    """sha256 of a solve outcome as canonical JSON.

    Covers the status, mapping, objective_met, stats and every trace
    event as [kind, order value or null, column, data, banks], so two
    solves share a digest only if they searched identically.
    """
    doc = {
        "status": outcome.status.value,
        "mapping": outcome.mapping,
        "objective_met": outcome.objective_met,
        "stats": dataclasses.asdict(outcome.stats),
        "trace": [
            [e.kind, e.order.value if e.order else None, e.column, e.data, e.banks]
            for e in outcome.trace or ()
        ],
    }
    return canonical_digest(doc)


def canonical_digest(doc):
    """sha256 of a JSON-encodable value in canonical form."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def solver_report(spec, objective, solver, seed=None, max_nodes=None):
    """(mapping, report) of one CLI-equivalent solve.

    solver is "backtracking" (run under max_nodes) or "baseline" (run
    with seed); the report is the one `bankmap solve` prints.
    """
    schedules = SchedulePair.from_problem(spec)
    if solver == "baseline":
        mapping = baseline_solve(spec, seed)
        report = build_report(
            spec, objective, solver, Status.SOLVED, mapping, schedules, seed=seed
        )
        return mapping, report
    outcome = solve(spec, objective, SolveOptions(max_nodes=max_nodes))
    report = build_report(
        spec, objective, solver, outcome.status, outcome.mapping, schedules,
        dataclasses.asdict(outcome.stats),
    )
    return outcome.mapping, report
