"""Shared generators and comparison helpers for the test suite."""

import hashlib
import itertools
import json
import os
import pathlib
import subprocess
import sys

from hypothesis import strategies as st

from bankmap import BankMapError, ProblemSpec, SchedulePair, SolveOptions, validate_permutation
from bankmap.cli import solve_report


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


def planted_barrel_problem(rng, length, x):
    """A barrel-feasible instance under the default conventions. Natural
    cycle t holds bank (p - r_t) mod X at row p; interleaved cycle s takes
    one datum of each bank, placed by a random rotation of a random
    reference pattern, so both orders are rotations of their column 0."""
    cycles = length // x
    offsets = [0] + [rng.randrange(x) for _ in range(cycles - 1)]
    by_bank = [[] for _ in range(x)]
    for p in range(x):
        for t in range(cycles):
            by_bank[(p - offsets[t]) % x].append(p * cycles + t)
    for data in by_bank:
        rng.shuffle(data)
    reference = rng.sample(range(x), x)
    entries = []
    for s in range(cycles):
        u = rng.randrange(x)
        entries += [by_bank[reference[(p - u) % x]][s] for p in range(x)]
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
        "stats": outcome.stats.to_json(),
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


def instance_key(permutation, parallelism, objective, fix_first_column):
    """Stable hash naming one oracle query in the pinned fixtures file."""
    blob = json.dumps(
        {
            "permutation": list(permutation),
            "parallelism": parallelism,
            "objective": objective.value,
            "fix_first_column": fix_first_column,
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def position(pair, order, datum):
    """(row, column) of a datum in the given order's matrix."""
    t = pair.column_of[order][datum]
    return pair.of(order).columns[t].index(datum), t


def schedule_column(schedule, t):
    """The data one schedule accesses concurrently at cycle t, by PE row."""
    return schedule.columns[t]


def bank_grid(state, order):
    """A MappingState's X-by-N matrix of mapped banks for one order,
    None where unmapped."""
    return [[state.bank_of[d] for d in row] for row in state.schedules.of(order).cells]


def first_candidate(candidates):
    """The first tuple of a CandidateSet, or None when it is empty."""
    return next(iter(candidates), None)


def solver_report(spec, objective, solver, seed=None, max_nodes=None):
    """(mapping, report) of `bankmap solve` with that solver, run under
    max_nodes (backtracking) or with seed (baseline)."""
    report, mapping, _ = solve_report(
        spec, objective, SchedulePair.from_problem(spec), solver,
        SolveOptions(max_nodes=max_nodes), seed,
    )
    return mapping, report


@st.composite
def damaged_ids(draw, length):
    """range(length) shuffled, then up to four entries overwritten at random
    positions with a non-integer, a bool, an out-of-range id or a copy of
    another entry."""
    ids = list(draw(st.permutations(tuple(range(length)))))
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, length - 1))
        ids[at] = draw(st.one_of(
            st.sampled_from(("7", 1.0, None, 2.5, [0])),
            st.booleans(),
            st.integers(length, 2 * length),
            st.integers(-length, -1),
            st.sampled_from(ids),
        ))
    return ids


def outcome_of(call, *args):
    """("ok", value) of a call, or the class and message of the
    BankMapError it raises."""
    try:
        return "ok", call(*args)
    except BankMapError as exc:
        return type(exc), str(exc)


# The LTE turbo interleaver at its largest block size, a QPP with f1 = 263
# and f2 = 480 (3GPP TS 36.212).
LTE_QPP_6144 = [(263 * i + 480 * i * i) % 6144 for i in range(6144)]

# the address-space cap of run_capped's child, in bytes
ADDRESS_SPACE_CAP = 300 << 20


def run_capped(code, *argv, timeout=60):
    """Run python code, with argv as sys.argv[1:], in a child process whose
    address space is capped at ADDRESS_SPACE_CAP and which imports
    bankmap from this checkout; a run that outgrows the cap fails with
    MemoryError instead of loading the host."""
    prelude = (
        "import resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({ADDRESS_SPACE_CAP}, {ADDRESS_SPACE_CAP}))\n"
    )
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.run(
        [sys.executable, "-c", prelude + code, *argv],
        env=env, capture_output=True, text=True, timeout=timeout,
    )
