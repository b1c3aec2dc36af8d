#!/usr/bin/env python3
"""Regenerate the pinned oracle fixtures used by the regression tests.

Exhausts a handful of small instances with the brute-force enumerator and
records the solution counts plus one sample solution per query. Also
searches (deterministically) for two instances the derived tests need:
one whose barrel-shifter problem is infeasible, and one where the greedy
baseline pass leaves at least one cell empty.

Separately it records golden traces: the digest of every backtracking
solve (status, mapping, stats and full trace) on a seeded set of small
instances plus a few X=8 ones, so a change to the solver's internals can
be checked to search exactly as before. And it records golden reports:
digests of baseline mappings and of the full `bankmap solve` report
(bank contents, controls, matrices, verification) for backtracking
solves up to X=16 and baseline solves up to X=64 and L=6144, so a change
below the solver can be checked to emit exactly the same output.

Run from the repository root:  python3 scripts/regen_fixtures.py
"""

from __future__ import annotations

import json
import pathlib
import random
import sys

from bankmap import (
    FillRule,
    LayoutConventions,
    NetworkObjective,
    ProblemSpec,
    SchedulePair,
    SolveOptions,
    brute_force_solve,
    build_tiles,
    greedy_fill,
    solve,
    validate_permutation,
)

TESTS = pathlib.Path(__file__).resolve().parent.parent / "tests"
sys.path.insert(0, str(TESTS))
from helpers import canonical_digest, instance_key, outcome_digest, solver_report  # noqa: E402

OUT = TESTS / "fixtures" / "pinned.json"
GOLDEN_OUT = TESTS / "fixtures" / "golden_traces.json"
REPORTS_OUT = TESTS / "fixtures" / "golden_reports.json"

DEMO_PERMUTATION = [1, 9, 10, 5, 0, 11, 2, 7, 3, 6, 8, 4]

QUERIES = [
    (DEMO_PERMUTATION, 3, NetworkObjective.CROSSBAR, True),
    (DEMO_PERMUTATION, 3, NetworkObjective.BARREL_SHIFTER, True),
    ([0, 1, 2, 3], 2, NetworkObjective.CROSSBAR, True),
]


def oracle_entries() -> dict:
    entries = {}
    for permutation, parallelism, objective, fixed in QUERIES:
        spec = ProblemSpec(validate_permutation(permutation), parallelism)
        solutions = brute_force_solve(SchedulePair.from_problem(spec), objective, fixed)
        key = instance_key(permutation, parallelism, objective, fixed)
        entries[key] = {
            "permutation": permutation,
            "parallelism": parallelism,
            "objective": objective.value,
            "fix_first_column": fixed,
            "solution_count": len(solutions),
            "sample_solution": list(solutions[0]) if solutions else None,
        }
    return entries


def find_barrel_infeasible(seed: int = 0) -> dict:
    """First seeded random instance with no barrel-realizable mapping."""
    rng = random.Random(seed)
    attempts = 0
    while True:
        attempts += 1
        length = rng.choice([6, 9, 12])
        entries = list(range(length))
        rng.shuffle(entries)
        spec = ProblemSpec(validate_permutation(entries), 3)
        pair = SchedulePair.from_problem(spec)
        if not brute_force_solve(pair, NetworkObjective.BARREL_SHIFTER, True):
            return {"permutation": entries, "parallelism": 3, "attempts": attempts}


def find_greedy_gap(seed: int = 0) -> dict:
    """First seeded random instance where greedy_fill leaves a cell empty."""
    rng = random.Random(seed)
    attempts = 0
    while True:
        attempts += 1
        length = rng.choice([9, 12])
        entries = list(range(length))
        rng.shuffle(entries)
        spec = ProblemSpec(validate_permutation(entries), 3)
        tiles = build_tiles(SchedulePair.from_problem(spec))
        partial = greedy_fill(tiles)
        if any(b is None for b in partial):
            return {
                "permutation": entries,
                "parallelism": 3,
                "empty_data": [d for d, b in enumerate(partial) if b is None],
                "attempts": attempts,
            }


def golden_entry(entries: list, parallelism: int, fill: FillRule, queries: list) -> dict:
    """One instance with the status and digest of each (objective, strict,
    max_nodes) query solved on it."""
    spec = ProblemSpec(
        validate_permutation(entries), parallelism, LayoutConventions(interleaved_fill=fill)
    )
    runs = []
    for objective, strict, max_nodes in queries:
        options = SolveOptions(strict_objective=strict, max_nodes=max_nodes, trace=True)
        outcome = solve(spec, objective, options)
        runs.append({
            "objective": objective.value,
            "strict_objective": strict,
            "max_nodes": max_nodes,
            "status": outcome.status.value,
            "digest": outcome_digest(outcome),
        })
    return {
        "permutation": entries,
        "parallelism": parallelism,
        "interleaved_fill": fill.value,
        "runs": runs,
    }


def shuffled(length: int, seed: int) -> list:
    entries = list(range(length))
    random.Random(seed).shuffle(entries)
    return entries


def golden_traces(count: int = 200, seed: int = 0) -> list:
    """Seeded instances (L <= 24, X in {2, 3, 4}, both interleaved fills)
    with the digest of each solve.

    Every instance is solved for both objectives. Every third one is also
    solved barrel-strict, and every fourth under a three-node budget, so
    solved, infeasible and budget-exhausted outcomes all appear.
    """
    rng = random.Random(seed)
    fills = (FillRule.COLUMN_MAJOR_SEQUENCE, FillRule.ROW_MAJOR_BLOCKS)
    instances = []
    for i in range(count):
        parallelism = rng.choice([2, 3, 4])
        length = parallelism * rng.randrange(1, 24 // parallelism + 1)
        entries = list(range(length))
        rng.shuffle(entries)
        queries = [(objective, False, None) for objective in NetworkObjective]
        if i % 3 == 0:
            queries.append((NetworkObjective.BARREL_SHIFTER, True, None))
        if i % 4 == 1:
            queries.append((list(NetworkObjective)[i // 4 % 2], False, 3))
        instances.append(golden_entry(entries, parallelism, fills[i % 2], queries))
    return instances


def golden_traces_x8() -> list:
    """X=8 solves, where one assignment touches many columns' counts.

    The crossbar references are random.Random(0) shuffles at L=192 and
    L=384 (the latter backtracks about two thousand times). At L=64, seeds
    0-3 under both fills are solved for both objectives, the barrel one
    under a 300-node budget that its strict pass spends. Seed 5
    (column-major) and seed 11 (row-major) are the seeds in 0-11 whose
    strict barrel pass proves infeasibility within 800 nodes, so they are
    solved relaxed without a budget and the colouring fallback runs too.
    """
    column_major, row_major = FillRule.COLUMN_MAJOR_SEQUENCE, FillRule.ROW_MAJOR_BLOCKS
    crossbar = [(NetworkObjective.CROSSBAR, False, None)]
    instances = [golden_entry(shuffled(length, 0), 8, column_major, crossbar)
                 for length in (192, 384)]
    budgeted = crossbar + [(NetworkObjective.BARREL_SHIFTER, False, 300)]
    for seed in range(4):
        for fill in (column_major, row_major):
            instances.append(golden_entry(shuffled(64, seed), 8, fill, budgeted))
    relaxed = [(NetworkObjective.BARREL_SHIFTER, False, None)]
    for seed, fill in ((5, column_major), (11, row_major)):
        instances.append(golden_entry(shuffled(64, seed), 8, fill, relaxed))
    return instances


def row_column(length: int, rows: int) -> list:
    """Row-column block interleaver: write by rows, read by columns."""
    cols = length // rows
    return [(i % rows) * cols + i // rows for i in range(length)]


def qpp(length: int, f1: int, f2: int) -> list:
    """Quadratic permutation polynomial interleaver f(i) = f1*i + f2*i^2 mod L."""
    return [(f1 * i + f2 * i * i) % length for i in range(length)]


def report_entry(
    entries: list, parallelism: int, fill: FillRule, objective: NetworkObjective,
    solver: str, seed=None, max_nodes=None,
) -> dict:
    """One solve with the digests of its mapping and of its full report."""
    spec = ProblemSpec(
        validate_permutation(entries), parallelism, LayoutConventions(interleaved_fill=fill)
    )
    mapping, report = solver_report(spec, objective, solver, seed, max_nodes)
    return {
        "permutation": entries,
        "parallelism": parallelism,
        "interleaved_fill": fill.value,
        "objective": objective.value,
        "solver": solver,
        "seed": seed,
        "max_nodes": max_nodes,
        "status": report["status"],
        "objective_met": report["objective_met"],
        "mapping_digest": canonical_digest(mapping),
        "report_digest": canonical_digest(report),
    }


def golden_reports() -> list:
    """Backtracking and baseline reports over both objectives and fills.

    Backtracking: seeded shuffles at X in {2, 3, 4} (L <= 24), X=8
    (L=64 and L=192) and X=16 (L=32, plus L=48 crossbar), and identity and
    row-column interleavers whose barrel objective is met at X=8 and X=16;
    the X=8 barrel shuffles run under a 300-node budget. Baseline: seeded
    shuffles at X up to 16 with two repair seeds each, and L=768 X=8 and
    L=1536 X=16, where the greedy pass leaves many gaps to repair. At the
    block size L=6144 and X in {32, 64}: a seeded shuffle, the near-square
    row-column interleaver and the LTE QPP (f1=263, f2=480), under both
    fills and two repair seeds; the greedy pass leaves gaps on the shuffle
    and on the QPP under column-major fill, and none on the others.
    """
    rng = random.Random(1)
    fills = (FillRule.COLUMN_MAJOR_SEQUENCE, FillRule.ROW_MAJOR_BLOCKS)
    crossbar, barrel = NetworkObjective.CROSSBAR, NetworkObjective.BARREL_SHIFTER
    out = []
    for i in range(24):
        parallelism = rng.choice([2, 3, 4])
        length = parallelism * rng.randrange(1, 24 // parallelism + 1)
        entries = shuffled(length, rng.randrange(1 << 30))
        for objective in NetworkObjective:
            out.append(report_entry(entries, parallelism, fills[i % 2], objective,
                                    "backtracking"))
    for fill in fills:
        for seed in range(2):
            out.append(report_entry(shuffled(64, seed), 8, fill, crossbar, "backtracking"))
            out.append(report_entry(shuffled(64, seed), 8, fill, barrel, "backtracking",
                                    max_nodes=300))
        out.append(report_entry(shuffled(192, 0), 8, fill, crossbar, "backtracking"))
        for objective in NetworkObjective:
            out.append(report_entry(shuffled(32, 0), 16, fill, objective, "backtracking"))
        out.append(report_entry(shuffled(48, 0), 16, fill, crossbar, "backtracking"))
        out.append(report_entry(list(range(128)), 8, fill, barrel, "backtracking"))
        out.append(report_entry(row_column(128, 8), 8, fill, barrel, "backtracking"))
    out.append(report_entry(list(range(64)), 16, FillRule.ROW_MAJOR_BLOCKS, barrel,
                            "backtracking"))
    for i in range(40):
        parallelism = [2, 3, 4, 8, 16][i % 5]
        length = parallelism * rng.randrange(1, 17)
        entries = shuffled(length, rng.randrange(1 << 30))
        for seed in range(2):
            out.append(report_entry(entries, parallelism, fills[i // 5 % 2],
                                    list(NetworkObjective)[i % 2], "baseline", seed=seed))
    for length, parallelism in ((768, 8), (1536, 16)):
        for fill in fills:
            out.append(report_entry(shuffled(length, 0), parallelism, fill, crossbar,
                                    "baseline", seed=0))
    for entries in (shuffled(6144, 0), row_column(6144, 64), qpp(6144, 263, 480)):
        for parallelism in (32, 64):
            for fill in fills:
                for seed in range(2):
                    out.append(report_entry(entries, parallelism, fill, crossbar,
                                            "baseline", seed=seed))
    return out


def write_lines(path: pathlib.Path, entries: list) -> None:
    # one entry per line keeps the file diffable
    lines = ",\n".join("  " + json.dumps(entry) for entry in entries)
    path.write_text("[\n" + lines + "\n]\n")


def main() -> None:
    fixtures = {
        "oracle_counts": oracle_entries(),
        "barrel_infeasible": find_barrel_infeasible(),
        "greedy_gap": find_greedy_gap(),
    }
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(fixtures, indent=2) + "\n")
    print(f"wrote {OUT}")
    for key, entry in fixtures["oracle_counts"].items():
        print(f"  {key}: {entry['objective']} -> {entry['solution_count']} solutions")
    print(f"  barrel-infeasible after {fixtures['barrel_infeasible']['attempts']} attempt(s): "
          f"{fixtures['barrel_infeasible']['permutation']}")
    print(f"  greedy gap after {fixtures['greedy_gap']['attempts']} attempt(s): "
          f"{fixtures['greedy_gap']['permutation']}")
    golden = golden_traces() + golden_traces_x8()
    write_lines(GOLDEN_OUT, golden)
    statuses = [run["status"] for entry in golden for run in entry["runs"]]
    print(f"wrote {GOLDEN_OUT}: {len(statuses)} solves on {len(golden)} instances, "
          + ", ".join(f"{s} {statuses.count(s)}" for s in sorted(set(statuses))))
    reports = golden_reports()
    write_lines(REPORTS_OUT, reports)
    kinds = [(e["solver"], e["status"], e["objective_met"]) for e in reports]
    print(f"wrote {REPORTS_OUT}: {len(reports)} reports, "
          + ", ".join(f"{k[0]} {k[1]} met={k[2]} {kinds.count(k)}" for k in sorted(set(kinds))))


if __name__ == "__main__":
    main()
