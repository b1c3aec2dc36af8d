"""End-to-end acceptance suite.

Each test covers one exit criterion at its stated tolerance and prints a
single pass/fail line; run with `pytest -s tests/test_acceptance.py -v`
to see the lines alongside the test results.
"""

import copy
import random
import time

from bankmap import (
    ColumnRef,
    MappingState,
    NetworkObjective,
    Order,
    ProblemSpec,
    SchedulePair,
    SolveOptions,
    Status,
    assign_column,
    brute_force_solve,
    build_schedules,
    build_tiles,
    candidate_assignments,
    derive_controls,
    initialize,
    objective_compatible,
    retract_column,
    rotation_offset,
    satisfies_partition_definition,
    select_target_column,
    solve,
    validate_permutation,
    verify_mapping,
)
from conftest import (
    CROSSBAR_ONLY_MAPPING,
    DEMO_INTERLEAVED,
    DEMO_NATURAL,
    DEMO_PERMUTATION,
    DEMO_TILES,
    KNOWN_MAPPING,
)
from helpers import (
    first_candidate,
    random_problem,
    relabel_equal,
    schedule_column,
    size_parallelism_pairs,
)

BARREL = NetworkObjective.BARREL_SHIFTER
CROSSBAR = NetworkObjective.CROSSBAR


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def best_of(runs, fn):
    best = float("inf")
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def demo_problem():
    return ProblemSpec(validate_permutation(DEMO_PERMUTATION), 3)


def test_criterion_1_reference_schedules():
    spec = demo_problem()
    natural, interleaved = build_schedules(spec)
    exact = natural.cells == DEMO_NATURAL and interleaved.cells == DEMO_INTERLEAVED
    elapsed = best_of(5, lambda: build_schedules(spec))
    report(
        1,
        exact and elapsed < 1e-3,
        f"schedule matrices exact, build time {elapsed * 1e6:.0f}us (< 1ms)",
    )


def test_criterion_2_tile_matrix():
    tiles = build_tiles(SchedulePair.from_problem(demo_problem()))
    report(2, tiles.tiles == DEMO_TILES, f"tile matrix {tiles.tiles}")


def test_criterion_3_known_solution_accepted():
    pair = SchedulePair.from_problem(demo_problem())
    rep = verify_mapping(KNOWN_MAPPING, pair, objectives=[BARREL])
    per_order_rotations = all(
        rotation_offset(
            tuple(KNOWN_MAPPING[d] for d in schedule_column(pair.of(order), 0)),
            tuple(KNOWN_MAPPING[d] for d in schedule_column(pair.of(order), t)),
        )
        is not None
        for order in Order
        for t in range(pair.cycles)
    )
    ok = rep.valid and len(rep.conflicts) == 0 and rep.objective_met[BARREL]
    ok = ok and per_order_rotations
    ok = ok and rep.bank_contents == ((0, 1, 6, 3), (4, 5, 10, 7), (8, 9, 2, 11))
    report(3, ok, "known banks valid, zero conflicts, rotations hold in both orders")


def test_criterion_4_solver_reproduction():
    spec = demo_problem()
    outcome = solve(spec, BARREL, SolveOptions(trace=True))
    solved = outcome.status is Status.SOLVED and outcome.objective_met
    matches = relabel_equal(outcome.mapping, KNOWN_MAPPING)

    first_select = next(e for e in outcome.trace if e.kind == "select")
    picks_forced_column = (first_select.order, first_select.column) == (Order.INTERLEAVED, 3)

    # on the state after that forced step, the objective-ordered candidates
    # for natural column 2 must open with datum 2 -> bank 2, datum 10 -> bank 1
    state = initialize(MappingState.fresh(SchedulePair.from_problem(spec)))
    assign_column(state, ColumnRef(Order.INTERLEAVED, 3), (0,))
    cands = candidate_assignments(state, ColumnRef(Order.NATURAL, 2), BARREL)
    forced = cands.cells == ((0, 2), (2, 10)) and first_candidate(cands) == (2, 1)

    elapsed = best_of(3, lambda: solve(spec, BARREL))
    ok = solved and matches and picks_forced_column and forced and elapsed < 10e-3
    report(
        4,
        ok,
        f"solved={solved} relabel-equal={matches} first-column={picks_forced_column} "
        f"forced-candidate={forced} solve time {elapsed * 1e3:.2f}ms (< 10ms)",
    )


def test_criterion_5_control_synthesis():
    pair = SchedulePair.from_problem(demo_problem())
    controls = derive_controls(KNOWN_MAPPING, pair, BARREL)
    ok = (
        controls.natural_words == (0, 0, 1, 0)
        and controls.distinct_word_count(Order.NATURAL) == 2
        and controls.interleaved_words == (0, 1, 2, 0)
    )
    report(
        5,
        ok,
        f"natural {controls.natural_words} ({controls.distinct_word_count(Order.NATURAL)} "
        f"distinct), interleaved {controls.interleaved_words}",
    )


def test_criterion_6_baseline_contrast():
    pair = SchedulePair.from_problem(demo_problem())
    rep = verify_mapping(CROSSBAR_ONLY_MAPPING, pair)
    incompatible = not objective_compatible(CROSSBAR_ONLY_MAPPING, pair, BARREL)
    report(6, rep.valid and incompatible, "network-agnostic mapping valid yet not barrel-realizable")


def test_criterion_7_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2024)
    pairs = size_parallelism_pairs(12, (2, 3))
    instances = [random_problem(rng, pairs) for _ in range(100)]
    instances.append(demo_problem())
    agreements = 0
    for spec in instances:
        pair = SchedulePair.from_problem(spec)
        outcome = solve(spec, BARREL, SolveOptions(strict_objective=True))
        oracle = brute_force_solve(pair, BARREL, fix_first_column=True)
        assert (outcome.status is Status.SOLVED) == bool(oracle)
        if outcome.status is Status.SOLVED:
            assert outcome.mapping in oracle
        agreements += 1
    elapsed = time.perf_counter() - start
    report(
        7,
        agreements == 101 and elapsed < 60,
        f"{agreements}/101 instances agree with the exhaustive oracle in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_8_unconstrained_existence():
    start = time.perf_counter()
    rng = random.Random(512)
    pairs = size_parallelism_pairs(64, (2, 3, 4))
    solved = 0
    for _ in range(200):
        spec = random_problem(rng, pairs)
        outcome = solve(spec, CROSSBAR)
        rep = verify_mapping(outcome.mapping, SchedulePair.from_problem(spec))
        assert outcome.status is Status.SOLVED and rep.valid
        solved += 1
    elapsed = time.perf_counter() - start
    report(
        8,
        solved == 200 and elapsed < 60,
        f"{solved}/200 random instances solved and verifier-clean in {elapsed:.1f}s (< 60s)",
    )


def test_criterion_9_invariant_suite():
    trials = 1000

    # rotation_offset commutes with bank relabeling
    rng = random.Random(1)
    for _ in range(trials):
        size = rng.randrange(1, 7)
        u = tuple(rng.sample(range(size), size))
        v = tuple(rng.sample(range(size), size))
        sigma = rng.sample(range(size), size)
        assert rotation_offset([sigma[b] for b in u], [sigma[b] for b in v]) == rotation_offset(u, v)

    # assignment followed by retraction restores the state exactly
    rng = random.Random(2)
    pairs = size_parallelism_pairs(12, (2, 3))
    undone = 0
    while undone < trials:
        spec = random_problem(rng, pairs)
        state = initialize(MappingState.fresh(SchedulePair.from_problem(spec)))
        while True:
            column = select_target_column(state)
            if column is None:
                break
            options = list(candidate_assignments(state, column, CROSSBAR))
            if not options:
                break
            snapshot = copy.deepcopy(state)
            record = assign_column(state, column, rng.choice(options))
            backup = copy.deepcopy(state)
            retract_column(state, record)
            assert state == snapshot
            undone += 1
            if undone == trials:
                break
            # reapply and keep walking deeper
            assign_column(state, column, tuple(backup.bank_of[d] for d in record))
            assert state == backup

    # every valid mapping stores exactly N data per bank
    rng = random.Random(3)
    for _ in range(trials):
        spec = random_problem(rng, pairs)
        mapping = solve(spec, CROSSBAR).mapping
        assert all(mapping.count(b) == spec.cycles for b in range(spec.parallelism))

    # the column-walking verifier agrees with the partition-based restatement
    rng = random.Random(4)
    agreed = 0
    for i in range(trials):
        spec = random_problem(rng, pairs)
        pair = SchedulePair.from_problem(spec)
        if i % 5 == 0:
            mapping = solve(spec, CROSSBAR).mapping
        else:
            mapping = tuple(rng.randrange(spec.parallelism) for _ in range(spec.size))
        assert verify_mapping(mapping, pair).valid == satisfies_partition_definition(mapping, pair)
        agreed += 1

    report(9, agreed == trials, f"4 invariants x {trials} randomized trials")
