import copy
import itertools
import json
import os
import pathlib
import random
import subprocess
import sys

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from bankmap import (
    ColumnRef,
    FillRule,
    InvariantViolation,
    LayoutConventions,
    MappingState,
    NetworkObjective,
    Order,
    ProblemSpec,
    SchedulePair,
    SolveOptions,
    Status,
    assign_column,
    brute_force_solve,
    candidate_assignments,
    colour_crossbar,
    initialize,
    retract_column,
    satisfies_partition_definition,
    select_target_column,
    solve,
    validate_permutation,
    verify_mapping,
)
from bankmap.solver import TraceEvent, _matching_count, _rook_count, completion_count
from conftest import DEMO_PERMUTATION, FIXTURE_DIR, KNOWN_MAPPING
from helpers import (
    LTE_QPP_6144,
    bank_grid,
    first_candidate,
    outcome_digest,
    position,
    problems,
    random_problem,
    run_capped,
    schedule_column,
    size_parallelism_pairs,
)

BARREL = NetworkObjective.BARREL_SHIFTER
CROSSBAR = NetworkObjective.CROSSBAR


def small_pair():
    spec = ProblemSpec(validate_permutation([0, 1, 2, 3]), 2)
    return SchedulePair.from_problem(spec)


def test_initialize_pins_identity_first_column(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    assert [bank_grid(state, Order.NATURAL)[p][0] for p in range(3)] == [0, 1, 2]
    # each seeded datum is mirrored into its cell of the permuted matrix
    assert bank_grid(state, Order.INTERLEAVED)[1][1] == 0  # datum 0
    assert bank_grid(state, Order.INTERLEAVED)[2][3] == 1  # datum 4
    assert bank_grid(state, Order.INTERLEAVED)[1][3] == 2  # datum 8
    state.check_invariants()


def test_initialize_single_bank():
    spec = ProblemSpec(validate_permutation([1, 0, 2]), 1)
    state = initialize(MappingState.fresh(SchedulePair.from_problem(spec)))
    assert bank_grid(state, Order.NATURAL)[0][0] == 0
    assert state.bank_of[0] == 0


def test_initialize_small_instance_propagation():
    state = initialize(MappingState.fresh(small_pair()))
    assert state.bank_of[0] == 0 and state.bank_of[2] == 1
    assert bank_grid(state, Order.INTERLEAVED)[0][0] == 0  # datum 0
    assert bank_grid(state, Order.INTERLEAVED)[0][1] == 1  # datum 2


def test_initialize_requires_fresh_state(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    with pytest.raises(InvariantViolation):
        initialize(state)


def independent_completion_count(state, column):
    # brute-force count of legal whole-column assignments, written against
    # the schedules directly rather than the state's helper methods
    pair = state.schedules
    rows = pair.rows
    cells = [
        (p, pair.of(column.order).cells[p][column.index])
        for p in range(rows)
        if bank_grid(state, column.order)[p][column.index] is None
    ]
    count = 0
    for banks in itertools.product(range(rows), repeat=len(cells)):
        if len(set(banks)) != len(banks):
            continue
        ok = True
        for (p, datum), bank in zip(cells, banks):
            used = {bank_grid(state, column.order)[q][column.index] for q in range(rows)}
            _, other_col = position(pair, column.order.other, datum)
            used |= {bank_grid(state, column.order.other)[q][other_col] for q in range(rows)}
            if bank in used:
                ok = False
                break
        if ok:
            count += 1
    return count


def test_select_after_initialize_is_most_constrained(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    assert select_target_column(state) == ColumnRef(Order.INTERLEAVED, 3)
    # one empty cell with exactly one legal bank
    assert completion_count(state, ColumnRef(Order.INTERLEAVED, 3)) == 1


def test_select_none_when_complete(demo_pair):
    state = MappingState.fresh(demo_pair)
    for datum, bank in enumerate(KNOWN_MAPPING):
        state.assign(datum, bank)
    assert select_target_column(state) is None


def test_select_small_instance_matches_enumeration():
    state = initialize(MappingState.fresh(small_pair()))
    counts = {}
    for order in Order:
        for t in range(state.cycles):
            column = ColumnRef(order, t)
            if state.empty_cells(column):
                counts[column] = independent_completion_count(state, column)
                assert completion_count(state, column) == counts[column]
    chosen = select_target_column(state)
    assert counts[chosen] == min(counts.values())
    # tie chain: fewest empty cells, interleaved side first, lowest index
    assert chosen == ColumnRef(Order.INTERLEAVED, 0)


def fig_state(demo_pair):
    """Demo state after the forced first step (permuted column 3 -> bank 0)."""
    state = initialize(MappingState.fresh(demo_pair))
    assign_column(state, ColumnRef(Order.INTERLEAVED, 3), (0,))
    return state


def test_candidates_single_forced_tuple(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    cands = candidate_assignments(state, ColumnRef(Order.INTERLEAVED, 3), BARREL)
    assert cands.cells == ((0, 6),)
    assert list(cands) == [(0,)]


def test_candidates_objective_ordering_forces_rotation(demo_pair):
    # natural column 2 holds bank 0 at row 1; the only rotation of the
    # reference pattern (0,1,2) matching that is (2,0,1), forcing 2 then 1
    state = fig_state(demo_pair)
    cands = candidate_assignments(state, ColumnRef(Order.NATURAL, 2), BARREL)
    assert cands.cells == ((0, 2), (2, 10))
    assert first_candidate(cands) == (2, 1)


def test_candidates_empty_when_cell_blocked():
    state = MappingState.fresh(small_pair())
    state.assign(1, 0)  # natural column 1
    state.assign(2, 1)  # interleaved column 1
    cands = candidate_assignments(state, ColumnRef(Order.NATURAL, 1), CROSSBAR)
    assert any(not banks for banks in cands.bank_lists)
    assert first_candidate(cands) is None


def test_assign_mirrors_into_other_matrix(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    record = assign_column(state, ColumnRef(Order.INTERLEAVED, 3), (0,))
    assert record == (6,)
    assert bank_grid(state, Order.NATURAL)[1][2] == 0
    state.check_invariants()


def test_assign_rejects_illegal_tuples(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    column = ColumnRef(Order.NATURAL, 1)
    with pytest.raises(InvariantViolation):
        assign_column(state, column, (0, 0, 1))  # repeated bank
    with pytest.raises(InvariantViolation):
        assign_column(state, column, (0, 1))  # wrong arity
    with pytest.raises(InvariantViolation):
        # datum 5 shares interleaved column 1 with datum 0 (bank 0)
        assign_column(state, column, (1, 0, 2))


def test_assign_rejects_bank_used_in_either_column(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    # datum 5 shares interleaved column 1 with datum 0 (bank 0)
    with pytest.raises(InvariantViolation):
        state.assign(5, 0)
    state.assign(1, 1)
    # datum 5 shares natural column 1 with datum 1 (bank 1)
    with pytest.raises(InvariantViolation):
        state.assign(5, 1)
    assert state.bank_of[5] is None
    state.check_invariants()


@pytest.mark.parametrize("bank", [3, 7, -1])
def test_assign_rejects_bank_out_of_range(demo_pair, bank):
    state = initialize(MappingState.fresh(demo_pair))  # X = 3
    with pytest.raises(InvariantViolation):
        state.assign(1, bank)
    assert state.bank_of[1] is None
    state.check_invariants()


def test_check_invariants_catches_bank_out_of_range(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    # what an unchecked assign(1, 7) would leave: the table and both masks
    # agree on a bank that does not exist at X = 3
    state.bank_of[1] = 7
    for order in Order:
        state.used[order][demo_pair.column_of[order][1]] |= 1 << 7
    with pytest.raises(InvariantViolation):
        state.check_invariants()


def test_check_invariants_catches_stale_mask(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    state.used[Order.INTERLEAVED][1] = 0  # forget datum 0's bank
    with pytest.raises(InvariantViolation):
        state.check_invariants()


def test_check_invariants_catches_stale_count(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    column = select_target_column(state)  # fills the count cache
    state.counts[column.order][column.index] += 1
    with pytest.raises(InvariantViolation):
        state.check_invariants()


def test_check_invariants_catches_stale_key(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    column = select_target_column(state)  # fills the key cache
    slot = state.base[column.order] + column.index
    count, *rest = state.keys[slot]
    state.keys[slot] = (count + 1, *rest)
    with pytest.raises(InvariantViolation):
        state.check_invariants()


def test_retract_restores_previous_state(demo_pair):
    state = fig_state(demo_pair)
    before = copy.deepcopy(state)
    column = ColumnRef(Order.NATURAL, 2)
    record = assign_column(state, column, (2, 1))
    assert state != before
    retract_column(state, record)
    assert state == before


def test_assign_retract_random_walk_is_exact():
    rng = random.Random(20240517)
    pairs = size_parallelism_pairs(12, (2, 3))
    for _ in range(200):
        spec = random_problem(rng, pairs)
        state = initialize(MappingState.fresh(SchedulePair.from_problem(spec)))
        # wander into a random reachable state
        for _ in range(rng.randrange(3)):
            column = select_target_column(state)
            if column is None:
                break
            options = list(candidate_assignments(state, column, CROSSBAR))
            if not options:
                break
            assign_column(state, column, rng.choice(options))
        column = select_target_column(state)
        if column is None:
            continue
        options = list(candidate_assignments(state, column, CROSSBAR))
        if not options:
            continue
        snapshot = copy.deepcopy(state)
        record = assign_column(state, column, rng.choice(options))
        retract_column(state, record)
        assert state == snapshot


def scratch_completion_count(state, column):
    # the count DP over the column's empty cells, read from the bank grids
    # with no cache and no memo
    pair = state.schedules
    grid = bank_grid(state, column.order)
    other_grid = bank_grid(state, column.order.other)
    here = {grid[q][column.index] for q in range(pair.rows)}
    layer = {0: 1}
    for p in range(pair.rows):
        if grid[p][column.index] is not None:
            continue
        datum = pair.of(column.order).cells[p][column.index]
        _, other_col = position(pair, column.order.other, datum)
        taken = here | {other_grid[q][other_col] for q in range(pair.rows)}
        nxt = {}
        for used, count in layer.items():
            for bank in range(pair.rows):
                if bank not in taken and not used >> bank & 1:
                    nxt[used | 1 << bank] = nxt.get(used | 1 << bank, 0) + count
        layer = nxt
    return sum(layer.values())


def scratch_select(state):
    # select_target_column's key, every entry recomputed from scratch
    keys = []
    for order in Order:
        side_rank = 0 if order is Order.INTERLEAVED else 1
        for t in range(state.cycles):
            column = ColumnRef(order, t)
            empties = state.empty_cells(column)
            if empties:
                count = scratch_completion_count(state, column)
                keys.append(((count, len(empties), side_rank, t), column))
    return min(keys)[1] if keys else None


def x8_spec(rng, fill):
    entries = list(range(64))
    rng.shuffle(entries)
    return ProblemSpec(
        validate_permutation(entries), 8, LayoutConventions(interleaved_fill=fill)
    )


def unfinished_columns(state):
    return [
        ColumnRef(order, t)
        for order in Order
        for t in range(state.cycles)
        if state.empty_cells(ColumnRef(order, t))
    ]


@pytest.mark.parametrize("objective", [CROSSBAR, BARREL])
@pytest.mark.parametrize("fill", list(FillRule))
def test_cached_selection_matches_from_scratch(fill, objective):
    rng = random.Random(31 + list(FillRule).index(fill))
    steps = 0
    for _ in range(6):
        state = initialize(MappingState.fresh(SchedulePair.from_problem(x8_spec(rng, fill))))
        records = []
        for _ in range(40):
            chosen = select_target_column(state)
            assert chosen == scratch_select(state)
            state.check_invariants()
            open_columns = unfinished_columns(state)
            if records and (not open_columns or rng.random() < 0.3):
                retract_column(state, records.pop())
            elif open_columns:
                # any unfinished column, not only the selected one, so the
                # invalidation is exercised from every kind of state
                column = chosen if rng.random() < 0.5 else rng.choice(open_columns)
                options = candidate_assignments(state, column, objective)
                first = first_candidate(options)
                if first is None:
                    if not records:
                        break
                    retract_column(state, records.pop())
                else:
                    records.append(assign_column(state, column, first))
            steps += 1
    assert steps > 200  # the walks did not stall early


@pytest.mark.parametrize("fill", list(FillRule))
def test_selection_recounts_only_invalidated_columns(fill, monkeypatch):
    import bankmap.solver as solver_module

    rng = random.Random(5 + list(FillRule).index(fill))
    pair = SchedulePair.from_problem(x8_spec(rng, fill))
    state = initialize(MappingState.fresh(pair))
    for _ in range(4):
        column = select_target_column(state)
        assign_column(state, column, first_candidate(candidate_assignments(state, column, CROSSBAR)))
    column = select_target_column(state)  # every unfinished count is cached now
    record = assign_column(state, column, first_candidate(candidate_assignments(state, column, CROSSBAR)))

    # the rule: each assigned datum's two columns, plus every column of the
    # other order that holds a still-unmapped datum of one of those columns
    changed = {ColumnRef(order, position(pair, order, d)[1]) for d in record for order in Order}
    named = set(changed)
    for order, t in changed:
        for d in schedule_column(pair.of(order), t):
            if state.bank_of[d] is None:
                named.add(ColumnRef(order.other, position(pair, order.other, d)[1]))
    expected = named & set(unfinished_columns(state))
    assert len(expected) < len(unfinished_columns(state))

    calls = []
    real = solver_module.completion_count
    monkeypatch.setattr(
        solver_module, "completion_count", lambda s, c: calls.append(c) or real(s, c)
    )
    select_target_column(state)
    assert len(calls) == len(set(calls)) and set(calls) == expected
    calls.clear()
    select_target_column(state)
    assert calls == []


def test_column_moves_drop_counts_once_per_column(monkeypatch):
    import bankmap.solver as solver_module

    drops = []
    real_drop = MappingState._drop_counts
    monkeypatch.setattr(
        MappingState, "_drop_counts", lambda s, data: drops.append(data) or real_drop(s, data)
    )
    moves = []  # (function, drops the call made)
    for name in ("assign_column", "retract_column"):
        def counted(*args, real=getattr(solver_module, name), name=name):
            before = len(drops)
            result = real(*args)
            moves.append((name, len(drops) - before))
            return result
        monkeypatch.setattr(solver_module, name, counted)
    spec = random_problem(random.Random(4), [(96, 8)])
    outcome = solve(spec, CROSSBAR, SolveOptions(trace=True))
    assert outcome.stats.backtracks > 0
    assert len(moves) == outcome.stats.nodes + outcome.stats.backtracks
    assert all(made == 1 for _, made in moves)
    # most moves fill several cells, so a drop per datum would be counted
    assert sum(len(e.data) > 1 for e in outcome.trace if e.kind == "assign") > 10


def permutation_count(free, masks):
    # every ordering of the free banks over the cells, checked one by one
    banks = [b for b in range(free.bit_length()) if free >> b & 1]
    return sum(
        all(mask >> b & 1 for mask, b in zip(masks, perm))
        for perm in itertools.permutations(banks)
    )


@st.composite
def count_boards(draw, max_k=8):
    """(free, masks): k free banks out of 12 and one mask per cell, a
    subset of free. Each cell forbids at most `spread` banks, so a draw
    sits anywhere from no forbidden pair to all-empty masks."""
    k = draw(st.integers(0, max_k))
    banks = draw(st.lists(st.integers(0, 11), min_size=k, max_size=k, unique=True))
    spread = draw(st.integers(0, k))
    masks = []
    for _ in range(k):
        forbidden = draw(st.sets(st.sampled_from(banks), max_size=spread)) if k else set()
        masks.append(sum(1 << b for b in banks if b not in forbidden))
    return sum(1 << b for b in banks), tuple(sorted(masks))


@given(count_boards())
@example((0, ()))
@example((0b11111, (0b11111,) * 5))  # no forbidden pair: 5!
@example((0b11111, (0, 0b11111, 0b11111, 0b11111, 0b11111)))  # an empty mask
# forbidden boards: three components, one per cell, and one six-cycle
@example((0b111111, (0b111100, 0b111100, 0b110011, 0b110011, 0b001111, 0b001111)))
@example((0b111111, (0b111110, 0b111101, 0b111011, 0b110111, 0b101111, 0b011111)))
@example((0b111111, (0b111100, 0b111001, 0b110011, 0b100111, 0b001111, 0b011110)))
def test_both_counts_match_enumeration(board):
    free, masks = board
    expected = permutation_count(free, masks)
    assert _matching_count(masks) == expected
    assert _rook_count(free, masks) == expected


@pytest.mark.parametrize("k", [12, 14, 16])
def test_rook_count_matches_dp_on_large_sparse_columns(k):
    rng = random.Random(k)
    banks = rng.sample(range(2 * k), k)
    free = sum(1 << b for b in banks)
    for _ in range(3):
        masks = []
        for _ in range(k):
            forbidden = rng.sample(banks, rng.choice([0, 0, 1, 1, 2, 3]))
            masks.append(free & ~sum(1 << b for b in forbidden))
        masks = tuple(sorted(masks))
        assert 2 * k * k <= 3 * sum(m.bit_count() for m in masks)  # the rook side of the rule
        assert _rook_count(free, masks) == _matching_count(masks) > 0


def test_solve_demo_reproduces_known_mapping(demo_problem):
    outcome = solve(demo_problem, BARREL)
    assert outcome.status is Status.SOLVED
    assert outcome.objective_met
    assert outcome.mapping == KNOWN_MAPPING
    assert outcome.stats.backtracks == 0


def test_solve_small_identity_instance():
    spec = ProblemSpec(validate_permutation([0, 1, 2, 3]), 2)
    # independent oracle: exhaust all 16 assignments under identity first column
    pair = SchedulePair.from_problem(spec)
    survivors = []
    for banks in itertools.product(range(2), repeat=4):
        if (banks[0], banks[2]) != (0, 1):
            continue
        ok = all(
            len({banks[d] for d in schedule_column(pair.of(order), t)}) == 2
            for order in Order
            for t in range(2)
        )
        if ok:
            survivors.append(banks)
    assert survivors == [(0, 1, 1, 0)]
    outcome = solve(spec, BARREL)
    assert outcome.status is Status.SOLVED and outcome.objective_met
    assert outcome.mapping == (0, 1, 1, 0)


def test_solve_single_pe_trivial():
    spec = ProblemSpec(validate_permutation([2, 0, 1]), 1)
    outcome = solve(spec, BARREL)
    assert outcome.status is Status.SOLVED
    assert outcome.mapping == (0, 0, 0)
    assert outcome.objective_met


def test_solve_is_deterministic(demo_problem):
    options = SolveOptions(trace=True)
    first = solve(demo_problem, BARREL, options)
    second = solve(demo_problem, BARREL, options)
    assert first == second


DETERMINISM_SCRIPT = """
import random
from bankmap import NetworkObjective, SolveOptions, solve
from helpers import outcome_digest, planted_barrel_problem, random_problem

options = SolveOptions(trace=True)
for spec, objective in (
    (random_problem(random.Random(6), [(24, 4)]), NetworkObjective.BARREL_SHIFTER),
    (random_problem(random.Random(2), [(64, 8)]), NetworkObjective.CROSSBAR),
    (planted_barrel_problem(random.Random(1), 32, 4), NetworkObjective.BARREL_SHIFTER),
):
    outcome = solve(spec, objective, options)
    print(outcome.objective_met, outcome.stats.backtracks > 0, outcome_digest(outcome))
"""


def test_solve_is_deterministic_across_processes():
    # Order hashes by identity, so a set or dict keyed on it iterates in
    # an order that can change from process to process
    tests = pathlib.Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    runs = [
        subprocess.run(
            [sys.executable, "-c", DETERMINISM_SCRIPT],
            env={**os.environ, "PYTHONPATH": path, "PYTHONHASHSEED": hash_seed},
            capture_output=True, text=True, check=True,
        ).stdout.split("\n")
        for hash_seed in ("0", "1")
    ]
    assert runs[0] == runs[1]
    # relaxed barrel, crossbar and planted barrel solves, each backtracking
    assert [line.split()[:2] for line in runs[0] if line] == [
        ["False", "True"], ["True", "True"], ["True", "True"]
    ]


def test_solve_budget_exhausted(demo_problem):
    outcome = solve(demo_problem, BARREL, SolveOptions(max_nodes=2))
    assert outcome.status is Status.BUDGET_EXHAUSTED
    assert outcome.mapping is None
    assert outcome.stats.nodes <= 2


def test_first_node_at_x64_block_size_fits_in_300_mib():
    # Counting the first selection's columns at L=6144, X=64 needs the
    # rook count: the bitmask DP alone exhausts the capped address space.
    code = (
        "import json\n"
        "from bankmap import ProblemSpec, SolveOptions, solve, validate_permutation\n"
        f"spec = ProblemSpec(validate_permutation({LTE_QPP_6144!r}), 64)\n"
        "outcome = solve(spec, options=SolveOptions(max_nodes=1))\n"
        "print(json.dumps([outcome.status.value, outcome.stats.nodes]))\n"
    )
    run = run_capped(code)
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout) == ["budget-exhausted", 1]


def test_strict_fails_where_relaxed_degrades(pinned):
    doc = pinned["barrel_infeasible"]
    spec = ProblemSpec(validate_permutation(doc["permutation"]), doc["parallelism"])
    strict = solve(spec, BARREL, SolveOptions(strict_objective=True))
    assert strict.status is Status.INFEASIBLE
    relaxed = solve(spec, BARREL)
    assert relaxed.status is Status.SOLVED
    assert not relaxed.objective_met
    pair = SchedulePair.from_problem(spec)
    assert verify_mapping(relaxed.mapping, pair).valid


def with_fill(spec, fill):
    return ProblemSpec(
        spec.permutation, spec.parallelism, LayoutConventions(interleaved_fill=fill)
    )


def assert_colouring_valid(pair):
    mapping = colour_crossbar(pair)
    assert verify_mapping(mapping, pair).valid
    assert satisfies_partition_definition(mapping, pair)
    assert [mapping[d] for d in schedule_column(pair.natural, 0)] == list(range(pair.rows))


@given(problems(max_size=16, parallelisms=(1, 2, 3, 4)), st.sampled_from(FillRule))
def test_colour_crossbar_is_an_oracle_mapping(spec, fill):
    pair = SchedulePair.from_problem(with_fill(spec, fill))
    oracle = brute_force_solve(pair, CROSSBAR, fix_first_column=True)
    assert colour_crossbar(pair) in oracle


def test_colour_crossbar_on_criterion_8_instances():
    # the 200 random instances of acceptance criterion 8
    rng = random.Random(512)
    pairs = size_parallelism_pairs(64, (2, 3, 4))
    for _ in range(200):
        assert_colouring_valid(SchedulePair.from_problem(random_problem(rng, pairs)))


def qpp_6144():
    # the LTE turbo interleaver for K = 6144: f(i) = (263 i + 480 i^2) mod K
    return [(263 * i + 480 * i * i) % 6144 for i in range(6144)]


@pytest.mark.parametrize("parallelism", [16, 64])
@pytest.mark.parametrize("fill", list(FillRule))
def test_colour_crossbar_at_block_size(parallelism, fill):
    rng = random.Random(parallelism)
    shuffled = list(range(6144))
    rng.shuffle(shuffled)
    for entries in (shuffled, qpp_6144()):
        spec = ProblemSpec(
            validate_permutation(entries), parallelism, LayoutConventions(interleaved_fill=fill)
        )
        assert_colouring_valid(SchedulePair.from_problem(spec))


def barrel_infeasible_specs(pinned, count=20):
    doc = pinned["barrel_infeasible"]
    specs = [ProblemSpec(validate_permutation(doc["permutation"]), doc["parallelism"])]
    rng = random.Random(41)
    pairs = size_parallelism_pairs(24, (3, 4))
    while len(specs) < count + 1:
        spec = with_fill(random_problem(rng, pairs), rng.choice(list(FillRule)))
        if solve(spec, BARREL, SolveOptions(strict_objective=True)).status is Status.INFEASIBLE:
            specs.append(spec)
    return specs


def test_relaxed_solve_is_the_strict_search_plus_colouring(pinned):
    relax = TraceEvent("relax", None, None, None, None)
    for spec in barrel_infeasible_specs(pinned):
        pair = SchedulePair.from_problem(spec)
        strict = solve(spec, BARREL, SolveOptions(strict_objective=True, trace=True))
        relaxed = solve(spec, BARREL, SolveOptions(trace=True))
        assert strict.status is Status.INFEASIBLE
        assert relaxed.status is Status.SOLVED and not relaxed.objective_met
        assert relaxed.stats == strict.stats
        assert relaxed.trace == strict.trace + (relax,)
        assert relaxed.mapping == colour_crossbar(pair)
        # the fallback costs no nodes, so the strict search's own budget suffices
        budgeted = solve(spec, BARREL, SolveOptions(max_nodes=strict.stats.nodes))
        assert budgeted.status is Status.SOLVED
        assert budgeted.mapping == relaxed.mapping


def test_solver_and_oracle_agree_on_small_instances():
    rng = random.Random(7)
    pairs = size_parallelism_pairs(9, (2, 3))
    for _ in range(15):
        spec = random_problem(rng, pairs)
        pair = SchedulePair.from_problem(spec)
        outcome = solve(spec, BARREL, SolveOptions(strict_objective=True))
        oracle = brute_force_solve(pair, BARREL, fix_first_column=True)
        assert (outcome.status is Status.SOLVED) == bool(oracle)
        if outcome.status is Status.SOLVED:
            assert outcome.mapping in oracle


def test_solved_outcomes_are_verifier_clean():
    rng = random.Random(99)
    pairs = size_parallelism_pairs(24, (2, 3, 4))
    for _ in range(30):
        spec = random_problem(rng, pairs)
        outcome = solve(spec, CROSSBAR)
        assert outcome.status is Status.SOLVED
        report = verify_mapping(outcome.mapping, SchedulePair.from_problem(spec))
        assert report.valid and not report.conflicts


def test_golden_traces_reproduce():
    # digests of status, mapping, stats and the full trace, recorded by
    # scripts/regen_fixtures.py; any change in how the search moves shows here
    golden = json.loads((FIXTURE_DIR / "golden_traces.json").read_text())
    seen = set()
    for entry in golden:
        conventions = LayoutConventions(interleaved_fill=FillRule(entry["interleaved_fill"]))
        spec = ProblemSpec(
            validate_permutation(entry["permutation"]), entry["parallelism"], conventions
        )
        for run in entry["runs"]:
            options = SolveOptions(
                strict_objective=run["strict_objective"],
                max_nodes=run["max_nodes"],
                trace=True,
            )
            outcome = solve(spec, NetworkObjective(run["objective"]), options)
            assert outcome.status.value == run["status"], (entry["permutation"], run)
            assert outcome_digest(outcome) == run["digest"], (entry["permutation"], run)
            seen.add(outcome.status)
    assert seen == set(Status)
