import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bankmap import (
    FillRule,
    LayoutConventions,
    NetworkObjective,
    Order,
    ProblemSpec,
    RepairBudgetExhausted,
    SchedulePair,
    baseline_solve,
    build_tiles,
    greedy_fill,
    repair_complete,
    validate_permutation,
    verify_mapping,
)
from bankmap import baseline
from bankmap.baseline import REPAIR_BUDGET_PER_DATUM, satisfies_tile_constraints
from conftest import CROSSBAR_ONLY_MAPPING, DEMO_TILES
from helpers import position, problems, random_problem, size_parallelism_pairs


def independent_mates(pair):
    # same natural column or same interleaved column, built from positions
    mates = [set() for _ in range(pair.size)]
    for a in range(pair.size):
        for b in range(pair.size):
            if a == b:
                continue
            for order in Order:
                if position(pair, order, a)[1] == position(pair, order, b)[1]:
                    mates[a].add(b)
    return mates


def reference_mates(schedules):
    # per datum: the other data of its natural column, then of its tile
    natural_of = schedules.column_of[Order.NATURAL]
    tile_of = schedules.column_of[Order.INTERLEAVED]
    mates = []
    for d in range(schedules.size):
        group = {e for e in schedules.natural.columns[natural_of[d]] if e != d}
        group.update(e for e in schedules.interleaved.columns[tile_of[d]] if e != d)
        mates.append(tuple(group))
    return mates


def reference_greedy(tiles):
    # the set-based greedy pass the bitmask one replaced
    mates = reference_mates(tiles.schedules)
    banks = [None] * tiles.schedules.size
    for column in tiles.schedules.natural.columns:
        for p, datum in enumerate(column):
            blocked = {banks[e] for e in mates[datum] if banks[e] is not None}
            for bank in [p] + [b for b in range(tiles.rows) if b != p]:
                if bank not in blocked:
                    banks[datum] = bank
                    break
    return banks


def reference_repair(partial, tiles, seed):
    # the per-bank clash count repair the bitmask one replaced
    banks = list(partial)
    if all(b is not None for b in banks):
        return tuple(banks)
    mates = reference_mates(tiles.schedules)
    rng = random.Random(seed)
    budget = REPAIR_BUDGET_PER_DATUM * tiles.schedules.size
    pending = [d for column in tiles.schedules.natural.columns for d in column if banks[d] is None]
    stack = list(reversed(pending))
    steps = 0
    while stack:
        steps += 1
        if steps > budget:
            raise RepairBudgetExhausted(budget)
        datum = stack.pop()
        clashes = [0] * tiles.rows
        for mate in mates[datum]:
            if banks[mate] is not None:
                clashes[banks[mate]] += 1
        least = min(clashes)
        choices = [b for b in range(tiles.rows) if clashes[b] == least]
        bank = choices[0] if len(choices) == 1 else rng.choice(choices)
        banks[datum] = bank
        if least > 0:
            for mate in mates[datum]:
                if banks[mate] == bank and mate != datum:
                    banks[mate] = None
                    stack.append(mate)
    return tuple(banks)


def assert_matches_reference(spec, seed):
    pair = SchedulePair.from_problem(spec)
    tiles = build_tiles(pair)
    partial = greedy_fill(tiles)
    assert partial == reference_greedy(tiles)
    mapping = repair_complete(partial, tiles, seed)
    assert mapping == reference_repair(partial, tiles, seed)
    assert verify_mapping(mapping, pair).valid
    return partial


def test_tiles_match_reference(demo_pair):
    assert build_tiles(demo_pair).tiles == DEMO_TILES


def test_tiles_small_identity_instance():
    spec = ProblemSpec(validate_permutation([0, 1, 2, 3]), 2)
    tiles = build_tiles(SchedulePair.from_problem(spec))
    assert tiles.tiles == ((0, 0), (1, 1))


def test_tiles_single_pe_are_permutation_positions():
    spec = ProblemSpec(validate_permutation([2, 0, 1]), 1)
    tiles = build_tiles(SchedulePair.from_problem(spec))
    assert tiles.tiles == ((1, 2, 0),)


@given(problems(max_size=24, parallelisms=(1, 2, 3)))
def test_each_tile_id_appears_parallelism_times(spec):
    pair = SchedulePair.from_problem(spec)
    tiles = build_tiles(pair)
    flat = [tile for row in tiles.tiles for tile in row]
    for t in range(spec.cycles):
        assert flat.count(t) == spec.parallelism


@given(problems(max_size=18, parallelisms=(2, 3)))
def test_shared_tile_means_shared_interleaved_column(spec):
    pair = SchedulePair.from_problem(spec)
    tiles = build_tiles(pair)
    natural = pair.natural
    for p in range(pair.rows):
        for t in range(pair.cycles):
            datum = natural.cells[p][t]
            assert tiles.tiles[p][t] == position(pair, Order.INTERLEAVED, datum)[1]


def test_greedy_single_pe_fills_everything():
    spec = ProblemSpec(validate_permutation([1, 2, 0]), 1)
    tiles = build_tiles(SchedulePair.from_problem(spec))
    assert greedy_fill(tiles) == [0, 0, 0]


def test_greedy_filled_cells_are_conflict_free(demo_pair):
    tiles = build_tiles(demo_pair)
    partial = greedy_fill(tiles)
    assert satisfies_tile_constraints(partial, tiles)
    mates = independent_mates(demo_pair)
    for datum, bank in enumerate(partial):
        if bank is None:
            continue
        assert all(partial[m] != bank for m in mates[datum])


def test_greedy_gap_instance_blocks_every_bank(pinned):
    doc = pinned["greedy_gap"]
    spec = ProblemSpec(validate_permutation(doc["permutation"]), doc["parallelism"])
    pair = SchedulePair.from_problem(spec)
    partial = greedy_fill(build_tiles(pair))
    empties = [d for d, b in enumerate(partial) if b is None]
    assert empties == doc["empty_data"]
    assert empties
    mates = independent_mates(pair)
    for datum in empties:
        # assignments only accumulate, so a cell left empty has every bank
        # blocked among its finally-assigned mates as well
        blocked = {partial[m] for m in mates[datum] if partial[m] is not None}
        assert blocked == set(range(spec.parallelism))


def test_repair_completes_gap_instance(pinned):
    doc = pinned["greedy_gap"]
    spec = ProblemSpec(validate_permutation(doc["permutation"]), doc["parallelism"])
    pair = SchedulePair.from_problem(spec)
    tiles = build_tiles(pair)
    partial = greedy_fill(tiles)
    for seed in range(5):
        mapping = repair_complete(partial, tiles, seed)
        assert verify_mapping(mapping, pair).valid


def test_repair_budget_bounds_the_chase(pinned, monkeypatch):
    doc = pinned["greedy_gap"]
    spec = ProblemSpec(validate_permutation(doc["permutation"]), doc["parallelism"])
    pair = SchedulePair.from_problem(spec)
    tiles = build_tiles(pair)
    partial = greedy_fill(tiles)
    monkeypatch.setattr(baseline, "REPAIR_BUDGET_PER_DATUM", 0)
    with pytest.raises(RepairBudgetExhausted) as err:
        repair_complete(partial, tiles, 0)
    assert err.value.budget == 0
    # the chase on this instance is shorter than one step per datum
    monkeypatch.setattr(baseline, "REPAIR_BUDGET_PER_DATUM", 1)
    for seed in range(5):
        assert verify_mapping(repair_complete(partial, tiles, seed), pair).valid


def test_repair_returns_complete_input_unchanged():
    spec = ProblemSpec(validate_permutation([0, 1, 2, 3]), 2)
    tiles = build_tiles(SchedulePair.from_problem(spec))
    partial = greedy_fill(tiles)
    assert partial == [0, 1, 1, 0]
    assert repair_complete(partial, tiles, seed=42) == tuple(partial)


def test_repair_is_seed_deterministic(pinned):
    doc = pinned["greedy_gap"]
    spec = ProblemSpec(validate_permutation(doc["permutation"]), doc["parallelism"])
    tiles = build_tiles(SchedulePair.from_problem(spec))
    partial = greedy_fill(tiles)
    assert repair_complete(partial, tiles, 3) == repair_complete(partial, tiles, 3)


def test_baseline_outputs_are_always_valid():
    rng = random.Random(11)
    pairs = size_parallelism_pairs(12, (2, 3))
    for _ in range(25):
        spec = random_problem(rng, pairs)
        mapping = baseline_solve(spec, seed=rng.randrange(100))
        assert verify_mapping(mapping, SchedulePair.from_problem(spec)).valid


def test_baseline_ignores_the_network(demo_problem, demo_pair):
    # the known network-agnostic result passes the verifier yet cannot be
    # realized by a barrel shifter; our baseline typically matches that
    report = verify_mapping(
        CROSSBAR_ONLY_MAPPING, demo_pair, objectives=list(NetworkObjective)
    )
    assert report.valid
    assert report.objective_met[NetworkObjective.CROSSBAR]
    assert not report.objective_met[NetworkObjective.BARREL_SHIFTER]
    mapping = baseline_solve(demo_problem, seed=0)
    assert verify_mapping(mapping, demo_pair).valid


@given(
    problems(max_size=12, parallelisms=(2, 3)),
    st.integers(0, 2**32 - 1),
)
def test_tile_constraints_equal_verifier(spec, seed):
    # complete mappings: tile/column distinctness <=> collision-free
    pair = SchedulePair.from_problem(spec)
    tiles = build_tiles(pair)
    rng = random.Random(seed)
    mapping = tuple(rng.randrange(spec.parallelism) for _ in range(spec.size))
    assert satisfies_tile_constraints(mapping, tiles) == verify_mapping(mapping, pair).valid


@given(
    problems(max_size=64, parallelisms=tuple(range(1, 9))),
    st.sampled_from(list(FillRule)),
    st.integers(0, 2**32 - 1),
)
def test_bitmask_passes_match_reference(spec, fill, seed):
    spec = ProblemSpec(spec.permutation, spec.parallelism, LayoutConventions(interleaved_fill=fill))
    assert_matches_reference(spec, seed)


@pytest.mark.parametrize("parallelism", [16, 32])
@pytest.mark.parametrize("fill", list(FillRule))
def test_bitmask_passes_match_reference_with_gaps(parallelism, fill):
    # enough cycles that the greedy pass leaves gaps and the chase evicts
    rng = random.Random(parallelism)
    for _ in range(3):
        entries = list(range(parallelism * 24))
        rng.shuffle(entries)
        spec = ProblemSpec(
            validate_permutation(entries), parallelism, LayoutConventions(interleaved_fill=fill)
        )
        partial = assert_matches_reference(spec, rng.randrange(2**32))
        assert None in partial
