import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bankmap import (
    ColumnRef,
    FillRule,
    LayoutConventions,
    MappingState,
    NetworkObjective,
    ObjectiveIncompatible,
    Order,
    ProblemSpec,
    SchedulePair,
    apply_control_word,
    assign_column,
    column_pattern,
    derive_controls,
    initialize,
    objective_compatible,
    rotation_offset,
    solve,
    validate_permutation,
)
from bankmap.network import admissible_banks
from conftest import CROSSBAR_ONLY_MAPPING, KNOWN_MAPPING
from helpers import bank_grid, position, problems

BARREL = NetworkObjective.BARREL_SHIFTER
CROSSBAR = NetworkObjective.CROSSBAR


def test_rotation_offset_reference_cases():
    assert rotation_offset((0, 1, 2), (2, 0, 1)) == 1
    assert rotation_offset((0, 1, 2), (0, 1, 2)) == 0
    assert rotation_offset((0, 2, 1), (1, 2, 0)) is None
    assert rotation_offset((0,), (0,)) == 0


@st.composite
def pattern_pairs(draw):
    size = draw(st.integers(1, 6))
    u = draw(st.permutations(tuple(range(size))))
    v = draw(st.permutations(tuple(range(size))))
    sigma = draw(st.permutations(tuple(range(size))))
    return tuple(u), tuple(v), tuple(sigma)


@given(pattern_pairs())
def test_rotation_offset_commutes_with_relabeling(case):
    u, v, sigma = case
    relabeled = tuple(sigma[b] for b in u), tuple(sigma[b] for b in v)
    assert rotation_offset(*relabeled) == rotation_offset(u, v)


@given(pattern_pairs())
def test_rotation_offset_inverts_explicit_rotation(case):
    u, _, _ = case
    size = len(u)
    for r in range(size):
        shifted = tuple(u[(j - r) % size] for j in range(size))
        assert rotation_offset(u, shifted) == r


def scan_rotation_offset(reference, column):
    # the former full scan: every rotation, each checked row by row
    size = len(reference)
    for r in range(size):
        if all(column[j] == reference[(j - r) % size] for j in range(size)):
            return r
    return None


@st.composite
def rotation_cases(draw):
    size = draw(st.integers(1, 8))
    if draw(st.booleans()):
        reference = draw(st.permutations(tuple(range(size))))
    else:  # few symbols, so banks repeat
        symbols = draw(st.integers(1, size))
        reference = draw(st.lists(st.integers(0, symbols - 1), min_size=size, max_size=size))
    reference = tuple(reference)
    r = draw(st.integers(0, size - 1))
    column = [reference[(j - r) % size] for j in range(size)]
    if draw(st.booleans()):  # corrupt one cell
        column[draw(st.integers(0, size - 1))] = draw(st.integers(0, size - 1))
    return reference, tuple(column)


@given(rotation_cases())
def test_rotation_offset_matches_full_scan(case):
    reference, column = case
    assert rotation_offset(reference, column) == scan_rotation_offset(reference, column)


def test_rotation_offset_repeated_banks_give_smallest():
    assert rotation_offset((0, 1, 0, 1), (1, 0, 1, 0)) == 1
    assert rotation_offset((2, 2, 2), (2, 2, 2)) == 0
    assert rotation_offset((0, 0, 1), (0, 1, 0)) == 2
    assert rotation_offset((0, 0, 1), (1, 1, 0)) is None


def test_known_mapping_is_barrel_compatible(demo_pair):
    assert objective_compatible(KNOWN_MAPPING, demo_pair, BARREL)
    assert objective_compatible(KNOWN_MAPPING, demo_pair, CROSSBAR)


def test_crossbar_only_mapping_is_not_barrel_compatible(demo_pair):
    assert objective_compatible(CROSSBAR_ONLY_MAPPING, demo_pair, CROSSBAR)
    assert not objective_compatible(CROSSBAR_ONLY_MAPPING, demo_pair, BARREL)


def test_single_bank_always_compatible():
    spec = ProblemSpec(validate_permutation([1, 2, 0]), 1)
    pair = SchedulePair.from_problem(spec)
    for objective in NetworkObjective:
        assert objective_compatible((0, 0, 0), pair, objective)


def test_admissible_banks_rotation_first(demo_pair):
    state = initialize(MappingState.fresh(demo_pair))
    assign_column(state, ColumnRef(Order.INTERLEAVED, 3), (0,))
    column = ColumnRef(Order.NATURAL, 2)
    assert admissible_banks(state, column, 0, BARREL) == [2]
    assert admissible_banks(state, column, 0, CROSSBAR) == [1, 2]


def test_admissible_banks_dead_rotation_column(demo_pair):
    # fill the natural column 1 at rows 0 and 2 with banks that no single
    # rotation of the reference (0,1,2) can produce at once
    state = initialize(MappingState.fresh(demo_pair))
    assign_column(state, ColumnRef(Order.INTERLEAVED, 0), (0, 1, 2))
    column = ColumnRef(Order.NATURAL, 1)
    grid = bank_grid(state, Order.NATURAL)
    assert (grid[0][1], grid[2][1]) == (0, 1)
    assert admissible_banks(state, column, 1, BARREL) == []
    assert admissible_banks(state, column, 1, CROSSBAR) == [2]


def test_derive_controls_known_mapping(demo_pair):
    controls = derive_controls(KNOWN_MAPPING, demo_pair, BARREL)
    assert controls.natural_words == (0, 0, 1, 0)
    assert controls.distinct_word_count(Order.NATURAL) == 2
    assert controls.interleaved_words == (0, 1, 2, 0)
    assert controls.distinct_word_count(Order.INTERLEAVED) == 3


def test_derive_controls_crossbar_words_are_patterns(demo_pair):
    controls = derive_controls(KNOWN_MAPPING, demo_pair, CROSSBAR)
    for order in Order:
        sched = demo_pair.of(order)
        for t, word in enumerate(controls.words(order)):
            assert word == column_pattern(KNOWN_MAPPING, sched, t)


def test_derive_controls_single_pe_identity():
    spec = ProblemSpec(validate_permutation([1, 0]), 1)
    pair = SchedulePair.from_problem(spec)
    controls = derive_controls((0, 0), pair, BARREL)
    assert controls.natural_words == (0, 0)
    assert controls.interleaved_words == (0, 0)


def test_derive_controls_rejects_incompatible(demo_pair):
    with pytest.raises(ObjectiveIncompatible):
        derive_controls(CROSSBAR_ONLY_MAPPING, demo_pair, BARREL)


@given(problems(max_size=16, parallelisms=(2,)))
def test_barrel_words_replay_to_column_patterns(spec):
    # with two banks every legal column is a rotation, so controls always exist
    pair = SchedulePair.from_problem(spec)
    mapping = solve(spec, BARREL).mapping
    controls = derive_controls(mapping, pair, BARREL)
    for order in Order:
        sched = pair.of(order)
        reference = column_pattern(mapping, sched, 0)
        for t, word in enumerate(controls.words(order)):
            replayed = apply_control_word(BARREL, reference, word)
            assert replayed == column_pattern(mapping, sched, t)


def rotation_consistent(state, column, row, bank):
    # per-bank reference: is there a rotation of the (possibly partial)
    # reference pattern that agrees with the column's filled cells plus
    # `bank` at `row`? An unfilled reference slot may take any bank the
    # reference does not use yet.
    reference = state.column(column.order, 0)
    reference_used = state.used_banks(column.order, 0)
    size = len(reference)
    cells = [(j, v) for j, v in enumerate(state.column(column.order, column.index))
             if v is not None]
    cells.append((row, bank))
    for r in range(size):
        for j, v in cells:
            have = reference[(j - r) % size]
            if have is None:
                if reference_used >> v & 1:
                    break
            elif have != v:
                break
        else:
            return True
    return False


def reference_partition(state, column, row):
    free = state.free_banks(column.order, row, column.index)
    structural = [b for b in range(state.rows) if free >> b & 1]
    friendly = [b for b in structural if rotation_consistent(state, column, row, b)]
    return friendly, [b for b in structural if b not in friendly]


@pytest.mark.parametrize("fill", list(FillRule))
def test_partition_admissible_matches_per_bank_reference(fill):
    rng = random.Random(fill.value)
    checked = 0
    for _ in range(80):
        x, n = rng.randrange(1, 9), rng.randrange(1, 6)
        entries = list(range(x * n))
        rng.shuffle(entries)
        spec = ProblemSpec(
            validate_permutation(entries), x, LayoutConventions(interleaved_fill=fill)
        )
        pair = SchedulePair.from_problem(spec)
        state = MappingState.fresh(pair)
        if rng.random() < 0.5:
            initialize(state)
        # a random partial state, mostly following objective-friendly banks
        data = [d for d in range(spec.size) if state.bank_of[d] is None]
        rng.shuffle(data)
        for datum in data[:rng.randrange(len(data) + 1)]:
            row, t = position(pair, Order.NATURAL, datum)
            friendly, rest = reference_partition(state, ColumnRef(Order.NATURAL, t), row)
            choices = friendly if friendly and rng.random() < 0.7 else friendly + rest
            if choices:
                state.assign(datum, rng.choice(choices))
        for order in Order:
            for t in range(n):
                column = ColumnRef(order, t)
                for row, _ in state.empty_cells(column):
                    expected, _ = reference_partition(state, column, row)
                    assert admissible_banks(state, column, row, BARREL) == expected
                    checked += 1
    assert checked > 500
