import pytest
from hypothesis import given
from hypothesis import strategies as st

from bankmap import (
    BankMapError,
    DuplicateEntry,
    EmptyInput,
    FillRule,
    LayoutConventions,
    NonDivisorParallelism,
    NotAnInteger,
    Order,
    OutOfRange,
    Permutation,
    ProblemSpec,
    SchedulePair,
    build_schedules,
    validate_permutation,
)
from conftest import DEMO_INTERLEAVED, DEMO_NATURAL, DEMO_PERMUTATION
from helpers import damaged_ids, outcome_of, position, problems, schedule_column


def test_demo_permutation_is_valid():
    perm = validate_permutation(DEMO_PERMUTATION)
    assert perm.size == 12
    assert perm.entries == DEMO_PERMUTATION


def test_identity_permutation_is_valid():
    assert validate_permutation([0, 1, 2, 3]).size == 4


def test_duplicate_entry_rejected():
    with pytest.raises(DuplicateEntry) as err:
        validate_permutation([0, 0, 2])
    assert err.value.value == 0


def test_out_of_range_rejected():
    with pytest.raises(OutOfRange) as err:
        validate_permutation([0, 5, 1])
    assert err.value.value == 5


def test_empty_permutation_rejected():
    with pytest.raises(EmptyInput):
        validate_permutation([])


def test_demo_schedules_match_reference(demo_problem):
    natural, interleaved = build_schedules(demo_problem)
    assert natural.cells == DEMO_NATURAL
    assert interleaved.cells == DEMO_INTERLEAVED


def test_single_pe_degenerates_to_sequential():
    spec = ProblemSpec(validate_permutation([0, 1, 2]), 1)
    natural, interleaved = build_schedules(spec)
    assert natural.cells == ((0, 1, 2),)
    assert interleaved.cells == ((0, 1, 2),)


def test_non_divisor_parallelism_rejected():
    perm = validate_permutation(DEMO_PERMUTATION)
    with pytest.raises(NonDivisorParallelism) as err:
        ProblemSpec(perm, 5)
    assert (err.value.parallelism, err.value.length) == (5, 12)


def test_conventions_are_overridable():
    # swap both fill rules on a 2x3 instance and check cell placement
    spec = ProblemSpec(
        validate_permutation([3, 1, 4, 0, 5, 2]),
        2,
        LayoutConventions(
            natural_fill=FillRule.COLUMN_MAJOR_SEQUENCE,
            interleaved_fill=FillRule.ROW_MAJOR_BLOCKS,
        ),
    )
    natural, interleaved = build_schedules(spec)
    assert natural.cells == ((0, 2, 4), (1, 3, 5))
    assert interleaved.cells == ((3, 1, 4), (0, 5, 2))


@given(problems())
def test_every_datum_appears_exactly_once(spec):
    for sched in build_schedules(spec):
        seen = sorted(d for row in sched.cells for d in row)
        assert seen == list(range(spec.size))


@given(problems())
def test_interleaved_readout_reproduces_permutation(spec):
    # column-major reading of the interleaved matrix is the permutation
    _, interleaved = build_schedules(spec)
    readout = tuple(
        interleaved.cells[p][t]
        for t in range(spec.cycles)
        for p in range(spec.parallelism)
    )
    assert readout == spec.permutation.entries


@given(problems())
def test_datum_positions_are_well_defined(spec):
    pair = SchedulePair.from_problem(spec)
    for datum in range(spec.size):
        for order in Order:
            p, t = position(pair, order, datum)
            assert pair.of(order).cells[p][t] == datum


@given(problems(), st.sampled_from(FillRule), st.sampled_from(FillRule))
def test_columns_are_the_stored_view(spec, natural_fill, interleaved_fill):
    # columns, column(t) and the derived row view agree, and column_of is
    # the column half of position, under every pair of fill rules
    spec = ProblemSpec(
        spec.permutation, spec.parallelism, LayoutConventions(natural_fill, interleaved_fill)
    )
    pair = SchedulePair.from_problem(spec)
    for order in Order:
        sched = pair.of(order)
        cells = sched.cells
        for t in range(spec.cycles):
            rows = tuple(cells[p][t] for p in range(spec.parallelism))
            assert sched.columns[t] == schedule_column(sched, t) == rows
        for datum in range(spec.size):
            assert pair.column_of[order][datum] == position(pair, order, datum)[1]


@pytest.mark.parametrize("entries", [["1", "0", 2.9], [True, False], [0, 1.0], [None], [5, "a"]])
def test_non_integer_entries_rejected(entries):
    with pytest.raises(BankMapError) as err:
        validate_permutation(entries)
    bad = next(v for v in entries if type(v) is not int)
    assert repr(bad) in str(err.value)


@pytest.mark.parametrize("parallelism", [True, 2.0, "2"])
def test_non_integer_parallelism_rejected(parallelism):
    perm = validate_permutation([0, 1, 2, 3])
    with pytest.raises(BankMapError) as err:
        ProblemSpec(perm, parallelism)
    assert repr(parallelism) in str(err.value)


@st.composite
def layouts(draw):
    """A random permutation under a random pair of fill rules, with X from
    {1, 2, 3, L}."""
    cycles = draw(st.integers(1, 12))
    x = draw(st.sampled_from((1, 2, 3, "L")))
    if x == "L":
        x, cycles = cycles, 1
    entries = draw(st.permutations(tuple(range(x * cycles))))
    fills = LayoutConventions(draw(st.sampled_from(FillRule)), draw(st.sampled_from(FillRule)))
    return ProblemSpec(validate_permutation(entries), x, fills)


def reference_cell(seq, fill, x, cycles, p, t):
    # the cell formulas of build_schedules' docstring
    if fill is FillRule.ROW_MAJOR_BLOCKS:
        return seq[p * cycles + t]
    return seq[t * x + p]


@given(layouts())
def test_schedules_follow_the_cell_formulas(spec):
    x, cycles = spec.parallelism, spec.cycles
    pair = SchedulePair.from_problem(spec)
    sequences = {
        Order.NATURAL: (range(spec.size), spec.conventions.natural_fill),
        Order.INTERLEAVED: (spec.permutation.entries, spec.conventions.interleaved_fill),
    }
    for order, (seq, fill) in sequences.items():
        columns = tuple(
            tuple(reference_cell(seq, fill, x, cycles, p, t) for p in range(x))
            for t in range(cycles)
        )
        assert pair.of(order).columns == columns
        column_of = [None] * spec.size
        for t, column in enumerate(columns):
            for datum in column:
                column_of[datum] = t
        assert pair.column_of[order] == tuple(column_of)
    assert (pair.rows, pair.cycles, pair.size) == (x, cycles, spec.size)


def reference_validate_permutation(entries):
    # the entry-by-entry check validate_permutation ran before its C-level
    # pre-check; it decides which entry an error names
    values = tuple(entries)
    if not values:
        raise EmptyInput()
    for v in values:
        if not (isinstance(v, int) and not isinstance(v, bool)):
            raise NotAnInteger("permutation entry", v)
    length = len(values)
    seen = set()
    for v in values:
        if not 0 <= v < length:
            raise OutOfRange(v, length)
        if v in seen:
            raise DuplicateEntry(v)
        seen.add(v)
    return Permutation(values)


@given(st.integers(1, 24).flatmap(damaged_ids))
def test_validate_permutation_names_the_entry_the_loop_names(entries):
    expected = outcome_of(reference_validate_permutation, entries)
    assert outcome_of(validate_permutation, entries) == expected
