import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bankmap import (
    ControlMismatch,
    ControlSchedule,
    FillRule,
    IncompleteMapping,
    InstanceTooLarge,
    LayoutConventions,
    NetworkObjective,
    Order,
    OutOfRange,
    ProblemSpec,
    SchedulePair,
    SolveOptions,
    Status,
    baseline_solve,
    brute_force_solve,
    derive_controls,
    objective_compatible,
    satisfies_partition_definition,
    simulate,
    solve,
    validate_permutation,
    verify_mapping,
)
from bankmap.verify import Conflict
from conftest import CROSSBAR_ONLY_MAPPING, KNOWN_MAPPING
from helpers import instance_key, outcome_of, problems, random_problem, size_parallelism_pairs

BARREL = NetworkObjective.BARREL_SHIFTER
CROSSBAR = NetworkObjective.CROSSBAR


def test_known_mapping_report(demo_pair):
    report = verify_mapping(KNOWN_MAPPING, demo_pair, objectives=[BARREL])
    assert report.valid and not report.conflicts
    assert report.bank_contents == ((0, 1, 6, 3), (4, 5, 10, 7), (8, 9, 2, 11))
    assert report.objective_met[BARREL]


def test_single_bank_mapping_conflicts_everywhere(demo_pair):
    report = verify_mapping((0,) * 12, demo_pair)
    assert not report.valid
    hit = {(c.order, c.cycle) for c in report.conflicts}
    assert hit == {(order, t) for order in Order for t in range(4)}
    # X data on one bank yields C(3,2) colliding pairs per cycle per order
    assert len(report.conflicts) == 2 * 4 * 3


def test_incomplete_mapping_raises(demo_pair):
    with pytest.raises(IncompleteMapping) as err:
        verify_mapping(KNOWN_MAPPING[:11], demo_pair)
    assert err.value.missing == [11]


def test_crossbar_only_mapping_verdict(demo_pair):
    report = verify_mapping(CROSSBAR_ONLY_MAPPING, demo_pair, objectives=list(NetworkObjective))
    assert report.valid
    assert not report.objective_met[BARREL]
    assert report.objective_met[CROSSBAR]


def test_simulate_shape_and_content(demo_pair):
    trace = simulate(KNOWN_MAPPING, demo_pair)
    for order in Order:
        cycles = trace.of(order)
        assert len(cycles) == 4
        for t, triples in enumerate(cycles):
            assert len(triples) == 3
            for p, datum, bank in triples:
                assert demo_pair.of(order).cells[p][t] == datum
                assert KNOWN_MAPPING[datum] == bank


def test_simulate_cross_checks_controls(demo_pair):
    controls = derive_controls(KNOWN_MAPPING, demo_pair, BARREL)
    simulate(KNOWN_MAPPING, demo_pair, controls)  # no mismatch
    corrupted = ControlSchedule(controls.kind, (0, 0, 2, 0), controls.interleaved_words)
    with pytest.raises(ControlMismatch) as err:
        simulate(KNOWN_MAPPING, demo_pair, corrupted)
    assert err.value.order is Order.NATURAL
    assert err.value.cycle == 2


def test_simulate_single_pe():
    spec = ProblemSpec(validate_permutation([1, 0]), 1)
    pair = SchedulePair.from_problem(spec)
    trace = simulate((0, 0), pair, derive_controls((0, 0), pair, BARREL))
    assert trace.of(Order.NATURAL) == (((0, 0, 0),), ((0, 1, 0),))


def test_oracle_counts_match_pinned_fixtures(pinned):
    assert pinned["oracle_counts"], "fixtures were not generated"
    for key, entry in pinned["oracle_counts"].items():
        spec = ProblemSpec(validate_permutation(entry["permutation"]), entry["parallelism"])
        pair = SchedulePair.from_problem(spec)
        objective = NetworkObjective(entry["objective"])
        assert key == instance_key(
            entry["permutation"], entry["parallelism"], objective, entry["fix_first_column"]
        )
        solutions = brute_force_solve(pair, objective, entry["fix_first_column"])
        assert len(solutions) == entry["solution_count"]
        if entry["sample_solution"] is not None:
            assert tuple(entry["sample_solution"]) in solutions


def test_oracle_contains_known_mapping(demo_pair):
    solutions = brute_force_solve(demo_pair, BARREL, fix_first_column=True)
    assert KNOWN_MAPPING in solutions


def test_oracle_small_identity_instance():
    spec = ProblemSpec(validate_permutation([0, 1, 2, 3]), 2)
    pair = SchedulePair.from_problem(spec)
    assert brute_force_solve(pair, CROSSBAR, fix_first_column=True) == [(0, 1, 1, 0)]


def test_oracle_rejects_large_instances():
    spec = ProblemSpec(validate_permutation(list(range(18))), 2)
    with pytest.raises(InstanceTooLarge):
        brute_force_solve(SchedulePair.from_problem(spec), CROSSBAR, False)
    spec = ProblemSpec(validate_permutation(list(range(10))), 5)
    with pytest.raises(InstanceTooLarge):
        brute_force_solve(SchedulePair.from_problem(spec), CROSSBAR, False)


def test_oracle_results_satisfy_both_codepaths():
    rng = random.Random(5)
    pairs = size_parallelism_pairs(9, (2, 3))
    for _ in range(5):
        spec = random_problem(rng, pairs)
        pair = SchedulePair.from_problem(spec)
        for mapping in brute_force_solve(pair, CROSSBAR, fix_first_column=True):
            assert verify_mapping(mapping, pair).valid
            assert satisfies_partition_definition(mapping, pair)


@given(problems(max_size=16, parallelisms=(2, 3, 4)))
def test_valid_mappings_balance_banks(spec):
    outcome = solve(spec, CROSSBAR, SolveOptions())
    assert outcome.status is Status.SOLVED
    for bank in range(spec.parallelism):
        assert outcome.mapping.count(bank) == spec.cycles


@given(
    problems(max_size=12, parallelisms=(1, 2, 3)),
    st.integers(0, 2**32 - 1),
)
def test_verifier_codepaths_agree(spec, seed):
    pair = SchedulePair.from_problem(spec)
    rng = random.Random(seed)
    mapping = tuple(rng.randrange(spec.parallelism) for _ in range(spec.size))
    assert verify_mapping(mapping, pair).valid == satisfies_partition_definition(mapping, pair)
    # banks -1 and X are no banks: both codepaths reject them, naming the same datum
    mapping = tuple(rng.randrange(-1, spec.parallelism + 1) for _ in range(spec.size))
    verdict = outcome_of(lambda m: verify_mapping(m, pair).valid, mapping)
    assert outcome_of(satisfies_partition_definition, mapping, pair) == verdict
    bad = [d for d, bank in enumerate(mapping) if not 0 <= bank < spec.parallelism]
    if bad:
        assert verdict[0] is OutOfRange
        assert verdict[1].startswith(f"datum {bad[0]}: bank {mapping[bad[0]]} ")


def reference_verify(bank_of, schedules, objectives):
    # the former check: a per-bank dict and its pairs for every column
    conflicts = []
    for order in Order:
        for t, column in enumerate(schedules.of(order).columns):
            per_bank = {}
            for datum in column:
                per_bank.setdefault(bank_of[datum], []).append(datum)
            for bank, data in sorted(per_bank.items()):
                for pair in itertools.combinations(data, 2):
                    conflicts.append(Conflict(order, t, bank, pair))
    contents = [[] for _ in range(schedules.rows)]
    for column in schedules.natural.columns:
        for datum in column:
            contents[bank_of[datum]].append(datum)
    met = {obj: objective_compatible(bank_of, schedules, obj) for obj in objectives}
    return not conflicts, tuple(conflicts), tuple(tuple(bank) for bank in contents), met


@given(
    problems(max_size=48, parallelisms=tuple(range(1, 9))),
    st.sampled_from(list(FillRule)),
    st.integers(0, 2**32 - 1),
    st.lists(st.sampled_from(list(Order)), max_size=4),
)
def test_column_check_matches_per_bank_reference(spec, fill, seed, collisions):
    spec = ProblemSpec(spec.permutation, spec.parallelism, LayoutConventions(interleaved_fill=fill))
    pair = SchedulePair.from_problem(spec)
    rng = random.Random(seed)
    mapping = list(baseline_solve(spec, seed))
    for order in collisions:  # copy one datum's bank onto another of its column
        column = rng.choice(pair.of(order).columns)
        if len(column) > 1:
            a, b = rng.sample(column, 2)
            mapping[a] = mapping[b]
    objectives = list(NetworkObjective)
    report = verify_mapping(mapping, pair, objectives)
    expected = reference_verify(mapping, pair, objectives)
    assert (report.valid, report.conflicts, report.bank_contents, report.objective_met) == expected
    if not collisions:
        assert report.valid
    elif spec.parallelism > 1 and len(collisions) == 1:
        assert not report.valid
