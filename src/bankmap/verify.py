"""Independent checking machinery: verifier, simulator, exhaustive oracle.

Everything here deliberately avoids the solver's data structures so that
agreement between the two is meaningful evidence. The verifier walks the
schedule columns; a second codepath restates the collision-freedom
definition directly over the cycle partitions; the simulator replays the
per-cycle accesses and cross-checks a control schedule; and the brute
force enumerator exhausts small instances column-permutation by
column-permutation.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple, Optional, Sequence

from .errors import (
    ControlMismatch,
    IncompleteMapping,
    InstanceTooLarge,
    NotAnInteger,
    OutOfRange,
)
from .network import (
    ControlSchedule,
    NetworkObjective,
    apply_control_word,
    column_pattern,
    objective_compatible,
)
from .schedule import Order, SchedulePair, all_indices, is_int

# enumeration cost is (X!)^N; these bounds keep it interactive
ORACLE_MAX_SIZE = 16
ORACLE_MAX_PARALLELISM = 4


class Conflict(NamedTuple):
    order: Order
    cycle: int
    bank: int
    data: tuple  # the colliding pair


class VerificationReport(NamedTuple):
    valid: bool
    conflicts: tuple
    bank_contents: tuple  # per bank, data in natural (cycle, row) order
    objective_met: dict

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "conflicts": [
                {
                    "order": c.order.value,
                    "cycle": c.cycle,
                    "bank": c.bank,
                    "data": list(c.data),
                }
                for c in self.conflicts
            ],
            "bank_contents": [list(bank) for bank in self.bank_contents],
            "objective_met": {obj.value: met for obj, met in self.objective_met.items()},
        }


def _require_total(bank_of: Sequence[Optional[int]], schedules: SchedulePair) -> None:
    """Every datum has a bank, and every bank is an integer in [0, X)."""
    size, banks = schedules.size, schedules.rows
    if len(bank_of) < size or None in bank_of:
        missing = [d for d in range(size) if d >= len(bank_of) or bank_of[d] is None]
        if missing:
            raise IncompleteMapping(missing)
    if not all_indices(bank_of, banks):
        # name the first bad datum
        for datum, bank in enumerate(bank_of):
            if not is_int(bank):
                raise NotAnInteger(f"datum {datum}: bank", bank)
            if not 0 <= bank < banks:
                raise OutOfRange(bank, banks, what=f"datum {datum}: bank")


def verify_mapping(
    bank_of: Sequence[int],
    schedules: SchedulePair,
    objectives: Sequence[NetworkObjective] = (),
) -> VerificationReport:
    """Column-by-column collision check over both schedules.

    Reports every colliding pair, the per-bank data contents, and - for
    each queried objective - whether the mapping could realize it.
    """
    _require_total(bank_of, schedules)
    bank_at = bank_of.__getitem__
    conflicts = []
    for order in Order:
        for t, column in enumerate(schedules.of(order).columns):
            if len(set(map(bank_at, column))) == len(column):
                continue  # distinct banks: no pair to report
            per_bank: dict = {}
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
    return VerificationReport(
        valid=not conflicts,
        conflicts=tuple(conflicts),
        bank_contents=tuple(tuple(bank) for bank in contents),
        objective_met=met,
    )


def satisfies_partition_definition(bank_of: Sequence[int], schedules: SchedulePair) -> bool:
    """Second, partition-based codepath of the collision-freedom definition.

    Builds the cycle partitions of both orders and demands that each
    subset maps onto as many banks as it has members. Kept independent of
    verify_mapping on purpose.
    """
    _require_total(bank_of, schedules)
    for order in Order:
        partition = [frozenset(column) for column in schedules.of(order).columns]
        for subset in partition:
            if len({bank_of[d] for d in subset}) != len(subset):
                return False
    return True


class AccessTrace(NamedTuple):
    """Cycle-by-cycle (pe, datum, bank) triples per access order."""

    steps: dict

    def of(self, order: Order) -> tuple:
        return self.steps[order]


def simulate(
    bank_of: Sequence[int],
    schedules: SchedulePair,
    controls: Optional[ControlSchedule] = None,
) -> AccessTrace:
    """Replay both access orders; expects an already-verified mapping.

    With a control schedule, additionally checks at every cycle that
    routing each PE through the cycle's control word reaches exactly the
    bank of the datum it accesses; a divergence raises ControlMismatch.
    """
    steps = {}
    for order in Order:
        sched = schedules.of(order)
        cycles = []
        reference = column_pattern(bank_of, sched, 0)
        for t, column in enumerate(sched.columns):
            triples = tuple((p, datum, bank_of[datum]) for p, datum in enumerate(column))
            if controls is not None:
                routed = apply_control_word(controls.kind, reference, controls.words(order)[t])
                for p, _, bank in triples:
                    if routed[p] != bank:
                        raise ControlMismatch(order, t, p)
            cycles.append(triples)
        steps[order] = tuple(cycles)
    return AccessTrace(steps)


def brute_force_solve(
    schedules: SchedulePair,
    objective: NetworkObjective = NetworkObjective.CROSSBAR,
    fix_first_column: bool = False,
) -> list[tuple]:
    """Every mapping satisfying both column constraints (and the objective).

    Enumerates a bank permutation per natural column, pruning on the
    interleaved columns, so the worst case is (X!)^N instead of X^L.
    Deterministic order: lexicographic in the per-column permutations.
    With fix_first_column the first natural column is pinned to the
    identity pattern, quotienting out bank relabeling.
    """
    rows, cycles, size = schedules.rows, schedules.cycles, schedules.size
    if size > ORACLE_MAX_SIZE or rows > ORACLE_MAX_PARALLELISM:
        raise InstanceTooLarge(size, rows)
    natural = schedules.natural
    interleaved_column = schedules.column_of[Order.INTERLEAVED]
    perms = list(itertools.permutations(range(rows)))
    identity = tuple(range(rows))
    bank_of: list = [None] * size
    used: list = [set() for _ in range(cycles)]  # banks per interleaved column
    results: list[tuple] = []

    def place(t: int) -> None:
        if t == cycles:
            mapping = tuple(bank_of)
            if objective_compatible(mapping, schedules, objective):
                results.append(mapping)
            return
        options = [identity] if (t == 0 and fix_first_column) else perms
        for perm in options:
            placed = []
            ok = True
            for p, datum in enumerate(natural.columns[t]):
                column = interleaved_column[datum]
                bank = perm[p]
                if bank in used[column]:
                    ok = False
                    break
                used[column].add(bank)
                bank_of[datum] = bank
                placed.append((datum, column, bank))
            if ok:
                place(t + 1)
            for datum, column, bank in reversed(placed):
                used[column].discard(bank)
                bank_of[datum] = None

    place(0)
    return results
