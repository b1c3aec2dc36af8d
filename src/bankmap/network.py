"""Steering-network objectives, rotation analysis, and control synthesis.

An objective names the steering component the interconnection network is
built from, and therefore which per-cycle bank patterns are realizable:

  * CROSSBAR accepts any bank permutation per cycle and never constrains
    the solver.
  * BARREL_SHIFTER accepts only cyclic rotations: within each mapping
    matrix, every column's bank pattern must be a rotation of that
    matrix's column 0 (the reference pattern, fixed per order).

Adding a network kind means adding an enum member plus a case in
objective_compatible (the whole-mapping check), admissible_banks (the
per-cell candidate filter used by the solver) and derive_controls.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Optional, Sequence

from .errors import ObjectiveIncompatible
from .schedule import AccessSchedule, ColumnRef, Order, SchedulePair


class NetworkObjective(enum.Enum):
    CROSSBAR = "crossbar"
    BARREL_SHIFTER = "barrel-shifter"


def rotation_offset(reference: Sequence[int], column: Sequence[int]) -> Optional[int]:
    """The r with column[j] == reference[(j - r) % X] for all rows, else None.

    r reads as "the reference pattern shifted down by r rows"; it is
    unique whenever the reference entries are pairwise distinct, and the
    smallest one is returned when they are not. Only the rotations that
    bring column[0] to row 0 are tried.
    """
    size = len(reference)
    if not size:
        return None
    doubled = tuple(reference) * 2  # rotation r is doubled[size - r:2 * size - r]
    column = tuple(column)
    head = column[0]
    # reference[i] lands on row 0 under the rotation r = -i mod size
    for r in sorted(-i % size for i, bank in enumerate(reference) if bank == head):
        if doubled[size - r:2 * size - r] == column:
            return r
    return None


def column_pattern(bank_of: Sequence[int], schedule: AccessSchedule, t: int) -> tuple[int, ...]:
    """Bank pattern of cycle t: the mapped bank of each PE row's datum."""
    return tuple(bank_of[d] for d in schedule.columns[t])


def objective_compatible(
    bank_of: Sequence[int], schedules: SchedulePair, objective: NetworkObjective
) -> bool:
    """Whether a complete mapping is realizable with the requested network."""
    if objective is NetworkObjective.CROSSBAR:
        return True
    for order in Order:
        sched = schedules.of(order)
        reference = column_pattern(bank_of, sched, 0)
        for t in range(1, sched.cycles):
            if rotation_offset(reference, column_pattern(bank_of, sched, t)) is None:
                return False
    return True


def admissible_banks(
    state, column: ColumnRef, row: int, objective: NetworkObjective
) -> list[int]:
    """Candidate banks for one empty cell, in ascending bank id.

    A bank is a candidate when it is structurally legal and, for a barrel
    shifter, objective-friendly: some rotation of the (possibly partial)
    reference pattern agrees with the column's filled cells and puts that
    bank at `row`, where an unfilled reference slot may take any bank the
    reference does not use yet. `state` is a solver MappingState; only its
    free_banks, column and used_banks accessors are consulted.
    """
    free = state.free_banks(column.order, row, column.index)
    if objective is NetworkObjective.BARREL_SHIFTER:
        reference = state.column(column.order, 0)
        size = len(reference)
        unused = ~state.used_banks(column.order, 0)
        filled = [(j, v) for j, v in enumerate(state.column(column.order, column.index))
                  if v is not None]
        friendly = 0
        for r in range(size):
            rotated = reference[size - r:] + reference[:size - r]  # [j] = reference[(j - r) % X]
            if all(rotated[j] == v or rotated[j] is None and unused >> v & 1 for j, v in filled):
                have = rotated[row]
                friendly |= unused if have is None else 1 << have
        free &= friendly
    return [b for b in range(state.rows) if free >> b & 1]


class ControlSchedule(NamedTuple):
    """Per-cycle network control words for both access orders.

    For a barrel shifter a word is a rotation offset in [0, X); for a
    crossbar it is the full PE-row -> bank pattern of the cycle.
    """

    kind: NetworkObjective
    natural_words: tuple
    interleaved_words: tuple

    def words(self, order: Order) -> tuple:
        return self.natural_words if order is Order.NATURAL else self.interleaved_words

    def distinct_word_count(self, order: Order) -> int:
        return len(set(self.words(order)))

    def to_json(self) -> dict:
        def enc(words):
            return [list(w) if isinstance(w, tuple) else w for w in words]

        return {
            "kind": self.kind.value,
            "natural": {
                "words": enc(self.natural_words),
                "distinct_word_count": self.distinct_word_count(Order.NATURAL),
            },
            "interleaved": {
                "words": enc(self.interleaved_words),
                "distinct_word_count": self.distinct_word_count(Order.INTERLEAVED),
            },
        }


def apply_control_word(kind: NetworkObjective, reference: Sequence[int], word) -> tuple[int, ...]:
    """Bank pattern produced by replaying one control word at runtime."""
    if kind is NetworkObjective.CROSSBAR:
        return tuple(word)
    size = len(reference)
    return tuple(reference[(j - word) % size] for j in range(size))


def derive_controls(
    bank_of: Sequence[int], schedules: SchedulePair, objective: NetworkObjective
) -> ControlSchedule:
    """Synthesize the per-cycle control words for a compatible mapping.

    Raises ObjectiveIncompatible when the mapping cannot realize the
    requested network kind.
    """
    per_order = {}
    for order in Order:
        sched = schedules.of(order)
        patterns = tuple(column_pattern(bank_of, sched, t) for t in range(sched.cycles))
        if objective is NetworkObjective.CROSSBAR:
            per_order[order] = patterns
            continue
        offsets = tuple(rotation_offset(patterns[0], pat) for pat in patterns)
        if None in offsets:
            raise ObjectiveIncompatible(f"mapping is not {objective.value}-realizable")
        per_order[order] = offsets
    return ControlSchedule(objective, per_order[Order.NATURAL], per_order[Order.INTERLEAVED])
