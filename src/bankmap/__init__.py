"""Collision-free memory bank mappings for parallel interleaver architectures.

Given a permutation law and a parallelism degree, assign every datum to a
memory bank so that the concurrent accesses of both the natural and the
permuted consumption order never collide, optionally restricted to
mappings a barrel-shifter network can realize, and derive the per-cycle
network control words.
"""

__version__ = "0.1.0"

from .baseline import TileMatrix, baseline_solve, build_tiles, greedy_fill, repair_complete
from .errors import (
    BankMapError,
    ControlMismatch,
    DuplicateEntry,
    EmptyInput,
    IncompleteMapping,
    InputFormatError,
    InstanceTooLarge,
    InvariantViolation,
    NonDivisorParallelism,
    NotAnInteger,
    ObjectiveIncompatible,
    OutOfRange,
    RepairBudgetExhausted,
)
from .network import (
    ControlSchedule,
    NetworkObjective,
    admissible_banks,
    apply_control_word,
    column_pattern,
    derive_controls,
    objective_compatible,
    rotation_offset,
)
from .schedule import (
    AccessSchedule,
    BankMapping,
    ColumnRef,
    FillRule,
    LayoutConventions,
    Order,
    Permutation,
    ProblemSpec,
    SchedulePair,
    build_schedules,
    validate_permutation,
)
from .solver import (
    CandidateSet,
    MappingState,
    SolveOptions,
    SolveOutcome,
    SolveStats,
    Status,
    assign_column,
    candidate_assignments,
    colour_crossbar,
    initialize,
    retract_column,
    select_target_column,
    solve,
)
from .verify import (
    AccessTrace,
    Conflict,
    VerificationReport,
    brute_force_solve,
    satisfies_partition_definition,
    simulate,
    verify_mapping,
)
