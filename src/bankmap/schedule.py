"""Interleaving law and the paired access schedules.

A problem couples a permutation of L data indices with a parallelism
degree X (one memory bank per processing element). The block is consumed
over N = L / X cycles, once in natural order and once in permuted order.
Each order is materialized as an X-row by N-column matrix: column t holds
the data accessed concurrently at cycle t, and row p is the access stream
of processing element p. Every collision question in this package reduces
to properties of the columns of these two matrices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .errors import DuplicateEntry, EmptyInput, NonDivisorParallelism, OutOfRange

# A complete bank assignment: bank id per data index, length L.
BankMapping = tuple[int, ...]


class Order(enum.Enum):
    """Which of the two access orders a schedule or matrix belongs to."""

    NATURAL = "natural"
    INTERLEAVED = "interleaved"

    # Members are singletons, so identity hashing is sound; Enum's own
    # __hash__ runs Python code on the solver's hottest dict lookups.
    __hash__ = object.__hash__

    @property
    def other(self) -> "Order":
        return Order.INTERLEAVED if self is Order.NATURAL else Order.NATURAL


class FillRule(enum.Enum):
    """How a linear data sequence is laid out into the X-by-N matrix."""

    ROW_MAJOR_BLOCKS = "row-major-blocks"  # row p owns seq[p*N : (p+1)*N]
    COLUMN_MAJOR_SEQUENCE = "column-major-sequence"  # cycle t owns seq[t*X : (t+1)*X]


@dataclass(frozen=True)
class LayoutConventions:
    """Fill rules for the two matrices.

    The defaults give each processing element a contiguous sub-block in
    natural order while the permuted sequence is consumed X entries per
    cycle. Decoders that window their data differently can override
    either rule; both matrices keep the same column-equals-cycle reading.
    """

    natural_fill: FillRule = FillRule.ROW_MAJOR_BLOCKS
    interleaved_fill: FillRule = FillRule.COLUMN_MAJOR_SEQUENCE


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., L-1}; construct via validate_permutation."""

    entries: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.entries)


def validate_permutation(entries: Sequence[int]) -> Permutation:
    """Check that entries form a bijection on {0, ..., L-1} and wrap them.

    Raises EmptyInput, OutOfRange or DuplicateEntry otherwise.
    """
    values = tuple(int(v) for v in entries)
    if not values:
        raise EmptyInput()
    length = len(values)
    seen = set()
    for v in values:
        if not 0 <= v < length:
            raise OutOfRange(v, length)
        if v in seen:
            raise DuplicateEntry(v)
        seen.add(v)
    return Permutation(values)


@dataclass(frozen=True)
class ProblemSpec:
    """A validated instance: the permutation plus the parallelism degree.

    The designer supplies X (the number of processing elements and of
    memory banks); the cycle count N = L / X is derived.
    """

    permutation: Permutation
    parallelism: int
    conventions: LayoutConventions = LayoutConventions()

    def __post_init__(self) -> None:
        length = self.permutation.size
        if self.parallelism < 1 or length % self.parallelism != 0:
            raise NonDivisorParallelism(self.parallelism, length)

    @property
    def size(self) -> int:
        return self.permutation.size

    @property
    def cycles(self) -> int:
        return self.size // self.parallelism


@dataclass(frozen=True)
class AccessSchedule:
    """One X-by-N matrix of data indices for one access order."""

    order: Order
    cells: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.cells)

    @property
    def cycles(self) -> int:
        return len(self.cells[0])

    def column(self, t: int) -> tuple[int, ...]:
        """The set of data accessed concurrently at cycle t, by PE row."""
        return tuple(self.cells[p][t] for p in range(self.rows))


def _layout(seq: Sequence[int], rows: int, cycles: int, rule: FillRule) -> tuple:
    if rule is FillRule.ROW_MAJOR_BLOCKS:
        return tuple(tuple(seq[p * cycles + t] for t in range(cycles)) for p in range(rows))
    return tuple(tuple(seq[t * rows + p] for t in range(cycles)) for p in range(rows))


def build_schedules(spec: ProblemSpec) -> tuple[AccessSchedule, AccessSchedule]:
    """Construct the (natural, interleaved) access matrices for a problem.

    Under the default conventions the natural matrix holds cell(p, t) =
    p*N + t and the interleaved matrix holds cell(p, t) = perm[t*X + p].
    """
    rows, cycles = spec.parallelism, spec.cycles
    natural = AccessSchedule(
        Order.NATURAL,
        _layout(range(spec.size), rows, cycles, spec.conventions.natural_fill),
    )
    interleaved = AccessSchedule(
        Order.INTERLEAVED,
        _layout(spec.permutation.entries, rows, cycles, spec.conventions.interleaved_fill),
    )
    return natural, interleaved


class ColumnRef(NamedTuple):
    """Address of one column across the two matrices."""

    order: Order
    index: int


@dataclass(frozen=True)
class SchedulePair:
    """Both schedules of one problem plus per-datum position tables."""

    natural: AccessSchedule
    interleaved: AccessSchedule
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        tables = {}
        for sched in (self.natural, self.interleaved):
            pos = [None] * (sched.rows * sched.cycles)
            for p, row in enumerate(sched.cells):
                for t, datum in enumerate(row):
                    pos[datum] = (p, t)
            tables[sched.order] = tuple(pos)
        object.__setattr__(self, "_positions", tables)

    @classmethod
    def from_problem(cls, spec: ProblemSpec) -> "SchedulePair":
        return cls(*build_schedules(spec))

    def of(self, order: Order) -> AccessSchedule:
        return self.natural if order is Order.NATURAL else self.interleaved

    def position(self, order: Order, datum: int) -> tuple[int, int]:
        """(row, column) of a datum in the given order's matrix."""
        return self._positions[order][datum]

    @property
    def rows(self) -> int:
        return self.natural.rows

    @property
    def cycles(self) -> int:
        return self.natural.cycles

    @property
    def size(self) -> int:
        return self.rows * self.cycles
