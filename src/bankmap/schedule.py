"""Interleaving law and the paired access schedules.

A problem couples a permutation of L data indices with a parallelism
degree X (one memory bank per processing element). The block is consumed
over N = L / X cycles, once in natural order and once in permuted order.
Each order is an X-row by N-column matrix: column t holds the data
accessed concurrently at cycle t, and row p is the access stream of
processing element p. Every collision question in this package reduces
to properties of the columns of these two matrices, so a schedule stores
its columns (each listing its data by PE row) and every datum's column
index; the row-by-row view is derived for display only.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .errors import DuplicateEntry, EmptyInput, NonDivisorParallelism, NotAnInteger, OutOfRange

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


def is_int(value) -> bool:
    """An int that is not a bool (bool is an int subclass in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def validate_permutation(entries: Sequence[int]) -> Permutation:
    """Check that entries form a bijection on {0, ..., L-1} and wrap them.

    Raises EmptyInput, NotAnInteger, OutOfRange or DuplicateEntry
    otherwise; nothing is coerced. A non-integer entry is reported before
    any range or duplicate error, wherever it sits.
    """
    values = tuple(entries)
    if not values:
        raise EmptyInput()
    for v in values:
        if not is_int(v):
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
        if not is_int(self.parallelism):
            raise NotAnInteger("parallelism", self.parallelism)
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
    """One X-by-N matrix of data indices for one access order, by column:
    columns[t][p] is the datum PE row p accesses at cycle t."""

    order: Order
    columns: tuple[tuple[int, ...], ...]

    @property
    def rows(self) -> int:
        return len(self.columns[0])

    @property
    def cycles(self) -> int:
        return len(self.columns)

    @property
    def cells(self) -> tuple[tuple[int, ...], ...]:
        """Row view, cells[p][t]; built on every read, so for display only."""
        return tuple(zip(*self.columns))

    def column(self, t: int) -> tuple[int, ...]:
        """The set of data accessed concurrently at cycle t, by PE row."""
        return self.columns[t]


def _layout(seq: Sequence[int], rows: int, cycles: int, rule: FillRule) -> tuple:
    if rule is FillRule.ROW_MAJOR_BLOCKS:
        return tuple(tuple(seq[p * cycles + t] for p in range(rows)) for t in range(cycles))
    return tuple(tuple(seq[t * rows:(t + 1) * rows]) for t in range(cycles))


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
    """Both schedules of one problem plus, per order, the column index of
    every datum: column_of[order][datum]. rows (X), cycles (N) and size
    (L) are plain attributes, read on the solver's hot paths."""

    natural: AccessSchedule
    interleaved: AccessSchedule
    column_of: dict = field(init=False, repr=False, compare=False)
    rows: int = field(init=False, repr=False, compare=False)
    cycles: int = field(init=False, repr=False, compare=False)
    size: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        rows, cycles = self.natural.rows, self.natural.cycles
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cycles", cycles)
        object.__setattr__(self, "size", rows * cycles)
        tables = {}
        for sched in (self.natural, self.interleaved):
            table = [0] * self.size
            for t, column in enumerate(sched.columns):
                for datum in column:
                    table[datum] = t
            tables[sched.order] = tuple(table)
        object.__setattr__(self, "column_of", tables)

    @classmethod
    def from_problem(cls, spec: ProblemSpec) -> "SchedulePair":
        return cls(*build_schedules(spec))

    def of(self, order: Order) -> AccessSchedule:
        return self.natural if order is Order.NATURAL else self.interleaved

    def position(self, order: Order, datum: int) -> tuple[int, int]:
        """(row, column) of a datum in the given order's matrix."""
        t = self.column_of[order][datum]
        return self.of(order).columns[t].index(datum), t
