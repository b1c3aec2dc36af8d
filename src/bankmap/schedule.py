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


class Record:
    """Base of the package's plain classes: a Name(field=value, ...) repr,
    and equality and hashing over the fields named in _fields. Attributes
    stay ordinary instance attributes, the cheapest to read on hot paths."""

    _fields: tuple = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __repr__(self) -> str:
        args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({args})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())


class LayoutConventions(NamedTuple):
    """Fill rules for the two matrices.

    The defaults give each processing element a contiguous sub-block in
    natural order while the permuted sequence is consumed X entries per
    cycle. Decoders that window their data differently can override
    either rule; both matrices keep the same column-equals-cycle reading.
    """

    natural_fill: FillRule = FillRule.ROW_MAJOR_BLOCKS
    interleaved_fill: FillRule = FillRule.COLUMN_MAJOR_SEQUENCE


class Permutation(NamedTuple):
    """A bijection on {0, ..., L-1}; construct via validate_permutation."""

    entries: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.entries)


def is_int(value) -> bool:
    """An int that is not a bool (bool is an int subclass in Python)."""
    return isinstance(value, int) and not isinstance(value, bool)


def all_indices(values: Sequence, bound: int) -> bool:
    """Whether every value is an int (not a bool) in [0, bound).

    Runs at C speed; an int subclass other than bool fails it, so a caller
    that accepts those re-checks a failure with is_int.
    """
    return not values or (
        {*map(type, values)} == {int} and min(values) >= 0 and max(values) < bound
    )


def validate_permutation(entries: Sequence[int]) -> Permutation:
    """Check that entries form a bijection on {0, ..., L-1} and wrap them.

    Raises EmptyInput, NotAnInteger, OutOfRange or DuplicateEntry
    otherwise; nothing is coerced. A non-integer entry is reported before
    any range or duplicate error, wherever it sits.
    """
    values = tuple(entries)
    if not values:
        raise EmptyInput()
    length = len(values)
    if all_indices(values, length) and len(set(values)) == length:
        return Permutation(values)
    # name the first offending entry
    for v in values:
        if not is_int(v):
            raise NotAnInteger("permutation entry", v)
    seen = set()
    for v in values:
        if not 0 <= v < length:
            raise OutOfRange(v, length)
        if v in seen:
            raise DuplicateEntry(v)
        seen.add(v)
    return Permutation(values)


class ProblemSpec(Record):
    """A validated instance: the permutation plus the parallelism degree.

    The designer supplies X (the number of processing elements and of
    memory banks); the cycle count N = L / X is derived.
    """

    _fields = ("permutation", "parallelism", "conventions")

    def __init__(
        self,
        permutation: Permutation,
        parallelism: int,
        conventions: LayoutConventions = LayoutConventions(),
    ) -> None:
        length = permutation.size
        if not is_int(parallelism):
            raise NotAnInteger("parallelism", parallelism)
        if parallelism < 1 or length % parallelism != 0:
            raise NonDivisorParallelism(parallelism, length)
        self.permutation = permutation
        self.parallelism = parallelism
        self.conventions = conventions

    @property
    def size(self) -> int:
        return self.permutation.size

    @property
    def cycles(self) -> int:
        return self.size // self.parallelism


class AccessSchedule(Record):
    """One X-by-N matrix of data indices for one access order, by column:
    columns[t][p] is the datum PE row p accesses at cycle t."""

    _fields = ("order", "columns")

    def __init__(self, order: Order, columns: tuple[tuple[int, ...], ...]) -> None:
        self.order = order
        self.columns = columns

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


def _layout(seq: Sequence[int], rows: int, cycles: int, rule: FillRule) -> tuple:
    if rule is FillRule.ROW_MAJOR_BLOCKS:
        return tuple(zip(*[seq[p * cycles:(p + 1) * cycles] for p in range(rows)]))
    return tuple(zip(*[iter(seq)] * rows))


def build_schedules(spec: ProblemSpec) -> tuple[AccessSchedule, AccessSchedule]:
    """Construct the (natural, interleaved) access matrices for a problem.

    The natural sequence is 0, ..., L-1 and the interleaved one is the
    permutation. A row-major-blocks fill puts seq[p*N + t] at cell(p, t)
    and a column-major-sequence fill puts seq[t*X + p] there, so under
    the default conventions the natural matrix holds cell(p, t) = p*N + t
    and the interleaved matrix holds cell(p, t) = perm[t*X + p].
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


class SchedulePair(Record):
    """Both schedules of one problem plus, per order, the column index of
    every datum: column_of[order][datum]. rows (X), cycles (N) and size
    (L) are plain attributes, read on the solver's hot paths; equality
    and the repr cover the two schedules only."""

    _fields = ("natural", "interleaved")

    def __init__(self, natural: AccessSchedule, interleaved: AccessSchedule) -> None:
        self.natural = natural
        self.interleaved = interleaved
        self.rows = natural.rows
        self.cycles = natural.cycles
        self.size = size = self.rows * self.cycles
        self.column_of = {}
        for sched in (natural, interleaved):
            table = [0] * size
            for t, column in enumerate(sched.columns):
                for datum in column:
                    table[datum] = t
            self.column_of[sched.order] = tuple(table)

    @classmethod
    def from_problem(cls, spec: ProblemSpec) -> "SchedulePair":
        return cls(*build_schedules(spec))

    def of(self, order: Order) -> AccessSchedule:
        return self.natural if order is Order.NATURAL else self.interleaved
