"""Backtracking search for a collision-free bank mapping.

The solver's state is a partial datum -> bank table plus, for every
column of each access order, a bitmask of the banks already used in it.
It repeats: pick the column (of either order) with the fewest legal
completions, enumerate that column's full assignments in
objective-preferred order, apply one (each newly decided datum also
marks its bank used in its column of the other order), and recurse; a
dead end undoes the most recent assignment and advances to its next
alternative. The first natural column is pinned to the identity bank
pattern, which removes the bank-relabeling symmetry without losing
solutions for relabel-invariant objectives.

The search only offers objective-friendly candidates and additionally
requires a complete assignment to realize the requested network before
accepting it (the per-cell filter is sound but not tight while the
reference column of the permuted matrix is still partial), so a failed
search proves the objective unreachable. Without strict_objective the
solve then falls back to colour_crossbar: any collision-free mapping
will do, and one is found in polynomial time without a second search.
The outcome reports honestly whether the objective was met.

Every layer reads the schedules by column: a column's data come from
`columns[t]` and a datum's column of the other order from `column_of`.
Column selection is incremental. The state caches each column's
completion count and its selection key. A column assignment or its undo
writes every cell, then drops, once for the whole column, only the
counts that read a changed mask: the touched columns of both orders,
plus every column of the other order that holds a still-unmapped datum
of one of them. Their keys go stale; a selection recomputes the stale
keys alone and takes the least key of all columns. The count itself
depends only on the multiset of the empty cells' free-bank masks (each
the column's free banks minus those used in the datum's other column,
read from per-solve flat tables), so it is memoised on their sorted
tuple for the whole solve. Two exact methods give it: inclusion-exclusion
over the rook numbers of the forbidden board (the free banks a cell may
not take) when a column has five or more empty cells and at most half as
many forbidden cell/bank pairs as allowed ones, else a bitmask DP.

The search is driven by an explicit frame stack with an exact undo log,
so its depth is bounded by the number of columns, not by the
interpreter's recursion limit.
"""

from __future__ import annotations

import enum
import math
from typing import Iterator, NamedTuple, Optional

from .errors import InvariantViolation
from .network import NetworkObjective, admissible_banks, objective_compatible
from .schedule import ColumnRef, Order, ProblemSpec, Record, SchedulePair

# The orders by selection tie-break rank, and the key of a full column,
# above every real key.
SIDES = (Order.INTERLEAVED, Order.NATURAL)
DONE = (float("inf"),)


class MappingState(Record):
    """The datum -> bank table plus a used-bank bitmask per column.

    used[order][t] has bit b set when bank b is mapped to a datum of that
    order's column t. assign and retract keep every mask in step with
    bank_of, and assign refuses a bank outside [0, X) or already used in
    either of the datum's columns, so column distinctness holds by
    construction.

    Flat tables, built once per state, spare the hot paths the schedule
    lookups: partners[order][t] holds the (datum, column of the other
    order) pair of each row of a column, other maps an order to the other
    one and full is the mask of all X banks.

    Derived caches sit beside the logical state and take no part in
    equality or the repr. counts[order][t] is the column's
    completion_count, or None once a change may have moved it. memo maps
    the sorted free-bank masks of a column's empty cells to their count.
    keys[base[order] + t] is the column's selection key, (count, empties,
    side, t) with side its index in SIDES, or DONE once the column is
    full; base[order] is side * N. stale holds the key slots that a
    change may have moved, to be recomputed at the next selection.
    """

    _fields = ("schedules", "bank_of", "used")
    __hash__ = None  # mutable

    def __init__(
        self, schedules: SchedulePair, bank_of: list, used: dict, counts: dict, memo: dict
    ) -> None:
        self.schedules = schedules
        self.bank_of = bank_of
        self.used = used
        self.counts = counts
        self.memo = memo
        self.rows = rows = schedules.rows
        self.cycles = cycles = schedules.cycles
        self.full = (1 << rows) - 1
        self.other = {Order.NATURAL: Order.INTERLEAVED, Order.INTERLEAVED: Order.NATURAL}
        self.partners = {}
        for order in Order:
            other_of = schedules.column_of[self.other[order]]
            self.partners[order] = [
                tuple((d, other_of[d]) for d in data) for data in schedules.of(order).columns
            ]
        self.base = {order: side * cycles for side, order in enumerate(SIDES)}
        self.keys = [DONE] * (2 * cycles)
        self.stale = set(range(2 * cycles))

    @classmethod
    def fresh(cls, schedules: SchedulePair) -> "MappingState":
        used = {order: [0] * schedules.cycles for order in Order}
        counts = {order: [None] * schedules.cycles for order in Order}
        return cls(schedules, [None] * schedules.size, used, counts, {})

    def column(self, order: Order, index: int) -> list:
        """Mapped bank of each row's datum in one column, None where unmapped."""
        return [self.bank_of[d] for d in self.schedules.of(order).columns[index]]

    def used_banks(self, order: Order, index: int) -> int:
        return self.used[order][index]

    def free_banks(self, order: Order, row: int, index: int) -> int:
        """Bitmask of the banks legal for one cell: unused in this column
        and in the datum's column of the other order."""
        other_index = self.partners[order][index][row][1]
        return self.full & ~(self.used[order][index] | self.used[self.other[order]][other_index])

    def assign(self, datum: int, bank: int) -> None:
        if self.bank_of[datum] is not None:
            raise InvariantViolation(f"datum {datum} is already mapped")
        if not 0 <= bank < self.rows:
            raise InvariantViolation(f"bank {bank} is outside [0, {self.rows})")
        for order in Order:
            t = self.schedules.column_of[order][datum]
            if self.used[order][t] >> bank & 1:
                raise InvariantViolation(f"bank {bank} already used in {order.value} column {t}")
        self._toggle((datum,), (bank,))

    def retract(self, datum: int) -> None:
        self._unmap((datum,))

    def _unmap(self, data: tuple) -> None:
        banks = [self.bank_of[d] for d in data]
        if None in banks:
            raise InvariantViolation(f"datum {data[banks.index(None)]} is not mapped")
        self._toggle(data, banks)

    def _toggle(self, data: tuple, banks) -> None:
        """Flip each datum between unmapped and mapped to its bank, with no
        check: the bank's bit flips in both of the datum's column masks.
        The counts are then dropped once for all of them."""
        bank_of = self.bank_of
        natural_used, interleaved_used = self.used[Order.NATURAL], self.used[Order.INTERLEAVED]
        natural_of = self.schedules.column_of[Order.NATURAL]
        interleaved_of = self.schedules.column_of[Order.INTERLEAVED]
        for datum, bank in zip(data, banks):
            bit = 1 << bank
            natural_used[natural_of[datum]] ^= bit
            interleaved_used[interleaved_of[datum]] ^= bit
            bank_of[datum] = bank if bank_of[datum] is None else None
        self._drop_counts(data)

    def _drop_counts(self, data: tuple) -> None:
        """Forget the cached counts that read the masks of the given data's
        columns: the columns' own, and those of the other order's columns
        that hold one of their unmapped data. Their keys go stale."""
        bank_of, stale, counts = self.bank_of, self.stale, self.counts
        for order in SIDES:
            other = self.other[order]
            own_counts, own_base, partners = counts[order], self.base[order], self.partners[order]
            partner_counts, partner_base = counts[other], self.base[other]
            column_of = self.schedules.column_of[order]
            for t in {column_of[d] for d in data}:
                own_counts[t] = None
                stale.add(own_base + t)
                for d, u in partners[t]:
                    if bank_of[d] is None:
                        partner_counts[u] = None
                        stale.add(partner_base + u)

    def empty_cells(self, column: ColumnRef) -> list[tuple[int, int]]:
        """(row, datum) pairs of the column's unmapped cells, by row."""
        data = self.schedules.of(column.order).columns[column.index]
        return [(p, d) for p, d in enumerate(data) if self.bank_of[d] is None]

    def is_complete(self) -> bool:
        return all(b is not None for b in self.bank_of)

    def mapping(self) -> tuple[int, ...]:
        if not self.is_complete():
            raise InvariantViolation("mapping requested from a partial state")
        return tuple(self.bank_of)

    def check_invariants(self) -> None:
        """Banks are in [0, X), masks agree with the bank table, columns are
        distinct, and every cached count and selection key equals a fresh
        one; raises on a bug."""
        for side, order in enumerate(SIDES):
            for t in range(self.cycles):
                banks = [b for b in self.column(order, t) if b is not None]
                if not all(0 <= b < self.rows for b in banks):
                    raise InvariantViolation(f"{order.value} column {t} holds a bank out of range")
                if len(set(banks)) != len(banks):
                    raise InvariantViolation(f"a bank is used twice in {order.value} column {t}")
                if self.used[order][t] != sum(1 << b for b in banks):
                    raise InvariantViolation(
                        f"{order.value} column {t} mask disagrees with the bank table"
                    )
                empties = self.rows - len(banks)
                count = completion_count(self, ColumnRef(order, t)) if empties else None
                cached = self.counts[order][t]
                if cached is not None and cached != count:
                    raise InvariantViolation(
                        f"{order.value} column {t} has a stale completion count"
                    )
                slot = self.base[order] + t
                key = (count, empties, side, t) if empties else DONE
                if slot not in self.stale and self.keys[slot] != key:
                    raise InvariantViolation(
                        f"{order.value} column {t} has a stale selection key"
                    )


def initialize(state: MappingState) -> MappingState:
    """Pin the first natural column to the identity pattern (row p -> bank p).

    Expects a fresh state.
    """
    if any(b is not None for b in state.bank_of):
        raise InvariantViolation("initialize expects an empty state")
    for p, datum in enumerate(state.schedules.natural.columns[0]):
        state.assign(datum, p)
    return state


def completion_count(state: MappingState, column: ColumnRef) -> int:
    """Number of legal whole-column completions under structural rules only.

    Counts assignments of pairwise-distinct banks, one per empty cell,
    each drawn from the cell's free-bank mask: the permanent of the
    column's k x k cell x free-bank 0/1 matrix. Two exact methods give
    it. When k >= 5 and the forbidden pairs (free banks a cell may not
    take) are at most half the allowed ones, _rook_count sums over the
    forbidden board; otherwise _matching_count runs the bitmask DP. The
    count does not depend on the cells' order, so it is memoised in
    state.memo on the sorted tuple of masks.
    """
    order, t = column
    bank_of = state.bank_of
    free = state.full & ~state.used[order][t]
    partner_used = state.used[state.other[order]]
    masks = [free & ~partner_used[u] for d, u in state.partners[order][t] if bank_of[d] is None]
    masks.sort()
    masks = tuple(masks)
    known = state.memo.get(masks)
    if known is not None:
        return known
    k = len(masks)
    # forbidden = k * k - allowed, so 2 * forbidden <= allowed reads:
    if k >= 5 and 2 * k * k <= 3 * sum(mask.bit_count() for mask in masks):
        count = state.memo[masks] = _rook_count(free, masks)
    else:
        count = state.memo[masks] = _matching_count(masks)
    return count


def _matching_count(masks: tuple) -> int:
    """Ways to give each mask a distinct bank of its own: a DP over the
    sets of banks used so far."""
    layer = {0: 1}
    for mask in masks:
        nxt: dict = {}
        for used, count in layer.items():
            free = mask & ~used
            while free:
                bit = free & -free
                free ^= bit
                key = used | bit
                nxt[key] = nxt.get(key, 0) + count
        layer = nxt
    return sum(layer.values())


def _rook_count(free: int, masks: tuple) -> int:
    """The same count when each mask is a subset of the k banks of free:
    the sum over j of (-1)^j r_j (k - j)!, with r_j the ways to place j
    non-attacking rooks on the forbidden board, the free banks each mask
    leaves out (Riordan 1958). Forbidden rows go by lowest bank; one dict
    per rook count maps the used banks that a later row can still take
    to the number of ways."""
    rows = sorted((free & ~mask for mask in masks if mask != free), key=lambda row: row & -row)
    live = [0] * (len(rows) + 1)
    for i in range(len(rows) - 1, -1, -1):
        live[i] = live[i + 1] | rows[i]
    layers = [{0: 1}]
    for row, keep in zip(rows, live[1:]):
        nxt: list = [{} for _ in range(len(layers) + 1)]
        for layer, stay, grow in zip(layers, nxt, nxt[1:]):
            for used, ways in layer.items():
                key = used & keep
                stay[key] = stay.get(key, 0) + ways
                bits = row & ~used
                while bits:
                    bit = bits & -bits
                    bits ^= bit
                    key = (used | bit) & keep
                    grow[key] = grow.get(key, 0) + ways
        layers = nxt if nxt[-1] else nxt[:-1]
    k = len(masks)
    return sum(
        (-1) ** j * math.factorial(k - j) * sum(layer.values()) for j, layer in enumerate(layers)
    )


def select_target_column(state: MappingState) -> Optional[ColumnRef]:
    """The unfinished column with the fewest legal completions.

    Ties break on fewer empty cells, then interleaved side before natural,
    then lowest column index. None once every cell is mapped. Only the
    stale keys, those whose counts assign/retract dropped, are recomputed;
    the least key then names the column.
    """
    for slot in state.stale:
        side, t = divmod(slot, state.cycles)
        order = SIDES[side]
        empties = state.rows - state.used[order][t].bit_count()
        if empties:
            count = state.counts[order][t] = completion_count(state, ColumnRef(order, t))
            state.keys[slot] = (count, empties, side, t)
        else:
            state.keys[slot] = DONE
    state.stale.clear()
    key = min(state.keys)
    return None if key is DONE else ColumnRef(SIDES[key[2]], key[3])


class CandidateSet(Record):
    """Ordered whole-column assignments for the empty cells of one column.

    cells holds the (row, datum) pairs by ascending row and bank_lists the
    candidate banks of each cell in preference order. Iterating generates
    tuples in the lexicographic order of those lists (first cell most
    significant) and skips any tuple that repeats a bank.
    """

    _fields = ("column", "cells", "bank_lists")
    __hash__ = None  # mutable

    def __init__(self, column: ColumnRef, cells: tuple, bank_lists: tuple) -> None:
        self.column = column
        self.cells = cells
        self.bank_lists = bank_lists

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        def walk(i: int, used: int, prefix: tuple) -> Iterator[tuple[int, ...]]:
            if i == len(self.bank_lists):
                yield prefix
                return
            for bank in self.bank_lists[i]:
                bit = 1 << bank
                if used & bit:
                    continue
                yield from walk(i + 1, used | bit, prefix + (bank,))

        return walk(0, 0, ())


def candidate_assignments(
    state: MappingState,
    column: ColumnRef,
    objective: NetworkObjective,
) -> CandidateSet:
    """Per-cell admissible banks for a column, combined into full tuples."""
    cells = state.empty_cells(column)
    if not cells:
        raise InvariantViolation(f"column {column} has no empty cell")
    lists = tuple(tuple(admissible_banks(state, column, row, objective)) for row, _ in cells)
    return CandidateSet(column, tuple(cells), lists)


def assign_column(
    state: MappingState, column: ColumnRef, banks: tuple[int, ...]
) -> tuple[int, ...]:
    """Fill a column's empty cells; each datum also lands in its column of
    the other order.

    Returns the assigned data as the undo record for retract_column.
    Raises InvariantViolation, leaving the state untouched, if the tuple
    is not a legal candidate.
    """
    cells = state.empty_cells(column)
    if len(banks) != len(cells):
        raise InvariantViolation(
            f"expected {len(cells)} banks for column {column}, got {len(banks)}"
        )
    if len(set(banks)) != len(banks):
        raise InvariantViolation("column assignment repeats a bank")
    for (row, _), bank in zip(cells, banks):
        if bank < 0 or not state.free_banks(column.order, row, column.index) >> bank & 1:
            raise InvariantViolation(
                f"bank {bank} is not admissible at row {row} of column {column}"
            )
    record = tuple(datum for _, datum in cells)
    state._toggle(record, banks)
    return record


def retract_column(state: MappingState, record: tuple[int, ...]) -> None:
    """Exact inverse of assign_column for the given undo record."""
    state._unmap(record)


class Status(enum.Enum):
    SOLVED = "solved"
    INFEASIBLE = "infeasible"
    BUDGET_EXHAUSTED = "budget-exhausted"


class SolveStats(Record):
    """Search counters: column assignments applied (nodes) and undone
    (backtracks), and the deepest frame stack reached."""

    _fields = ("nodes", "backtracks", "max_depth")
    __hash__ = None  # mutable

    def __init__(self, nodes: int = 0, backtracks: int = 0, max_depth: int = 0) -> None:
        self.nodes = nodes
        self.backtracks = backtracks
        self.max_depth = max_depth

    def to_json(self) -> dict:
        return {"nodes": self.nodes, "backtracks": self.backtracks, "max_depth": self.max_depth}


class TraceEvent(NamedTuple):
    kind: str  # select | assign | retract | relax
    order: Optional[Order]
    column: Optional[int]
    data: Optional[tuple]
    banks: Optional[tuple]


class SolveOptions(NamedTuple):
    strict_objective: bool = False
    max_nodes: Optional[int] = None
    trace: bool = False


class SolveOutcome(NamedTuple):
    status: Status
    mapping: Optional[tuple]
    objective_met: bool
    stats: SolveStats
    trace: Optional[tuple] = None


def _search(schedules, objective, max_nodes, stats, trace) -> tuple[Status, Optional[tuple]]:
    """(SOLVED, mapping), (INFEASIBLE, None) once every candidate is spent,
    or (BUDGET_EXHAUSTED, None) before the max_nodes + 1-th assignment.

    A frame is [column, tuple iterator, applied undo record or None]. Each
    round selects a column and pushes its frame, then advances the top
    frame: retract, take the next tuple, check the budget, assign. An
    exhausted frame is popped and the one below advances.
    """
    state = initialize(MappingState.fresh(schedules))
    frames: list = []
    while True:
        column = select_target_column(state)
        if column is not None:
            if trace is not None:
                data = tuple(d for _, d in state.empty_cells(column))
                trace.append(TraceEvent("select", column.order, column.index, data, None))
            frames.append([column, iter(candidate_assignments(state, column, objective)), None])
        else:
            mapping = state.mapping()
            # The per-cell filter is only sound, not tight; the finished
            # assignment is re-checked and the search goes on after a miss.
            if objective_compatible(mapping, schedules, objective):
                return Status.SOLVED, mapping
        while frames:
            frame = frames[-1]
            column, tuples, applied = frame
            if applied is not None:
                retract_column(state, applied)
                stats.backtracks += 1
                if trace is not None:
                    trace.append(TraceEvent("retract", column.order, column.index, applied, None))
                frame[2] = None
            banks = next(tuples, None)
            if banks is not None:
                if max_nodes is not None and stats.nodes >= max_nodes:
                    return Status.BUDGET_EXHAUSTED, None
                frame[2] = record = assign_column(state, column, banks)
                stats.nodes += 1
                stats.max_depth = max(stats.max_depth, len(frames))
                if trace is not None:
                    trace.append(TraceEvent("assign", column.order, column.index, record, banks))
                break
            frames.pop()
        else:
            return Status.INFEASIBLE, None


def colour_crossbar(schedules: SchedulePair) -> tuple[int, ...]:
    """A collision-free mapping found by edge colouring, with no search.

    The natural and interleaved columns are the two sides of an X-regular
    bipartite multigraph with one edge per datum, and a proper
    X-edge-colouring of it is a collision-free mapping, so one always
    exists (Koenig). Edges are coloured in datum order with the lowest
    bank free at each end. When the natural end's free bank a is taken at
    the interleaved end, whose free bank is b, the a/b alternating path
    from the interleaved end is swapped first; it cannot reach the
    natural end, which has no a edge. Banks are then relabelled so that
    natural column 0 reads the identity, as the search pins it.
    """
    rows = schedules.rows
    natural_of = schedules.column_of[Order.NATURAL]
    interleaved_of = schedules.column_of[Order.INTERLEAVED]
    # datum holding each bank, per column of each order (None when free)
    at_natural = [[None] * rows for _ in range(schedules.cycles)]
    at_interleaved = [[None] * rows for _ in range(schedules.cycles)]
    bank_of = [0] * schedules.size
    for datum in range(schedules.size):
        here, there = at_natural[natural_of[datum]], at_interleaved[interleaved_of[datum]]
        a = here.index(None)
        if there[a] is not None:
            b = there.index(None)
            path = []
            column, colour = there, a
            while column[colour] is not None:
                edge = column[colour]
                path.append(edge)
                column = (at_natural[natural_of[edge]] if colour == a
                          else at_interleaved[interleaved_of[edge]])
                colour = a + b - colour
            for edge in path:
                at_natural[natural_of[edge]][bank_of[edge]] = None
                at_interleaved[interleaved_of[edge]][bank_of[edge]] = None
            for edge in path:
                bank_of[edge] = swapped = a + b - bank_of[edge]
                at_natural[natural_of[edge]][swapped] = edge
                at_interleaved[interleaved_of[edge]][swapped] = edge
        bank_of[datum] = a
        here[a] = there[a] = datum
    relabel = [0] * rows
    for p, datum in enumerate(schedules.natural.columns[0]):
        relabel[bank_of[datum]] = p
    return tuple(relabel[bank] for bank in bank_of)


def solve(
    problem: ProblemSpec,
    objective: NetworkObjective = NetworkObjective.CROSSBAR,
    options: Optional[SolveOptions] = None,
) -> SolveOutcome:
    """Find a collision-free bank mapping honoring the network objective.

    One backtracking search runs, offering only objective-friendly banks.
    When it proves the objective unreachable, strict mode reports
    Infeasible; otherwise the solve appends a relax event to the trace and
    returns colour_crossbar's mapping, and objective_met records the
    achieved result. Stats and the node budget cover the search alone.
    Identical inputs always produce the identical outcome, stats and
    trace included.
    """
    options = options or SolveOptions()
    schedules = SchedulePair.from_problem(problem)
    stats = SolveStats()
    trace: Optional[list] = [] if options.trace else None
    status, mapping = _search(schedules, objective, options.max_nodes, stats, trace)
    met = mapping is not None
    if status is Status.INFEASIBLE and not options.strict_objective:
        if trace is not None:
            trace.append(TraceEvent("relax", None, None, None, None))
        status, mapping = Status.SOLVED, colour_crossbar(schedules)
        met = objective_compatible(mapping, schedules, objective)
    frozen = tuple(trace) if trace is not None else None
    return SolveOutcome(status, mapping, met, stats, frozen)
