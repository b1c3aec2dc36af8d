"""Network-agnostic comparison mapper: tiling, greedy fill, seeded repair.

The natural layout is tiled by interleaved cycle: two data share a tile
exactly when they are accessed together in permuted order, so a mapping
is collision-free iff banks are distinct within every natural column and
within every tile. A greedy single pass fills what it can; the leftovers
are completed by forcing a bank into an empty cell and chasing these
induced conflicts with seeded reassignments until none remain. The
network objective is never consulted, so the result is valid but usually
not realizable by anything cheaper than a crossbar.

Both passes keep one used-bank bitmask per natural column and per tile;
the repair also keeps, per column and per tile, which datum holds each
bank. The assigned data stay mutually conflict-free, so a bank is held
by at most one datum on each side, and the pending datum's column holds
only X-1 others, so some bank clashes with at most one mate. The least
clash is therefore 0 (the banks free in both masks) or 1 (the banks in
exactly one mask, plus those held on both sides by one datum sharing
the column and the tile), and exactly one mate is ever evicted.
"""

from __future__ import annotations

import random
from typing import NamedTuple, Optional, Sequence

from .errors import RepairBudgetExhausted
from .schedule import Order, ProblemSpec, SchedulePair

# repair steps allowed per problem, scaled by block length
REPAIR_BUDGET_PER_DATUM = 1000


class TileMatrix(NamedTuple):
    """Tile ids over the natural layout: tile(p, t) = interleaved cycle of
    the datum at natural cell (p, t). The passes read the tiles through
    schedules.column_of; the matrix itself is derived on request."""

    schedules: SchedulePair

    @property
    def rows(self) -> int:
        return self.schedules.rows

    @property
    def tiles(self) -> tuple:
        tile_of = self.schedules.column_of[Order.INTERLEAVED]
        return tuple(tuple(tile_of[d] for d in row) for row in self.schedules.natural.cells)


def build_tiles(schedules: SchedulePair) -> TileMatrix:
    return TileMatrix(schedules)


def satisfies_tile_constraints(banks: Sequence[Optional[int]], tiles: TileMatrix) -> bool:
    """Column and tile distinctness over the assigned cells."""
    schedules = tiles.schedules
    for columns in (schedules.natural.columns, schedules.interleaved.columns):
        for column in columns:
            assigned = [banks[d] for d in column if banks[d] is not None]
            if len(set(assigned)) != len(assigned):
                return False
    return True


def greedy_fill(tiles: TileMatrix) -> list[Optional[int]]:
    """Single deterministic pass; cells whose banks are all blocked stay empty.

    Scan is column-major, rows top-down. Each cell first tries its row's
    bank, then the lowest bank clashing with neither the natural column
    so far nor its tile so far.
    """
    schedules = tiles.schedules
    tile_of = schedules.column_of[Order.INTERLEAVED]
    full = (1 << tiles.rows) - 1
    tile_used = [0] * schedules.cycles
    banks: list[Optional[int]] = [None] * schedules.size
    for column in schedules.natural.columns:
        column_used = 0
        for p, datum in enumerate(column):
            tile = tile_of[datum]
            free = full & ~(column_used | tile_used[tile])
            if not free:
                continue
            bit = 1 << p if free >> p & 1 else free & -free
            banks[datum] = bit.bit_length() - 1
            column_used |= bit
            tile_used[tile] |= bit
    return banks


def repair_complete(
    partial: Sequence[Optional[int]], tiles: TileMatrix, seed: int
) -> tuple[int, ...]:
    """Fill the gaps left by greedy_fill by seeded conflict chasing.

    Each pending datum takes a bank with the fewest clashes among its
    already-assigned mates, the other data of its natural column and of
    its tile (ties broken by the seeded generator: the n-th lowest of the
    tied banks, n drawn below their count); a clashing mate is evicted
    and queued for reassignment. The assigned cells of partial must be
    mutually conflict-free, as greedy_fill leaves them; they stay so, and
    an empty queue means a complete valid mapping. A budget bounds the
    chase; hitting it raises RepairBudgetExhausted rather than looping
    forever.
    """
    banks = list(partial)
    if None not in banks:
        return tuple(banks)
    schedules = tiles.schedules
    x = tiles.rows
    full = (1 << x) - 1
    column_of = schedules.column_of[Order.NATURAL]
    tile_of = schedules.column_of[Order.INTERLEAVED]
    # used-bank masks, and the holder of bank b in column c at c * x + b;
    # a holder entry is current only while its mask bit is set
    column_used = [0] * schedules.cycles
    tile_used = [0] * schedules.cycles
    column_holder = [0] * schedules.size
    tile_holder = [0] * schedules.size
    for datum, bank in enumerate(banks):
        if bank is not None:
            column, tile = column_of[datum], tile_of[datum]
            column_used[column] |= 1 << bank
            tile_used[tile] |= 1 << bank
            column_holder[column * x + bank] = datum
            tile_holder[tile * x + bank] = datum
    # the few data that share both the natural column and the tile of another
    twins: dict = {}
    for column in schedules.natural.columns:
        by_tile: dict = {}
        for datum in column:
            by_tile.setdefault(tile_of[datum], []).append(datum)
        for group in by_tile.values():
            if len(group) > 1:
                for datum in group:
                    twins[datum] = [e for e in group if e != datum]
    getrandbits = random.Random(seed).getrandbits
    budget = REPAIR_BUDGET_PER_DATUM * schedules.size
    pending = [d for column in schedules.natural.columns for d in column if banks[d] is None]
    stack = list(reversed(pending))  # pop() follows the scan order
    pop, push = stack.pop, stack.append
    for _ in range(budget):
        if not stack:
            break
        datum = pop()
        column, tile = column_of[datum], tile_of[datum]
        in_column, in_tile = column_used[column], tile_used[tile]
        choices = full & ~(in_column | in_tile)
        if not choices:
            # one clash at best: a bank used on one side only, or on both
            # by one datum that shares the column and the tile
            choices = in_column ^ in_tile
            if datum in twins:
                for twin in twins[datum]:
                    if banks[twin] is not None:
                        choices |= 1 << banks[twin]
        count = choices.bit_count()
        if count > 1:
            # rng.randrange(count), inlined: Random._randbelow_with_getrandbits
            # draws count.bit_length() bits until the value is below count
            # (CPython 3.10-3.12), so this consumes the same bits and saves
            # two Python frames per draw
            k = count.bit_length()
            n = getrandbits(k)
            while n >= count:
                n = getrandbits(k)
            for _ in range(n):
                choices &= choices - 1
        bit = choices & -choices
        bank = bit.bit_length() - 1
        # evict the one mate holding the bank; its bit stays set on the side
        # it shares with datum, which takes the bank there
        if in_column & bit:
            mate = column_holder[column * x + bank]
            tile_used[tile_of[mate]] &= ~bit
            banks[mate] = None
            push(mate)
        elif in_tile & bit:
            mate = tile_holder[tile * x + bank]
            column_used[column_of[mate]] &= ~bit
            banks[mate] = None
            push(mate)
        banks[datum] = bank
        column_used[column] = in_column | bit
        tile_used[tile] = in_tile | bit
        column_holder[column * x + bank] = datum
        tile_holder[tile * x + bank] = datum
    if stack:
        raise RepairBudgetExhausted(budget)
    return tuple(banks)


def baseline_solve(problem: ProblemSpec, seed: int = 0) -> tuple[int, ...]:
    """Tile, greedy-fill, repair: a complete valid mapping for the problem."""
    tiles = build_tiles(SchedulePair.from_problem(problem))
    return repair_complete(greedy_fill(tiles), tiles, seed)
