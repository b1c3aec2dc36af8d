"""Network-agnostic comparison mapper: tiling, greedy fill, seeded repair.

The natural layout is tiled by interleaved cycle: two data share a tile
exactly when they are accessed together in permuted order, so a mapping
is collision-free iff banks are distinct within every natural column and
within every tile. A greedy single pass fills what it can; the leftovers
are completed by forcing a bank into an empty cell and chasing these
induced conflicts with seeded reassignments until none remain. The
network objective is never consulted, so the result is valid but usually
not realizable by anything cheaper than a crossbar.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import RepairBudgetExhausted
from .schedule import Order, ProblemSpec, SchedulePair

# repair steps allowed per problem, scaled by block length
REPAIR_BUDGET_PER_DATUM = 1000


@dataclass(frozen=True)
class TileMatrix:
    """Tile ids over the natural layout: tile(p, t) = interleaved cycle of
    the datum at natural cell (p, t). mates[d] lists the data datum d must
    not share a bank with: those of its natural column and of its tile."""

    schedules: SchedulePair
    tiles: tuple
    mates: tuple = field(repr=False, compare=False)

    @property
    def rows(self) -> int:
        return len(self.tiles)


def build_tiles(schedules: SchedulePair) -> TileMatrix:
    tile_of = schedules.column_of[Order.INTERLEAVED]
    tiles = tuple(tuple(tile_of[d] for d in row) for row in schedules.natural.cells)
    return TileMatrix(schedules, tiles, _mates(schedules))


def _mates(schedules: SchedulePair) -> tuple:
    """Per datum: the other data of its natural column, then of its tile
    (the tiles are the interleaved columns), without repeats.

    Each tuple keeps the iteration order of the set it is built from: the
    repair evicts clashing mates in this order, and its seeded draws
    depend on it.
    """
    natural_of = schedules.column_of[Order.NATURAL]
    tile_of = schedules.column_of[Order.INTERLEAVED]
    mates = []
    for d in range(schedules.size):
        group = {e for e in schedules.natural.columns[natural_of[d]] if e != d}
        group.update(e for e in schedules.interleaved.columns[tile_of[d]] if e != d)
        mates.append(tuple(group))
    return tuple(mates)


def satisfies_tile_constraints(banks: Sequence[Optional[int]], tiles: TileMatrix) -> bool:
    """Column and tile distinctness over the assigned cells."""
    for d, bank in enumerate(banks):
        if bank is None:
            continue
        if any(banks[e] == bank for e in tiles.mates[d]):
            return False
    return True


def greedy_fill(tiles: TileMatrix) -> list[Optional[int]]:
    """Single deterministic pass; cells whose banks are all blocked stay empty.

    Scan is column-major, rows top-down. Each cell first tries its row's
    bank, then the lowest bank clashing with neither the natural column
    so far nor its tile-mates so far.
    """
    mates = tiles.mates
    banks: list[Optional[int]] = [None] * tiles.schedules.size
    for column in tiles.schedules.natural.columns:
        for p, datum in enumerate(column):
            blocked = {banks[e] for e in mates[datum] if banks[e] is not None}
            for bank in [p] + [b for b in range(tiles.rows) if b != p]:
                if bank not in blocked:
                    banks[datum] = bank
                    break
    return banks


def repair_complete(
    partial: Sequence[Optional[int]], tiles: TileMatrix, seed: int
) -> tuple[int, ...]:
    """Fill the gaps left by greedy_fill by seeded conflict chasing.

    Each pending datum takes a bank with the fewest clashes among its
    already-assigned mates (ties broken by the seeded generator); any
    clashing mates are evicted and queued for reassignment. The assigned
    cells therefore stay mutually conflict-free, and an empty queue means
    a complete valid mapping. A budget bounds the chase; hitting it
    raises RepairBudgetExhausted rather than looping forever.
    """
    banks = list(partial)
    if all(b is not None for b in banks):
        return tuple(banks)
    mates = tiles.mates
    rng = random.Random(seed)
    budget = REPAIR_BUDGET_PER_DATUM * tiles.schedules.size
    pending = [d for column in tiles.schedules.natural.columns for d in column if banks[d] is None]
    stack = list(reversed(pending))  # pop() follows the scan order
    steps = 0
    while stack:
        steps += 1
        if steps > budget:
            raise RepairBudgetExhausted(budget)
        datum = stack.pop()
        clashes = [0] * tiles.rows
        for mate in mates[datum]:
            if banks[mate] is not None:
                clashes[banks[mate]] += 1
        least = min(clashes)
        choices = [b for b in range(tiles.rows) if clashes[b] == least]
        bank = choices[0] if len(choices) == 1 else rng.choice(choices)
        banks[datum] = bank
        if least > 0:
            for mate in mates[datum]:
                if banks[mate] == bank and mate != datum:
                    banks[mate] = None
                    stack.append(mate)
    return tuple(banks)


def baseline_solve(problem: ProblemSpec, seed: int = 0) -> tuple[int, ...]:
    """Tile, greedy-fill, repair: a complete valid mapping for the problem."""
    tiles = build_tiles(SchedulePair.from_problem(problem))
    return repair_complete(greedy_fill(tiles), tiles, seed)
