"""Human-readable matrix rendering: PE rows, cycle columns, banks as letters."""

from __future__ import annotations

from typing import Optional, Sequence


def bank_letter(bank: Optional[int]) -> str:
    if bank is None:
        return "-"
    if bank < 26:
        return chr(ord("A") + bank)
    return f"B{bank}"


def render_matrix(rows: Sequence[Sequence]) -> str:
    """Right-aligned grid, one line per PE row, cells joined by a space."""
    text = [[str(cell) for cell in row] for row in rows]
    width = max(len(cell) for row in text for cell in row)
    return "\n".join(" ".join(cell.rjust(width) for cell in row) for row in text)


def bank_rows(bank_of: Sequence[int], schedules) -> dict:
    """A mapping's bank letters laid out as each order's matrix: one string
    per PE row, letters joined by a space, keyed by order value."""
    letters = [bank_letter(b) for b in range(schedules.rows)]
    letter_of = [letters[b] for b in bank_of]
    return {
        sched.order.value: [" ".join([letter_of[d] for d in row]) for row in sched.cells]
        for sched in (schedules.natural, schedules.interleaved)
    }
