"""Seeded instance generators for the benchmark.

Every generator takes a `random.Random` and returns plain data: a
permutation as a list of ints, plus, for planted instances, the known
bank mapping. The interleavers are the ones the turbo/LDPC domain uses:
quadratic permutation polynomials (Sun & Takeshita, IEEE Trans. IT
2005), almost regular permutations (Berrou et al., ICC 2004) and
row-column block interleavers. Planted instances are barrel-feasible by
construction, so a barrel solve on them has a known answer.
"""

from __future__ import annotations

import json
import math
import random

FILLS = ("column-major-sequence", "row-major-blocks")
ARP_PERIOD = 4  # C, as in the DVB-RCS turbo code


def random_permutation(rng: random.Random, length: int) -> list[int]:
    entries = list(range(length))
    rng.shuffle(entries)
    return entries


def _radical(n: int) -> int:
    """Product of the distinct prime factors of n."""
    radical, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            radical *= p
            while n % p == 0:
                n //= p
        p += 1
    return radical * n if n > 1 else radical


def qpp(rng: random.Random, length: int) -> tuple[list[int], tuple[int, int]]:
    """f(i) = (f1*i + f2*i^2) mod L with seeded (f1, f2), kept only when
    the image is a bijection. Returns the permutation and (f1, f2).

    Candidates are drawn with f1 coprime to L and f2 a multiple of every
    prime factor of L, which is where the bijections are (Sun & Takeshita);
    drawing there keeps the number of tries, and so set-up time, small."""
    radical = _radical(length)
    while True:
        f1 = rng.randrange(1, length)
        f2 = radical * rng.randrange(1, max(2, length // radical))
        if math.gcd(f1, length) != 1:
            continue
        entries = [(f1 * i + f2 * i * i) % length for i in range(length)]
        if len(set(entries)) == length:
            return entries, (f1, f2)


def arp(rng: random.Random, length: int) -> list[int]:
    """Almost regular permutation pi(j) = (P*j + Q[j mod C]) mod L.

    P is coprime to L and every Q is a multiple of C (C divides L), which
    makes pi a bijection; the caller still validates it.
    """
    period = ARP_PERIOD
    if length % period:
        raise ValueError(f"ARP period {period} must divide L={length}")
    while True:
        p = rng.randrange(1, length)
        if math.gcd(p, length) == 1:
            break
    shifts = [0] + [period * rng.randrange(length // period) for _ in range(period - 1)]
    return [(p * j + shifts[j % period]) % length for j in range(length)]


def row_column(length: int) -> list[int]:
    """Block interleaver: write an R x C array by rows, read it by columns.

    The array is the near-square one (R the largest divisor of L with
    R*R <= L), the usual design choice; it has no free parameter, so this
    class is the same for every seed."""
    rows = max(r for r in range(1, math.isqrt(length) + 1) if length % r == 0)
    cols = length // rows
    return [(i % rows) * cols + i // rows for i in range(length)]


def planted_barrel(
    rng: random.Random, length: int, parallelism: int, interleaved_fill: str
) -> tuple[list[int], list[int]]:
    """A barrel-feasible instance and its known mapping.

    The natural matrix uses the default row-major-blocks fill, so datum
    p*N + t sits at natural cell (p, t). Natural cycle t gets offset r_t
    (r_0 = 0) and bank(p, t) = (p - r_t) mod X. Each bank's N data are
    shuffled over the N interleaved cycles; in cycle s a datum of bank b
    goes to the row where a seeded reference pattern, rotated by u_s,
    reads b. Both orders are then rotations of their column 0.
    Returns (permutation, bank_of).
    """
    x = parallelism
    cycles = length // x
    offsets = [0] + [rng.randrange(x) for _ in range(cycles - 1)]
    bank_of = [0] * length
    by_bank: list[list[int]] = [[] for _ in range(x)]
    for p in range(x):
        for t in range(cycles):
            bank = (p - offsets[t]) % x
            bank_of[p * cycles + t] = bank
            by_bank[bank].append(p * cycles + t)
    for data in by_bank:
        rng.shuffle(data)
    reference = random_permutation(rng, x)
    cells = [[0] * cycles for _ in range(x)]
    for s in range(cycles):
        u = rng.randrange(x)
        for p in range(x):
            cells[p][s] = by_bank[reference[(p - u) % x]][s]
    if interleaved_fill == "column-major-sequence":
        entries = [cells[p][s] for s in range(cycles) for p in range(x)]
    elif interleaved_fill == "row-major-blocks":
        entries = [cells[p][s] for p in range(x) for s in range(cycles)]
    else:
        raise ValueError(f"unknown fill {interleaved_fill!r}")
    return entries, bank_of


def problem_doc(entries: list[int], parallelism: int, objective: str, interleaved_fill: str) -> dict:
    """A problem file in the schema `bankmap solve` reads."""
    return {
        "permutation": entries,
        "parallelism": parallelism,
        "objective": objective,
        "conventions": {
            "natural_fill": "row-major-blocks",
            "interleaved_fill": interleaved_fill,
        },
    }


def encode(doc: dict) -> bytes:
    """Canonical bytes for a generated file: same document, same bytes."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
