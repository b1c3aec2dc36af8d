"""The three workloads: seeded instances, problem files and operation lists.

A workload is a list of operations pushed through `bankmap.cli.main`.
Each solve operation writes its report file (what `bankmap solve p.json >
report.json` does) and, when it returns a report, is followed by a
`bankmap verify` of that report. Everything bankmap sees is a generated
file; the known answers stay here, for the checks.

Deadlines. `--max-nodes` does not bound the work of a solve (the
column-selection DP is exponential in X, so `--max-nodes 1` on a QPP
L=6144 X=16 block ran for 206 s), so a wall-clock deadline is the only
bound. Two deadlines keep every operation far from its own:

* FRONTIER_DEADLINE_S, twice the 0.5 s target ROADMAP sets for a
  paper-scale crossbar solve, for the frontier solves: instance classes
  that ran past 6-12 s on every seed tried (random crossbar L=768 X=8,
  random barrel L=192 X=8, crossbar L=6144 X=64). Each times out, is
  charged its deadline and counts as failed, until an engine solves it.
* DEADLINE_S for every other operation; on every seed tried they take
  at most a few seconds.

Search cost is heavy-tailed in the instance, so only classes whose
outcome does not depend on the seed are used (see README.md for the
measurements behind the choice).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from instances import (
    FILLS,
    arp,
    encode,
    planted_barrel,
    problem_doc,
    qpp,
    random_permutation,
    row_column,
)

CROSSBAR = "crossbar"
BARREL = "barrel-shifter"
DEADLINE_S = 30.0
FRONTIER_DEADLINE_S = 1.0
WORKLOADS = ("xbar-search", "barrel-search", "block-6144")


@dataclass
class Instance:
    name: str
    entries: list
    parallelism: int
    objective: str
    fill: str
    planted_banks: Optional[list] = None  # known barrel mapping

    @property
    def doc(self) -> dict:
        return problem_doc(self.entries, self.parallelism, self.objective, self.fill)


@dataclass
class Op:
    """One call of `bankmap.cli.main`.

    kind "solve": `argv` writes `report`; `planted` marks a barrel solve
    with a known barrel mapping. kind "verify": `expect_valid` and
    `expect_met` are the known verdict (None for a report's verify: the
    checked solve supplies it).
    """

    kind: str
    label: str
    argv: list
    instance: Instance
    problem: Path
    deadline_s: float = DEADLINE_S
    report: Optional[Path] = None
    planted: bool = False
    expect_valid: Optional[bool] = None
    expect_met: Optional[bool] = None

    @property
    def frontier(self) -> bool:
        return self.deadline_s == FRONTIER_DEADLINE_S


def _rng(workload: str, seed: int, part: str) -> random.Random:
    return random.Random(f"{workload}:{seed}:{part}")


def instances(workload: str, seed: int) -> tuple[list, list, list]:
    """(solved, frontier, verified) instances of a workload.

    `solved` get a default solve (baseline solve on block-6144) and a
    verify of the report, `frontier` a default solve under the short
    deadline, `verified` a verify of their planted mapping and of a
    corrupted copy. Several seeded instances of each class keep a run's
    totals steady from seed to seed.
    """
    solved: list[Instance] = []
    frontier: list[Instance] = []
    verified: list[Instance] = []

    def planted(name, length, x, fill, rng):
        entries, banks = planted_barrel(rng, length, x, fill)
        return Instance(name, entries, x, BARREL, fill, banks)

    def seeded(kind, length, x, objective, copies):
        rng = _rng(workload, seed, f"{kind}-{length}x{x}")
        make = {"qpp": lambda: qpp(rng, length)[0], "arp": lambda: arp(rng, length),
                "random": lambda: random_permutation(rng, length)}[kind]
        for i in range(copies):
            fill = FILLS[i % 2]
            solved.append(Instance(f"{kind}-{length}x{x}-{i}", make(), x, objective, fill))

    # The search workloads solve one small planted barrel instance, so
    # that barrel_met_ratio has a base there; block-6144 verifies planted
    # mappings instead and runs no search.
    def probe():
        return planted("probe-planted-48x4", 48, 4, FILLS[0], _rng(workload, seed, "probe"))

    if workload == "xbar-search":
        # ROADMAP's reference permutations, random.Random(0) at each size,
        # are the slowest solves; the seeded instances are light and many.
        for length, x in ((96, 4), (192, 8), (384, 8)):
            entries = random_permutation(random.Random(0), length)
            solved.append(Instance(f"ref-random-{length}x{x}", entries, x, CROSSBAR, FILLS[0]))
        seeded("random", 96, 4, CROSSBAR, 20)
        seeded("qpp", 192, 8, CROSSBAR, 12)
        seeded("arp", 192, 8, CROSSBAR, 12)
        for fill in FILLS:
            solved.append(Instance(f"rc-192x8-{fill[:3]}", row_column(192), 8, CROSSBAR, fill))
        solved.append(probe())
        frontier.append(Instance(
            "random-768x8", random_permutation(_rng(workload, seed, "frontier"), 768), 8,
            CROSSBAR, FILLS[0]))
    elif workload == "barrel-search":
        # ROADMAP's relaxed reference: random.Random(0) at L=96 X=4 has no
        # barrel mapping, so the strict pass fails and the relaxed one runs.
        entries = random_permutation(random.Random(0), 96)
        solved.append(Instance("ref-random-96x4", entries, 4, BARREL, FILLS[0]))
        # Many cheap instances of the narrowest-cost classes keep the
        # latency quantiles steady from seed to seed.
        rng = _rng(workload, seed, "planted")
        for i in range(40):
            solved.append(planted(f"planted-32x4-{i}", 32, 4, FILLS[i % 2], rng))
        seeded("random", 24, 4, BARREL, 80)
        solved.append(probe())
        frontier.append(Instance(
            "random-192x8", random_permutation(_rng(workload, seed, "frontier"), 192), 8,
            BARREL, FILLS[0]))
    elif workload == "block-6144":
        # The random block is ROADMAP's reference, random.Random(0); it is
        # the slowest baseline solve. QPP and ARP are seeded.
        reference = random_permutation(random.Random(0), 6144)
        for x in (16, 64):
            seeded("qpp", 6144, x, CROSSBAR, 3)
            seeded("arp", 6144, x, CROSSBAR, 3)
            solved.append(Instance(f"rc-6144x{x}", row_column(6144), x, CROSSBAR,
                                   FILLS[x // 64]))
            solved.append(Instance(f"ref-random-6144x{x}", reference, x, CROSSBAR, FILLS[0]))
        rng = _rng(workload, seed, "planted")
        for x in (16, 64):
            fill = FILLS[x // 64]
            verified.append(planted(f"planted-6144x{x}-{fill[:3]}", 6144, x, fill, rng))
        qpp64 = next(inst for inst in solved if inst.name == "qpp-6144x64-0")
        frontier.append(Instance("qpp-6144x64-default", qpp64.entries, 64, CROSSBAR, qpp64.fill))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return solved, frontier, verified


def corrupt(banks: list, parallelism: int, rng: random.Random) -> list:
    """A copy of a mapping with one natural-column collision: the datum at
    natural cell (1, t) takes the bank of the one at (0, t)."""
    cycles = len(banks) // parallelism
    t = rng.randrange(cycles)
    broken = list(banks)
    broken[cycles + t] = broken[t]
    return broken


def mapping_doc(banks: list, parallelism: int) -> dict:
    groups: list[list[int]] = [[] for _ in range(parallelism)]
    for datum, bank in enumerate(banks):
        groups[bank].append(datum)
    return {"banks": groups}


def build(workload: str, seed: int, workdir: Path) -> list:
    """Generate the workload, write its files under workdir, return the ops."""
    solved, frontier, verified = instances(workload, seed)
    workdir.mkdir(parents=True, exist_ok=True)
    ops: list[Op] = []
    baseline = workload == "block-6144"
    for inst in solved:
        problem = workdir / f"{inst.name}.json"
        problem.write_bytes(encode(inst.doc))
        report = workdir / f"{inst.name}.report.json"
        argv = ["solve", str(problem)]
        if baseline and inst.planted_banks is None:
            argv += ["--solver", "baseline"]  # the default repair seed
        ops.append(Op("solve", inst.name, argv, inst, problem, report=report,
                      planted=inst.planted_banks is not None))
    rng = _rng(workload, seed, "corrupt")
    for inst in verified:
        problem = workdir / f"{inst.name}.json"
        problem.write_bytes(encode(inst.doc))
        for suffix, banks, valid in (
            ("mapping", inst.planted_banks, True),
            ("corrupted", corrupt(inst.planted_banks, inst.parallelism, rng), False),
        ):
            path = workdir / f"{inst.name}.{suffix}.json"
            path.write_bytes(encode(mapping_doc(banks, inst.parallelism)))
            ops.append(Op("verify", f"{inst.name}-{suffix}",
                          ["verify", str(problem), str(path)], inst, problem,
                          expect_valid=valid, expect_met=True if valid else None))
    # Frontier ops come last in a pass: they time out, and the run reads
    # its memory high-water mark before them.
    for inst in frontier:
        problem = workdir / f"{inst.name}.json"
        problem.write_bytes(encode(inst.doc))
        ops.append(Op("solve", inst.name, ["solve", str(problem)], inst, problem,
                      deadline_s=FRONTIER_DEADLINE_S,
                      report=workdir / f"{inst.name}.report.json"))
    return ops
