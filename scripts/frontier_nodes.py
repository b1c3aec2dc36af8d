#!/usr/bin/env python3
"""Node counts of the benchmark's frontier solves, with no clock.

For each seed, builds the frontier instance of the `barrel-search` and
`xbar-search` workloads (benchmark/workloads.py, imported read-only) and
runs the default solve under SolveOptions(max_nodes=cap). Prints the
node count at which the search was decided, or `> cap` when the budget
ran out first. A node count does not depend on the host, so it tells
how far an instance is from a node budget or a deadline.

Example:
    python3 scripts/frontier_nodes.py --seeds 1:60 --max-nodes 20000
"""

from __future__ import annotations

import argparse
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # benchmark/ is read, never written
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmark"))

import workloads  # noqa: E402
from bankmap import SolveOptions, Status, solve  # noqa: E402
from bankmap.cli import parse_problem  # noqa: E402

WORKLOADS = ("barrel-search", "xbar-search")


def frontier_nodes(workload: str, seed: int, cap: int) -> str:
    """Nodes of the default solve of the workload's frontier instance, or
    `> cap`."""
    _, frontier, _ = workloads.instances(workload, seed)
    (instance,) = frontier
    spec, objective = parse_problem(instance.doc)
    outcome = solve(spec, objective, SolveOptions(max_nodes=cap))
    if outcome.status is Status.BUDGET_EXHAUSTED:
        return f"> {cap}"
    return str(outcome.stats.nodes)


def seed_range(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition(":")
    if not sep or int(lo) > int(hi):
        raise ValueError(text)
    return int(lo), int(hi)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=seed_range, default="1:3", metavar="LO:HI",
                    help="inclusive seed range (default 1:3)")
    ap.add_argument("--max-nodes", type=int, default=20000, help="node budget per solve")
    args = ap.parse_args()
    if args.max_nodes < 1:
        ap.error("--max-nodes must be at least 1")
    lo, hi = args.seeds
    print("seed  " + "  ".join(f"{name:>14}" for name in WORKLOADS))
    for seed in range(lo, hi + 1):
        cells = (frontier_nodes(name, seed, args.max_nodes) for name in WORKLOADS)
        print(f"{seed:>4}  " + "  ".join(f"{cell:>14}" for cell in cells), flush=True)


if __name__ == "__main__":
    main()
