"""Self-tests of the benchmark itself. Run from the repository root:

    python3 benchmark/selftest.py   # about three minutes

* every generated permutation passes validate_permutation, and every
  planted mapping passes verify_mapping and is barrel-realizable;
* the same seed writes byte-identical files;
* a corrupted planted mapping is caught by verify_mapping;
* crossbar on ROADMAP's reference permutation (random.Random(0), L=384,
  X=8) takes 2109 nodes and 2015 backtracks with the backtracking solver;
* two runs of each workload with the same seed give identical
  solver.nodes, solver.backtracks, baseline.greedy_gaps, failed_ratio,
  barrel_met_ratio and control_words.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bankmap as bm  # noqa: E402

import instances  # noqa: E402
import workloads  # noqa: E402

SCRATCH = HERE / ".work" / "selftest"


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def schedules_of(entries, x, fill):
    conventions = bm.LayoutConventions(interleaved_fill=bm.FillRule(fill))
    return bm.SchedulePair.from_problem(
        bm.ProblemSpec(bm.validate_permutation(entries), x, conventions))


def test_generators() -> None:
    for seed in range(3):
        rng = random.Random(seed)
        for length in (48, 96, 192, 6144):
            for name, entries in (
                ("random", instances.random_permutation(rng, length)),
                ("qpp", instances.qpp(rng, length)[0]),
                ("arp", instances.arp(rng, length)),
                ("rc", instances.row_column(length)),
            ):
                check(bm.validate_permutation(entries).size == length, f"{name} L={length}")
        entries, (f1, f2) = instances.qpp(rng, 192)
        check(entries == [(f1 * i + f2 * i * i) % 192 for i in range(192)], "qpp formula")
        for length, x in ((16, 4), (48, 4), (16, 8), (64, 8), (6144, 16), (6144, 64)):
            for fill in instances.FILLS:
                entries, banks = instances.planted_barrel(rng, length, x, fill)
                pair = schedules_of(entries, x, fill)
                check(bm.verify_mapping(banks, pair).valid, f"planted L={length} X={x} {fill}")
                check(bm.objective_compatible(banks, pair, bm.NetworkObjective.BARREL_SHIFTER),
                      f"planted L={length} X={x} {fill} is not barrel-realizable")
                broken = workloads.corrupt(banks, x, rng)
                check(not bm.verify_mapping(broken, pair).valid, "corrupted mapping passes")


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def test_same_seed_same_bytes() -> None:
    for workload in workloads.WORKLOADS:
        first, second, other = (SCRATCH / f"{workload}-{tag}" for tag in ("a", "b", "c"))
        workloads.build(workload, 7, first)
        workloads.build(workload, 7, second)
        workloads.build(workload, 8, other)
        check(_files(first) == _files(second), f"{workload}: seed 7 files differ between builds")
        check(_files(first) != _files(other), f"{workload}: seeds 7 and 8 give the same files")


def test_reference_counts() -> None:
    import bankmap.cli as cli

    SCRATCH.mkdir(parents=True, exist_ok=True)
    problem = SCRATCH / "ref-384x8.json"
    entries = instances.random_permutation(random.Random(0), 384)
    problem.write_bytes(instances.encode(
        instances.problem_doc(entries, 8, "crossbar", instances.FILLS[0])))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["solve", str(problem), "--solver", "backtracking"])
    stats = json.loads(out.getvalue())["stats"]
    check(code == 0, f"reference solve exit {code}")
    check((stats["nodes"], stats["backtracks"]) == (2109, 2015),
          f"reference solve took {stats['nodes']} nodes / {stats['backtracks']} backtracks")


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=HERE.parent, timeout=300)
    check(proc.returncode == 0, f"{workload} --trace {trace} exit {proc.returncode}: {proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    check(result["correct"], f"{workload}: incorrect output")
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_determinism() -> None:
    exact = {0: ("failed_ratio", "barrel_met_ratio", "control_words"),
             1: ("solver.nodes", "solver.backtracks", "baseline.greedy_gaps",
                 "solver.select_calls", "solver.completion_calls",
                 "network.admissible_calls", "solver.relaxed_ops")}
    for workload in workloads.WORKLOADS:
        for trace, names in exact.items():
            first, second = _run(workload, trace), _run(workload, trace)
            for name in names:
                check(first[name] == second[name],
                      f"{workload}: {name} {first[name]} != {second[name]} for the same seed")


def main() -> int:
    tests = [test_generators, test_same_seed_same_bytes, test_reference_counts, test_determinism]
    try:
        for test in tests:
            test()
            print(f"ok   {test.__name__}")
    finally:
        shutil.rmtree(SCRATCH, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
