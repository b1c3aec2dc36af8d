"""Command-line front end: solve / verify / compare on JSON problem files.

Problem file schema (unknown keys rejected):
    {"permutation": [..], "parallelism": k,
     "objective": "crossbar" | "barrel-shifter",          # optional
     "conventions": {"natural_fill": "...", "interleaved_fill": "..."}}  # optional

Mapping file schema: {"banks": [[data ids], ...]} with one list per bank;
extra keys are tolerated so a solve report can be fed straight back to
the verify subcommand.

Reports go to stdout as one line of compact JSON (`python -m json.tool
report.json` indents one); --pretty renders the human view to stderr.

Exit codes: 0 solved and objective met (or verification clean), 1 bad
input or usage, 2 solved with the objective relaxed, 3 infeasible or
budget exhausted, 4 verification found collisions.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from itertools import chain
from typing import Optional

from . import __version__
from .baseline import build_tiles, greedy_fill, repair_complete
from .errors import BankMapError, IncompleteMapping, InputFormatError, NotAnInteger
from .network import NetworkObjective, derive_controls
from .render import bank_letter, bank_rows, render_matrix
from .schedule import (
    FillRule,
    LayoutConventions,
    Order,
    ProblemSpec,
    SchedulePair,
    all_indices,
    is_int,
    validate_permutation,
)
from .solver import SolveOptions, Status, solve
from .verify import brute_force_solve, verify_mapping

EXIT_OK = 0
EXIT_BAD_INPUT = 1
EXIT_RELAXED = 2
EXIT_UNSOLVED = 3
EXIT_CONFLICTS = 4

# compare runs the baseline once per seed, so a range beyond this many
# seeds is a typo, not a study
MAX_SEED_SPAN = 1000

PROBLEM_KEYS = {"permutation", "parallelism", "objective", "conventions"}
CONVENTION_KEYS = {"natural_fill", "interleaved_fill"}


def _load_json(path: str, what: str) -> dict:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputFormatError(what, f"cannot read {path}: {exc}") from exc
    try:
        # bytes: json detects UTF-8, -16 or -32; a bad byte is a ValueError
        doc = json.loads(data)
    except ValueError as exc:
        raise InputFormatError(what, f"invalid JSON in {path}: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError(what, f"{path} is nested too deeply") from exc
    if not isinstance(doc, dict):
        raise InputFormatError(what, "top level must be a JSON object")
    return doc


def _fill_rule(value, field: str) -> FillRule:
    try:
        return FillRule(value)
    except ValueError:
        raise InputFormatError(
            field, f"expected one of {[r.value for r in FillRule]}, got {value!r}"
        ) from None


def parse_problem(doc: dict) -> tuple[ProblemSpec, NetworkObjective]:
    unknown = set(doc) - PROBLEM_KEYS
    if unknown:
        raise InputFormatError(sorted(unknown)[0], "unknown problem key")
    if "permutation" not in doc:
        raise InputFormatError("permutation", "missing")
    if not isinstance(doc["permutation"], list):
        raise InputFormatError("permutation", "must be a list of integers")
    permutation_error = None
    try:
        permutation = validate_permutation(doc["permutation"])
    except NotAnInteger:
        raise InputFormatError("permutation", "must be a list of integers") from None
    except BankMapError as exc:
        # a list of integers that is no permutation is reported after the
        # other fields, with the problem-level errors
        permutation_error = exc
    if not is_int(doc.get("parallelism")):
        raise InputFormatError("parallelism", "must be an integer")
    conventions = LayoutConventions()
    if "conventions" in doc:
        conv = doc["conventions"]
        if not isinstance(conv, dict) or set(conv) - CONVENTION_KEYS:
            raise InputFormatError("conventions", f"keys must be {sorted(CONVENTION_KEYS)}")
        conventions = LayoutConventions(
            natural_fill=_fill_rule(
                conv.get("natural_fill", FillRule.ROW_MAJOR_BLOCKS.value),
                "conventions.natural_fill",
            ),
            interleaved_fill=_fill_rule(
                conv.get("interleaved_fill", FillRule.COLUMN_MAJOR_SEQUENCE.value),
                "conventions.interleaved_fill",
            ),
        )
    objective = NetworkObjective.CROSSBAR
    if "objective" in doc:
        try:
            objective = NetworkObjective(doc["objective"])
        except ValueError:
            raise InputFormatError(
                "objective",
                f"expected one of {[o.value for o in NetworkObjective]}, got {doc['objective']!r}",
            ) from None
    if permutation_error is not None:
        raise InputFormatError("problem", str(permutation_error)) from permutation_error
    try:
        spec = ProblemSpec(permutation, doc["parallelism"], conventions)
    except BankMapError as exc:
        raise InputFormatError("problem", str(exc)) from exc
    return spec, objective


def parse_mapping(doc: dict, schedules: SchedulePair) -> tuple:
    """Mapping from a {"banks": [[...], ...]} document (extra keys allowed)."""
    banks = doc.get("banks")
    if not isinstance(banks, list) or not all(isinstance(group, list) for group in banks):
        raise InputFormatError("banks", "must be a list of lists of data ids")
    if len(banks) != schedules.rows:
        raise InputFormatError(
            "banks", f"expected {schedules.rows} banks, got {len(banks)}"
        )
    size = schedules.size
    ids = list(chain.from_iterable(banks))
    if not (all_indices(ids, size) and len(set(ids)) == len(ids)):
        # name the first bad id in document order
        seen = set()
        for datum in ids:
            if not is_int(datum) or not 0 <= datum < size:
                raise InputFormatError("banks", f"data id {datum!r} out of range")
            if datum in seen:
                raise InputFormatError("banks", f"data id {datum} listed twice")
            seen.add(datum)
    bank_of: list = [None] * size
    for b, group in enumerate(banks):
        for datum in group:
            bank_of[datum] = b
    if len(ids) < size:  # the ids are distinct and in range
        raise IncompleteMapping([d for d in range(size) if bank_of[d] is None])
    return tuple(bank_of)


def _problem_json(spec: ProblemSpec, objective: NetworkObjective) -> dict:
    return {
        "permutation": list(spec.permutation.entries),
        "parallelism": spec.parallelism,
        "conventions": {
            "natural_fill": spec.conventions.natural_fill.value,
            "interleaved_fill": spec.conventions.interleaved_fill.value,
        },
        "objective": objective.value,
    }


def build_report(
    spec: ProblemSpec,
    objective: NetworkObjective,
    solver_name: str,
    status: Status,
    mapping: Optional[tuple],
    schedules: SchedulePair,
    stats: Optional[dict] = None,
    seed: Optional[int] = None,
) -> dict:
    report = {
        "tool": {"name": "bankmap", "version": __version__},
        "problem": _problem_json(spec, objective),
        "solver": solver_name,
        "status": status.value,
        "objective_met": False,
        "banks": None,
        "matrices": None,
        "controls": None,
        "verification": None,
        "stats": stats or {},
    }
    if seed is not None:
        report["seed"] = seed
    if mapping is None:
        return report
    verification = verify_mapping(mapping, schedules, objectives=[objective])
    met = verification.objective_met[objective]
    # A mapping always realizes a crossbar, so fall back to crossbar words
    # when the requested kind is out of reach; the schedule stays usable.
    control_kind = objective if met else NetworkObjective.CROSSBAR
    controls = derive_controls(mapping, schedules, control_kind)
    report.update(
        {
            "objective_met": met,
            "banks": [list(bank) for bank in verification.bank_contents],
            "matrices": bank_rows(mapping, schedules),
            "controls": controls.to_json(),
            "verification": verification.to_json(),
        }
    )
    return report


def _pretty_solve(report: dict, schedules: SchedulePair) -> None:
    print(f"status: {report['status']}  objective_met: {report['objective_met']}", file=sys.stderr)
    print("natural data matrix:", file=sys.stderr)
    print(render_matrix(schedules.natural.cells), file=sys.stderr)
    print("interleaved data matrix:", file=sys.stderr)
    print(render_matrix(schedules.interleaved.cells), file=sys.stderr)
    if report["matrices"] is not None:
        _pretty_bank_rows(report["matrices"])
    if report["banks"] is not None:
        for b, data in enumerate(report["banks"]):
            print(f"bank {bank_letter(b)}: {data}", file=sys.stderr)
    if report["controls"] is not None:
        for order in Order:
            words = report["controls"][order.value]
            print(f"{order.value} control words: {words['words']} "
                  f"({words['distinct_word_count']} distinct)", file=sys.stderr)


def _pretty_bank_rows(matrices: dict) -> None:
    for order, rows in matrices.items():
        print(f"{order} bank mapping:", file=sys.stderr)
        print("\n".join(rows), file=sys.stderr)


def solve_report(
    spec: ProblemSpec, objective: NetworkObjective, schedules: SchedulePair,
    solver: str, options: SolveOptions, seed: Optional[int],
) -> tuple[dict, Optional[tuple], Optional[tuple]]:
    """(report, mapping, trace) of one run of the named solver: the report
    `bankmap solve` prints, and the trace of a traced backtracking solve
    (else None). The baseline repairs with seed; the others honour options."""
    status, stats, trace = Status.SOLVED, {}, None
    if solver == "baseline":
        tiles = build_tiles(schedules)
        mapping = repair_complete(greedy_fill(tiles), tiles, seed)
    elif solver == "oracle":
        solutions = brute_force_solve(schedules, objective, fix_first_column=True)
        if not solutions and not options.strict_objective:
            solutions = brute_force_solve(
                schedules, NetworkObjective.CROSSBAR, fix_first_column=True
            )
        mapping = solutions[0] if solutions else None
        status = Status.SOLVED if solutions else Status.INFEASIBLE
        stats = {"solutions": len(solutions)}
    else:
        outcome = solve(spec, objective, options)
        status, mapping, trace = outcome.status, outcome.mapping, outcome.trace
        stats = outcome.stats.to_json()
    report = build_report(
        spec, objective, solver, status, mapping, schedules, stats,
        seed=seed if solver == "baseline" else None,
    )
    return report, mapping, trace


def _check_max_nodes(max_nodes: Optional[int]) -> None:
    if max_nodes is not None and max_nodes < 1:
        raise InputFormatError("--max-nodes", f"must be at least 1, got {max_nodes}")


def cmd_solve(args) -> int:
    _check_max_nodes(args.max_nodes)
    spec, objective = parse_problem(_load_json(args.problem, "problem"))
    schedules = SchedulePair.from_problem(spec)
    options = SolveOptions(
        strict_objective=args.strict_objective, max_nodes=args.max_nodes, trace=args.trace
    )
    report, _, trace = solve_report(spec, objective, schedules, args.solver, options, args.seed)
    for event in trace or ():
        where = f"{event.order.value} column {event.column}" if event.order else ""
        print(f"trace: {event.kind} {where} data={event.data} banks={event.banks}",
              file=sys.stderr)
    print(json.dumps(report))
    if args.pretty:
        _pretty_solve(report, schedules)
    if report["status"] != Status.SOLVED.value:
        return EXIT_UNSOLVED
    return EXIT_OK if report["objective_met"] else EXIT_RELAXED


def cmd_verify(args) -> int:
    spec, objective = parse_problem(_load_json(args.problem, "problem"))
    schedules = SchedulePair.from_problem(spec)
    mapping = parse_mapping(_load_json(args.mapping, "mapping"), schedules)
    report = verify_mapping(mapping, schedules, objectives=[objective])
    print(json.dumps(report.to_json()))
    if args.pretty:
        _pretty_bank_rows(bank_rows(mapping, schedules))
        print(f"valid: {report.valid}  conflicts: {len(report.conflicts)}", file=sys.stderr)
    return EXIT_OK if report.valid else EXIT_CONFLICTS


def cmd_compare(args) -> int:
    _check_max_nodes(args.max_nodes)
    # --seed is None unless given, so that argparse sees it clash with --seed-range
    seed = args.seed or 0
    lo, hi = args.seed_range or (seed, seed)
    if hi - lo + 1 > MAX_SEED_SPAN:
        raise InputFormatError(
            "--seed-range", f"spans {hi - lo + 1} seeds, at most {MAX_SEED_SPAN} allowed"
        )
    spec, objective = parse_problem(_load_json(args.problem, "problem"))
    schedules = SchedulePair.from_problem(spec)
    seeds = range(lo, hi + 1)
    options = SolveOptions(max_nodes=args.max_nodes)
    runs = [solve_report(spec, objective, schedules, "backtracking", options, None)[0]]
    runs += [solve_report(spec, objective, schedules, "baseline", options, s)[0] for s in seeds]
    summary = {
        "objective": objective.value,
        "runs": [
            {
                "solver": run["solver"],
                "seed": run.get("seed"),
                "status": run["status"],
                "valid": bool(run["verification"] and run["verification"]["valid"]),
                "objective_met": run["objective_met"],
            }
            for run in runs
        ],
    }
    print(json.dumps({"summary": summary, "reports": runs}))
    if args.pretty:
        for run in summary["runs"]:
            print(
                f"{run['solver']}{'' if run['seed'] is None else ' seed=' + str(run['seed'])}: "
                f"status={run['status']} valid={run['valid']} objective_met={run['objective_met']}",
                file=sys.stderr,
            )
    if any(run["status"] != Status.SOLVED.value for run in summary["runs"]):
        return EXIT_UNSOLVED
    if not all(run["valid"] for run in summary["runs"]):
        return EXIT_CONFLICTS
    return EXIT_OK


def _seed_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError("expected LO:HI") from None
    if hi < lo:
        raise argparse.ArgumentTypeError("range is empty")
    return lo, hi


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error: argparse's own 2 means a relaxed objective here."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one:
    a parse keeps no state in it, and argparse looks up sys.stdout and
    sys.stderr only when it prints."""
    parser = _Parser(
        prog="bankmap",
        description="Collision-free memory bank mappings for parallel interleavers",
    )
    parser.add_argument("--version", action="version", version=f"bankmap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="compute a bank mapping for a problem file")
    p_solve.add_argument("problem", help="problem JSON file")
    p_solve.add_argument(
        "--solver", choices=["backtracking", "baseline", "oracle"], default="backtracking"
    )
    p_solve.add_argument("--strict-objective", action="store_true",
                         help="fail instead of relaxing an unreachable objective")
    p_solve.add_argument("--max-nodes", type=int, default=None,
                         help="search budget in column assignments")
    p_solve.add_argument("--trace", action="store_true",
                         help="log column selections and assignments to stderr")
    p_solve.add_argument("--seed", type=int, default=0, help="baseline repair seed")
    p_solve.add_argument("--pretty", action="store_true",
                         help="render matrices to stderr")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="check a mapping file against a problem file")
    p_verify.add_argument("problem")
    p_verify.add_argument("mapping", help='mapping JSON file with a "banks" array')
    p_verify.add_argument("--pretty", action="store_true")
    p_verify.set_defaults(func=cmd_verify)

    p_compare = sub.add_parser(
        "compare", help="run the backtracking solver and the baseline side by side"
    )
    p_compare.add_argument("problem")
    seeds = p_compare.add_mutually_exclusive_group()
    seeds.add_argument("--seed", type=int, default=None, help="baseline repair seed (default 0)")
    seeds.add_argument("--seed-range", type=_seed_range, default=None, metavar="LO:HI",
                       help=f"run the baseline once per seed (at most {MAX_SEED_SPAN})")
    p_compare.add_argument("--max-nodes", type=int, default=None,
                           help="search budget of the backtracking run, in column assignments")
    p_compare.add_argument("--pretty", action="store_true")
    p_compare.set_defaults(func=cmd_compare)
    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BankMapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
