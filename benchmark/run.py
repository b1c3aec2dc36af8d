"""End-to-end benchmark of bankmap, driven through `bankmap.cli.main`.

    python3 benchmark/run.py --workload xbar-search --seed 1 --seconds 40 --trace 0

Run from the repository root. The program is imported from `src/` of
the same checkout, in this process, on one thread. Set-up (import,
instance generation and validation, problem files, warm-up) is timed
SETUP_REPEATS times and reported as its median. The workload's
operation list is then run in passes until --seconds have gone by;
every output is checked between operations, outside the timed region.
Times are taken per operation as the median over the passes, which
filters the bursts of a shared host.

--trace 0 prints the end-to-end metrics. --trace 1 runs untraced passes
for the first third of the time, then wraps bankmap's public functions
(spans.py) and reports per-layer metrics and the tracing overhead; the
spans go to benchmark/.work/spans-<workload>-<seed>.jsonl.

Human-readable lines come first; the last line of stdout is one JSON
object. The exit code is non-zero on any correctness mismatch.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORK = HERE / ".work"
SETUP_REPEATS = 5
TRACED_SHARE = 2 / 3  # of --seconds, in --trace 1 runs

import instances  # noqa: E402  (sibling modules; the script dir is on sys.path)
import workloads  # noqa: E402


class OpTimeout(BaseException):
    """Raised by the deadline alarm; a BaseException so that no handler
    inside the program can swallow it."""


def _alarm(signum, frame):
    raise OpTimeout()


# -- set-up ---------------------------------------------------------------

def import_bankmap():
    """Import bankmap afresh from this checkout's src/ and nowhere else."""
    for name in [m for m in sys.modules if m == "bankmap" or m.startswith("bankmap.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("bankmap.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"bankmap was imported from {cli.__file__}, not from {SRC}")
    return cli


@dataclass
class Prepared:
    cli: object
    ops: list
    schedules: dict  # problem path -> SchedulePair, for the checks


def set_up(workload: str, seed: int, workdir: Path) -> Prepared:
    cli = import_bankmap()
    import bankmap as bm

    ops = workloads.build(workload, seed, workdir)
    schedules = {}
    for op in ops:
        if op.problem in schedules:
            continue
        inst = op.instance
        conventions = bm.LayoutConventions(interleaved_fill=bm.FillRule(inst.fill))
        spec = bm.ProblemSpec(bm.validate_permutation(inst.entries), inst.parallelism, conventions)
        pair = bm.SchedulePair.from_problem(spec)
        if inst.planted_banks is not None:
            if not (bm.verify_mapping(inst.planted_banks, pair).valid
                    and bm.objective_compatible(inst.planted_banks, pair,
                                                bm.NetworkObjective.BARREL_SHIFTER)):
                raise RuntimeError(f"generator bug: planted mapping of {inst.name} fails")
        schedules[op.problem] = pair
    # Warm-up: each code path once, on one small fixed problem, so that its
    # cost does not depend on the seed.
    entries, _ = instances.planted_barrel(random.Random(0), 16, 4, instances.FILLS[0])
    problem = workdir / "warmup.json"
    problem.write_bytes(instances.encode(
        instances.problem_doc(entries, 4, workloads.BARREL, instances.FILLS[0])))
    report = workdir / "warmup.report.json"
    for argv in (["solve", str(problem), "--solver", "baseline"], ["solve", str(problem)]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
        report.write_text(out.getvalue())
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        cli.main(["verify", str(problem), str(report)])
    return Prepared(cli, ops, schedules)


# -- one operation ----------------------------------------------------------

@dataclass
class Outcome:
    seconds: float  # charged: the deadline when timed out
    code: Optional[int] = None
    doc: Optional[dict] = None
    timed_out: bool = False
    error: Optional[str] = None


def run_op(cli, op, tracer=None) -> Outcome:
    """Run one op under its deadline. The clock stops when `cli.main`
    returns; writing the report file and decoding it for the checks come
    after, untimed."""
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    outcome = Outcome(0.0)
    frame = tracer.begin_op(f"op.{op.kind}") if tracer else None
    start = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, op.deadline_s)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                outcome.code = cli.main(op.argv)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OpTimeout:
        outcome.timed_out = True
    except (Exception, SystemExit) as exc:  # a crash is a failed, mismatched op
        outcome.error = f"{type(exc).__name__}: {exc} {err.getvalue().strip()}"
    elapsed = time.perf_counter() - start
    if tracer:
        tracer.end_op(frame, completed=not outcome.timed_out)
    outcome.seconds = op.deadline_s if outcome.timed_out else elapsed
    if not outcome.timed_out and outcome.error is None:
        text = out.getvalue()
        if op.report is not None:
            op.report.write_text(text)
        try:
            outcome.doc = json.loads(text)
        except ValueError:
            pass  # no report: the check says so
    return outcome


# -- checks (never timed) --------------------------------------------------

@dataclass
class Checked:
    ok: bool
    why: str = ""
    met: Optional[bool] = None
    words: Optional[float] = None  # mean distinct control words per order
    nodes: int = 0
    backtracks: int = 0
    seconds: float = 0.0  # the op's latency, set once it passed


def check_solve(bm, op, outcome: Outcome, pair) -> Checked:
    doc, code = outcome.doc, outcome.code
    if not isinstance(doc, dict) or "status" not in doc:
        return Checked(False, f"no report (exit {code})")
    if doc["status"] != "solved":
        return Checked(False, f"status {doc['status']} (exit {code}) on a solvable instance")
    met = doc["objective_met"]
    if code != (0 if met else 2):
        return Checked(False, f"exit {code} disagrees with objective_met={met}")
    bank_of = [None] * pair.size
    for bank, data in enumerate(doc["banks"]):
        for datum in data:
            bank_of[datum] = bank
    if None in bank_of:
        return Checked(False, "report banks do not cover every datum")
    if not bm.verify_mapping(bank_of, pair).valid:
        return Checked(False, "verify_mapping finds collisions")
    if not bm.satisfies_partition_definition(bank_of, pair):
        return Checked(False, "partition definition violated")
    objective = bm.NetworkObjective(op.instance.objective)
    if bm.objective_compatible(bank_of, pair, objective) != met:
        return Checked(False, f"objective_met={met} is not what the mapping realizes")
    controls = doc["controls"]
    kind = bm.NetworkObjective(controls["kind"])
    if kind is not (objective if met else bm.NetworkObjective.CROSSBAR):
        return Checked(False, f"control kind {kind.value} for objective_met={met}")

    def words(order):
        return tuple(tuple(w) if isinstance(w, list) else w for w in controls[order]["words"])

    schedule = bm.ControlSchedule(kind, words("natural"), words("interleaved"))
    try:
        bm.simulate(bank_of, pair, schedule)
    except bm.ControlMismatch as exc:
        return Checked(False, f"control replay: {exc}")
    distinct = [controls[o]["distinct_word_count"] for o in ("natural", "interleaved")]
    if distinct != [len(set(schedule.words(o))) for o in bm.Order]:
        return Checked(False, "distinct_word_count disagrees with the words")
    stats = doc.get("stats") or {}
    return Checked(True, met=met, words=sum(distinct) / 2,
                   nodes=stats.get("nodes", 0), backtracks=stats.get("backtracks", 0))


def check_verify(op, outcome: Outcome, expect_valid: bool, expect_met: Optional[bool]) -> Checked:
    doc, code = outcome.doc, outcome.code
    if not isinstance(doc, dict) or "valid" not in doc:
        return Checked(False, f"no verification report (exit {code})")
    if doc["valid"] != expect_valid:
        return Checked(False, f"verdict valid={doc['valid']}, known answer {expect_valid}")
    if code != (0 if expect_valid else 4):
        return Checked(False, f"exit {code} for valid={expect_valid}")
    if expect_valid == bool(doc["conflicts"]):
        return Checked(False, "conflict list disagrees with the verdict")
    met = doc["objective_met"].get(op.instance.objective)
    if expect_met is not None and met != expect_met:
        return Checked(False, f"objective_met disagrees with the known answer {expect_met}")
    return Checked(True, met=met)


# -- passes --------------------------------------------------------------

@dataclass
class PassResult:
    op_seconds: list = field(default_factory=list)  # per op; a failed op is charged its deadline
    latencies: list = field(default_factory=list)  # per request; None when it failed
    attempted: int = 0
    timeouts: int = 0
    mismatches: list = field(default_factory=list)
    planted: int = 0  # planted barrel mappings: solved, or verified where none is solved
    planted_met: int = 0
    peak_rss_mb: float = 0.0  # high-water mark before the first frontier op
    words: list = field(default_factory=list)
    nodes: int = 0
    backtracks: int = 0
    relaxed: int = 0  # solves that exited 2: objective relaxed
    signature: list = field(default_factory=list)  # deterministic outcome per op

    @property
    def failed(self) -> int:
        return self.timeouts + len(self.mismatches)


def run_pass(prep: Prepared, tracer=None) -> PassResult:
    import bankmap as bm

    result = PassResult()

    def attempt(op, check) -> Optional[Checked]:
        """Run, check and account for one op; None when it failed."""
        outcome = run_op(prep.cli, op, tracer)
        result.attempted += 1
        result.op_seconds.append(outcome.seconds)
        if outcome.timed_out:
            result.timeouts += 1
            result.signature.append((op.label, "timeout"))
            return None
        checked = Checked(False, outcome.error) if outcome.error else check(outcome)
        if not checked.ok:
            result.mismatches.append(f"{op.label}: {checked.why}")
            result.signature.append((op.label, "mismatch"))
            return None
        checked.seconds = outcome.seconds
        result.signature.append((op.label, checked.met, checked.words, checked.nodes))
        return checked

    def request(checked: Optional[Checked], seconds: float = 0.0) -> None:
        result.latencies.append(None if checked is None else seconds + checked.seconds)

    rss_taken = False
    for op in prep.ops:
        if op.frontier and not rss_taken:
            # A frontier op times out after a machine-dependent amount of
            # work and memory; the op list puts them last, so the
            # high-water mark here covers every op that finishes.
            result.peak_rss_mb, rss_taken = peak_rss_mb(), True
        if op.kind == "verify":
            checked = attempt(op, lambda out: check_verify(op, out, op.expect_valid, op.expect_met))
            request(checked)
            if op.expect_met:
                result.planted += 1
                result.planted_met += checked is not None and checked.met
            continue
        checked = attempt(op, lambda out: check_solve(bm, op, out, prep.schedules[op.problem]))
        result.planted += op.planted
        if checked is None:
            request(None)
            continue
        result.planted_met += op.planted and checked.met
        result.words.append(checked.words)
        result.nodes += checked.nodes
        result.backtracks += checked.backtracks
        result.relaxed += not checked.met
        # Verify the report just written, against the verdict checked above;
        # the request is done when the mapping is verified.
        vop = workloads.Op("verify", f"{op.label}-report",
                           ["verify", str(op.problem), str(op.report)], op.instance, op.problem)
        request(attempt(vop, lambda out: check_verify(vop, out, True, checked.met)),
                checked.seconds)
    if not rss_taken:
        result.peak_rss_mb = peak_rss_mb()
    return result


def run_passes(prep: Prepared, seconds: float, tracer=None) -> list:
    """Whole passes over the op list, at least one, while the next one is
    expected to end within `seconds`."""
    passes = []
    start = time.perf_counter()
    while not passes or (time.perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
        passes.append(run_pass(prep, tracer))
        if tracer:
            passes[-1].layers = tracer.take_pass()
    return passes


# -- metrics ---------------------------------------------------------------

def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def latency_quantiles(latencies: list) -> tuple[float, float]:
    """(p50, p90) of request latency. A failed request (None) misses any
    latency limit: it counts as the regular deadline, above every success."""
    values = sorted(workloads.DEADLINE_S if t is None else t for t in latencies)
    deciles = statistics.quantiles(values, n=10)
    return deciles[4], deciles[8]


def per_op_median(passes: list, attr: str) -> list:
    """Each op's (or request's) median over the passes. Outcomes are the
    same in every pass, so a failure is a failure in all of them."""
    columns = zip(*(getattr(p, attr) for p in passes))
    return [None if None in col else statistics.median(col) for col in columns]


def end_to_end(passes: list, setup_s: float) -> dict:
    p50, p90 = latency_quantiles(per_op_median(passes, "latencies"))
    attempted = sum(p.attempted for p in passes)
    planted = sum(p.planted for p in passes)
    words = [w for p in passes for w in p.words]
    return {
        "setup_s": (setup_s, "s"),
        "run_s": (sum(per_op_median(passes, "op_seconds")), "s"),
        "op_s.p50": (p50, "s"),
        "op_s.p90": (p90, "s"),
        "failed_ratio": (sum(p.failed for p in passes) / attempted, "ratio"),
        "barrel_met_ratio": (sum(p.planted_met for p in passes) / planted if planted else 0.0,
                             "ratio"),
        "control_words": (sum(words) / len(words) if words else 0.0, "count"),
        "peak_rss_mb": (passes[0].peak_rss_mb, "MB"),
    }


def per_layer(untraced: list, traced: list, installed: set) -> dict:
    import spans as tr

    layer_runs = [tr.layer_metrics(p.layers, installed) for p in traced]
    out = {}
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        unit = "count" if name.endswith(("_calls", "_gaps")) else "ms"
        out[name] = (statistics.median(values), unit)
    first = traced[0]
    out["solver.nodes"] = (first.nodes, "count")
    out["solver.backtracks"] = (first.backtracks, "count")
    out["solver.useful_node_ratio"] = (
        (first.nodes - first.backtracks) / first.nodes if first.nodes else 0.0, "ratio")
    out["solver.relaxed_ops"] = (first.relaxed, "count")
    traced_run = sum(per_op_median(traced, "op_seconds"))
    plain_run = sum(per_op_median(untraced, "op_seconds"))
    out["trace.run_s"] = (traced_run, "s")
    out["trace.untraced_run_s"] = (plain_run, "s")
    out["trace.overhead_s"] = (traced_run - plain_run, "s")
    return out


# -- main ------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / f"{args.workload}-seed{args.seed}"
    signal.signal(signal.SIGALRM, _alarm)
    try:
        setup_times = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            prep = set_up(args.workload, args.seed, workdir)
            setup_times.append(time.perf_counter() - start)
    except ImportError as exc:
        print(f"error: cannot import bankmap from {SRC}: {exc}", file=sys.stderr)
        return 2
    setup_s = statistics.median(setup_times)
    try:
        if args.trace:
            import spans as tr

            untraced = run_passes(prep, args.seconds * (1 - TRACED_SHARE))
            tracer = tr.Tracer()
            tracer.install()
            traced = run_passes(prep, args.seconds * TRACED_SHARE, tracer)
            passes = untraced + traced
            metrics = per_layer(untraced, traced, tracer.installed)
            tracer.write_jsonl(str(WORK / f"spans-{args.workload}-seed{args.seed}.jsonl"))
        else:
            passes = run_passes(prep, args.seconds)
            metrics = end_to_end(passes, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mismatches = [m for p in passes for m in p.mismatches]
    signatures = {tuple(p.signature) for p in passes}
    if len(signatures) > 1:
        mismatches.append("outcomes differ between passes over the same inputs")
    for line in sorted(set(mismatches)):
        print(f"MISMATCH {line}", file=sys.stderr)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    requests = len(passes[0].latencies)
    print(f"workload {args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} ops, {failed} failed; {requests} requests per pass, "
          f"{len(mismatches)} mismatches")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:.6g} {unit}")
    result = {
        "correct": not mismatches,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
