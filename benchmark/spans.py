"""Span tracer that wraps bankmap's public functions from the outside.

Each target is patched at the name where bankmap looks it up (for
example `bankmap.cli.verify_mapping`, the global `build_report` calls),
so the program's own code is untouched. A target whose owner or
attribute no longer exists is skipped and its metrics are simply absent.

Spans are recorded only while an operation is open, so checks that run
between operations never show up, and only operations that did not time
out count towards the per-layer totals. Each span knows its parent, so a
layer's self time is its duration minus the time of its child spans.
The hottest per-column calls (`completion_count`, `admissible_banks`)
are counted and timed but not stored one by one: a single search makes
hundreds of thousands of them.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Optional


@dataclass(frozen=True)
class Target:
    owner: str  # "module" or "module:Class"
    attr: str
    span: str  # "<layer>.<name>"
    leaf: bool = False  # aggregate only, no stored span
    count: Optional[Callable] = None  # result -> int added to counts[span]


def _greedy_gaps(result) -> int:
    return sum(1 for bank in result if bank is None)


TARGETS = (
    Target("bankmap.cli", "validate_permutation", "schedule.validate"),
    Target("bankmap.schedule:SchedulePair", "from_problem", "schedule.build"),
    Target("bankmap.cli", "solve", "solver.solve"),
    Target("bankmap.solver", "select_target_column", "solver.select"),
    Target("bankmap.solver", "completion_count", "solver.completion", leaf=True),
    Target("bankmap.solver", "candidate_assignments", "solver.candidates"),
    Target("bankmap.solver", "assign_column", "solver.assign"),
    Target("bankmap.solver", "retract_column", "solver.retract"),
    Target("bankmap.solver", "admissible_banks", "network.admissible", leaf=True),
    Target("bankmap.solver", "objective_compatible", "network.objective_check"),
    Target("bankmap.verify", "objective_compatible", "network.objective_check"),
    Target("bankmap.network", "objective_compatible", "network.objective_check"),
    Target("bankmap.cli", "derive_controls", "network.controls"),
    Target("bankmap.cli", "build_tiles", "baseline.tiles"),
    Target("bankmap.cli", "greedy_fill", "baseline.greedy", count=_greedy_gaps),
    Target("bankmap.cli", "repair_complete", "baseline.repair"),
    Target("bankmap.cli", "verify_mapping", "verify.verify"),
    Target("bankmap.cli", "_load_json", "cli.parse"),
    Target("bankmap.cli", "parse_problem", "cli.parse"),
    Target("bankmap.cli", "parse_mapping", "cli.parse"),
    Target("bankmap.cli", "build_report", "cli.report"),
    # bankmap.cli encodes its reports with json.dumps; nothing else in the
    # package calls it while an operation is open.
    Target("json", "dumps", "cli.json"),
)

LAYERS = ("schedule", "solver", "network", "baseline", "verify", "cli")


@dataclass
class PassTotals:
    """Per-span totals of one pass over the operation list."""

    calls: dict = field(default_factory=lambda: defaultdict(int))
    total_s: dict = field(default_factory=lambda: defaultdict(float))
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    counts: dict = field(default_factory=lambda: defaultdict(int))

    def add(self, other: "PassTotals") -> None:
        for mine, theirs in ((self.calls, other.calls), (self.total_s, other.total_s),
                             (self.self_s, other.self_s), (self.counts, other.counts)):
            for key, value in theirs.items():
                mine[key] += value


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []  # (id, parent, op, name, start, end)
        self.installed: set[str] = set()
        self.totals = PassTotals()
        self._op_totals = PassTotals()
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._op: Optional[int] = None
        self._next_id = 0

    # -- installation -------------------------------------------------
    def install(self, targets=TARGETS) -> None:
        for target in targets:
            owner = _resolve(target.owner)
            if owner is None or not hasattr(owner, target.attr):
                continue
            raw = _raw_attr(owner, target.attr)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, target))
            elif callable(raw):
                wrapped = self._wrap(raw, target)
            else:
                continue
            setattr(owner, target.attr, wrapped)
            self.installed.add(target.span)

    def _wrap(self, func: Callable, target: Target) -> Callable:
        tracer = self
        name, leaf, count = target.span, target.leaf, target.count

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if tracer._op is None:
                return func(*args, **kwargs)
            frame = tracer._enter(name, leaf)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._exit(frame, leaf)
            if count is not None:
                tracer._op_totals.counts[name] += count(result)
            return result

        return traced

    # -- span bookkeeping ---------------------------------------------
    def _enter(self, name: str, leaf: bool) -> list:
        span_id = -1
        if not leaf:
            span_id = self._next_id
            self._next_id += 1
        frame = [span_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list, leaf: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        totals = self._op_totals
        totals.calls[name] += 1
        totals.total_s[name] += duration
        totals.self_s[name] += duration - child
        parent = -1
        if self._stack:
            self._stack[-1][3] += duration
            parent = self._stack[-1][0]
        if not leaf:
            self.spans.append((span_id, parent, self._op, name, start, end))

    def begin_op(self, name: str) -> list:
        """Open an operation; its span id is the op id of every span in it."""
        self._op_totals = PassTotals()
        frame = self._enter(name, leaf=False)
        self._op = frame[0]
        return frame

    def end_op(self, frame: list, completed: bool) -> None:
        """Close an operation. Only completed operations add to the pass
        totals: how far a timed-out one got depends on the machine, so its
        counts would not repeat."""
        # A deadline alarm can land between a wrapper's _enter and its try
        # block; drop any frame it left above the operation's own.
        while self._stack and self._stack[-1] is not frame:
            self._stack.pop()
        self._exit(frame, leaf=False)
        self._stack.clear()
        self._op = None
        if completed:
            self.totals.add(self._op_totals)

    def take_pass(self) -> PassTotals:
        totals, self.totals = self.totals, PassTotals()
        return totals

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span_id, parent, op, name, start, end in self.spans:
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op, "name": name,
                    "start": start, "end": end,
                }) + "\n")


def _resolve(owner: str):
    module_name, _, attr_path = owner.partition(":")
    try:
        obj = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in filter(None, attr_path.split(".")):
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def _raw_attr(owner, attr: str):
    if isinstance(owner, type):
        for klass in owner.__mro__:
            if attr in klass.__dict__:
                return klass.__dict__[attr]
    return getattr(owner, attr)


def layer_metrics(totals: PassTotals, installed: set) -> dict:
    """The per-layer metrics of one traced pass, in the units BENCHMARK.json
    declares. Metrics whose wrapped function no longer exists are absent."""
    ms = 1000.0
    out: dict = {}

    def put(metric: str, span: str, value) -> None:
        if span in installed:
            out[metric] = value

    for span, metric in (
        ("schedule.validate", "schedule.validate_ms"),
        ("schedule.build", "schedule.build_ms"),
        ("solver.select", "solver.select_ms"),
        ("solver.candidates", "solver.candidates_ms"),
        ("solver.assign", "solver.assign_ms"),
        ("solver.retract", "solver.retract_ms"),
        ("network.admissible", "network.admissible_ms"),
        ("network.objective_check", "network.objective_check_ms"),
        ("network.controls", "network.controls_ms"),
        ("baseline.tiles", "baseline.tiles_ms"),
        ("baseline.greedy", "baseline.greedy_ms"),
        ("baseline.repair", "baseline.repair_ms"),
        ("verify.verify", "verify.verify_ms"),
        ("cli.parse", "cli.parse_ms"),
        ("cli.json", "cli.json_ms"),
    ):
        put(metric, span, totals.total_s[span] * ms)
    put("solver.solve_self_ms", "solver.solve", totals.self_s["solver.solve"] * ms)
    put("cli.report_ms", "cli.report", totals.self_s["cli.report"] * ms)
    put("solver.select_calls", "solver.select", totals.calls["solver.select"])
    put("solver.completion_calls", "solver.completion", totals.calls["solver.completion"])
    put("network.admissible_calls", "network.admissible", totals.calls["network.admissible"])
    put("baseline.greedy_gaps", "baseline.greedy", totals.counts["baseline.greedy"])
    for layer in LAYERS:
        spans = [s for s in installed if s.split(".")[0] == layer]
        if spans:
            out[f"{layer}.self_ms"] = sum(totals.self_s[s] for s in spans) * ms
    return out
