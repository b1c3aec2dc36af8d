import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

import bankmap.cli as cli
from bankmap import (
    FillRule,
    IncompleteMapping,
    InputFormatError,
    LayoutConventions,
    NetworkObjective,
    ProblemSpec,
    SchedulePair,
    validate_permutation,
)
from bankmap.cli import main
from conftest import CROSSBAR_ONLY_MAPPING, DEMO_PERMUTATION, FIXTURE_DIR, KNOWN_MAPPING
from helpers import (
    LTE_QPP_6144,
    canonical_digest,
    damaged_ids,
    outcome_of,
    run_capped,
    solver_report,
)


def write_json(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def demo_file(tmp_path):
    return write_json(
        tmp_path / "problem.json",
        {
            "permutation": list(DEMO_PERMUTATION),
            "parallelism": 3,
            "objective": "barrel-shifter",
        },
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_demo_report(demo_file, capsys):
    code, out, _ = run(capsys, "solve", demo_file)
    assert code == 0
    report = json.loads(out)
    assert report["solver"] == "backtracking"
    assert report["status"] == "solved"
    assert report["objective_met"] is True
    assert report["banks"] == [[0, 1, 6, 3], [4, 5, 10, 7], [8, 9, 2, 11]]
    assert report["matrices"]["natural"] == ["A A C A", "B B A B", "C C B C"]
    assert report["matrices"]["interleaved"] == ["A B C A", "C A B C", "B C A B"]
    controls = report["controls"]
    assert controls["kind"] == "barrel-shifter"
    assert controls["natural"] == {"words": [0, 0, 1, 0], "distinct_word_count": 2}
    assert controls["interleaved"]["words"] == [0, 1, 2, 0]
    assert report["verification"]["valid"] is True


def test_report_json_round_trips(demo_file, capsys):
    code, out, _ = run(capsys, "solve", demo_file)
    assert code == 0
    report = json.loads(out)
    assert json.loads(json.dumps(report)) == report


def test_solve_report_feeds_verify(demo_file, tmp_path, capsys):
    code, out, _ = run(capsys, "solve", demo_file)
    assert code == 0
    mapping_file = tmp_path / "report.json"
    mapping_file.write_text(out)
    code, out, _ = run(capsys, "verify", demo_file, str(mapping_file))
    assert code == 0
    assert json.loads(out)["valid"] is True


def one_json_line(out):
    lines = out.splitlines()
    assert len(lines) == 1 and out == lines[0] + "\n"
    return json.loads(lines[0])


@pytest.mark.parametrize("solver, seed", [("backtracking", None), ("baseline", 3)])
def test_solve_prints_report_as_one_json_line(demo_file, demo_problem, capsys, solver, seed):
    argv = ["--solver", solver] + (["--seed", str(seed)] if seed is not None else [])
    _, out, _ = run(capsys, "solve", demo_file, *argv)
    _, expected = solver_report(demo_problem, NetworkObjective.BARREL_SHIFTER, solver, seed)
    assert one_json_line(out) == expected


def test_verify_and_compare_print_one_json_line(demo_file, tmp_path, capsys):
    _, out, _ = run(capsys, "solve", demo_file)
    mapping_file = tmp_path / "report.json"
    mapping_file.write_text(out)
    _, out, _ = run(capsys, "verify", demo_file, str(mapping_file))
    assert one_json_line(out)["valid"] is True
    _, out, _ = run(capsys, "compare", demo_file, "--seed-range", "0:2")
    assert len(one_json_line(out)["reports"]) == 4


def test_solve_trace_and_pretty(demo_file, capsys):
    code, _, err = run(capsys, "solve", demo_file, "--trace", "--pretty")
    assert code == 0
    assert "select interleaved column 3" in err
    assert " 0  1  2  3" in err  # natural data matrix rendering
    assert "A A C A" in err


def bank_grid_lines(err):
    """The '<order> bank mapping:' blocks of a --pretty view, headings included."""
    lines, keep = [], False
    for line in err.splitlines():
        if line.endswith(" bank mapping:"):
            keep = True
        elif ":" in line:
            keep = False
        if keep:
            lines.append(line)
    return lines


def test_verify_and_compare_pretty(demo_file, tmp_path, capsys):
    _, out, _ = run(capsys, "solve", demo_file)
    mapping_file = tmp_path / "report.json"
    mapping_file.write_text(out)
    code, _, err = run(capsys, "verify", demo_file, str(mapping_file), "--pretty")
    assert code == 0
    assert bank_grid_lines(err) == [
        "natural bank mapping:", "A A C A", "B B A B", "C C B C",
        "interleaved bank mapping:", "A B C A", "C A B C", "B C A B",
    ]
    assert err.splitlines()[-1] == "valid: True  conflicts: 0"
    code, _, err = run(capsys, "compare", demo_file, "--seed-range", "0:1", "--pretty")
    assert code == 0
    assert err.splitlines() == [
        "backtracking: status=solved valid=True objective_met=True",
        "baseline seed=0: status=solved valid=True objective_met=False",
        "baseline seed=1: status=solved valid=True objective_met=False",
    ]


def test_solve_and_verify_pretty_print_one_grid_above_26_banks(tmp_path, capsys):
    # banks 26 and up are lettered B26, B27, ...; both views join them by one space
    problem = write_json(
        tmp_path / "x30.json", {"permutation": list(range(59, -1, -1)), "parallelism": 30}
    )
    _, out, solve_err = run(capsys, "solve", problem, "--solver", "baseline", "--pretty")
    report = json.loads(out)
    mapping_file = tmp_path / "report.json"
    mapping_file.write_text(out)
    code, _, verify_err = run(capsys, "verify", problem, str(mapping_file), "--pretty")
    assert code == 0
    grid = bank_grid_lines(solve_err)
    assert grid == bank_grid_lines(verify_err)
    assert grid == [
        line
        for order in ("natural", "interleaved")
        for line in [f"{order} bank mapping:"] + report["matrices"][order]
    ]
    assert any("B29" in line for line in grid)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "PROBLEM", "--solver", "nope"],
        ["solve", "PROBLEM", "--max-nodes", "x"],
        ["compare", "PROBLEM", "--seed-range", "3:1"],
        [],
    ],
)
def test_usage_errors_exit_one(demo_file, capsys, argv):
    # exit 2 would read as "solved with the objective relaxed"
    with pytest.raises(SystemExit) as exit_:
        main([demo_file if arg == "PROBLEM" else arg for arg in argv])
    assert exit_.value.code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage: bankmap")


def test_version_exits_zero(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["--version"])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("bankmap ")


def test_solve_non_divisor_is_input_error(tmp_path, capsys):
    problem = write_json(
        tmp_path / "bad.json", {"permutation": list(DEMO_PERMUTATION), "parallelism": 5}
    )
    code, _, err = run(capsys, "solve", problem)
    assert code == 1
    assert "parallelism 5 does not divide" in err


def test_solve_unknown_key_rejected(tmp_path, capsys):
    problem = write_json(
        tmp_path / "bad.json",
        {"permutation": [0, 1], "parallelism": 1, "extra": True},
    )
    code, _, err = run(capsys, "solve", problem)
    assert code == 1
    assert "extra" in err


def test_solve_bad_objective_named(tmp_path, capsys):
    problem = write_json(
        tmp_path / "bad.json",
        {"permutation": [0, 1], "parallelism": 1, "objective": "benes"},
    )
    code, _, err = run(capsys, "solve", problem)
    assert code == 1
    assert "objective" in err


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"permutation": [5, "a"], "parallelism": "2"}, "permutation: must be a list of integers"),
        ({"permutation": [0, 0], "parallelism": "2"}, "parallelism: must be an integer"),
        ({"permutation": [], "parallelism": 1, "conventions": []}, "conventions: keys must be"),
        ({"permutation": [0, 0], "parallelism": 1, "objective": "benes"}, "objective: expected"),
        ({"permutation": [0, 0], "parallelism": 1}, "problem: permutation entry 0 appears"),
        ({"permutation": [2, 0], "parallelism": 1}, "problem: permutation entry 2 is outside"),
    ],
)
def test_problem_errors_keep_field_order(doc, message):
    # a non-integer entry is named before the other fields; any other
    # permutation defect is reported after them, as a problem error
    with pytest.raises(InputFormatError) as err:
        cli.parse_problem(doc)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "doc, field",
    [
        ({"permutation": [True, False], "parallelism": True}, "permutation"),
        ({"permutation": [1, 0], "parallelism": True}, "parallelism"),
    ],
)
def test_solve_json_booleans_rejected(tmp_path, capsys, doc, field):
    # true/false are ints to Python; they must not pass for data ids or X
    problem = write_json(tmp_path / "bools.json", doc)
    code, out, err = run(capsys, "solve", problem)
    assert code == 1
    assert out == ""
    assert f"error: {field}: must be" in err


def test_verify_boolean_data_id_rejected(demo_file, tmp_path, capsys):
    banks = [[True, 0, 6, 3], [4, 5, 10, 7], [8, 9, 2, 11]]
    mapping = write_json(tmp_path / "bools.json", {"banks": banks})
    code, _, err = run(capsys, "verify", demo_file, mapping)
    assert code == 1
    assert "error: banks: data id True" in err


def test_solve_conventions_accepted(tmp_path, capsys):
    problem = write_json(
        tmp_path / "conv.json",
        {
            "permutation": [3, 1, 0, 2],
            "parallelism": 2,
            "conventions": {
                "natural_fill": "column-major-sequence",
                "interleaved_fill": "column-major-sequence",
            },
        },
    )
    code, out, _ = run(capsys, "solve", problem)
    assert code == 0
    assert json.loads(out)["problem"]["conventions"]["natural_fill"] == "column-major-sequence"


def test_strict_objective_infeasible_exit(pinned, tmp_path, capsys):
    doc = pinned["barrel_infeasible"]
    problem = write_json(
        tmp_path / "hard.json",
        {
            "permutation": doc["permutation"],
            "parallelism": doc["parallelism"],
            "objective": "barrel-shifter",
        },
    )
    code, out, _ = run(capsys, "solve", problem, "--strict-objective")
    assert code == 3
    assert json.loads(out)["status"] == "infeasible"
    # without the flag the solver degrades instead of failing
    code, out, _ = run(capsys, "solve", problem)
    assert code == 2
    report = json.loads(out)
    assert report["status"] == "solved" and report["objective_met"] is False
    assert report["controls"]["kind"] == "crossbar"


def test_max_nodes_budget_exit(demo_file, capsys):
    code, out, _ = run(capsys, "solve", demo_file, "--max-nodes", "2")
    assert code == 3
    assert json.loads(out)["status"] == "budget-exhausted"


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_max_nodes_below_one_is_input_error(demo_file, capsys, budget):
    code, out, err = run(capsys, "solve", demo_file, "--max-nodes", budget)
    assert code == 1
    assert out == ""
    assert "--max-nodes: must be at least 1" in err


def test_solver_baseline_flag(demo_file, capsys):
    code, out, _ = run(capsys, "solve", demo_file, "--solver", "baseline", "--seed", "1")
    assert code == 2  # valid mapping, barrel objective typically unmet
    report = json.loads(out)
    assert report["solver"] == "baseline"
    assert report["seed"] == 1
    assert report["verification"]["valid"] is True


def test_solver_oracle_flag(demo_file, capsys):
    code, out, _ = run(capsys, "solve", demo_file, "--solver", "oracle")
    assert code == 0
    report = json.loads(out)
    assert report["solver"] == "oracle"
    assert report["banks"] == [[0, 1, 6, 3], [4, 5, 10, 7], [8, 9, 2, 11]]


def test_verify_conflicting_mapping_exit(demo_file, tmp_path, capsys):
    mapping = write_json(tmp_path / "onebank.json", {"banks": [list(range(12)), [], []]})
    code, out, _ = run(capsys, "verify", demo_file, mapping)
    assert code == 4
    assert json.loads(out)["valid"] is False
    assert json.loads(out)["conflicts"]


def test_verify_missing_datum_is_input_error(demo_file, tmp_path, capsys):
    banks = [[d for d in bank if d != 11] for bank in ([0, 1, 6, 3], [4, 5, 10, 7], [8, 9, 2, 11])]
    mapping = write_json(tmp_path / "partial.json", {"banks": banks})
    code, _, err = run(capsys, "verify", demo_file, mapping)
    assert code == 1
    assert "11" in err


def test_verify_known_mapping_files(demo_file, tmp_path, capsys):
    banks = [[], [], []]
    for datum, bank in enumerate(KNOWN_MAPPING):
        banks[bank].append(datum)
    mapping = write_json(tmp_path / "good.json", {"banks": banks})
    code, out, _ = run(capsys, "verify", demo_file, mapping)
    assert code == 0
    assert json.loads(out)["objective_met"]["barrel-shifter"] is True

    banks = [[], [], []]
    for datum, bank in enumerate(CROSSBAR_ONLY_MAPPING):
        banks[bank].append(datum)
    mapping = write_json(tmp_path / "agnostic.json", {"banks": banks})
    code, out, _ = run(capsys, "verify", demo_file, mapping)
    assert code == 0
    assert json.loads(out)["objective_met"]["barrel-shifter"] is False


def test_compare_demo(demo_file, capsys):
    code, out, _ = run(capsys, "compare", demo_file)
    assert code == 0
    summary = json.loads(out)["summary"]
    by_solver = {run_["solver"]: run_ for run_ in summary["runs"]}
    assert by_solver["backtracking"]["objective_met"] is True
    assert by_solver["baseline"]["valid"] is True


def test_compare_seed_range(demo_file, capsys):
    code, out, _ = run(capsys, "compare", demo_file, "--seed-range", "0:3")
    assert code == 0
    runs = json.loads(out)["summary"]["runs"]
    assert [r["seed"] for r in runs if r["solver"] == "baseline"] == [0, 1, 2, 3]
    assert all(r["valid"] for r in runs)


@pytest.mark.parametrize("span", ["0:1000", "5:1000000000000"])
def test_compare_seed_range_above_bound_is_input_error(demo_file, capsys, span):
    code, out, err = run(capsys, "compare", demo_file, "--seed-range", span)
    assert code == 1
    assert out == ""
    assert "--seed-range: spans" in err and "at most 1000" in err


def test_compare_seed_range_at_bound_is_accepted(demo_file, capsys, monkeypatch):
    # record the seeds the baseline runs with; each run reuses seed 0's work
    real = cli.repair_complete
    calls = []

    def repair(gaps, tiles, seed):
        calls.append(seed)
        return real(gaps, tiles, 0)

    monkeypatch.setattr(cli, "repair_complete", repair)
    code, _, _ = run(capsys, "compare", demo_file, "--seed-range", "1:1000")
    assert code == 0
    assert calls == list(range(1, 1001))


@pytest.mark.parametrize("argv", [["--seed", "3", "--seed-range", "0:1"],
                                  ["--seed", "0", "--seed-range", "0:1"],
                                  ["--seed-range", "0:1", "--seed", "0"]])
def test_compare_seed_with_seed_range_is_usage_error(demo_file, capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main(["compare", demo_file] + argv)
    assert exit_.value.code == 1
    assert "not allowed with argument" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, seeds", [([], [0]), (["--seed", "5"], [5]), (["--seed-range", "1:3"], [1, 2, 3])]
)
def test_compare_reports_are_solve_reports(demo_file, capsys, argv, seeds):
    _, out, _ = run(capsys, "compare", demo_file, *argv)
    reports = json.loads(out)["reports"]
    assert [(r["solver"], r.get("seed")) for r in reports] == (
        [("backtracking", None)] + [("baseline", seed) for seed in seeds]
    )
    for report in reports:
        seed = ["--seed", str(report["seed"])] if "seed" in report else []
        _, out, _ = run(capsys, "solve", demo_file, "--solver", report["solver"], *seed)
        assert one_json_line(out) == report


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_compare_max_nodes_below_one_is_input_error(demo_file, capsys, budget):
    code, out, err = run(capsys, "compare", demo_file, "--max-nodes", budget)
    assert code == 1
    assert out == ""
    assert "--max-nodes: must be at least 1" in err


def test_compare_max_nodes_reaches_the_baseline_at_x64_block_size(tmp_path):
    # Without a budget the backtracking run at L=6144, X=64 never hands
    # over to the baseline seeds; with one it stops after its first node.
    problem = write_json(
        tmp_path / "qpp.json", {"permutation": LTE_QPP_6144, "parallelism": 64}
    )
    code = "import sys\nfrom bankmap.cli import main\nsys.exit(main(sys.argv[1:]))\n"
    run = run_capped(code, "compare", problem, "--max-nodes", "1", "--seed-range", "0:1")
    assert run.returncode == 3, run.stderr[-2000:]
    doc = json.loads(run.stdout)
    assert doc["reports"][0]["stats"]["nodes"] == 1
    assert [(r["solver"], r["seed"], r["status"], r["valid"]) for r in doc["summary"]["runs"]] == [
        ("backtracking", None, "budget-exhausted", False),
        ("baseline", 0, "solved", True),
        ("baseline", 1, "solved", True),
    ]


def test_compare_single_pe_agrees(tmp_path, capsys):
    problem = write_json(tmp_path / "tiny.json", {"permutation": [1, 0, 2], "parallelism": 1})
    code, out, _ = run(capsys, "compare", problem)
    assert code == 0
    assert all(r["objective_met"] for r in json.loads(out)["summary"]["runs"])


def test_golden_reports_reproduce():
    # digests of the mapping and of the whole solve report (bank contents,
    # controls, matrices, verification), recorded by scripts/regen_fixtures.py
    golden = json.loads((FIXTURE_DIR / "golden_reports.json").read_text())
    for entry in golden:
        conventions = LayoutConventions(interleaved_fill=FillRule(entry["interleaved_fill"]))
        spec = ProblemSpec(
            validate_permutation(entry["permutation"]), entry["parallelism"], conventions
        )
        mapping, report = solver_report(
            spec, NetworkObjective(entry["objective"]), entry["solver"],
            entry["seed"], entry["max_nodes"],
        )
        where = (entry["solver"], len(entry["permutation"]), entry["parallelism"])
        assert report["status"] == entry["status"], where
        assert canonical_digest(mapping) == entry["mapping_digest"], where
        assert canonical_digest(report) == entry["report_digest"], where


def test_import_leaves_out_dataclasses_inspect_and_hashlib():
    # the modules bankmap.cli itself pulls in, whatever the site set-up loads
    code = (
        "import sys; before = set(sys.modules); import bankmap.cli; "
        "print(sorted({'dataclasses', 'inspect', 'hashlib'} & (set(sys.modules) - before)))"
    )
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"



def test_import_builds_no_parser():
    code = "import bankmap.cli; print(bankmap.cli.build_parser.cache_info().currsize)"
    src = str(pathlib.Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "0"


def test_main_builds_the_parser_once_per_process(demo_file, capsys, monkeypatch):
    built = []
    init = cli._Parser.__init__

    def counting_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        built.append(self.prog)

    monkeypatch.setattr(cli._Parser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    for argv in (["solve", demo_file], ["compare", demo_file], ["solve", demo_file, "--trace"]):
        main(argv)
    capsys.readouterr()
    # one top-level parser and its three subcommand parsers, once
    assert built == ["bankmap", "bankmap solve", "bankmap verify", "bankmap compare"]


def call(capsys, argv):
    """(exit code, stdout, stderr) of one main call, usage exits included."""
    try:
        code = main(argv)
    except SystemExit as exit_:
        code = exit_.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("reverse", [False, True])
def test_shared_parser_leaks_nothing_between_calls(demo_file, tmp_path, capsys, reverse):
    report = tmp_path / "report.json"
    report.write_text(call(capsys, ["solve", demo_file])[1])
    calls = [
        ["solve", demo_file, "--pretty"],
        ["solve", demo_file, "--trace"],
        ["verify", demo_file, str(report)],
        ["compare", demo_file, "--seed", "3"],
        ["compare", demo_file, "--seed-range", "0:2"],
        ["solve", demo_file, "--solver", "nope"],
        ["--version"],
    ]
    if reverse:
        calls.reverse()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(call(capsys, argv))
    cli.build_parser.cache_clear()
    shared = [call(capsys, argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [1 if "nope" in argv else 0 for argv in calls]


@pytest.mark.parametrize("kind", ["problem", "mapping"])
@pytest.mark.parametrize(
    "content",
    [
        b'\xff{"permutation": [0], "parallelism": 1}',
        b'{"banks": [[0]], "note": "\x80"}',
        b"[" * 100_000 + b"]" * 100_000,
    ],
    ids=["leading-0xff", "byte-0x80", "nested-100000"],
)
def test_unreadable_json_is_input_error(demo_file, tmp_path, capsys, kind, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    with pytest.raises(InputFormatError) as err:
        cli._load_json(str(bad), kind)
    assert err.value.field == kind
    argv = ["solve", str(bad)] if kind == "problem" else ["verify", demo_file, str(bad)]
    code, out, err_text = call(capsys, argv)
    assert code == 1
    assert out == ""
    assert err_text.startswith(f"error: {kind}: ")
    assert "Traceback" not in err_text


def test_json_in_utf16_is_read(demo_file, tmp_path, capsys):
    problem = tmp_path / "utf16.json"
    problem.write_bytes(pathlib.Path(demo_file).read_text().encode("utf-16"))
    assert call(capsys, ["solve", str(problem)]) == call(capsys, ["solve", demo_file])


def reference_parse_ids(banks, size):
    # the id-by-id loop parse_mapping ran before its C-level pre-check; it
    # decides which id an error names
    bank_of = [None] * size
    for b, group in enumerate(banks):
        for datum in group:
            if not (isinstance(datum, int) and not isinstance(datum, bool)) \
                    or not 0 <= datum < size:
                raise InputFormatError("banks", f"data id {datum!r} out of range")
            if bank_of[datum] is not None:
                raise InputFormatError("banks", f"data id {datum} listed twice")
            bank_of[datum] = b
    missing = [d for d in range(size) if bank_of[d] is None]
    if missing:
        raise IncompleteMapping(missing)
    return tuple(bank_of)


@given(st.integers(1, 6), st.integers(1, 5), st.data())
def test_parse_mapping_names_the_id_the_loop_names(x, cycles, data):
    size = x * cycles
    spec = ProblemSpec(validate_permutation(range(size)), x)
    schedules = SchedulePair.from_problem(spec)
    ids = data.draw(damaged_ids(size))
    if data.draw(st.booleans()):
        del ids[data.draw(st.integers(0, size - 1))]  # one id short
    cuts = sorted(data.draw(st.lists(st.integers(0, len(ids)), min_size=x - 1, max_size=x - 1)))
    banks = [ids[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(ids)])]
    expected = outcome_of(reference_parse_ids, banks, size)
    assert outcome_of(cli.parse_mapping, {"banks": banks}, schedules) == expected
