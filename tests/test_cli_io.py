"""Problem file round trips, result documents, and CLI behavior."""

import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from pblp import (
    Method,
    cli_main,
    decompose,
    extreme_nondominated_bruteforce,
    parse_problem,
    vertices_and_rays,
)
from pblp.breakpoints import enumerate_breakpoints
from pblp.cli_io import (
    COMPUTE_ERROR,
    MISMATCH,
    PARSE_ERROR,
    USAGE_ERROR,
    emit_plot_data,
    emit_problem,
    emit_solution,
    run_check,
)
from pblp.errors import BadCase, DimensionMismatch, ParseError, TooLarge
from conftest import INSTANCE_DIR
from instance_gen import random_pblp
from pblp import Case

F = Fraction

MINIMAL = """\
case: 2
vars: 2
row: >= 1 1 1   # one useful row
c1: 1 0
c2: 0 1
d1: 1 1
"""


def test_parse_reads_comments_senses_and_fractions():
    p = parse_problem(MINIMAL)
    assert p.case is Case.TWO
    assert p.n == 2
    assert p.rows == ((F(1), F(1)),)
    assert p.rhs == (F(1),)
    p = parse_problem(MINIMAL.replace(">= 1 1 1", "<= 1/2 -0.25 3"))
    assert p.rows == ((F(1, 2), F(-1, 4)),)
    assert p.rhs == (F(3),)


def test_problem_text_round_trips_through_emit(example1, example2, example2_case1):
    for p in (example1, example2, example2_case1):
        assert parse_problem(emit_problem(p)) == p
    rng = random.Random(5)
    for trial in range(6):
        case = Case.ONE if trial % 2 == 0 else Case.TWO
        p = random_pblp(rng, case)
        assert parse_problem(emit_problem(p)) == p


@pytest.mark.parametrize(
    "mangle, exc",
    [
        (lambda s: s.replace("case: 2\n", ""), ParseError),
        (lambda s: s.replace("case: 2", "case: 3"), BadCase),
        (lambda s: s.replace("vars: 2", "vars: two"), ParseError),
        (lambda s: s.replace("vars: 2", "vars: 0"), ParseError),
        (lambda s: s + "case: 1\n", ParseError),
        (lambda s: s + "mystery: 1\n", ParseError),
        (lambda s: s.replace("row: >= 1 1 1   # one useful row\n", ""), ParseError),
        (lambda s: s.replace("row: >= 1 1 1", "row: >> 1 1 1"), ParseError),
        (lambda s: s.replace("row: >= 1 1 1", "row: >= 1 1"), DimensionMismatch),
        (lambda s: s.replace("c1: 1 0", "c1: 1 0 0"), DimensionMismatch),
        (lambda s: s.replace("row: >= 1 1 1", "row: >= 1 x 1"), ParseError),
        (lambda s: s.replace("d1: 1 1", "d1: 0 0"), ParseError),
        (lambda s: s.replace("case: 2", "case 2"), ParseError),
    ],
)
def test_parse_rejects_malformed_problems(mangle, exc):
    with pytest.raises(exc):
        parse_problem(mangle(MINIMAL))


def test_solution_document_is_exact_json(example2):
    sol = enumerate_breakpoints(example2, Method.LP)
    doc = json.loads(emit_solution(example2, sol))
    assert doc["case"] == "2"
    assert doc["method"] == "lp"
    assert [e["image"] for e in doc["images"]] == [
        ["0", "5", "5"],
        ["5", "10", "0"],
        ["15", "0", "2"],
    ]
    assert doc["breakpoints"] == ["1", "5"]
    assert doc["intervals"] == [
        {"lower": "0", "upper": "1"},
        {"lower": "1", "upper": "inf"},
        {"lower": "0", "upper": "5"},
    ]
    assert doc["axis"][0] == {
        "lower": "0",
        "upper": "1",
        "lower_closed": True,
        "upper_closed": True,
        "witnesses": [0, 2],
    }
    assert doc["stats"]["interval_lp_solves"] == 2 * len(doc["images"])
    assert doc["stats"]["lp_solves"] > doc["stats"]["interval_lp_solves"]


def test_solution_document_is_byte_identical_across_runs(example2):
    first = emit_solution(example2, enumerate_breakpoints(example2, Method.LP))
    second = emit_solution(example2, enumerate_breakpoints(example2, Method.LP))
    assert first == second


def test_method_choice_changes_only_the_reported_route(example2):
    lp_doc = json.loads(
        emit_solution(example2, enumerate_breakpoints(example2, Method.LP))
    )
    ad_doc = json.loads(
        emit_solution(example2, enumerate_breakpoints(example2, Method.ADAPTED))
    )
    assert lp_doc["method"] == "lp" and ad_doc["method"] == "adapted"
    for key in ("images", "components", "intervals", "breakpoints", "axis"):
        assert lp_doc[key] == ad_doc[key]


def test_plot_data_has_exact_records_and_lossy_comments(example2):
    dec = decompose(example2)
    text = emit_plot_data(dec, example2.case, (F(1), F(5)))
    lines = text.splitlines()
    polygons = [l for l in lines if l.startswith("polygon,")]
    segments = [l for l in lines if l.startswith("segment,")]
    assert len(polygons) == 3
    assert polygons[0].startswith("polygon,0 5 5,1/5,3/10,")
    assert segments == [
        "segment,1,0,1/2,1/2,0",
        "segment,5,0,1/6,1/6,0",
    ]
    approx = [l for l in lines if l.startswith("# approx")]
    assert len(approx) == 5
    assert all(l.endswith("(lossy)") for l in approx)


def test_run_check_passes_the_bounded_example(example1, capsys):
    assert run_check(example1) == []


def test_run_check_runs_the_oracle_on_unbounded_sets(example2, example2_case1, capsys):
    for p in (example2, example2_case1):
        found = vertices_and_rays(p.rows, p.rhs, p.senses, p.n)
        assert (len(found.vertices), len(found.rays)) == (3, 3)
        assert run_check(p) == []
        assert capsys.readouterr().err == ""
        assert extreme_nondominated_bruteforce(p) == decompose(p).image_points()


def test_run_check_notes_an_oracle_over_its_budget(monkeypatch, example1, capsys):
    def over_budget(p):
        raise TooLarge("more than 3 rays held at once")

    monkeypatch.setattr("pblp.cli_io.extreme_nondominated_bruteforce", over_budget)
    assert run_check(example1) == []
    assert "note: vertex oracle skipped (more than 3 rays" in capsys.readouterr().err


def test_run_check_decomposes_once(monkeypatch, example1, example2_case1):
    """Both interval routes share one decomposition per check."""
    calls = []

    def counting(p):
        calls.append(p)
        return decompose(p)

    monkeypatch.setattr("pblp.breakpoints.decompose", counting)
    for p in (example1, example2_case1):
        calls.clear()
        assert run_check(p, io.StringIO()) == []
        assert len(calls) == 1


# -- the command line ---------------------------------------------------------


def _instance(name):
    return str(INSTANCE_DIR / name)


def test_cli_solve_writes_json_and_a_timing_line(capsys):
    code = cli_main(["solve", _instance("example2.pblp")])
    out, err = capsys.readouterr()
    assert code == 0
    doc = json.loads(out)
    assert doc["breakpoints"] == ["1", "5"]
    assert "LP solves" in err


def test_cli_quiet_silences_stderr(capsys):
    code = cli_main(["solve", _instance("example2.pblp"), "--quiet"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err == ""


def test_cli_solve_output_is_deterministic(capsys):
    cli_main(["solve", _instance("example1.pblp"), "--quiet"])
    first = capsys.readouterr().out
    cli_main(["solve", _instance("example1.pblp"), "--quiet"])
    second = capsys.readouterr().out
    assert first == second


def test_cli_decompose_and_sweep(capsys):
    code = cli_main(["decompose", _instance("example1.pblp"), "--quiet"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(doc["images"]) == 4
    code = cli_main(
        ["sweep", _instance("example2.pblp"), "--lambda-max", "6",
         "--steps", "60", "--quiet"]
    )
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["changes"] == [
        {"from": "1", "to": "11/10"},
        {"from": "49/10", "to": "5"},
    ]


GOLDEN_DIR = INSTANCE_DIR.parent / "tests" / "golden"
GOLDEN_COMMANDS = {
    "solve-lp": ["solve", "--method", "lp"],
    "solve-adapted": ["solve", "--method", "adapted"],
    "decompose": ["decompose"],
    "sweep": ["sweep", "--lambda-max", "6", "--steps", "60"],
    "check": ["check"],
}


@pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
@pytest.mark.parametrize("instance", ["example1", "example2", "example2_case1"])
def test_cli_quiet_stdout_matches_the_golden_file(instance, command, capsys):
    """--quiet stdout of every command on the bundled instances, byte for
    byte (stats.lp_solves included); check --quiet prints nothing."""
    argv = GOLDEN_COMMANDS[command] + [_instance(f"{instance}.pblp"), "--quiet"]
    assert cli_main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out == (GOLDEN_DIR / f"{instance}.{command}.out").read_text()


@pytest.mark.parametrize("command", sorted(GOLDEN_COMMANDS))
def test_cli_stdout_is_the_same_under_python_O(command):
    """python -O strips asserts; the package keeps none, so every
    command's --quiet stdout from python -m pblp must still match its
    golden file, with nothing at all on stderr."""
    src = INSTANCE_DIR.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    argv = GOLDEN_COMMANDS[command] + ["--quiet", _instance("example2.pblp")]
    run = subprocess.run(
        [sys.executable, "-O", "-m", "pblp", *argv],
        env=env, capture_output=True, check=False,
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == b""
    assert run.stdout == (GOLDEN_DIR / f"example2.{command}.out").read_bytes()


def test_cli_plot_out_writes_the_plot_file(tmp_path, capsys):
    target = tmp_path / "plot.txt"
    code = cli_main(
        ["solve", _instance("example2.pblp"), "--plot-out", str(target), "--quiet"]
    )
    capsys.readouterr()
    assert code == 0
    content = target.read_text()
    assert "segment,1,0,1/2,1/2,0" in content
    assert "polygon,0 5 5," in content


@pytest.mark.parametrize("instance", ["example1", "example2", "example2_case1"])
def test_cli_plot_file_matches_the_golden_file(instance, tmp_path, capsys):
    """solve --plot-out (LP route) on the bundled instances, byte for
    byte; stdout stays the solve document's golden file."""
    target = tmp_path / "plot.txt"
    argv = ["solve", "--method", "lp", _instance(f"{instance}.pblp"),
            "--plot-out", str(target), "--quiet"]
    assert cli_main(argv) == 0
    out = capsys.readouterr().out
    assert out == (GOLDEN_DIR / f"{instance}.solve-lp.out").read_text()
    assert target.read_text() == (GOLDEN_DIR / f"{instance}.solve.plot").read_text()


def test_cli_check_passes_on_all_bundled_instances(capsys):
    for name in ("example1.pblp", "example2.pblp", "example2_case1.pblp"):
        assert cli_main(["check", _instance(name), "--quiet"]) == 0
        # the vertex oracle also runs on the unbounded example2 sets
        assert capsys.readouterr().err == "", name


def test_cli_exit_codes_for_bad_input(tmp_path, capsys):
    assert cli_main(["solve", str(tmp_path / "missing.pblp")]) == PARSE_ERROR
    bad = tmp_path / "bad.pblp"
    bad.write_text(MINIMAL.replace("case: 2", "case: 9"))
    assert cli_main(["solve", str(bad)]) == PARSE_ERROR
    capsys.readouterr()
    # a file that is not UTF-8 is unreadable, not a usage error
    binary = tmp_path / "binary.pblp"
    binary.write_bytes(b"\xff\xfe")
    one_byte = tmp_path / "one_byte.pblp"
    one_byte.write_bytes(MINIMAL.replace("d1: 1 1", "d1: 1 \xff1").encode("latin-1"))
    for path in (binary, one_byte):
        assert cli_main(["solve", str(path)]) == PARSE_ERROR, path
        out, err = capsys.readouterr()
        assert out == "" and "can't decode" in err, path
    assert cli_main(["frobnicate", _instance("example1.pblp")]) == USAGE_ERROR
    assert cli_main([]) == USAGE_ERROR
    assert cli_main(["--help"]) == 0
    capsys.readouterr()


def test_cli_turns_bad_option_values_into_clean_errors(tmp_path, capsys):
    inst = _instance("example2.pblp")
    assert cli_main(["sweep", inst, "--lambda-max", "6", "--steps", "0"]) == USAGE_ERROR
    assert cli_main(["sweep", inst, "--lambda-max", "-2", "--steps", "5"]) == USAGE_ERROR
    for bad in ("abc", "1/0"):
        assert cli_main(["sweep", inst, "--lambda-max", bad, "--steps", "3"]) == USAGE_ERROR
        assert capsys.readouterr().out == ""
    # an unwritable plot path fails before any document reaches stdout
    gone = str(tmp_path / "nodir" / "plot.txt")
    for command in ("solve", "decompose"):
        assert cli_main([command, inst, "--plot-out", gone, "--quiet"]) == PARSE_ERROR
        out, err = capsys.readouterr()
        assert out == "", command
        assert "Traceback" not in err
        assert "error:" in err


def test_cli_decompose_checks_the_plot_grid_before_decomposing(tmp_path, capsys):
    inst = _instance("example2.pblp")
    target = tmp_path / "plot.txt"
    for grid in (
        ["--lambda-max", "-1", "--steps", "4"],
        ["--lambda-max", "abc", "--steps", "4"],
        ["--lambda-max", "1/0", "--steps", "4"],
        ["--lambda-max", "6", "--steps", "0"],
        ["--lambda-max", "6", "--steps", "-3"],
        ["--lambda-max", "6"],
        ["--steps", "4"],
    ):
        argv = ["decompose", inst, "--plot-out", str(target), "--quiet"] + grid
        assert cli_main(argv) == USAGE_ERROR, grid
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err, grid
        assert not target.exists(), grid
    argv = ["decompose", inst, "--plot-out", str(target), "--quiet",
            "--lambda-max", "6", "--steps", "4"]
    assert cli_main(argv) == 0
    capsys.readouterr()
    assert target.read_text().count("\nsegment,") == 5


def test_cli_plot_file_keeps_a_lambda_past_the_float_range(tmp_path, capsys):
    """The exact record carries any lambda; only its lossy mirror is
    bounded by the float range, and reads inf there."""
    big = 10**400
    target = tmp_path / "plot.txt"
    argv = ["decompose", _instance("example2.pblp"), "--plot-out", str(target),
            "--quiet", "--lambda-max", str(big), "--steps", "1"]
    assert cli_main(argv) == 0
    capsys.readouterr()
    lines = target.read_text().splitlines()
    record = next(line for line in lines if line.startswith(f"segment,{big},"))
    assert lines[lines.index(record) + 1].startswith("# approx segment inf: ")


def test_cli_reports_computational_failures(tmp_path, capsys):
    # minimizing -x over x >= 1 is unbounded for every weight
    unbounded = tmp_path / "unbounded.pblp"
    unbounded.write_text(
        "case: 1\nvars: 1\nrow: >= 1 1\nc1: -1\nc2: 0\nd1: 1\n"
    )
    assert cli_main(["solve", str(unbounded)]) == COMPUTE_ERROR
    assert "error:" in capsys.readouterr().err


def test_cli_check_reports_mismatches(monkeypatch, capsys):
    """Wire a deliberately wrong oracle in and make sure the check
    command notices and uses its own exit code."""
    monkeypatch.setattr(
        "pblp.cli_io.extreme_nondominated_bruteforce", lambda p: ()
    )
    code = cli_main(["check", _instance("example1.pblp")])
    err = capsys.readouterr().err
    assert code == MISMATCH
    assert "MISMATCH" in err
