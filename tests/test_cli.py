"""Command-line surface: outputs, formats, exit codes, determinism."""

import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import grasshilb
from grasshilb import cli, delpezzo, hilbert, polyring, semigroup
from grasshilb.cli import main
from grasshilb.polyring import from_json_dict, to_json_dict
from grasshilb.hilbert import (numerator_symmetric_recursion,
                               series_by_recursion, series_from_numerator)

from helpers import first_difference


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_numerator_text(capsys):
    code, out, err = run_cli(capsys, "numerator", "--n", "4", "--method", "ie")
    assert code == 0
    assert out == "1 - z1*z2*z3*z4\n"
    assert err == ""


def test_numerator_sym_matches_ie(capsys):
    _, out_ie, _ = run_cli(capsys, "numerator", "--n", "5", "--method", "ie")
    _, out_sym, _ = run_cli(capsys, "numerator", "--n", "5", "--method", "sym")
    assert out_ie == out_sym


def test_numerator_sym_at_n7(capsys):
    code, out, _ = run_cli(capsys, "numerator", "--n", "7", "--method", "sym",
                           "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0b422fc7122f2ffb3e5de44a7e7bbe6bafb207da759af5e2802feb6180ec075b")
    assert series_from_numerator(numerator_symmetric_recursion(7), 10) == \
        series_by_recursion(7, 10)


def test_numerator_sym_at_n8(capsys):
    # F_8 (45,318 terms) byte for byte, as the test above pins F_7
    code, out, _ = run_cli(capsys, "numerator", "--n", "8", "--method", "sym",
                           "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3874b4839a0113ef5428f111f8e4ceb0f380f591b5b9f3d7ed59fb52b584504f")


def test_numerator_sym_text_at_n8(capsys):
    # F_8 as text, the writer's bytes at scale
    code, out, _ = run_cli(capsys, "numerator", "--n", "8", "--method", "sym")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "8c327f8f9065854d96965b7f45b4d88867795de5d1e93432a82bac88f27353b5")


def test_series_json_in_three_variables(capsys):
    # W_3 through degree 80 (12,341 terms): groups of one and two slots
    code, out, _ = run_cli(capsys, "series", "--n", "3", "--max-degree", "80",
                           "--format", "json")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "2c0e30b5c4a0a8e2531918b1d0eb754e304e5c17f8a95a06c4aa298d91b1dcc4")


def test_numerator_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "numerator", "--n", "4", "--method", "ie",
                           "--format", "json")
    assert code == 0
    poly = from_json_dict(json.loads(out))
    assert poly.coefficient((1, 1, 1, 1)) == -1


def test_numerator_tree_flag(capsys):
    code, out, _ = run_cli(capsys, "numerator", "--n", "4", "--method", "ie",
                           "--tree", "((*,*),(*,*))")
    assert code == 0
    assert out == "1 - z1*z2*z3*z4\n"
    code, _, err = run_cli(capsys, "numerator", "--n", "4", "--method", "sym",
                           "--tree", "((*,*),(*,*))")
    assert code == 2
    assert "--tree" in err
    code, _, err = run_cli(capsys, "numerator", "--n", "5", "--method", "ie",
                           "--tree", "((*,*),(*,*))")
    assert code == 2


def test_numerator_capacity_exit_code(capsys):
    code, out, err = run_cli(capsys, "numerator", "--n", "8", "--method", "ie")
    assert code == 3
    assert out == ""
    assert "capacity" in err


def test_internal_error_exit_code(capsys, monkeypatch):
    def broken(n):
        raise AssertionError("self-check failed")

    monkeypatch.setattr(hilbert, "numerator_symmetric_recursion", broken)
    code, out, err = run_cli(capsys, "numerator", "--n", "5", "--method", "sym")
    assert code == 4
    assert out == ""
    assert "internal error" in err
    assert "AssertionError: self-check failed" in err


def test_dim_checks_the_walk_against_the_closed_form(capsys, monkeypatch):
    monkeypatch.setattr(semigroup, "count_gradation", lambda n, lam: 3)
    code, out, err = run_cli(capsys, "dim", "--n", "4", "--grading", "1,1,1,1")
    assert (code, out) == (4, "")
    assert "AssertionError: oracle count 3, closed form 2" in err


def test_dim_text(capsys):
    code, out, _ = run_cli(capsys, "dim", "--n", "4", "--grading", "1,1,1,1",
                           "--method", "oracle")
    assert code == 0
    assert out == "2\n"
    code, out, _ = run_cli(capsys, "dim", "--n", "4", "--grading", "1,1,1,1",
                           "--method", "series")
    assert out == "2\n"


def test_dim_walk_time_follows_the_count(capsys):
    # each count is small, and the walk takes time with the count: these
    # are answered, not left running for hours
    code, out, _ = run_cli(capsys, "dim", "--n", "31", "--grading",
                           ",".join(["30"] + ["1"] * 30))
    assert (code, out) == (0, "1\n")
    code, out, _ = run_cli(capsys, "dim", "--n", "4", "--grading",
                           "10000,10000,10000,10000")
    assert (code, out) == (0, "10001\n")


def test_dim_json(capsys):
    code, out, _ = run_cli(capsys, "dim", "--n", "5", "--grading",
                           "2,1,1,1,1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 5, "grading": [2, 1, 1, 1, 1], "dim": 3}


def test_dim_validation(capsys):
    code, _, err = run_cli(capsys, "dim", "--n", "4", "--grading", "1,1,1")
    assert code == 2
    code, _, err = run_cli(capsys, "dim", "--n", "4", "--grading", "1,1,1,x")
    assert code == 2
    code, _, err = run_cli(capsys, "dim", "--n", "4", "--grading", "1,1,1,-1")
    assert code == 2


def test_series_text(capsys):
    code, out, _ = run_cli(capsys, "series", "--n", "2", "--max-degree", "6")
    assert code == 0
    assert out == "1 + z1*z2 + z1^2*z2^2 + z1^3*z2^3\n"


def test_series_methods_agree(capsys):
    _, by_recursion, _ = run_cli(capsys, "series", "--n", "4",
                                 "--max-degree", "8")
    _, by_numerator, _ = run_cli(capsys, "series", "--n", "4",
                                 "--max-degree", "8", "--method", "numerator")
    assert by_recursion == by_numerator


def test_series_json_round_trips(capsys):
    code, out, _ = run_cli(capsys, "series", "--n", "3", "--max-degree", "6",
                           "--format", "json")
    assert code == 0
    series = from_json_dict(json.loads(out))
    assert series == series_by_recursion(3, 6)


@pytest.mark.parametrize("argv, build", [
    (["series", "--n", "4", "--max-degree", "7"],
     lambda: series_by_recursion(4, 7)),
    (["series", "--n", "4", "--max-degree", "7", "--method", "numerator"],
     lambda: hilbert.series_from_numerator(
         hilbert.numerator_inclusion_exclusion(4), 7)),
    (["numerator", "--n", "5", "--method", "ie"],
     lambda: hilbert.numerator_inclusion_exclusion(5)),
    (["numerator", "--n", "5", "--method", "sym"],
     lambda: hilbert.numerator_symmetric_recursion(5)),
], ids=["series-recursion", "series-numerator", "numerator-ie",
        "numerator-sym"])
def test_polynomial_json_is_json_dumps_text(capsys, argv, build):
    code, out, _ = run_cli(capsys, *argv, "--format", "json")
    assert code == 0
    assert out == json.dumps(to_json_dict(build()), indent=2) + "\n"


def test_series_json_over_several_chunks(capsys):
    series = series_by_recursion(6, 10)
    assert len(series.terms) > polyring._CHUNK
    code, out, _ = run_cli(capsys, "series", "--n", "6", "--max-degree", "10",
                           "--format", "json")
    assert code == 0
    assert first_difference(
        out, json.dumps(to_json_dict(series), indent=2) + "\n") is None


def test_decompose_member(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--tree", "((*,*),(*,*))",
                           "--values", "1,1,1,1,2")
    assert code == 0
    assert out == "{(1,3): 1, (2,4): 1}\n"


def test_decompose_member_json(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--tree", "((*,*),(*,*))",
                           "--values", "1,1,1,1,2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["member"] is True
    assert data["decomposition"]["pairs"] == [
        {"i": 1, "j": 3, "mult": 1}, {"i": 2, "j": 4, "mult": 1}]


def test_decompose_non_member_diagnosis(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--tree", "((*,*),(*,*))",
                           "--values", "1,0,0,0,0")
    assert code == 0
    assert out.startswith("not in semigroup:")
    code, out, _ = run_cli(capsys, "decompose", "--tree", "((*,*),(*,*))",
                           "--values", "1,0,0,0,0", "--format", "json")
    data = json.loads(out)
    assert data["member"] is False
    assert data["reason"]
    # the cherry is named in the tree's own leaf numbers
    code, out, _ = run_cli(capsys, "decompose", "--tree", "((*,*),((*,*),*))",
                           "--values", "0,0,1,1,1,1,0")
    assert code == 0
    assert out == "not in semigroup: cherry (3, 4): x3 + x4 - x_v = 1 is odd\n"


def test_decompose_usage_errors(capsys):
    code, _, err = run_cli(capsys, "decompose", "--tree", "((*,*),(*,*))",
                           "--values", "1,0,0")
    assert code == 2
    assert "5 entries" in err
    code, _, err = run_cli(capsys, "decompose", "--tree", "((*),*)",
                           "--values", "1")
    assert code == 2
    assert "position 3" in err


def test_deep_inputs_are_answered(capsys):
    code, out, _ = run_cli(capsys, "decompose", "--tree",
                           "(*," * 1498 + "(*,*)" + ")" * 1498,
                           "--values", ",".join(["0"] * 2997))
    assert (code, out) == (0, "{}\n")
    big = 10 ** 18
    values = ",".join(str(v) for v in (big, big, big, big, 2 * big))
    code, out, _ = run_cli(capsys, "decompose", "--tree", "((*,*),(*,*))",
                           "--values", values)
    assert (code, out) == (0, "{(1,3): %d, (2,4): %d}\n" % (big, big))
    code, out, _ = run_cli(capsys, "dim", "--n", "1100", "--grading",
                           ",".join(["1"] + ["0"] * 1098 + ["1"]))
    assert (code, out) == (0, "1\n")


def test_relations_text(capsys):
    code, out, _ = run_cli(capsys, "relations", "--tree", "((*,*),(*,*))")
    assert code == 0
    assert out == "(1,2,3,4) W2 t_exponent=2\n"
    code, out, _ = run_cli(capsys, "relations", "--tree", "(*,(*,*))")
    assert code == 0
    assert out == ""


def test_relations_json(capsys):
    code, out, _ = run_cli(capsys, "relations", "--tree", "((*,*),(*,*))",
                           "--format", "json")
    data = json.loads(out)
    assert data["n_leaves"] == 4
    assert data["relations"] == [{"i": 1, "j": 2, "k": 3, "l": 4,
                                  "kind": "W2", "t_exponent": 2}]


def test_verify_cross(capsys):
    code, out, _ = run_cli(capsys, "verify", "cross", "--n", "4",
                           "--max-degree", "8")
    assert code == 0
    assert "result: PASS" in out
    code, out, _ = run_cli(capsys, "verify", "cross", "--n", "4",
                           "--max-degree", "8", "--format", "json")
    data = json.loads(out)
    assert data["n"] == 4
    assert all(c["status"] == "pass" for c in data["checks"])


@pytest.mark.parametrize("argv,digest", [
    (["--n", "7", "--max-degree", "10"],
     "6088a702ada1d75f7fa63320e767a28e88e2f2f85292cd99d34a98409e8115ab"),
    (["--n", "6", "--max-degree", "10", "--format", "json"],
     "0240938f479947a7c996abac4c52ec5f77cc80077a704b689b686e0411c2ceda"),
])
def test_verify_cross_output_pinned(capsys, argv, digest):
    # every check's detail byte for byte: the oracle's 19,448 and 8,008
    # gradings, the coefficient counts and the permutations tried
    code, out, _ = run_cli(capsys, "verify", "cross", *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_cross_skips_a_route_refused_for_capacity(capsys):
    code, out, _ = run_cli(capsys, "verify", "cross", "--n", "8",
                           "--max-degree", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == ("recursion-vs-inclusion-exclusion: skip (capacity: 70 "
                        "excluded configurations exceed the limit 35; use the "
                        "recursion method)")
    statuses = [line.split(": ")[1].split(" ")[0] for line in lines[1:5]]
    assert statuses == ["skip", "pass", "pass", "pass"]
    assert lines[-1] == "result: PASS"


def test_verify_cross_deterministic_across_jobs(capsys):
    _, serial, _ = run_cli(capsys, "verify", "cross", "--n", "4",
                           "--max-degree", "8", "--jobs", "1")
    _, parallel, _ = run_cli(capsys, "verify", "cross", "--n", "4",
                             "--max-degree", "8", "--jobs", "2")
    assert serial == parallel


def test_verify_delpezzo(capsys):
    code, out, _ = run_cli(capsys, "verify", "delpezzo")
    assert code == 0
    assert "family: 220/220 pass" in out
    assert "quadratic fit: pass" in out
    assert "result: PASS" in out


def test_verify_delpezzo_json(capsys):
    code, out, _ = run_cli(capsys, "verify", "delpezzo", "--format", "json")
    data = json.loads(out)
    assert data["total"] == 220
    assert data["passed"] == 220
    assert data["quadratic_fit"]["status"] == "pass"
    assert data["quadratic_fit"]["coefficients"][0] == "1"
    assert len(data["entries"]) == 220


def test_verify_delpezzo_reports_a_refused_fit(capsys, monkeypatch):
    # W_5 with the coefficient at 6,6,4,4,4, the grading of one family
    # divisor, raised by 1: no quadratic form fits, which is a failed
    # check with its reason, not a usage error
    real = hilbert.series_by_recursion

    def corrupted(n, cap):
        terms = dict(real(n, cap).terms)
        terms[(6, 6, 4, 4, 4)] += 1
        return polyring.TruncatedSeries(n, cap, terms)
    monkeypatch.setattr(cli.hilbert, "series_by_recursion", corrupted)
    code, out, err = run_cli(capsys, "verify", "delpezzo")
    assert (code, err) == (1, "")
    assert out.splitlines() == [
        "family: 219/220 pass",
        "  fail at grading 6,6,4,4,4: chi=19 series=20",
        "quadratic fit: fail (series values are inconsistent with a "
        "quadratic form)",
        "result: FAIL"]
    code, out, _ = run_cli(capsys, "verify", "delpezzo", "--format", "json")
    data = json.loads(out)
    assert code == 1
    assert data["passed"] == 219
    assert data["quadratic_fit"] == {
        "status": "fail",
        "detail": "series values are inconsistent with a quadratic form"}


def test_verify_delpezzo_fails_a_fit_that_differs(capsys, monkeypatch):
    expected = delpezzo.riemann_roch_coefficients()
    monkeypatch.setattr(delpezzo, "riemann_roch_coefficients",
                        lambda: (expected[0] + 1,) + expected[1:])
    code, out, _ = run_cli(capsys, "verify", "delpezzo")
    assert code == 1
    assert out.splitlines() == ["family: 220/220 pass",
                                "quadratic fit: fail", "result: FAIL"]
    code, out, _ = run_cli(capsys, "verify", "delpezzo", "--format", "json")
    assert code == 1
    assert json.loads(out)["quadratic_fit"]["status"] == "fail"


@pytest.mark.parametrize("status, code", [("pass", 0), ("skip", 0),
                                          ("fail", 1)])
def test_verify_runner_runs_a_throwaway_suite(capsys, status, code):
    json_calls = []

    def to_json():
        json_calls.append(status)
        return {"status": status}

    def suite(args):
        checks = (hilbert.CheckResult("first", "pass", "one detail"),
                  hilbert.CheckResult("second", status, ""))
        return ["header 1", "header 2"], checks, status != "fail", to_json

    args = argparse.Namespace(format="text", suite=suite)
    assert cli.cmd_verify(args) == code
    assert capsys.readouterr().out.splitlines() == [
        "header 1", "header 2", "first: pass (one detail)",
        "second: " + status, "result: " + ("FAIL" if code else "PASS")]
    assert json_calls == []
    args.format = "json"
    assert cli.cmd_verify(args) == code
    assert json.loads(capsys.readouterr().out) == {"status": status}
    assert json_calls == [status]


def test_every_verify_suite_runs_through_the_runner():
    # a later suite is one more subparser on the one runner, never its
    # own printer
    def subcommands(parser):
        action, = (a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        return action.choices

    suites = subcommands(subcommands(cli.build_parser())["verify"])
    assert sorted(suites) == ["cross", "delpezzo"]
    for name, parser in suites.items():
        assert parser.get_default("func") is cli.cmd_verify, name
        assert callable(parser.get_default("suite")), name


@pytest.mark.parametrize("argv, error", [
    (["series", "--n", "x", "--max-degree", "4"],
     "grasshilb series: error: argument --n: invalid _positive_leaves "
     "value: 'x'"),
    (["series", "--n", "1", "--max-degree", "4"],
     "grasshilb series: error: argument --n: need at least 2 leaves"),
    (["series", "--n", "3", "--max-degree", "-1"],
     "grasshilb series: error: argument --max-degree: degree cap must be "
     ">= 0"),
    (["series", "--n", "3", "--max-degree", "y"],
     "grasshilb series: error: argument --max-degree: invalid _degree_cap "
     "value: 'y'"),
    (["verify", "cross", "--n", "4", "--max-degree", "4", "--jobs", "0"],
     "grasshilb verify cross: error: argument --jobs: --jobs must be >= 1"),
    (["verify", "cross", "--n", "4", "--max-degree", "4", "--jobs", "x"],
     "grasshilb verify cross: error: argument --jobs: invalid _job_count "
     "value: 'x'"),
])
def test_integer_options_name_their_converter(capsys, argv, error):
    with pytest.raises(SystemExit) as info:
        main(argv)
    captured = capsys.readouterr()
    assert (info.value.code, captured.out) == (2, "")
    assert captured.err.startswith("usage: grasshilb ")
    assert captured.err.endswith("\n" + error + "\n")


def test_fixtures(capsys):
    code, out, _ = run_cli(capsys, "fixtures")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# variables are z1..zn (1-indexed)")
    assert "n=4: 1 - z1*z2*z3*z4" in lines
    code, out, _ = run_cli(capsys, "fixtures", "--format", "json")
    data = json.loads(out)
    assert [item["n"] for item in data["numerators"]] == [2, 3, 4, 5]


def test_byte_identical_repeat_runs(capsys):
    args = ["verify", "cross", "--n", "4", "--max-degree", "6",
            "--format", "json"]
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_one_parser_serves_every_call(capsys, monkeypatch):
    # main shares one parser across calls, so no call's options may carry
    # into the next: each call parses and prints what a freshly built
    # parser gives, a usage error in the middle included
    assert cli.build_parser() is cli.build_parser()
    grading = "36,36,0,0,0,0,0,0"  # series: C(80, 8) cells; oracle: 1
    calls = [
        ["series", "--n", "3", "--max-degree", "4", "--method", "numerator",
         "--format", "json"],
        ["series", "--n", "3", "--max-degree", "4"],
        ["dim", "--n", "8", "--grading", grading, "--method", "series"],
        ["dim", "--n", "1", "--grading", "1"],
        ["dim", "--n", "8", "--grading", grading],
        ["verify", "cross", "--n", "4", "--max-degree", "6", "--jobs", "2"],
        ["verify", "cross", "--n", "4", "--max-degree", "6"],
    ]

    def outcomes():
        seen = []
        for argv in calls:
            try:
                code = main(argv)
                parsed = vars(cli.build_parser().parse_args(argv))
            except SystemExit as exc:
                code, parsed = exc.code, None
            captured = capsys.readouterr()
            seen.append((code, captured.out, captured.err, parsed))
        return seen

    shared = outcomes()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert outcomes() == shared
    assert shared[1][:3] == (
        0, polyring.format_terms(series_by_recursion(3, 4)) + "\n", "")
    assert [call[0] for call in shared] == [0, 0, 3, 2, 0, 0, 0]
    assert shared[4][1] == "1\n"
    assert [call[3]["jobs"] for call in shared[5:]] == [2, 1]


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["series", "--n", "4"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["series", "--n", "1", "--max-degree", "4"])
    assert info.value.code == 2
    for jobs in ("0", "-3"):
        with pytest.raises(SystemExit) as info:
            main(["verify", "cross", "--n", "4", "--max-degree", "4",
                  "--jobs", jobs])
        assert info.value.code == 2


@pytest.mark.parametrize("argv, reason", [
    (["dim", "--n", "8", "--grading", "9,9,9,9,9,9,9,9", "--method",
      "series"], "capacity"),
    (["series", "--n", "6", "--max-degree", "60", "--method", "numerator"],
     "capacity"),
    (["series", "--n", "2", "--max-degree", "65536"], "precision"),
    (["numerator", "--n", "10", "--method", "sym"], "capacity"),
    (["numerator", "--n", "200", "--method", "ie", "--tree",
      "(*," * 198 + "(*,*)" + ")" * 198], "capacity"),
    (["relations", "--tree", "(*," * 98 + "(*,*)" + ")" * 98], "capacity"),
    (["dim", "--n", "30", "--grading", ",".join(["1"] * 30)], "capacity"),
    (["dim", "--n", "2", "--grading", "1000000000,1000000000"], "capacity"),
    (["series", "--n", "400", "--max-degree", "2"], "capacity"),
    (["series", "--n", "60", "--max-degree", "4"], "capacity"),
    (["series", "--n", "100000", "--max-degree", "0"], "capacity"),
    (["verify", "cross", "--n", "20000", "--max-degree", "1"], "capacity"),
])
def test_oversized_requests_exit_3_at_once(argv, reason):
    # a subprocess, so that a request that does run is cut by the timeout
    env = dict(os.environ,
               PYTHONPATH=str(Path(grasshilb.__file__).resolve().parents[1]))
    result = subprocess.run([sys.executable, "-m", "grasshilb.cli"] + argv,
                            capture_output=True, text=True, env=env,
                            timeout=20)
    assert result.returncode == 3
    assert result.stdout == ""
    assert reason in result.stderr


def test_series_at_a_small_odd_cap_is_answered(capsys):
    # W_n has terms only in even degree, so the recursion's key-slot guard
    # counts only those cells: through degree 1, W_1000 is the constant 1
    code, out, _ = run_cli(capsys, "series", "--n", "1000", "--max-degree",
                           "1")
    assert (code, out) == (0, "1\n")


def readme_examples():
    """(argv, expected stdout lines) of each ``$ grasshilb ...`` line in
    the fenced block under README's "Command line" heading."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```\n")[1]
    examples = []
    for line in block.splitlines():
        if line.startswith("$ grasshilb "):
            examples.append((shlex.split(line)[2:], []))
        else:
            examples[-1][1].append(line)
    return [(argv, "\n".join(lines).rstrip("\n").split("\n"))
            for argv, lines in examples]


def output_matches(out, expected):
    """A "..." inside an expected line matches any text; a line that is
    only "..." matches the rest of the output."""
    lines = out.rstrip("\n").split("\n")
    for k, want in enumerate(expected):
        if want == "...":
            return True
        pattern = ".*".join(map(re.escape, want.split("...")))
        if k == len(lines) or not re.fullmatch(pattern, lines[k]):
            return False
    return len(lines) == len(expected)


def test_readme_command_line_examples_hold(capsys):
    examples = readme_examples()
    assert len(examples) >= 8
    for argv, expected in examples:
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0, argv
        assert output_matches(out, expected), (argv, out)


def test_console_entry_point():
    # the child runs the package these tests import, installed or not
    env = dict(os.environ,
               PYTHONPATH=str(Path(grasshilb.__file__).resolve().parents[1]))
    result = subprocess.run(
        [sys.executable, "-m", "grasshilb.cli", "dim", "--n", "4",
         "--grading", "1,1,1,1"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 0
    assert result.stdout == "2\n"
    result = subprocess.run(
        [sys.executable, "-m", "grasshilb.cli", "numerator", "--n", "8",
         "--method", "ie"],
        capture_output=True, text=True, env=env)
    assert result.returncode == 3
