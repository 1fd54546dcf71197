"""Command-line surface: outputs, formats, exit codes, determinism."""

import json
import subprocess
import sys

import pytest

from grasshilb.cli import main
from grasshilb.polyring import from_json_dict
from grasshilb.hilbert import series_by_recursion


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
    code, out, err = run_cli(capsys, "numerator", "--n", "7", "--method", "ie")
    assert code == 3
    assert out == ""
    assert "capacity" in err


def test_dim_text(capsys):
    code, out, _ = run_cli(capsys, "dim", "--n", "4", "--grading", "1,1,1,1",
                           "--method", "oracle")
    assert code == 0
    assert out == "2\n"
    code, out, _ = run_cli(capsys, "dim", "--n", "4", "--grading", "1,1,1,1",
                           "--method", "series")
    assert out == "2\n"


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


def test_decompose_usage_errors(capsys):
    code, _, err = run_cli(capsys, "decompose", "--tree", "((*,*),(*,*))",
                           "--values", "1,0,0")
    assert code == 2
    assert "5 entries" in err
    code, _, err = run_cli(capsys, "decompose", "--tree", "((*),*)",
                           "--values", "1")
    assert code == 2
    assert "position 3" in err


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


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "grasshilb.cli", "dim", "--n", "4",
         "--grading", "1,1,1,1"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout == "2\n"
    result = subprocess.run(
        [sys.executable, "-m", "grasshilb.cli", "numerator", "--n", "7",
         "--method", "ie"],
        capture_output=True, text=True)
    assert result.returncode == 3
