import argparse
import io
import json
import os
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from qcrit import cli, digits, theorems
from qcrit import series as sr
from qcrit.cli import build_parser, main
from qcrit.digits import PrimePower, admissible_quadruples, critical_members
from qcrit.finite_field import field_make
from qcrit.theorems import OPTIONS, SUITES, verify_all, verify_suite

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, "--format", "json", *argv)
    return code, json.loads(out)


def test_criticals_base_prime_case(capsys):
    for p in (2, 3, 5, 7):
        code, payload = run_json(capsys, "criticals", "--p", str(p),
                                 "--lambda", "1", "--base")
        assert code == 0
        assert payload["set"] == list(range(1, p))
        assert payload["q"] == p


def test_criticals_q1024_contains_39(capsys):
    code, payload = run_json(capsys, "criticals", "--p", "2", "--lambda", "10",
                             "--base")
    assert code == 0
    assert 39 in payload["set"]


def test_is_critical_worked_example(capsys):
    code, payload = run_json(capsys, "is-critical", "39", "--p", "2",
                             "--lambda", "10")
    assert code == 0
    assert payload["critical"] is True
    assert payload["mu"] == 39
    rows = payload["cyclic_class"]
    assert len(rows) == 10
    assert [r["value"] for r in rows] == [39, 78, 156, 312, 624, 225, 450,
                                          900, 777, 531]
    kept = [r for r in rows if r["kept"]]
    assert [r["struck_value"] for r in kept] == [4, 112, 388, 132]


def test_cmp_text_output(capsys):
    code, out = run_cli(capsys, "cmp", "3", "6", "--p", "2")
    assert code == 0
    assert out.strip() == "3 <_2 6"
    # the (p-1) run decides before the zeros: 4 = 100_2 precedes 3 = 11_2
    code, out = run_cli(capsys, "cmp", "4", "3", "--p", "2")
    assert code == 0 and out.strip() == "4 <_2 3"


def test_core_defect_lucas_mu(capsys):
    code, payload = run_json(capsys, "core", "963", "--p", "3")
    assert code == 0 and payload["core"] == 3
    code, payload = run_json(capsys, "defect", "963", "--p", "3")
    assert code == 0 and payload["defect"] == 2
    code, payload = run_json(capsys, "lucas", "5", "2", "--p", "2")
    assert code == 0 and payload["value"] == 0
    code, payload = run_json(capsys, "mu", "39", "--p", "2", "--lambda", "10")
    assert code == 0 and payload["mu"] == 39


def test_witness_schema(capsys):
    code, payload = run_json(capsys, "witness", "1", "2", "1", "3", "--p", "2")
    assert code == 0
    assert payload == {"quad": [1, 2, 1, 3],
                       "witness": {"e": 2, "f": 1, "g": 1, "r": 1}}


def test_witness_invalid_quad_is_usage_error(capsys):
    code = main(["witness", "1", "2", "1", "4", "--p", "2"])
    assert code == 2


def test_admissible_enumeration(capsys):
    code, payload = run_json(capsys, "admissible", "--p", "2",
                             "--m-bound", "16", "--ell-bound", "3")
    assert code == 0
    assert [1, 2, 1, 3] in payload["quadruples"]
    assert payload["count"] == len(payload["quadruples"])


def test_verify_single_statement_exit_zero(capsys):
    code, payload = run_json(capsys, "verify", "equivariance", "--p", "2",
                             "--lambda", "1", "--prec", "32", "--trials", "6",
                             "--seed", "3")
    assert code == 0
    assert payload["pass"] is True
    assert payload["reports"][0]["statement"] == "projection_equivariance"
    assert payload["reports"][0]["elapsed_ms"] is None


def test_verify_json_deterministic(capsys):
    args = ("verify", "cyclic-digits", "--p", "2", "--lambda", "2",
            "--bound", "500")
    code1, out1 = run_cli(capsys, "--format", "json", *args)
    code2, out2 = run_cli(capsys, "--format", "json", *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_timing_flag(capsys):
    code, payload = run_json(capsys, "verify", "cyclic-digits", "--p", "2",
                             "--lambda", "2", "--bound", "200", "--timing")
    assert code == 0
    assert payload["reports"][0]["elapsed_ms"] is not None


def test_text_and_json_agree_on_results(capsys):
    args = ("verify", "orbit-min", "--p", "2", "--lambda", "2",
            "--c-bound", "50", "--oracle-bound", "400")
    code_t, out_t = run_cli(capsys, *args)
    code_j, payload = run_json(capsys, *args)
    assert code_t == code_j == 0
    assert ("ALL PASS" in out_t) == payload["pass"]


def test_verify_choices_are_the_suite_registry():
    cmds = next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction))
    statement = next(a for a in cmds.choices["verify"]._actions
                     if a.dest == "statement")
    assert tuple(statement.choices) == ("all", *SUITES)


# every command, and every subcommand of a command with a table of its own
COMMANDS = [[name] for name in cli._COMMANDS] + [
    [name, op] for name, (_, arguments) in cli._COMMANDS.items()
    if isinstance(arguments, dict) for op in arguments]


def test_every_command_has_a_handler_and_every_handler_a_command():
    handlers = {name[len("_cmd_"):].replace("_", "-") for name in vars(cli)
                if name.startswith("_cmd_")}
    assert handlers == set(cli._COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_every_command_answers_help(capsys, argv):
    assert main([*argv, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: qcrit {' '.join(argv)} ")


@pytest.mark.parametrize("argv", [["compose", "--f", "{}", "--g", "{}"],
                                  ["invert", "--g", "{}"],
                                  ["logderiv", "--f", "{}"]], ids=lambda a: a[0])
def test_series_operations_on_documents_take_no_prime_power(capsys, argv):
    assert main(["series", *argv, "--p", "2", "--lambda", "1"]) == 2
    assert "unrecognized arguments: --p 2 --lambda 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["psi", "--f", json.dumps({"field": {"p": 2, "n": 1, "modulus": [0, 1]},
                               "prec": 2, "coeffs": [[0], [1], [0]]})],
    ["eval", "--kind", "artin-hasse"], ["eval", "--kind", "twisted-orbit"]],
    ids=["psi", "artin-hasse", "twisted-orbit"])
def test_a_lambda_below_one_is_refused_where_it_is_given(capsys, argv):
    assert main(["series", *argv, "--p", "2", "--lambda", "0"]) == 2
    assert capsys.readouterr().err == "error: exponent must be >= 1, got 0\n"


SMALL = {"prec": 32, "trials": 2, "seed": 7, "m_bound": 64, "ell_bound": 3,
         "c_bound": 50, "oracle_bound": 500, "bound": 200, "k_bound": 7,
         "proj_ell_bound": 1, "proj_prec": 32}


@pytest.mark.parametrize("p,lam", [(2, 2), (3, 1)])
def test_verify_all_is_the_cli_run(capsys, p, lam):
    flags = [f"--{k.replace('_', '-')}={v}" for k, v in SMALL.items()]
    code, payload = run_json(capsys, "verify", "all", "--p", str(p),
                             "--lambda", str(lam), "--n", "2", *flags)
    reports = verify_all(PrimePower(p, lam), field_make(p, 2), **SMALL)
    assert code == 0
    assert [r.to_json_dict(include_timing=False) for r in reports] \
        == payload["reports"]
    assert all(r["checks"] > 0 for r in payload["reports"])


def test_verify_all_checks_projection_at_its_own_precision():
    reports = verify_all(PrimePower(2, 1), field_make(2, 1), prec=300,
                         trials=1, m_bound=16, ell_bound=2, c_bound=10,
                         oracle_bound=100, bound=20, k_bound=3,
                         proj_ell_bound=1)
    precs = {r.statement: r.params.get("prec") for r in reports}
    assert precs["projection_formula"] == 256
    assert precs["projection_equivariance"] == precs["coleman_equivariance"] == 300


def test_explore_rows(capsys):
    code, payload = run_json(capsys, "explore", "--p", "2", "--lambda", "1",
                             "--k-bound", "15", "--prec", "64")
    assert code == 0
    assert len(payload["rows"]) == 8
    assert all(r["lead_exponent"] == r["k"] for r in payload["rows"])


def test_series_eval_and_psi(capsys, tmp_path):
    code, w = run_json(capsys, "series", "eval", "--kind", "orbit", "--p", "2",
                       "--lambda", "1", "--k", "3", "--prec", "24")
    assert code == 0
    blob = tmp_path / "w.json"
    blob.write_text(json.dumps(w))
    code, projected = run_json(capsys, "series", "psi", "--f", str(blob),
                               "--p", "2", "--lambda", "1")
    assert code == 0
    coeffs = projected["coeffs"]
    assert coeffs[4] == [1]
    assert sum(c != [0] for c in coeffs) == 1


def test_series_compose_identity(capsys):
    x = {"field": {"p": 2, "n": 1, "modulus": [0, 1]}, "prec": 4,
         "coeffs": [[0], [1], [0], [0], [0]]}
    g = {"field": {"p": 2, "n": 1, "modulus": [0, 1]}, "prec": 4,
         "coeffs": [[0], [1], [1], [0], [0]]}
    code, payload = run_json(capsys, "series", "compose",
                             "--f", json.dumps(x), "--g", json.dumps(g))
    assert code == 0
    assert payload["coeffs"] == g["coeffs"]


def test_series_invert_round_trip(capsys):
    code, gamma = run_json(capsys, "series", "eval", "--kind", "random-gamma",
                           "--p", "2", "--lambda", "1", "--prec", "32",
                           "--seed", "4", "--factors", "3")
    assert code == 0
    code, inv = run_json(capsys, "series", "invert", "--g", json.dumps(gamma))
    assert code == 0
    code, again = run_json(capsys, "series", "invert", "--g", json.dumps(inv))
    assert code == 0
    assert again == gamma


F4 = field_make(2, 2)
ALPHA = F4.element([1, 1])
BETA = F4.from_index(2)
TWIST = ("--p", "2", "--lambda", "2", "--n", "2", "--prec", "40", "--k", "3",
         "--ell", "1", "--alpha", "1,1", "--beta", "2")


def _admissible_text(p, m_bound, ell_bound):
    quads = list(admissible_quadruples(p, m_bound, ell_bound))
    lines = [f"{len(quads)} admissible quadruples (j, k, ell, m):"]
    lines += [f"  {tuple(qd)}" for qd in quads[:50]]
    return "\n".join(lines + [f"  ... {len(quads) - 50} more"]) + "\n"


# (argv, library answer); "@unit" is replaced by the path of a file that
# holds UNIT, and "-" reads UNIT from stdin
UNIT = sr.random_unit(F4, 200, 3)
CLI_BRANCHES = {
    "series-logderiv": (
        ["series", "logderiv", "--f", "@unit"], sr.log_deriv(UNIT).to_json()),
    "series-logderiv-stdin": (
        ["series", "logderiv", "--f", "-"], sr.log_deriv(UNIT).to_json()),
    "eval-twisted-orbit": (
        ["series", "eval", "--kind", "twisted-orbit", *TWIST],
        sr.twisted_orbit_series(3, ALPHA, 1, BETA, PrimePower(2, 2), 40).to_json()),
    "eval-projection-formula": (
        ["series", "eval", "--kind", "projection-formula", *TWIST],
        sr.critical_projection_formula(
            3, ALPHA, 1, BETA, PrimePower(2, 2), 40).to_json()),
    "eval-random-unit": (
        ["series", "eval", "--kind", "random-unit", "--p", "3", "--n", "2",
         "--prec", "20", "--seed", "5"],
        sr.random_unit(field_make(3, 2), 20, 5).to_json()),
    "eval-random-unit-modulus": (
        ["series", "eval", "--kind", "random-unit", "--p", "2", "--n", "3",
         "--modulus", "1,0,1,1", "--prec", "20", "--seed", "5"],
        sr.random_unit(field_make(2, 3, [1, 0, 1, 1]), 20, 5).to_json()),
    "criticals-closure": (
        ["criticals", "--p", "2", "--lambda", "3"],
        {"p": 2, "lambda": 3, "q": 8, "kind": "closure", "bound": 8,
         "set": critical_members(PrimePower(2, 3), 8)}),
    "admissible-text": (
        ["--format", "text", "admissible", "--p", "2", "--m-bound", "64"],
        _admissible_text(2, 64, 8)),
}


@pytest.mark.parametrize("case", CLI_BRANCHES)
def test_cli_branches_answer_as_the_library(case, capsys, tmp_path, monkeypatch):
    argv, expected = CLI_BRANCHES[case]
    doc = tmp_path / "unit.json"
    doc.write_text(json.dumps(UNIT.to_json()))
    argv = [str(doc) if a == "@unit" else a for a in argv]
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(UNIT.to_json())))
    if isinstance(expected, str):
        code, out = run_cli(capsys, *argv)
        assert out == expected
        assert out.count("\n") == 52  # the header, 50 rows and the tail
    else:
        code, out = run_json(capsys, *argv)
        assert out == json.loads(json.dumps(expected))
    assert code == 0


def test_output_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code = main(["--format", "json", "--output", str(target),
                 "core", "963", "--p", "3"])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert json.loads(target.read_text())["core"] == 3


def test_usage_errors_exit_two(capsys, tmp_path):
    assert main(["definitely-not-a-command"]) == 2
    assert main([]) == 2
    assert main(["core", "963"]) == 2  # missing --p
    assert main(["core", "0", "--p", "3"]) == 2  # domain error
    huge_index = {"field": {"p": 3, "n": 1, "modulus": [0, 1]},
                  "q": {"p": 3, "lambda": 1}, "prec": 16,
                  "terms": {"1" + "0" * 30: [1]}}
    assert main(["series", "invert", "--g", json.dumps(huge_index)]) == 2
    # oversized fields are refused before any primality or modulus search
    assert main(["is-critical", "5", "--p", "1000000000000000003",
                 "--lambda", "1"]) == 2
    assert main(["series", "eval", "--kind", "artin-hasse",
                 "--p", "1000000000000000003", "--n", "1", "--prec", "4"]) == 2
    assert main(["series", "eval", "--kind", "random-unit", "--p", "2",
                 "--n", "3000", "--prec", "2", "--seed", "1"]) == 2
    wide = tmp_path / "wide.json"
    wide.write_text(json.dumps({"field": {"p": 2, "n": 300, "modulus": [1] * 301},
                                "prec": 1, "coeffs": [[1] + [0] * 299, [0] * 300]}))
    capsys.readouterr()
    assert main(["series", "logderiv", "--f", str(wide)]) == 2
    assert "more than 2^64 elements" in capsys.readouterr().err
    # q = p^lambda is bounded by 2^64 before it is computed
    assert main(["is-critical", "5", "--p", "2", "--lambda", "100000000"]) == 2
    assert main(["mu", "5", "--p", "3", "--lambda", "41"]) == 2
    # the series kinds that read q need --lambda; the others do not
    for kind in ("twisted-orbit", "projection-formula", "random-gamma"):
        capsys.readouterr()
        assert main(["series", "eval", "--kind", kind, "--p", "2"]) == 2
        assert capsys.readouterr().err == \
            f"error: series kind {kind!r} requires --lambda\n"
    for kind in ("artin-hasse", "orbit", "random-unit"):
        assert main(["series", "eval", "--kind", kind, "--p", "2"]) == 0


def test_coefficient_count_is_checked_before_conversion(capsys, tmp_path):
    doc = tmp_path / "long.json"
    doc.write_text(json.dumps({"field": {"p": 2, "n": 1, "modulus": [0, 1]},
                               "prec": 0, "coeffs": [[0], "x"]}))
    assert main(["series", "logderiv", "--f", str(doc)]) == 2
    assert "expected 1 coefficients, got 2" in capsys.readouterr().err


def test_precision_above_the_limit_exits_two(capsys, tmp_path):
    field = {"p": 2, "n": 1, "modulus": [0, 1]}
    dense = tmp_path / "dense.json"
    dense.write_text(json.dumps({"field": field, "prec": 10 ** 9,
                                 "coeffs": [[1]]}))
    additive = tmp_path / "additive.json"
    additive.write_text(json.dumps({"field": field, "q": {"p": 2, "lambda": 1},
                                    "prec": 10 ** 9, "terms": {"0": [1]}}))
    for argv in (
            ["series", "eval", "--kind", "artin-hasse", "--p", "2", "--prec", "3000000"],
            ["series", "eval", "--kind", "random-unit", "--p", "2", "--prec", "2049"],
            ["verify", "logderiv", "--p", "2", "--lambda", "1", "--prec", "2049"],
            ["verify", "all", "--p", "2", "--lambda", "1", "--prec", "10000000"],
            ["verify", "projection", "--p", "2", "--lambda", "1", "--proj-prec", "2049"],
            ["explore", "--p", "2", "--lambda", "1", "--prec", "2049"],
            ["series", "logderiv", "--f", str(dense)],
            ["series", "psi", "--f", str(dense), "--p", "2", "--lambda", "1"],
            ["series", "compose", "--f", str(dense), "--g", str(dense)],
            ["series", "invert", "--g", str(additive)]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "exceeds the limit 2048" in capsys.readouterr().err, argv
    code, out = run_json(capsys, "series", "eval", "--kind", "orbit", "--p", "2",
                         "--prec", "2048")
    assert code == 0 and out["prec"] == 2048


def test_precision_below_one_exits_two(capsys):
    # the sweeps need a term of degree 1; an orbit series, degree 0
    for argv, message in (
            (["verify", "projection", "--p", "2", "--lambda", "2", "--n", "2",
              "--proj-prec", "0"], "precision must be at least 1"),
            (["verify", "logderiv", "--p", "2", "--lambda", "2", "--n", "2",
              "--prec", "0"], "precision must be at least 1"),
            (["verify", "equivariance", "--p", "2", "--lambda", "2", "--n", "2",
              "--prec", "0"], "precision must be at least 1"),
            # q above the precision: every gamma would be X, a vacuous pass
            (["verify", "equivariance", "--p", "2", "--lambda", "4", "--n", "4",
              "--prec", "8", "--trials", "5"],
             "q = 16 exceeds the precision 8"),
            (["verify", "all", "--p", "2", "--lambda", "4", "--n", "4",
              "--prec", "8", *(f"--{k.replace('_', '-')}={v}"
                               for k, v in SMALL.items() if k != "prec")],
             "q = 16 exceeds the precision 8"),
            (["--format", "json", "series", "eval", "--kind", "orbit", "--p", "2",
              "--lambda", "2", "--n", "2", "--prec", "-1", "--k", "3",
              "--alpha", "1,0"], "precision must be nonnegative")):
        capsys.readouterr()
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, argv


def test_coleman_extension_degree_below_one_exits_two(capsys):
    for degree in ("-1", "0"):
        assert main(["verify", "coleman", "--p", "2", "--lambda", "2",
                     "--ext-degree", degree, "--prec", "8"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"ext_degree must be >= 1, got {degree}" in captured.err


def test_m_bound_above_the_limit_exits_two(capsys):
    for argv in (
            ["verify", "admissible-order", "--p", "2", "--lambda", "1",
             "--m-bound", "1000000000"],
            ["verify", "admissible-witness", "--p", "2", "--lambda", "1",
             "--m-bound", "4097"],
            ["verify", "all", "--p", "2", "--lambda", "1",
             "--m-bound", "1000000000"],
            ["admissible", "--p", "3", "--m-bound", "100000000"]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert "exceeds the limit 4096" in capsys.readouterr().err, argv
    assert main(["admissible", "--p", "4", "--m-bound", "64"]) == 2
    assert "must be prime" in capsys.readouterr().err
    # a bound below 1 leaves nothing to check: refused, not a vacuous PASS
    for argv in (
            ["verify", "admissible-order", "--p", "2", "--lambda", "1",
             "--m-bound", "-5"],
            ["verify", "admissible-witness", "--p", "2", "--lambda", "1",
             "--m-bound", "0"],
            ["admissible", "--p", "2", "--m-bound", "0"]):
        assert main(argv) == 2, argv
        assert "m_bound must be >= 1" in capsys.readouterr().err, argv
    code, out = run_json(capsys, "admissible", "--p", "2", "--m-bound", "4096",
                         "--ell-bound", "1", "--limit", "3")
    assert code == 0 and out["count"] == 3


@pytest.fixture
def no_work(monkeypatch):
    """Make the first step of every sweep's work raise: the digit tables,
    the orbit table, the Artin-Hasse series, and the pool that runs a
    sweep's trials or verify all's suites."""
    def no_work(*args):
        raise AssertionError("work began before the refusal")
    for module, name in ((digits, "digit_tables"), (digits, "admissible_blocks"),
                         (digits, "_orbit_min_table"),
                         (theorems, "artin_hasse"), (theorems, "_pool")):
        monkeypatch.setattr(module, name, no_work)


def test_bounds_that_leave_nothing_to_check_exit_two_before_any_work(
        capsys, monkeypatch, no_work):
    # each would print PASS with checks=0: every admissible quadruple has
    # m >= p + 1 and ell >= 1, and orbit-min, cyclic-digits and projection
    # need bounds of at least 1. verify all refuses before its first suite.
    admissible = "no admissible quadruple, which needs m_bound > p = 2"
    for argv, message in (
            (["admissible-order", "--lambda", "1", "--ell-bound", "-1"],
             admissible),
            (["admissible-witness", "--lambda", "1", "--m-bound", "1"],
             admissible),
            (["cyclic-digits", "--lambda", "2", "--bound", "0"],
             "cyclic-digits: bound = 0 leaves nothing to check"),
            (["projection", "--lambda", "1", "--k-bound", "0"],
             "projection: k_bound = 0 leaves nothing to check"),
            (["projection", "--lambda", "1", "--proj-ell-bound", "0"],
             "projection: ell_bound = 0 leaves nothing to check"),
            (["orbit-min", "--lambda", "2", "--c-bound", "0",
              "--oracle-bound", "0"],
             "orbit-min: c_bound = 0 leaves nothing to check"),
            (["orbit-min", "--lambda", "2", "--oracle-bound", "-4"],
             "orbit-min: oracle_bound = -4 leaves nothing to check"),
            (["all", "--lambda", "1", "--m-bound", "2"], admissible),
            (["all", "--lambda", "1", "--ell-bound", "-1"], admissible),
            (["all", "--lambda", "2", "--bound", "-3"],
             "cyclic-digits: bound = -3 leaves nothing to check"),
            (["all", "--lambda", "1", "--k-bound", "0"],
             "projection: k_bound = 0 leaves nothing to check"),
            (["all", "--lambda", "1", "--proj-ell-bound", "0"],
             "projection: ell_bound = 0 leaves nothing to check"),
            (["all", "--lambda", "2", "--c-bound", "-1"],
             "orbit-min: c_bound = -1 leaves nothing to check"),
            # options that a sweep cannot run with: refused as early
            (["coleman", "--lambda", "1", "--prec", "0"],
             "precision must be at least 1"),
            (["all", "--lambda", "2", "--n", "2", "--proj-prec", "0"],
             "precision must be at least 1"),
            (["all", "--lambda", "2", "--n", "2", "--ext-degree", "0"],
             "ext_degree must be >= 1, got 0"),
            # Coleman's K = F_(2^16) is above the 4096-element enumeration
            (["all", "--lambda", "4", "--n", "8", "--ext-degree", "4"],
             "refusing to enumerate a field with more than 4096 elements")):
        argv = ["verify", argv[0], "--p", "2", *argv[1:]]
        assert main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err, argv
    # the least bounds that admit a check run it
    monkeypatch.undo()
    for argv in (["admissible-order", "--m-bound", "3", "--ell-bound", "1"],
                 ["admissible-witness", "--m-bound", "3", "--ell-bound", "1"],
                 ["orbit-min", "--c-bound", "1", "--oracle-bound", "1"],
                 ["cyclic-digits", "--bound", "1"],
                 ["projection", "--k-bound", "1", "--proj-ell-bound", "1",
                  "--proj-prec", "8"]):
        code, out = run_json(capsys, "verify", argv[0], "--p", "2",
                             "--lambda", "1", *argv[1:])
        assert code == 0 and out["reports"][0]["checks"] > 0, argv


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@pytest.mark.parametrize("statement,name", [
    (statement, name) for statement, (reads, _) in SUITES.items()
    for name in OPTIONS if name not in reads], ids="{0[0]} {0[1]}".format)
def test_an_option_the_statement_does_not_read_exits_two_before_any_work(
        capsys, no_work, statement, name):
    # it used to be accepted and dropped without a word
    reads = ", ".join(_flag(n) for n in SUITES[statement][0])
    assert main(["verify", statement, "--p", "2", "--lambda", "1",
                 _flag(name), "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: verify {statement} does not read "
                            f"{_flag(name)}; it reads {reads}\n")


def test_options_that_were_dropped_or_misread_exit_two(capsys):
    # projection reads --proj-prec, not --prec, and logderiv never read the
    # --m-bound that main once refused for every command
    for argv, flag in (
            (["projection", "--p", "2", "--lambda", "1", "--n", "2",
              "--prec", "16", "--k-bound", "3"], "--prec"),
            (["cyclic-digits", "--p", "2", "--lambda", "2", "--bound", "50",
              "--trials", "5", "--prec", "9", "--ext-degree", "7"], "--prec"),
            (["logderiv", "--p", "2", "--lambda", "1", "--prec", "8",
              "--m-bound", "5000"], "--m-bound")):
        assert main(["verify", *argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"does not read {flag};" in captured.err, argv
    pq, spec = PrimePower(2, 1), field_make(2, 1)
    with pytest.raises(ValueError, match="^verify projection does not read "
                                         "--prec; it reads --k-bound, "
                                         "--proj-ell-bound, --proj-prec$"):
        verify_suite("projection", pq, spec, prec=16)
    # an option left unset is not given; a name outside OPTIONS is no option
    assert verify_suite("cyclic-digits", pq, spec, bound=5, prec=None).passed
    for run in (verify_all, lambda pq, spec, **o: verify_suite(
            "logderiv", pq, spec, **o)):
        with pytest.raises(TypeError, match="unknown option 'bogus'"):
            run(pq, spec, bogus=1)


def test_a_precision_a_statement_does_not_read_is_refused_as_unread(capsys):
    # the refusal does not depend on the value: only series eval and explore
    # check --prec against 2048 before anything else
    for prec in ("16", "3000"):
        assert main(["verify", "projection", "--p", "2", "--lambda", "1",
                     "--prec", prec]) == 2, prec
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: verify projection does not read --prec; "
                                "it reads --k-bound, --proj-ell-bound, "
                                "--proj-prec\n"), prec
    # a statement that reads --prec refuses it above 2048 itself
    assert main(["verify", "logderiv", "--p", "2", "--lambda", "1",
                 "--prec", "3000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: precision 3000 exceeds the limit 2048\n"


def test_text_verify_prints_wall_clock_times_only_under_timing(capsys):
    args = ("verify", "cyclic-digits", "--p", "2", "--lambda", "2", "--bound", "50")
    assert run_cli(capsys, *args) == (
        0, "PASS cyclic_digit_bounds [all statements for c <= 50] checks=200\n"
           "ALL PASS\n")
    code, out = run_cli(capsys, *args, "--timing")
    assert code == 0
    assert re.fullmatch(r"PASS cyclic_digit_bounds \[all statements for c <= 50\] "
                        r"checks=200 \(\d+ ms\)\nALL PASS\n", out)


# a value for each option, each away from every sweep's default
READ = {"prec": 12, "seed": 5, "trials": 2, "m_bound": 20, "ell_bound": 2,
        "c_bound": 30, "oracle_bound": 200, "bound": 40, "k_bound": 3,
        "proj_ell_bound": 1, "proj_prec": 14, "ext_degree": 2}


@pytest.mark.parametrize("statement", SUITES)
def test_every_option_a_statement_reads_shows_in_its_report(capsys,
                                                            statement):
    # so no row of SUITES names an option that its sweep ignores; the
    # projection sweep's prec and ell_bound are its proj_ options
    reads = SUITES[statement][0]
    code, payload = run_json(capsys, "verify", statement, "--p", "2",
                             "--lambda", "1",
                             *(f"{_flag(n)}={READ[n]}" for n in reads))
    assert code == 0
    (report,) = payload["reports"]
    assert report["checks"] > 0
    assert {n: report["params"][n.removeprefix("proj_")] for n in reads} \
        == {n: READ[n] for n in reads}


def test_orbit_scans_above_the_limit_exit_two_at_once(capsys):
    # q*p^(2 lambda) = 2^36 and 3^15 for the orbit table, q - 1 = 2^40 - 1
    # and 2^21 - 1 for the base set, and the user bounds of the orbit
    # sweeps: refused before the scan, which would take hours or about half
    # a minute
    for argv, limit in (
            (["verify", "orbit-min", "--p", "2", "--lambda", "12"], 2 ** 22),
            (["verify", "cyclic-digits", "--p", "3", "--lambda", "5"],
             2 ** 22),
            (["verify", "all", "--p", "2", "--lambda", "12", "--trials", "1"],
             2 ** 22),
            (["criticals", "--p", "2", "--lambda", "40", "--base"], 2 ** 20),
            (["criticals", "--p", "2", "--lambda", "21"], 2 ** 20),
            # user bounds: 10^9 integers, or 2 * 10^9 and 1.2 * 10^6
            # rotations at lambda 2
            (["verify", "cyclic-digits", "--p", "2", "--lambda", "2",
              "--bound", "1000000000"], 2 ** 20),
            (["verify", "cyclic-digits", "--p", "2", "--lambda", "2",
              "--bound", "600000"], 2 ** 20),
            (["verify", "orbit-min", "--p", "2", "--lambda", "2",
              "--oracle-bound", "1000000000"], 2 ** 20),
            (["verify", "orbit-min", "--p", "2", "--lambda", "2",
              "--c-bound", "1000000000"], 2 ** 20),
            # verify all refuses before its first suite runs
            (["verify", "all", "--p", "2", "--lambda", "2", "--n", "2",
              "--bound", "1000000000"], 2 ** 20)):
        capsys.readouterr()
        t0 = time.perf_counter()
        assert main(argv) == 2, argv
        assert time.perf_counter() - t0 < 1.0, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert f"above the limit {limit}" in captured.err, argv
    # below the limits the scans still run: 7^6 = 117,649 integers
    code, out = run_json(capsys, "verify", "orbit-min", "--p", "7",
                         "--lambda", "2")
    assert code == 0 and out["reports"][0]["pass"] is True


def test_witness_with_a_composite_p_exits_two(capsys):
    # Lucas's theorem needs a prime modulus: p = 4 is refused, not answered
    assert main(["witness", "1", "2", "1", "5", "--p", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "p must be prime, got 4" in captured.err


def test_witness_with_a_huge_ell_exits_two(capsys):
    assert main(["witness", "1", "2", "1000000000", "3", "--p", "2"]) == 2
    assert "not admissible" in capsys.readouterr().err


def test_json_documents_of_another_shape_exit_two(capsys):
    field = {"p": 2, "n": 1, "modulus": [0, 1]}
    for argv in (["series", "logderiv", "--f", "[1,2]"],
                 ["series", "logderiv", "--f", json.dumps({"field": field,
                                                           "prec": 1})],
                 ["series", "psi", "--f", json.dumps({"field": field, "prec": 1,
                                                      "coeffs": 5}),
                  "--p", "2", "--lambda", "1"],
                 ["series", "invert", "--g", json.dumps({
                     "field": field, "q": [2, 1], "prec": 4, "terms": {}})]):
        capsys.readouterr()
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error: "), argv


def _logderiv_argv(coeff=(1, 0), prec=1, modulus=(1, 1, 1)):
    return ["series", "logderiv", "--f", json.dumps({
        "field": {"p": 2, "n": 2, "modulus": modulus}, "prec": prec,
        "coeffs": [[1, 0], coeff]})]


def _invert_argv(key="10", coeff=(1, 0)):
    return ["series", "invert", "--g", json.dumps({
        "field": {"p": 2, "n": 2, "modulus": [1, 1, 1]},
        "q": {"p": 2, "lambda": 1}, "prec": 1024,
        "terms": {"0": [1, 0], key: coeff}})]


# each wrong document, and the right one that int() would read it as
@pytest.mark.parametrize("wrong,right", [
    (_logderiv_argv(coeff=[1.9, 0]), _logderiv_argv(coeff=[1, 0])),
    (_logderiv_argv(coeff=[True, 0]), _logderiv_argv(coeff=[1, 0])),
    (_logderiv_argv(coeff="10"), _logderiv_argv(coeff=[1, 0])),
    (_logderiv_argv(prec=True), _logderiv_argv(prec=1)),
    (_logderiv_argv(modulus=[True, True, True]), _logderiv_argv()),
    (_invert_argv(key="-0"), _invert_argv(key="0")),
    (_invert_argv(key=" 1"), _invert_argv(key="1")),
    (_invert_argv(key="1_0"), _invert_argv(key="10")),
    (_invert_argv(key="01"), _invert_argv(key="1")),
    (_invert_argv(coeff=[False, True]), _invert_argv(coeff=[0, 1])),
], ids=["float", "true", "string", "prec-true", "modulus-true", "key-minus-0",
        "key-space", "key-underscore", "key-leading-0", "false"])
def test_json_numbers_of_the_wrong_type_exit_two(capsys, wrong, right):
    assert main(right) == 0
    capsys.readouterr()
    assert main(wrong) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
    assert re.search("integer|wrong type", captured.err), captured.err


def test_env_var_controls_format(capsys, monkeypatch):
    # read on every call, so a change between two calls takes effect
    for fmt in ("json", "text", "json"):
        monkeypatch.setenv("QCRIT_FORMAT", fmt)
        code, out = run_cli(capsys, "core", "963", "--p", "3")
        assert code == 0
        if fmt == "json":
            assert json.loads(out)["core"] == 3
        else:
            assert out == "3-core of 963: 3\n"
    assert run_cli(capsys, "--format", "text", "core", "963", "--p", "3") \
        == (0, "3-core of 963: 3\n")
    monkeypatch.delenv("QCRIT_FORMAT")
    assert run_cli(capsys, "core", "963", "--p", "3") == (0, "3-core of 963: 3\n")


# One process serves many calls: good runs, usage errors, domain errors,
# --help, --output files, and text and JSON verify. "{out}" is a file.
MANY_CALLS = [
    ["core", "963", "--p", "3"],
    ["--format", "json", "is-critical", "39", "--p", "2", "--lambda", "10"],
    ["cmp", "3", "6", "--p", "2", "--format", "json"],
    ["definitely-not-a-command"],
    [],
    ["core", "963"],
    ["core", "0", "--p", "3"],
    ["mu", "5", "--p", "3", "--lambda", "41"],
    ["series", "psi", "--f", "{}", "--p", "2", "--lambda", "1"],
    ["--help"],
    ["series", "compose", "--help"],
    ["--format", "json", "--output", "{out}", "lucas", "10", "3", "--p", "3"],
    ["lucas", "10", "3", "--p", "3", "--output", "{out}"],
    ["verify", "logderiv", "--p", "2", "--lambda", "1", "--prec", "16",
     "--trials", "2"],
    ["--format", "json", "verify", "equivariance", "--p", "2", "--lambda", "1",
     "--n", "2", "--prec", "16", "--trials", "2"],
    ["series", "eval", "--kind", "artin-hasse", "--p", "3", "--prec", "12",
     "--format", "json"],
]


def _outcome(capsys, argv, out_path):
    """(exit, stdout, stderr, --output file) of one call."""
    code = main([a.replace("{out}", str(out_path)) for a in argv])
    captured = capsys.readouterr()
    written = out_path.read_text() if out_path.exists() else None
    if written is not None:
        out_path.unlink()
    return code, captured.out, captured.err, written


def test_calls_in_one_process_do_not_depend_on_their_order(capsys, tmp_path):
    out = tmp_path / "out.txt"
    forward = [_outcome(capsys, argv, out) for argv in MANY_CALLS]
    backward = [_outcome(capsys, argv, out) for argv in reversed(MANY_CALLS)]
    assert forward == backward[::-1]
    assert [o[0] for o in forward] == [0, 0, 0, 2, 2, 2, 2, 2, 2, 0, 0, 0, 0,
                                       0, 0, 0]
    assert all(o[3] for o in forward[11:13])


def test_a_handler_rebound_after_the_first_call_runs(capsys, monkeypatch):
    assert run_cli(capsys, "core", "963", "--p", "3") == (0, "3-core of 963: 3\n")
    monkeypatch.setattr(cli, "_cmd_core", lambda args: (0, {}, f"patched {args.n}"))
    assert run_cli(capsys, "core", "963", "--p", "3") == (0, "patched 963\n")


def test_the_parser_is_built_once_per_binding_of_build_parser(capsys, monkeypatch):
    built = []

    def counting():
        built.append(build_parser())
        return built[-1]

    monkeypatch.setattr(cli, "build_parser", counting)
    for _ in range(3):
        assert run_cli(capsys, "core", "963", "--p", "3")[0] == 0
    assert len(built) == 1
    monkeypatch.undo()
    assert run_cli(capsys, "core", "963", "--p", "3")[0] == 0
    assert len(built) == 1


def test_a_tracer_sees_one_build_then_one_parse_per_call(monkeypatch, capsys):
    # the benchmark's tracer rebinds build_parser and wraps parse_args on
    # the parser that the rebound build_parser returns
    monkeypatch.syspath_prepend(str(Path(SRC).parent / "perfbench"))
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        for job in range(3):
            assert tracer.run_job(job, main, ["core", "963", "--p", "3"]) == 0
    finally:
        tracer.restore()
    parse = [span for span in tracer.spans if span[0] == "cli.parse"]
    assert [span[4] for span in parse] == [0, 0, 1, 2]
    assert len({span[3] for span in parse if span[4] == 0}) == 1  # not nested
    spans = len(tracer.spans)
    assert main(["core", "963", "--p", "3"]) == 0
    assert len(tracer.spans) == spans


def test_threads_calling_main_get_the_single_thread_bytes(tmp_path):
    argvs = [MANY_CALLS[1], MANY_CALLS[14], ["--format", "json", "series", "eval",
             "--kind", "random-gamma", "--p", "2", "--lambda", "2", "--n", "2",
             "--prec", "24", "--seed", "5"], ["cmp", "3", "6", "--p", "2"]]

    def run_all(name):
        got = []
        for i, argv in enumerate(argvs * 3):
            target = tmp_path / f"{name}-{i}.txt"
            code = main(["--output", str(target), *argv])
            got.append((code, target.read_text()))
        return got

    want = run_all("single")
    results, errors = {}, []

    def worker(k):
        try:
            results[k] = run_all(f"thread{k}")
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == {k: want for k in range(4)}


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "qcrit", "--format", "json", "defect", "963",
         "--p", "3"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["defect"] == 2
    proc = subprocess.run([sys.executable, "-m", "qcrit", "nope"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stdout == ""
