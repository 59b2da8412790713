"""Fault injection: a series kernel that is wrong at one degree past 10,
or a digit function that is wrong at one integer, must turn each sweep
into a FAIL whose first counterexample names the check and the degree or
the integer, from the API and from the CLI (exit 1, one JSON document).
The admissible sweeps have theirs in tests/test_admissible_tables.py."""

import json
import os

import pytest

from qcrit import cli, digits, series, theorems
from qcrit.digits import PrimePower
from qcrit.finite_field import field_make
from qcrit.series import AdditiveSeries, TruncSeries

# 15 is critical for q = 2 and q = 4 (1, 3, 7, 15, ...), so a fault there
# survives the critical projection, which moves it up to degree 16
FAULT = 15


def _with_coefficient(t: TruncSeries, degree: int, value) -> TruncSeries:
    coeffs = list(t.coeffs)
    coeffs[degree] = value
    return TruncSeries(t.spec, t.prec, coeffs)


def _flipped(t: TruncSeries, degree: int) -> TruncSeries:
    return _with_coefficient(t, degree, t.coefficient(degree) + t.spec.one())


@pytest.fixture
def payload_calls(monkeypatch):
    """Counts the calls of the counterexample payload helpers: the first
    mismatch, and the JSON of an additive series, whose terms are the
    gamma of a payload. These sweeps are too short to share their trials
    with forked workers, so every call is counted here: os.fork is never
    called."""
    calls = {"_first_mismatch": 0, "to_json": 0}
    for owner, name in ((theorems, "_first_mismatch"),
                        (AdditiveSeries, "to_json")):
        def spy(*args, _real=getattr(owner, name), _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(owner, name, spy)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("a sweep forked"),
                        raising=False)
    return calls


def _cli_report(capsys, argv, report):
    """Run `qcrit --format json verify ...` and check that it fails with
    the counterexamples of report."""
    capsys.readouterr()
    assert cli.main(["--format", "json", "verify", *argv]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    (got,) = payload["reports"]
    assert got["pass"] is False
    assert got["counterexamples"] == json.loads(json.dumps(report.counterexamples))


def test_equivariance_reports_a_broken_compose(monkeypatch, capsys, payload_calls):
    real = TruncSeries.compose
    monkeypatch.setattr(TruncSeries, "compose",
                        lambda self, inner: _flipped(real(self, inner), FAULT))
    r = theorems.verify_equivariance(PrimePower(2, 1), field_make(2, 2),
                                     prec=32, trials=3, seed=4)
    assert not r.passed
    first = r.counterexamples[0]
    assert (first["trial"], first["check"], first["degree"]) == (0, "equivariance", 16)
    assert first["gamma"] == {"0": [1, 0]}  # trial 0 composes with X
    assert len(r.counterexamples) == 3
    assert payload_calls == {"_first_mismatch": 3, "to_json": 3}
    _cli_report(capsys, ["equivariance", "--p", "2", "--lambda", "1", "--n", "2",
                         "--prec", "32", "--trials", "3", "--seed", "4"], r)
    assert payload_calls == {"_first_mismatch": 6, "to_json": 6}


def test_projection_reports_a_dropped_exponent(monkeypatch, capsys, payload_calls):
    real = series.critical_projection
    monkeypatch.setattr(theorems, "critical_projection", lambda t, pq: _with_coefficient(
        real(t, pq), FAULT + 1, t.spec.zero()))
    r = theorems.verify_projection_formula(PrimePower(2, 2), field_make(2, 2),
                                           prec=32, k_bound=7, ell_bound=1)
    assert not r.passed
    first = r.counterexamples[0]
    assert (first["k"], first["ell"], first["check"], first["degree"]) \
        == (3, 1, "projection_formula", 16)
    assert first["lhs"] == [0, 0] and first["rhs"] != [0, 0]
    assert {ce["check"] for ce in r.counterexamples} == {"projection_formula"}
    assert payload_calls["_first_mismatch"] == len(r.counterexamples)
    _cli_report(capsys, ["projection", "--p", "2", "--lambda", "2", "--n", "2",
                         "--proj-prec", "32", "--k-bound", "7",
                         "--proj-ell-bound", "1"], r)


# The projection grid of the tests below: k = 1 and ell = 1 over F_4 with
# q = 4, all 9 (alpha, beta) pairs at precision 32; the last widens it to
# k <= 5
PROJECTION_GRID = {"prec": 32, "k_bound": 1, "ell_bound": 1}
PROJECTION_ARGV = ["projection", "--p", "2", "--lambda", "2", "--n", "2",
                   "--proj-prec", "32", "--proj-ell-bound", "1", "--k-bound", "1"]


def test_projection_reports_a_broken_closed_form(monkeypatch, capsys):
    # the closed form wrong at degree 14 disagrees with the definitional
    # route there, at every grid point; 14 is even, so neither the
    # projection onto critical exponents nor the term shape reads it
    degree = FAULT - 1
    real = series.twisted_orbit_series
    monkeypatch.setattr(theorems, "twisted_orbit_series",
                        lambda *args: _flipped(real(*args), degree))
    r = theorems.verify_projection_formula(PrimePower(2, 2), field_make(2, 2),
                                           **PROJECTION_GRID)
    assert not r.passed
    assert len(r.counterexamples) == 9
    assert {(ce["k"], ce["ell"], ce["check"], ce["degree"])
            for ce in r.counterexamples} == {(1, 1, "dual_route", degree)}
    assert json.loads(json.dumps(r.to_json_dict()))["pass"] is False
    _cli_report(capsys, PROJECTION_ARGV, r)


def test_projection_reports_a_term_outside_the_orbit(monkeypatch, capsys):
    # X^9 is odd and outside the orbit of k = 1 (9 = 0 mod q - 1, while the
    # orbit of 1 is 1 and 2 mod 3), it is not critical for q = 4, and no
    # closed series of the grid has a term there
    outside = 9
    real = series.twisted_orbit_series
    monkeypatch.setattr(theorems, "twisted_orbit_series", lambda *args: (
        _with_coefficient(real(*args), outside, args[1].spec.one())))
    r = theorems.verify_projection_formula(PrimePower(2, 2), field_make(2, 2),
                                           **PROJECTION_GRID)
    assert not r.passed
    shapes = [ce for ce in r.counterexamples if ce["check"] == "term_shape"]
    assert len(shapes) == 9 and {ce["m"] for ce in shapes} == {outside}
    # the definitional route has no such term; the projection is unchanged
    assert {ce["check"] for ce in r.counterexamples} == {"dual_route", "term_shape"}
    assert r.counterexamples[:2] == [
        {"k": 1, "ell": 1, "alpha": [1, 0], "beta": [1, 0], "check": "dual_route",
         "degree": outside, "lhs": [1, 0], "rhs": [0, 0]},
        {"k": 1, "ell": 1, "alpha": [1, 0], "beta": [1, 0], "check": "term_shape",
         "m": outside}]
    assert json.loads(json.dumps(r.to_json_dict()))["pass"] is False
    _cli_report(capsys, PROJECTION_ARGV, r)


def test_projection_reports_a_term_below_k_in_its_orbit(monkeypatch, capsys):
    # X^7 is in the orbit of k = 5 (both are 1 mod q - 1) but not above 5
    # in the digital order; the fault is put in k = 5's closed series only
    below = 7
    real = series.twisted_orbit_series
    monkeypatch.setattr(theorems, "twisted_orbit_series", lambda *args: (
        _with_coefficient(real(*args), below, args[1].spec.one())
        if args[0] == 5 else real(*args)))
    r = theorems.verify_projection_formula(
        PrimePower(2, 2), field_make(2, 2), **{**PROJECTION_GRID, "k_bound": 5})
    assert not r.passed
    found = [ce for ce in r.counterexamples if "check" in ce]
    assert {ce["k"] for ce in found} == {5}
    shapes = [ce for ce in found if ce["check"] == "term_shape"]
    assert shapes and {ce["m"] for ce in shapes} == {below}
    assert json.loads(json.dumps(r.to_json_dict()))["pass"] is False
    _cli_report(capsys, [*PROJECTION_ARGV[:-1], "5"], r)


def test_coleman_reports_a_broken_action(monkeypatch, capsys, payload_calls):
    real = AdditiveSeries.apply_to
    monkeypatch.setattr(AdditiveSeries, "apply_to",
                        lambda self, g: _flipped(real(self, g), FAULT + 1))
    r = theorems.verify_coleman(PrimePower(2, 2), ext_degree=1, prec=32,
                                trials=2, seed=3)
    assert not r.passed
    first = r.counterexamples[0]
    assert (first["trial"], first["check"], first["degree"]) == (0, "action", 16)
    # every Teichmueller scaling of both trials fails; surjectivity holds
    assert [ce["check"] for ce in r.counterexamples] == ["action"] * 6
    assert payload_calls == {"_first_mismatch": 6, "to_json": 6}
    _cli_report(capsys, ["coleman", "--p", "2", "--lambda", "2", "--n", "2",
                         "--prec", "32", "--trials", "2", "--seed", "3"], r)


def _replayed_mismatch(pq, spec, ce) -> dict:
    """The first mismatch of the action identity on the unit, gamma and
    omega of counterexample ce alone, computed through qcrit.series."""
    prec = len(ce["unit"]) - 1
    h = TruncSeries(spec, prec, [spec.element(c) for c in ce["unit"]])
    gamma = AdditiveSeries(spec, pq, prec, {
        int(i): spec.element(c) for i, c in ce["gamma"].items()})
    omega = spec.element(ce["omega"])
    lhs = series.critical_projection(series.log_deriv(
        h.scale_arg(omega).compose(gamma.as_trunc())), pq)
    rhs = gamma.inverse().apply_to(series.critical_projection(
        series.log_deriv(h), pq).scale_arg(omega).scale(omega.inverse()))
    return theorems._first_mismatch(lhs, rhs)


ACTION_KEYS = {"trial", "check", "seed", "factors", "omega", "gamma", "unit",
               "degree", "lhs", "rhs"}


def test_each_action_counterexample_replays_on_its_own(monkeypatch):
    # a compose that is wrong at degree 15 whenever gamma is not X, so
    # trial 0 passes and the mismatch depends on the drawn gamma
    real = TruncSeries.compose
    monkeypatch.setattr(TruncSeries, "compose", lambda self, inner: (
        _flipped(real(self, inner), FAULT) if inner.support() != [1]
        else real(self, inner)))
    pq2, pq4 = PrimePower(2, 1), PrimePower(2, 2)
    equivariance = theorems.verify_equivariance(
        pq2, field_make(2, 2), prec=32, trials=4, seed=4)
    coleman = theorems.verify_coleman(pq4, ext_degree=2, prec=32, trials=3,
                                      seed=3)
    runs = [(pq2, field_make(2, 2), equivariance, "equivariance"),
            (pq4, field_make(2, 4), coleman, "action")]
    for pq, spec, r, check in runs:
        found = [ce for ce in r.counterexamples if ce["check"] == check]
        assert {ce["trial"] for ce in found} == set(range(1, r.params["trials"]))
        for ce in found:
            assert set(ce) == ACTION_KEYS
            replay = _replayed_mismatch(pq, spec, ce)
            assert replay == {k: ce[k] for k in ("degree", "lhs", "rhs")}
    monkeypatch.undo()
    for pq, spec, r, check in runs:
        for ce in r.counterexamples:
            if ce["check"] == check:
                assert _replayed_mismatch(pq, spec, ce) == {}


def _wrong_at(monkeypatch, name, n0, fault):
    """Rebind theorems.<name>(n, base) to fault(true value, base) at n = n0,
    and to the true function everywhere else."""
    true = getattr(digits, name)
    monkeypatch.setattr(theorems, name, lambda n, base: (
        fault(true(n, base), base) if n == n0 else true(n, base)))


def test_orbit_min_reports_a_minimum_at_or_above_q(monkeypatch, capsys):
    # at c = 50 the fault answers the next member of the same family,
    # q*(mu+1) - 1: still in the orbit and coprime to p, but not below q
    _wrong_at(monkeypatch, "orbit_min", 50,
              lambda mu, pq: pq.q * (mu + 1) - 1)
    r = theorems.verify_orbit_min(PrimePower(2, 2), c_bound=100,
                                  oracle_bound=800)
    assert not r.passed
    assert r.counterexamples == [{"check": "minimum_below_q", "c": 50,
                                  "mu": 7}]
    assert json.loads(json.dumps(r.to_json_dict()))["pass"] is False
    _cli_report(capsys, ["orbit-min", "--p", "2", "--lambda", "2",
                         "--c-bound", "100", "--oracle-bound", "800"], r)


def _without(monkeypatch, name, member):
    """Rebind theorems.<name>, a function that lists integers, to drop
    member from the true list."""
    true = getattr(digits, name)
    monkeypatch.setattr(theorems, name, lambda *args: [
        n for n in true(*args) if n != member])


# The orbit sweeps' runs of the tests below, from the API and from the CLI
ORBIT_RUNS = {
    "orbit-min": (lambda: theorems.verify_orbit_min(
        PrimePower(2, 2), c_bound=100, oracle_bound=800),
        ["--lambda", "2", "--c-bound", "100", "--oracle-bound", "800"]),
    "cyclic-digits": (lambda: theorems.verify_cyclic_digits(
        PrimePower(2, 3), bound=200), ["--lambda", "3", "--bound", "200"]),
}

# check, or check/case -> (sweep, fault, first counterexample), for q = 4
# (orbit-min) and q = 8 (cyclic-digits)
ORBIT_FAULTS = {
    # 2 is even, so it is no orbit minimum; c = 50 is above q, so no other
    # check reads it
    "minimum_in_orbit": ("orbit-min", lambda mp: _wrong_at(
        mp, "orbit_min", 50, lambda mu, pq: 2),
        {"c": 50, "mu": 2}),
    # 3 is odd and below q, but 0 mod 3 while the orbit of 50 is {1, 2}:
    # only the residue half of the check sees it
    "minimum_in_orbit/residue": ("orbit-min", lambda mp: _wrong_at(
        mp, "orbit_min", 50, lambda mu, pq: 3),
        {"c": 50, "mu": 3}),
    # 7 = q*(1+1) - 1 is core-minimal in the orbit of 1, and not the orbit
    # minimum; a wrong core drops it from the scan by definition
    "core_minimal_window": ("orbit-min", lambda mp: _wrong_at(
        mp, "p_core", 7, lambda core, p: core + 10),
        {"bound": 800, "difference_sample": [7]}),
    "base_set": ("orbit-min", lambda mp: _without(mp, "critical_base_set", 3),
                 {"scan": [1], "minima": [1, 3]}),
    "critical_closure": ("orbit-min", lambda mp: _without(
        mp, "critical_members", 1), {"difference_sample": [1]}),
    # the rotation 2*3 of c = 3 reduced to 1, below p; 1 is also the reduced
    # successor of c = 5, so successor_inequality fails there too
    "rotation_bound": ("cyclic-digits", lambda mp: _wrong_at(
        mp, "min_residue", 6, lambda r, pq: 1),
        {"c": 3, "i": 1, "rotation": 1}),
    # every residue counted in the orbit of 5, so p^i*(mu+1) - 1 never leaves
    "shifted_min_escapes": ("cyclic-digits", lambda mp: _wrong_at(
        mp, "orbit_residues", 5, lambda res, pq: frozenset(range(pq.q - 1))),
        {"c": 5, "i": 1, "mu": 3}),
    # the successor of 5 reduces to 6, whose part coprime to 2 is 3 = 1 +
    # p_core(5): the bound holds with equality, so a core of 5 one too high
    # breaks it. 5 is not the least core of its orbit {3, 5, 6}, so no other
    # check moves
    "successor_inequality": ("cyclic-digits", lambda mp: _wrong_at(
        mp, "p_core", 5, lambda core, p: core + 1), {"c": 5}),
}


@pytest.mark.parametrize("case", ORBIT_FAULTS)
def test_orbit_sweeps_report_each_broken_check(case, monkeypatch, capsys):
    statement, inject, first = ORBIT_FAULTS[case]
    check = case.partition("/")[0]
    sweep, argv = ORBIT_RUNS[statement]
    inject(monkeypatch)
    r = sweep()
    assert not r.passed
    assert r.counterexamples[0] == {"check": check, **first}
    # the marker of a truncated list names no check
    others = {ce["check"] for ce in r.counterexamples if "check" in ce} - {check}
    assert others == ({"successor_inequality"} if check == "rotation_bound"
                      else set())
    assert json.loads(json.dumps(r.to_json_dict()))["pass"] is False
    _cli_report(capsys, [statement, "--p", "2", *argv], r)


def test_cyclic_digits_reports_a_wrong_core(monkeypatch, capsys):
    # for q = 8 every multiple of 7 reduces to 7, so it meets the fault;
    # the first of them is 7 itself
    _wrong_at(monkeypatch, "p_core", 7, lambda core, p: core + 10)
    r = theorems.verify_cyclic_digits(PrimePower(2, 3), bound=200)
    assert not r.passed
    first = r.counterexamples[0]
    assert (first["check"], first["c"], first["mid"]) == ("successor_min", 7, 11)
    assert {ce["c"] % 7 for ce in r.counterexamples if "c" in ce} == {0}
    assert json.loads(json.dumps(r.to_json_dict()))["pass"] is False
    _cli_report(capsys, ["cyclic-digits", "--p", "2", "--lambda", "3",
                         "--bound", "200"], r)


# A logderiv trial calls log_deriv six times, in this order: on the kernel
# unit, on f (df, which kernel_out, image_constraint, homomorphism and
# argument_scaling read), on f*g, on g, on the section and on f(alpha X).
# Each fault breaks the calls of one position in every trial.
LOGDERIV_FAULTS = {
    "kernel_in": (0, lambda t, p: _flipped(t, FAULT)),
    "kernel_out": (1, lambda t, p: TruncSeries.zero(t.spec, t.prec)),
    # a_(p*i) = a_i^p broken at i = FAULT; df stays nonzero
    "image_constraint": (1, lambda t, p: _flipped(t, p * FAULT)),
    "homomorphism": (2, lambda t, p: _flipped(t, FAULT)),
    "argument_scaling": (5, lambda t, p: _flipped(t, FAULT)),
}


@pytest.mark.parametrize("check", LOGDERIV_FAULTS)
def test_logderiv_reports_each_broken_check(check, monkeypatch, capsys):
    position, fault = LOGDERIV_FAULTS[check]
    real, calls = theorems.log_deriv, []

    def broken(f):
        calls.append(f)
        t = real(f)
        return fault(t, f.spec.p) if (len(calls) - 1) % 6 == position else t

    monkeypatch.setattr(theorems, "log_deriv", broken)
    r = theorems.verify_logderiv(field_make(2, 2), prec=32, trials=2, seed=4)
    assert len(calls) == 12
    assert not r.passed
    first = r.counterexamples[0]
    assert (first["trial"], first["check"]) == (0, check)
    assert {ce["trial"] for ce in r.counterexamples} == {0, 1}
    if check == "image_constraint":
        assert first["index"] == FAULT
    assert json.loads(json.dumps(r.to_json_dict()))["pass"] is False
    _cli_report(capsys, ["logderiv", "--p", "2", "--lambda", "1", "--n", "2",
                         "--prec", "32", "--trials", "2", "--seed", "4"], r)


def test_coleman_reports_a_broken_section(monkeypatch, capsys, payload_calls):
    # a section wrong at degree 15 makes log_deriv wrong there too, and 15
    # is critical for q = 4, so the projection shows it at degree 16
    real = series.solve_log_deriv
    monkeypatch.setattr(theorems, "solve_log_deriv",
                        lambda t: _flipped(real(t), FAULT))
    r = theorems.verify_coleman(PrimePower(2, 2), ext_degree=1, prec=32,
                                trials=2, seed=3)
    assert not r.passed
    first = r.counterexamples[0]
    assert (first["check"], first["degree"]) == ("surjectivity", 16)
    assert {ce["check"] for ce in r.counterexamples} == {"surjectivity"}
    assert payload_calls["_first_mismatch"] == len(r.counterexamples)
    _cli_report(capsys, ["coleman", "--p", "2", "--lambda", "2", "--n", "2",
                         "--prec", "32", "--trials", "2", "--seed", "3"], r)
