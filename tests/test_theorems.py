import json
import random

import pytest

from qcrit import cli, digits, series, theorems
from qcrit.digits import PrimePower
from qcrit.finite_field import field_make
from qcrit.series import TruncSeries
from qcrit.theorems import (VerifyReport, desk_bounds, explore_generators,
                            verify_admissible_order, verify_admissible_witness,
                            verify_coleman, verify_cyclic_digits,
                            verify_equivariance, verify_logderiv,
                            verify_orbit_min, verify_projection_formula)


def test_report_pass_iff_no_counterexamples():
    r = VerifyReport("s", {}, "scope", 1, [], 0.0)
    assert r.passed
    r = VerifyReport("s", {}, "scope", 1, [{"bad": 1}], 0.0)
    assert not r.passed
    d = r.to_json_dict()
    assert d["pass"] is False and d["counterexamples"] == [{"bad": 1}]
    assert r.to_json_dict(include_timing=False)["elapsed_ms"] is None


def test_desk_bounds():
    assert desk_bounds(2) == (4096, 12)
    assert desk_bounds(3) == (2187, 7)
    assert desk_bounds(5) == (3125, 5)
    assert desk_bounds(61) == (3721, 2)
    # above 64 the largest power is p itself, which bounds no quadruple
    assert desk_bounds(67) == desk_bounds(4093) == (4096, 1)
    # above 4096 no m_bound within the limit admits one: the sweeps refuse
    assert desk_bounds(4099) == (4099, 1)


def test_admissible_sweeps_run_at_the_desk_bounds_of_a_p_above_64():
    for sweep in (verify_admissible_order, verify_admissible_witness):
        for p, count in ((67, 85333), (4093, 3)):
            r = sweep(p)
            assert r.passed and r.checks == count
            assert (r.params["m_bound"], r.params["ell_bound"]) == (4096, 1)
        with pytest.raises(ValueError, match="exceeds the limit 4096"):
            sweep(4099)


def test_equivariance_small_grid():
    for p, lam, n in ((2, 1, 1), (2, 2, 2), (3, 1, 1)):
        r = verify_equivariance(PrimePower(p, lam), field_make(p, n),
                                prec=48, trials=12, seed=5)
        assert r.passed, r.counterexamples[:2]
        assert r.checks == 12


def test_a_negative_trial_count_checks_nothing():
    pq, spec = PrimePower(2, 1), field_make(2, 1)
    for r in (verify_equivariance(pq, spec, prec=8, trials=-1),
              verify_logderiv(spec, prec=8, trials=-1)):
        assert r.passed and r.checks == 0


def test_equivariance_rejects_wrong_characteristic():
    with pytest.raises(ValueError):
        verify_equivariance(PrimePower(2, 1), field_make(3, 1), 16, 2, 0)
    for sweep in (verify_projection_formula, explore_generators):
        with pytest.raises(ValueError, match="characteristic"):
            sweep(PrimePower(2, 1), field_make(3, 1))


def test_logderiv_small():
    r = verify_logderiv(field_make(2, 2), prec=48, trials=10, seed=1)
    assert r.passed
    assert r.checks == 60


def test_logderiv_reports_a_broken_section(monkeypatch, capsys):
    # a section that is wrong in one coefficient past degree 10 must show
    # as a FAIL of the "section" check, from the API and from the CLI
    real = theorems.solve_log_deriv

    def broken(t):
        f = real(t)
        coeffs = list(f.coeffs)
        coeffs[11] = coeffs[11] + t.spec.one()
        return TruncSeries(t.spec, f.prec, coeffs)

    monkeypatch.setattr(theorems, "solve_log_deriv", broken)
    r = verify_logderiv(field_make(3, 2), prec=24, trials=3, seed=4)
    assert not r.passed
    assert r.counterexamples[0] == {"trial": 0, "check": "section", "seed": 4}
    assert {ce["check"] for ce in r.counterexamples} == {"section"}
    capsys.readouterr()
    code = cli.main(["--format", "json", "verify", "logderiv", "--p", "3",
                     "--lambda", "1", "--n", "2", "--prec", "24",
                     "--trials", "3", "--seed", "4"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["pass"] is False
    assert payload["reports"][0]["counterexamples"] == r.counterexamples


@pytest.mark.parametrize("p,n", [(2, 2), (3, 2)])
def test_logderiv_draws_its_trials_as_before(monkeypatch, p, n):
    # each trial's inputs, drawn again from random.Random(seed) with the
    # FieldElement calls the sweep once made: building them on index lists
    # must leave every trial, and so every replay of one, as it was
    spec, prec, trials, seed = field_make(p, n), 20, 3, 5
    seen = []
    real_ld, real_solve = theorems.log_deriv, theorems.solve_log_deriv
    monkeypatch.setattr(theorems, "log_deriv",
                        lambda f: seen.append(f.idx) or real_ld(f))
    monkeypatch.setattr(theorems, "solve_log_deriv",
                        lambda t: seen.append(("section", t.idx)) or real_solve(t))
    assert verify_logderiv(spec, prec=prec, trials=trials, seed=seed).passed
    rng, want = random.Random(seed), []
    for _ in range(trials):
        cs = [spec.zero()] * (prec + 1)
        cs[0] = spec.random_nonzero(rng)
        for i in range(p, prec + 1, p):
            cs[i] = spec.random_element(rng)
        kernel_unit = TruncSeries(spec, prec, cs)
        cs = list(series._random_unit(spec, prec, rng).coeffs)
        i0 = rng.choice([i for i in range(1, prec + 1) if i % p])
        cs[i0] = spec.random_nonzero(rng)
        f = TruncSeries(spec, prec, cs)
        g = series._random_unit(spec, prec, rng)
        t = [spec.zero()] * (prec + 1)
        for i in range(1, prec + 1):
            t[i] = spec.random_element(rng) if i % p else t[i // p] ** p
        target = TruncSeries(spec, prec, t)
        alpha = spec.random_nonzero(rng)
        want += [kernel_unit.idx, f.idx, (f * g).idx, g.idx,
                 ("section", target.idx), series.solve_log_deriv(target).idx,
                 f.scale_arg(alpha).idx]
    assert seen == want


def test_suite_registry_refuses_an_m_bound_below_one():
    # 0 is not read as the default: a sweep below 1 would pass vacuously
    for name in ("admissible-order", "admissible-witness"):
        for m_bound in (0, -5):
            with pytest.raises(ValueError, match="m_bound must be >= 1"):
                theorems.verify_suite(name, PrimePower(2, 1),
                                      field_make(2, 1), m_bound=m_bound)


@pytest.mark.parametrize("sweep", [
    lambda prec: verify_equivariance(PrimePower(2, 1), field_make(2, 1), prec),
    lambda prec: verify_logderiv(field_make(2, 1), prec),
    lambda prec: verify_projection_formula(PrimePower(2, 1), field_make(2, 1),
                                           prec),
    lambda prec: verify_coleman(PrimePower(2, 1), 1, prec)],
    ids=["equivariance", "logderiv", "projection", "coleman"])
def test_the_series_sweeps_refuse_a_precision_out_of_range(monkeypatch, sweep):
    # at 4096 the projection sweep would start its cubic Artin-Hasse
    # recursion; each refusal comes before the sweep builds its collector
    monkeypatch.setattr(theorems, "_Collector", None)
    for prec, message in ((0, "precision must be at least 1"),
                          (2049, "precision 2049 exceeds the limit 2048"),
                          (4096, "precision 4096 exceeds the limit 2048")):
        with pytest.raises(ValueError, match=f"^{message}$"):
            sweep(prec)


class _Built(Exception):
    """A sweep got past its refusals to its collector."""


def _built(key=None):
    raise _Built


@pytest.mark.parametrize("sweep,checks_per_trial", [
    (lambda prec, trials: verify_equivariance(
        PrimePower(2, 1), field_make(2, 1), prec, trials), 1),
    (lambda prec, trials: verify_logderiv(field_make(2, 1), prec, trials), 6),
    (lambda prec, trials: verify_coleman(PrimePower(2, 2), 1, prec, trials), 3)],
    ids=["equivariance", "logderiv", "coleman"])
def test_the_randomized_sweeps_refuse_work_above_the_limit(
        monkeypatch, sweep, checks_per_trial):
    # trials x checks per trial x (prec+32)^2 is refused above _MAX_WORK
    # before the sweep builds its collector; at the limit it is admitted
    monkeypatch.setattr(theorems, "_Collector", _built)
    for prec in (2, 128, 2048):
        most = theorems._MAX_WORK // (checks_per_trial * (prec + 32) ** 2)
        with pytest.raises(_Built):
            sweep(prec, most)
        work = (most + 1) * checks_per_trial * (prec + 32) ** 2
        with pytest.raises(ValueError, match=(
                f"^verify .*: {most + 1} trials at precision {prec} are {work} "
                r"units of work \(checks x \(prec\+32\)\^2\), above the limit ")):
            sweep(prec, most + 1)
    # each of these would run for minutes
    for prec, trials in ((2048, 99999998), (2, 10 ** 7)):
        with pytest.raises(ValueError, match="above the limit"):
            sweep(prec, trials)


def test_the_work_limit_admits_every_benchmark_and_default_sweep():
    # deep-series' equivariance job is the largest benchmark sweep; the
    # default Coleman sweep at q = 256 checks 255 scalings per trial
    for trials, checks_per_trial, prec in ((5, 1, 2048), (2, 6, 2048),
                                           (50, 1, 128), (100, 6, 128),
                                           (25, 255, 128)):
        theorems._check_work("sweep", trials, checks_per_trial, prec)


def test_desk_bounds_and_admissible_sweeps_refuse_a_p_that_is_not_prime():
    # the loop of desk_bounds would never end at p = 1
    for sweep in (desk_bounds, verify_admissible_order,
                  verify_admissible_witness):
        for p in (0, 1, 4):
            with pytest.raises(ValueError, match=f"p must be prime, got {p}"):
                sweep(p)


def test_admissible_sweeps_small():
    for p in (2, 3, 5):
        r = verify_admissible_order(p, 200, 4)
        assert r.passed and r.checks > 0
        r = verify_admissible_witness(p, 200, 4)
        assert r.passed and r.checks > 0


def test_orbit_min_small():
    for p, lam in ((2, 2), (3, 1)):
        r = verify_orbit_min(PrimePower(p, lam), c_bound=100, oracle_bound=800)
        assert r.passed, r.counterexamples[:2]


def test_cyclic_digits_small():
    r = verify_cyclic_digits(PrimePower(2, 3), bound=600)
    assert r.passed
    # lambda = 1 leaves the rotation families vacuous but still passes
    r = verify_cyclic_digits(PrimePower(5, 1), bound=600)
    assert r.passed
    assert "vacuous" in r.scope


def test_projection_formula_small():
    r = verify_projection_formula(PrimePower(2, 2), field_make(2, 2),
                                  prec=64, k_bound=7, ell_bound=2)
    assert r.passed, r.counterexamples[:2]


def test_coeff_pool_of_a_prime_field_above_nine_elements_is_distinct():
    # 2, 4 and 8 are distinct and nonzero mod every p >= 11
    for p in (11, 13, 67):
        spec = field_make(p, 1)
        pool = theorems._coeff_pool(spec)
        assert pool == [spec.scalar(2), spec.scalar(4), spec.scalar(8)]
    r = verify_projection_formula(PrimePower(11, 1), field_make(11, 1),
                                  prec=24, k_bound=3, ell_bound=1)
    assert r.passed, r.counterexamples[:2]
    assert r.params["pool_size"] == 3
    assert r.checks == 3 * 3 * 9  # k in {1, 2, 3}, 1 ell, 9 pairs
    rows = explore_generators(PrimePower(11, 1), field_make(11, 1),
                              k_bound=12, prec=24)
    keys = [(row["k"], tuple(row["alpha"])) for row in rows]
    assert len(keys) == len(set(keys)) == 11 * 3  # k <= 12 but 11


def test_projection_formula_pool_above_nine_elements():
    # F_16 is above the 9 elements whose every nonzero element goes in the
    # pool: the pool is g, g^2 and g^3 for the basis root g
    spec = field_make(2, 4)
    g = spec.gen()
    assert theorems._coeff_pool(spec) == [g, g * g, g * g * g]
    r = verify_projection_formula(PrimePower(2, 2), spec, prec=40, k_bound=5,
                                  ell_bound=2)
    assert r.passed, r.counterexamples[:2]
    assert r.params["pool_size"] == 3
    assert r.checks == 3 * 2 * 3 * 3 * 3  # k in {1, 3, 5}, 2 ells, 9 pairs


def test_coleman_small():
    r = verify_coleman(PrimePower(2, 2), ext_degree=2, prec=48, trials=6,
                       seed=2)
    assert r.passed, r.counterexamples[:2]
    # trivial extension degree also works: the field is F_q itself
    r = verify_coleman(PrimePower(2, 2), ext_degree=1, prec=48, trials=6,
                       seed=2)
    assert r.passed
    # the suite registry takes a given degree over n / lambda
    r = theorems.verify_suite("coleman", PrimePower(2, 2), field_make(2, 4),
                              ext_degree=1, trials=1)
    assert r.passed and r.params["ext_degree"] == 1


def test_reports_deterministic():
    a = verify_equivariance(PrimePower(2, 2), field_make(2, 2), 32, 6, 9)
    b = verify_equivariance(PrimePower(2, 2), field_make(2, 2), 32, 6, 9)
    da, db = a.to_json_dict(False), b.to_json_dict(False)
    assert da == db


def test_counterexamples_are_collected(monkeypatch, fresh_digit_tables):
    # falsify the digital order on purpose: every quadruple must now fail.
    # The sweep ranks the keys of its digit tables, so the key is patched.
    monkeypatch.setattr(digits, "digital_key", lambda n, p: (-n, 0, n))
    r = verify_admissible_order(2, 40, 3)
    assert not r.passed
    assert r.counterexamples
    assert r.counterexamples[0]["check"] == "digital_order"
    assert "quad" in r.counterexamples[0]
    # the collector caps runaway failures but records the total
    cap = theorems._MAX_COUNTEREXAMPLES
    assert r.checks > cap
    assert len(r.counterexamples) == cap + 1
    assert r.counterexamples[-1] == {"truncated": True,
                                     "total_failures": r.checks}


def test_equivariance_route_matches_formula_route():
    # with a single twist generator and an Artin-Hasse generator as the
    # unit, the equivariance identity and the closed projection formula
    # describe the same series, term by term
    from qcrit.series import (AdditiveSeries, artin_hasse,
                              critical_projection,
                              critical_projection_formula, log_deriv,
                              TruncSeries)
    pq = PrimePower(2, 2)
    spec = field_make(2, 2)
    prec = 128
    ah = artin_hasse(2, prec, spec)
    for k in (1, 3, 7):
        for ell in (1, 2):
            for alpha in spec.nonzero_elements():
                for beta in spec.nonzero_elements():
                    gamma = AdditiveSeries.generator(spec, pq, prec, beta, ell)
                    unit = ah.compose(TruncSeries.monomial(spec, prec, k, alpha))
                    lhs = critical_projection(
                        log_deriv(unit.compose(gamma.as_trunc())), pq)
                    via_inverse = gamma.inverse().apply_to(
                        critical_projection(log_deriv(unit), pq))
                    via_formula = critical_projection_formula(
                        k, alpha, ell, beta, pq, prec + 1).scale(spec.scalar(k))
                    assert lhs.agrees(via_inverse)
                    assert lhs.agrees(via_formula)


def test_explore_generators_shape():
    # D[E(alpha X^k)] = k * sum_i alpha^(p^i) X^(k p^i), whose only exponent
    # coprime to p is k: on every field each (k, alpha) gives a row led by k,
    # as the series route finds, the digitally least exponent coprime to p
    # in the support of log_deriv(E o alpha X^k)
    for p, lam, n in ((2, 1, 1), (2, 2, 2), (2, 1, 4), (3, 1, 1), (3, 1, 2),
                      (5, 1, 1)):
        pq, spec = PrimePower(p, lam), field_make(p, n)
        rows = explore_generators(pq, spec, k_bound=63, prec=128)
        ks = [k for k in range(1, 64) if k % p]
        pool = theorems._coeff_pool(spec)
        assert len(rows) == len(ks) * len(pool)
        assert [(row["k"], row["alpha"]) for row in rows] == [
            (k, alpha.to_json()) for k in ks for alpha in pool]
        ah = series.artin_hasse(p, 128, spec)
        for row, alpha in zip(rows, pool * len(ks)):
            inner = TruncSeries.monomial(spec, 128, row["k"], alpha)
            support = series.log_deriv(ah.compose(inner)).support()
            lead = min((m for m in support if m % p),
                       key=lambda m: digits.digital_key(m, p))
            assert row["lead_exponent"] == row["k"] == lead
            # flags agree with the membership test
            assert row["critical"] == digits.is_critical(row["k"], pq)
            assert (row["core"], row["defect"]) == (
                digits.p_core(lead, p), digits.p_defect(lead, p))


def test_explore_generators_alpha_pool():
    rows = explore_generators(PrimePower(2, 2), field_make(2, 2),
                              k_bound=7, prec=64)
    ks = {row["k"] for row in rows}
    assert ks == {1, 3, 5, 7}
    assert len(rows) == 4 * 3  # three nonzero coefficients in F_4
