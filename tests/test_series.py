import functools
import json
import random
from fractions import Fraction

import pytest

from qcrit.digits import PrimePower, critical_members, is_critical
from qcrit.finite_field import field_make
from qcrit.series import (MAX_PREC, AdditiveSeries, TruncSeries, artin_hasse,
                          critical_projection, critical_projection_formula,
                          log_deriv, orbit_series, random_gamma, random_unit,
                          solve_log_deriv, twisted_orbit_series)

F2 = field_make(2, 1)
F4 = field_make(2, 2)
F9 = field_make(3, 2)
PQ2 = PrimePower(2, 1)
PQ4 = PrimePower(2, 2)


def series(spec, values, prec=None):
    vals = list(values)
    if prec is not None:
        vals += [0] * (prec + 1 - len(vals))
    return TruncSeries.from_scalars(spec, vals)


# ---------------------------------------------------------------------------
# Ring operations
# ---------------------------------------------------------------------------

def test_one_is_multiplicative_identity():
    rng = random.Random(1)
    for spec in (F2, F4, F9):
        f = random_unit(spec, 20, 11)
        assert TruncSeries.one(spec, 20) * f == f


def test_cauchy_product_against_convolution_oracle():
    rng = random.Random(7)
    for spec in (F4, F9):
        for _ in range(20):
            n = 24
            a = [spec.random_element(rng) for _ in range(n + 1)]
            b = [spec.random_element(rng) for _ in range(n + 1)]
            f = TruncSeries(spec, n, a)
            g = TruncSeries(spec, n, b)
            prod = f * g
            for d in range(n + 1):
                acc = spec.zero()
                for i in range(d + 1):
                    acc = acc + a[i] * b[d - i]
                assert prod.coeffs[d] == acc


def test_reciprocal_of_one_plus_x():
    f = series(F2, [1, 1], prec=16)
    inv = f.inverse_mult()
    # multiply back, and compare with the frozen geometric expansion
    assert (inv * f) == TruncSeries.one(F2, 16)
    assert inv == series(F2, [1] * 17)


def test_reciprocal_random_units():
    rng = random.Random(3)
    for spec in (F2, F4, F9):
        for _ in range(10):
            f = TruncSeries(spec, 32, [spec.random_nonzero(rng)]
                            + [spec.random_element(rng) for _ in range(32)])
            assert f * f.inverse_mult() == TruncSeries.one(spec, 32)


def test_reciprocal_requires_unit():
    with pytest.raises(ValueError):
        series(F2, [0, 1], prec=4).inverse_mult()


def test_derivative_kills_p_th_powers():
    for spec, p in ((F2, 2), (F9, 3)):
        xp = TruncSeries.monomial(spec, 3 * p, p, spec.one())
        d = xp.derivative()
        assert d == TruncSeries.zero(spec, 3 * p - 1)


def test_derivative_prec_drop():
    f = series(F4, [1, 1, 1, 1])
    assert f.derivative().prec == f.prec - 1


# ---------------------------------------------------------------------------
# Composition
# ---------------------------------------------------------------------------

def test_compose_identities():
    rng = random.Random(9)
    for spec in (F2, F9):
        f = random_unit(spec, 20, 5)
        x = TruncSeries.x(spec, 20)
        g = TruncSeries(spec, 20, [spec.zero()]
                        + [spec.random_element(rng) for _ in range(20)])
        assert x.compose(g) == g
        assert f.compose(x) == f


def test_compose_char2_square():
    # (X + X^2)^2 = X^2 + X^4: the cross term carries an even coefficient
    xx = series(F2, [0, 0, 1], prec=8)
    g = series(F2, [0, 1, 1], prec=8)
    assert xx.compose(g) == series(F2, [0, 0, 1, 0, 1], prec=8)


def test_compose_requires_zero_constant():
    with pytest.raises(ValueError):
        series(F2, [1, 1], prec=4).compose(series(F2, [1, 1], prec=4))


def test_compose_against_horner_oracle():
    # brute substitution: sum a_i g^i with plain repeated multiplication
    rng = random.Random(21)
    spec = F4
    n = 20
    for _ in range(5):
        f = TruncSeries(spec, n, [spec.random_element(rng) for _ in range(n + 1)])
        g = TruncSeries(spec, n, [spec.zero()]
                        + [spec.random_element(rng) for _ in range(n)])
        acc = TruncSeries.zero(spec, n)
        power = TruncSeries.one(spec, n)
        for i in range(n + 1):
            acc = acc + power.scale(f.coeffs[i])
            power = power * g
        assert f.compose(g) == acc


def test_compose_associative_with_scale_arg():
    rng = random.Random(2)
    f = random_unit(F9, 24, 8)
    alpha = F9.random_nonzero(rng)
    ax = TruncSeries.monomial(F9, 24, 1, alpha)
    assert f.compose(ax) == f.scale_arg(alpha)


# ---------------------------------------------------------------------------
# Logarithmic derivative
# ---------------------------------------------------------------------------

def test_log_deriv_of_constant():
    for spec in (F2, F9):
        c = TruncSeries.monomial(spec, 12, 0, spec.from_index(1))
        assert log_deriv(c) == TruncSeries.zero(spec, 12)


def test_log_deriv_one_plus_x():
    # X/(1+X) over F_2, by explicit long division: all coefficients 1
    f = series(F2, [1, 1], prec=16)
    got = log_deriv(f)
    num = TruncSeries.x(F2, 16)
    assert got == num * f.inverse_mult()
    assert got == series(F2, [0] + [1] * 16)


def test_log_deriv_definition():
    rng = random.Random(30)
    for spec in (F4, F9):
        for _ in range(10):
            f = TruncSeries(spec, 24, [spec.random_nonzero(rng)]
                            + [spec.random_element(rng) for _ in range(24)])
            direct = TruncSeries.x(spec, 24) * f.derivative() * f.inverse_mult()
            assert log_deriv(f).agrees(direct)


def test_log_deriv_is_homomorphism():
    rng = random.Random(31)
    for spec in (F2, F4, F9):
        for _ in range(10):
            f = TruncSeries(spec, 24, [spec.random_nonzero(rng)]
                            + [spec.random_element(rng) for _ in range(24)])
            g = TruncSeries(spec, 24, [spec.random_nonzero(rng)]
                            + [spec.random_element(rng) for _ in range(24)])
            assert log_deriv(f * g) == log_deriv(f) + log_deriv(g)


def test_log_deriv_requires_unit():
    with pytest.raises(ValueError):
        log_deriv(series(F2, [0, 1], prec=4))


def test_scale_arg_examples():
    rng = random.Random(4)
    f = random_unit(F9, 16, 9)
    assert f.scale_arg(F9.one()) == f
    alpha = F9.random_nonzero(rng)
    sq = TruncSeries.monomial(F9, 8, 2, F9.one())
    assert sq.scale_arg(alpha) == TruncSeries.monomial(F9, 8, 2, alpha * alpha)
    # a_i becomes a_i alpha^i, for alpha = 0 too, and at precision 0
    for a in (alpha, F9.zero()):
        for g in (f, f.truncate(0)):
            want = [c * a ** i for i, c in enumerate(g.coeffs)]
            assert list(g.scale_arg(a).coeffs) == want
    # substitution of alpha*X commutes with the logarithmic derivative
    for _ in range(10):
        f = TruncSeries(F9, 24, [F9.random_nonzero(rng)]
                        + [F9.random_element(rng) for _ in range(24)])
        alpha = F9.random_nonzero(rng)
        assert log_deriv(f.scale_arg(alpha)) == log_deriv(f).scale_arg(alpha)


# ---------------------------------------------------------------------------
# The section of the logarithmic derivative
# ---------------------------------------------------------------------------

def admissible_target(spec, prec, rng):
    p = spec.p
    t = [spec.zero()] * (prec + 1)
    for i in range(1, prec + 1):
        t[i] = (spec.random_element(rng) if i % p else t[i // p] ** p)
    return TruncSeries(spec, prec, t)


def test_section_of_zero():
    assert solve_log_deriv(TruncSeries.zero(F4, 16)) == TruncSeries.one(F4, 16)


def test_section_round_trip():
    rng = random.Random(77)
    for spec in (F2, F4, F9):
        for _ in range(10):
            t = admissible_target(spec, 32, rng)
            assert log_deriv(solve_log_deriv(t)) == t


def test_section_rejects_bad_input():
    t = [F2.zero()] * 9
    t[1] = F2.one()  # a_2 should be a_1^2 = 1 but stays 0
    with pytest.raises(ValueError):
        solve_log_deriv(TruncSeries(F2, 8, t))
    with pytest.raises(ValueError):
        solve_log_deriv(TruncSeries.one(F2, 8))


def test_section_preimages_differ_by_p_power_units():
    # two preimages of the same derivative divide to a series in X^p
    t = log_deriv(series(F2, [1, 1], prec=32))
    f = solve_log_deriv(t)
    quotient = f * series(F2, [1, 1], prec=32).inverse_mult()
    assert all(i % 2 == 0 for i in quotient.support())
    # same for the Frobenius-orbit target and the Artin-Hasse unit
    t2 = orbit_series(1, F2.one(), 32)
    f2 = solve_log_deriv(t2)
    quotient2 = f2 * artin_hasse(2, 32, F2).inverse_mult()
    assert all(i % 2 == 0 for i in quotient2.support())


# ---------------------------------------------------------------------------
# Critical projection
# ---------------------------------------------------------------------------

def test_projection_of_zero():
    assert critical_projection(TruncSeries.zero(F2, 10), PQ2) \
        == TruncSeries.zero(F2, 11)


def test_projection_of_frobenius_orbit_sums():
    # sum of X^(p^i): only the exponent 1 is critical, so the image is X^2
    t = orbit_series(1, F2.one(), 32)
    assert critical_projection(t, PQ2) == TruncSeries.monomial(F2, 33, 2, F2.one())


def test_projection_of_orbit_series():
    for pq in (PQ2, PQ4):
        for k in (1, 3, 5, 7, 9, 11):
            w = orbit_series(k, F4.one(), 64)
            got = critical_projection(w, pq)
            if is_critical(k, pq):
                assert got == TruncSeries.monomial(F4, 65, k + 1, F4.one())
            else:
                assert got == TruncSeries.zero(F4, 65)


def test_projection_keeps_exactly_critical_exponents():
    rng = random.Random(12)
    t = TruncSeries(F4, 48, [F4.zero()]
                    + [F4.random_element(rng) for _ in range(48)])
    got = critical_projection(t, PQ4)
    crit = set(critical_members(PQ4, 48))
    for k in range(1, 49):
        want = t.coeffs[k] if k in crit else F4.zero()
        assert got.coeffs[k + 1] == want


# ---------------------------------------------------------------------------
# Sparse q-power series
# ---------------------------------------------------------------------------

def test_additive_identity_acts_trivially():
    rng = random.Random(6)
    x = AdditiveSeries.identity(F4, PQ4, 32)
    g = TruncSeries(F4, 32, [F4.zero()]
                    + [F4.random_element(rng) for _ in range(32)])
    assert x.apply_to(g) == g


def test_additive_action_on_monomial():
    rho = AdditiveSeries(F4, PQ4, 64, {0: F4.gen(), 1: F4.one()})
    k = 2
    mono = TruncSeries.monomial(F4, 64, k + 1, F4.one())
    got = rho.apply_to(mono)
    want = [F4.zero()] * 65
    want[k + 1] = F4.gen()
    want[4 * (k + 1)] = F4.one()
    assert got == TruncSeries(F4, 64, want)


def test_additive_action_matches_dense_composition():
    rng = random.Random(18)
    for _ in range(10):
        rho = random_gamma(PQ4, F4, 64, rng.randrange(10 ** 6), 3)
        g = TruncSeries(F4, 64, [F4.zero()]
                        + [F4.random_element(rng) for _ in range(64)])
        assert rho.apply_to(g) == rho.as_trunc().compose(g)


def test_additive_module_axiom():
    # on F_4 with q = 2 and F_9 with q = 3, x -> x^q moves the field, so a
    # composition that twists by the wrong power of it acts wrongly
    rng = random.Random(19)
    for spec, pq in ((F4, PQ4), (F4, PQ2), (F9, PrimePower(3, 1))):
        for _ in range(10):
            r1 = random_gamma(pq, spec, 256, rng.randrange(10 ** 6), 2)
            r2 = random_gamma(pq, spec, 256, rng.randrange(10 ** 6), 2)
            g = TruncSeries(spec, 256, [spec.zero()]
                            + [spec.random_element(rng) for _ in range(256)])
            assert r1.compose(r2).apply_to(g) == r1.apply_to(r2.apply_to(g))


def test_gamma_inverse_identity():
    x = AdditiveSeries.identity(F4, PQ4, 64)
    assert x.inverse() == x


def test_gamma_inverse_closed_form():
    # inverse of X + beta X^(q^ell): alternating signs and geometric
    # exponent sums (q^(ell*i) - 1)/(q^ell - 1)
    for spec, pq, ell in ((F4, PQ4, 1), (F9, PrimePower(3, 2), 1), (F4, PQ4, 2)):
        q = pq.q
        prec = q ** (3 * ell)
        for beta in (spec.gen(), spec.gen() + spec.one()):
            g = AdditiveSeries.generator(spec, pq, prec, beta, ell)
            inv = g.inverse()
            for i in range(0, 4):
                if q ** (ell * i) > prec:
                    break
                sign = spec.scalar((-1) ** i % spec.p)
                want = sign * beta ** ((q ** (ell * i) - 1) // (q ** ell - 1))
                assert inv.coefficient(ell * i) == want
            # off the multiples of ell everything vanishes
            for m in range(inv.max_index() + 1):
                if m % ell:
                    assert not inv.coefficient(m)
            assert g.compose(inv) == AdditiveSeries.identity(spec, pq, prec)
            assert inv.compose(g) == AdditiveSeries.identity(spec, pq, prec)


def test_gamma_inverse_random_round_trip():
    for seed in range(8):
        g = random_gamma(PQ4, F4, 256, seed, 4)
        inv = g.inverse()
        assert g.compose(inv) == AdditiveSeries.identity(F4, PQ4, 256)
        x = TruncSeries.x(F4, 256)
        assert g.as_trunc().compose(inv.as_trunc()).agrees(x)


def test_right_action_reverses_inverses():
    # composing the unit with g1 o g2 acts on the projected logarithmic
    # derivative as g2^-1 then g1^-1
    for seed in range(5):
        f = random_unit(F4, 96, 1000 + seed)
        g1 = random_gamma(PQ4, F4, 96, 2000 + seed, 2)
        g2 = random_gamma(PQ4, F4, 96, 3000 + seed, 2)
        combined = g1.compose(g2)
        lhs = critical_projection(log_deriv(f.compose(combined.as_trunc())), PQ4)
        step = g1.inverse().apply_to(critical_projection(log_deriv(f), PQ4))
        rhs = g2.inverse().apply_to(step)
        assert lhs.agrees(rhs)
        assert lhs.agrees(combined.inverse().apply_to(
            critical_projection(log_deriv(f), PQ4)))


def test_gamma_inverse_requires_leading_x():
    rho = AdditiveSeries(F4, PQ4, 16, {0: F4.gen()})
    with pytest.raises(ValueError):
        rho.inverse()


def test_additive_rejects_mismatched_characteristic():
    with pytest.raises(ValueError):
        AdditiveSeries(F9, PQ4, 16, {})


def test_additive_term_index_bound():
    AdditiveSeries(F4, PQ4, 16, {2: F4.one()})  # X^16 is within precision 16
    with pytest.raises(ValueError, match="exceeds precision bound 16"):
        AdditiveSeries(F4, PQ4, 16, {3: F4.one()})


def test_additive_huge_term_index_is_rejected_at_once():
    doc = {"field": field_make(3, 1).to_json(), "q": {"p": 3, "lambda": 1},
           "prec": 16, "terms": {"1" + "0" * 30: [1]}}
    with pytest.raises(ValueError, match="exceeds precision bound 16"):
        AdditiveSeries.from_json(doc)


# ---------------------------------------------------------------------------
# Named series
# ---------------------------------------------------------------------------

def exp_reference(p, prec):
    # direct truncated exponential of sum X^(p^i)/p^i over the rationals
    s = [Fraction(0)] * (prec + 1)
    pi = 1
    while pi <= prec:
        s[pi] = Fraction(1, pi)
        pi *= p
    out = [Fraction(0)] * (prec + 1)
    out[0] = Fraction(1)
    term = list(out)
    for k in range(1, prec + 1):
        nxt = [Fraction(0)] * (prec + 1)
        for i in range(prec + 1):
            if term[i]:
                for j in range(1, prec + 1 - i):
                    if s[j]:
                        nxt[i + j] += term[i] * s[j]
        term = [c / k for c in nxt]
        out = [a + b for a, b in zip(out, term)]
    return out


@pytest.mark.parametrize("p,spec", [(2, F2), (2, F4), (3, F9)])
def test_artin_hasse_against_exponential_oracle(p, spec):
    prec = 24
    reference = exp_reference(p, prec)
    got = artin_hasse(p, prec, spec)
    for m, c in enumerate(reference):
        assert c.denominator % p != 0
        want = c.numerator * pow(c.denominator, -1, p) % p
        assert got.coeffs[m] == spec.scalar(want)


def test_artin_hasse_leading_terms():
    for p, spec in ((2, F2), (3, F9), (5, field_make(5, 1))):
        e = artin_hasse(p, 8, spec)
        assert e.coeffs[0] == spec.one()
        assert e.coeffs[1] == spec.one()


def test_artin_hasse_log_deriv():
    for p, spec in ((2, F2), (3, F9)):
        e = artin_hasse(p, 64, spec)
        assert log_deriv(e) == orbit_series(1, spec.one(), 64)


def test_artin_hasse_wrong_characteristic():
    with pytest.raises(ValueError):
        artin_hasse(2, 8, F9)


def test_orbit_series_shape():
    t = F4.gen()
    w = orbit_series(3, t, 48)
    assert w.support() == [3, 6, 12, 24, 48]
    for i, e in enumerate([3, 6, 12, 24, 48]):
        assert w.coeffs[e] == t.frobenius(i)
    with pytest.raises(ValueError):
        orbit_series(4, t, 48)


def test_orbit_series_is_normalized_log_deriv():
    # k^-1 D[E(alpha X^k)] recomputed from scratch
    for spec, p, k in ((F4, 2, 3), (F9, 3, 2), (F9, 3, 5)):
        alpha = spec.gen()
        prec = 40
        e = artin_hasse(p, prec, spec)
        inner = TruncSeries.monomial(spec, prec, k, alpha)
        definitional = log_deriv(e.compose(inner)).scale(spec.scalar(k).inverse())
        assert definitional == orbit_series(k, alpha, prec)


def test_twisted_orbit_series_leading_coefficient():
    for k in (1, 3, 5):
        for ell in (1, 2):
            got = twisted_orbit_series(k, F4.gen(), ell, F4.one(), PQ4, 64)
            assert got.coeffs[k] == F4.gen()


def test_twisted_orbit_dual_route_small():
    prec = 96
    e = artin_hasse(2, prec, F4)
    for k in (1, 3, 5):
        for ell in (1, 2):
            for alpha in F4.nonzero_elements():
                for beta in F4.nonzero_elements():
                    base = [F4.zero()] * (prec + 1)
                    base[1] = F4.one()
                    if PQ4.q ** ell <= prec:
                        base[PQ4.q ** ell] = beta
                    inner = (TruncSeries(F4, prec, base) ** k).scale(alpha)
                    definitional = log_deriv(e.compose(inner)).scale(
                        F4.scalar(k).inverse())
                    closed = twisted_orbit_series(k, alpha, ell, beta, PQ4, prec)
                    assert closed == definitional


def test_twist_vanishes_when_twist_exceeds_precision():
    # with q^ell beyond the precision no twisted term fits
    got = twisted_orbit_series(3, F4.one(), 3, F4.gen(), PQ4, 32)
    assert got == orbit_series(3, F4.one(), 32)


def test_projection_formula_cases():
    # non-critical k projects to zero; critical k leads with alpha X^(k+1)
    assert not is_critical(5, PQ4)
    z = critical_projection_formula(5, F4.gen(), 1, F4.one(), PQ4, 64)
    assert z == TruncSeries.zero(F4, 64)
    assert is_critical(3, PQ4)
    f = critical_projection_formula(3, F4.gen(), 1, F4.one(), PQ4, 64)
    assert f.coeffs[4] == F4.gen()
    assert critical_projection(
        twisted_orbit_series(3, F4.gen(), 1, F4.one(), PQ4, 63), PQ4) == f


# ---------------------------------------------------------------------------
# Seeded randomness
# ---------------------------------------------------------------------------

def test_random_unit_deterministic():
    assert random_unit(F4, 32, 123) == random_unit(F4, 32, 123)
    assert random_unit(F4, 32, 123) != random_unit(F4, 32, 124)
    assert random_unit(F4, 32, 5).is_unit()


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9, 243, 255, 256, 257, 2 ** 16, 2 ** 32,
                               2 ** 32 + 1, 2 ** 40 + 7])
def test_draws_equal_randrange_one_call_at_a_time(n):
    # the values and the state the generator is left in, for n below 256
    # (the top byte of each word), up to 32 bits (whole words) and above
    # (randrange's own calls), at counts of 0, 1, 7 and 2049, most of which
    # reject some words
    from qcrit.series import _draws
    for count in (0, 1, 7, 2049):
        one, bulk = random.Random(n + count), random.Random(n + count)
        want = [one.randrange(n) for _ in range(count)]
        assert _draws(bulk, n, count) == want
        assert bulk.getstate() == one.getstate()


def test_random_gamma_structure():
    pq = PQ4
    for seed in range(6):
        g = random_gamma(pq, F4, 128, seed, 4)
        assert g == random_gamma(pq, F4, 128, seed, 4)
        assert g.is_gamma
        dense = g.as_trunc()
        for i in dense.support():
            # exponents are powers of q only
            e = i
            while e % pq.q == 0:
                e //= pq.q
            assert e == 1
    assert random_gamma(pq, F4, 128, 0, 0) \
        == AdditiveSeries.identity(F4, pq, 128)


# ---------------------------------------------------------------------------
# Exponent lattice of the projection target
# ---------------------------------------------------------------------------

def test_critical_exponents_stable_under_q():
    for pq in (PQ4, PrimePower(3, 2)):
        members = critical_members(pq, 3000)
        member_set = set(members)
        for k in members:
            if pq.q * (k + 1) - 1 <= 3000:
                assert pq.q * (k + 1) - 1 in member_set


def test_critical_exponent_unique_decomposition():
    from qcrit.digits import critical_base_set
    for pq in (PQ4, PrimePower(3, 2), PrimePower(2, 3)):
        base = critical_base_set(pq)
        seen = {}
        for c in base:
            e = c + 1
            while e <= 4096:
                assert e not in seen
                seen[e] = c
                e *= pq.q
        members = {k + 1 for k in critical_members(pq, 4095)}
        assert members == set(seen)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_series_json_round_trip():
    f = random_unit(F4, 16, 3)
    blob = json.dumps(f.to_json(), sort_keys=True)
    again = TruncSeries.from_json(json.loads(blob))
    assert again == f
    assert json.dumps(again.to_json(), sort_keys=True) == blob


def test_additive_json_round_trip():
    g = random_gamma(PQ4, F4, 64, 9, 3)
    blob = json.dumps(g.to_json(), sort_keys=True)
    again = AdditiveSeries.from_json(json.loads(blob))
    assert again == g
    assert json.dumps(again.to_json(), sort_keys=True) == blob


def test_json_precision_is_capped():
    f = TruncSeries.zero(F4, MAX_PREC).to_json()
    assert TruncSeries.from_json(f).prec == MAX_PREC
    g = AdditiveSeries.identity(F4, PQ4, MAX_PREC).to_json()
    assert AdditiveSeries.from_json(g).prec == MAX_PREC
    # refused before the coefficients are read
    for doc, cls in ((f, TruncSeries), (g, AdditiveSeries)):
        with pytest.raises(ValueError, match="exceeds the limit 2048"):
            cls.from_json({**doc, "prec": MAX_PREC + 1, "coeffs": None,
                           "terms": None})


def test_trunc_series_validation():
    with pytest.raises(ValueError):
        TruncSeries(F4, 4, [F4.zero()] * 4)
    with pytest.raises(ValueError):
        TruncSeries(F4, 2, [F4.zero(), F9.zero(), F4.zero()])


TRUNC_DOC = {"field": {"p": 2, "n": 1, "modulus": [0, 1]}, "prec": 1,
             "coeffs": [[1], [0]]}
ADDITIVE_DOC = {"field": {"p": 2, "n": 1, "modulus": [0, 1]},
                "q": {"p": 2, "lambda": 1}, "prec": 4, "terms": {"0": [1]}}


def _misshapen(doc):
    """The document as a list, without each key, and with each member of a
    wrong type."""
    yield list(doc.values())
    for key in doc:
        yield {k: v for k, v in doc.items() if k != key}
        for wrong in (5, "x", [1], {"a": 1}, None):
            if type(wrong) is not type(doc[key]):
                yield {**doc, key: wrong}


@pytest.mark.parametrize("doc", list(_misshapen(TRUNC_DOC)))
def test_trunc_json_of_another_shape_is_refused(doc):
    assert TruncSeries.from_json(TRUNC_DOC).prec == 1
    with pytest.raises(ValueError):
        TruncSeries.from_json(doc)


@pytest.mark.parametrize("doc", list(_misshapen(ADDITIVE_DOC)))
def test_additive_json_of_another_shape_is_refused(doc):
    assert AdditiveSeries.from_json(ADDITIVE_DOC).prec == 4
    with pytest.raises(ValueError):
        AdditiveSeries.from_json(doc)


def test_json_coefficient_count_is_checked_before_conversion():
    doc = {"field": {"p": 2, "n": 1, "modulus": [0, 1]}, "prec": 0,
           "coeffs": [[0], "x"]}
    with pytest.raises(ValueError, match="expected 1 coefficients, got 2"):
        TruncSeries.from_json(doc)


@pytest.mark.parametrize("alpha", [F9.gen(), F9.from_index(8)],
                         ids=["index-in-range", "index-out-of-range"])
def test_elements_of_another_field_are_refused(alpha):
    # an F_9 index read in the F_4 tables would give a wrong row or an
    # IndexError, so the field is checked before the index is used
    f = random_unit(F4, 8, 1)
    with pytest.raises(ValueError, match="different field"):
        f.scale(alpha)
    with pytest.raises(ValueError, match="different field"):
        f.scale_arg(alpha)
    with pytest.raises(ValueError, match="different field"):
        TruncSeries.monomial(F4, 8, 2, alpha)


def test_coefficients_are_views_of_the_indices():
    f = random_unit(F9, 12, 5)
    assert f.coeffs == tuple(F9.from_index(i) for i in f.idx)
    assert [f.coefficient(i) for i in range(13)] == list(f.coeffs)
    assert TruncSeries(F9, 12, f.coeffs) == f
    assert hash(TruncSeries(F9, 12, f.coeffs)) == hash(f)
    assert f.truncate(4).idx == f.idx[:5]
    g = TruncSeries.monomial(F9, 6, 3, F9.gen())
    assert g.valuation() == 3 and g.support() == [3]
    assert TruncSeries.zero(F9, 6).valuation() is None


# every (p, lambda) with q <= 3^4
SMALL_PQ = [(p, lam) for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                               47, 53, 59, 61, 67, 71, 73, 79)
            for lam in range(1, 7) if p ** lam <= 81]


@pytest.mark.parametrize("p,lam", SMALL_PQ, ids=[f"p{p}-lam{lam}" for p, lam in SMALL_PQ])
def test_critical_set_is_the_closure_of_the_critical_integers_below_q(p, lam, monkeypatch):
    # at every bound from 1 to 2049, below q and above it: is_critical is
    # memoized, as the direct scan asks it the same questions
    from qcrit import series as sr
    known = functools.cache(is_critical)
    monkeypatch.setattr(sr, "is_critical", known)
    monkeypatch.setattr(sr, "_CRITICAL_CACHE", {})
    pq, direct = PrimePower(p, lam), set()
    for bound in range(1, 2050):
        if known(bound, pq):
            direct.add(bound)
        assert sr._critical_set(pq, bound) == direct, bound


def test_critical_set_and_artin_hasse_caches_are_bounded():
    from qcrit import series as sr
    size = sr._CRITICAL_CACHE_SIZE
    want = {b: frozenset(k for k in range(1, b + 1) if is_critical(k, PQ4))
            for b in range(1, size + 20)}
    for _ in range(2):  # the second round recomputes the evicted sets
        assert {b: sr._critical_set(PQ4, b) for b in want} == want
        assert len(sr._CRITICAL_CACHE) <= size
    maxsize = sr._artin_hasse_residues.cache_info().maxsize
    first = [artin_hasse(2, prec, F2) for prec in range(1, maxsize + 10)]
    assert sr._artin_hasse_residues.cache_info().currsize <= maxsize
    assert [artin_hasse(2, prec, F2) for prec in range(1, maxsize + 10)] == first
    assert sr._artin_hasse_residues.cache_info().currsize <= maxsize
