"""Series arithmetic on both sides of the field-table limit, against the
coordinate-level schoolbook oracle in field_oracle.

F_243 and F_256 store their operation tables; F_512 and F_729 compute each
entry when it is used. The same series operations must agree with the
oracle on all four.
"""

import random

import pytest

from qcrit.digits import PrimePower
from qcrit.finite_field import field_make
from qcrit.series import AdditiveSeries, TruncSeries, log_deriv, solve_log_deriv

from field_oracle import (coord_add, poly_mul_mod, series_compose,
                          series_inverse, series_log_deriv, series_mul,
                          series_power)

# (p, n, lambda): fields of 243, 256, 512 and 729 elements
FIELDS = [(3, 5, 1), (2, 8, 2), (2, 9, 3), (3, 6, 2)]
IDS = [f"F_{p ** n}" for p, n, _ in FIELDS]


def random_coeffs(spec, length, rng, unit=False):
    out = [spec.from_index(rng.randrange(spec.order)).coords for _ in range(length)]
    if unit:
        out[0] = spec.from_index(rng.randrange(1, spec.order)).coords
    return out


def to_series(spec, coeffs):
    return TruncSeries(spec, len(coeffs) - 1, [spec.element(c) for c in coeffs])


def coords(series):
    return [c.coords for c in series.coeffs]


@pytest.fixture(params=FIELDS, ids=IDS)
def field(request):
    p, n, lam = request.param
    return field_make(p, n), PrimePower(p, lam)


def test_mul_and_inverse_match_oracle(field):
    spec, _ = field
    rng = random.Random(spec.order)
    f = random_coeffs(spec, 33, rng, unit=True)
    g = random_coeffs(spec, 29, rng)
    mod, p = spec.modulus, spec.p
    assert coords(to_series(spec, f) * to_series(spec, g)) == series_mul(f, g, mod, p)
    assert coords(to_series(spec, f).inverse_mult()) == series_inverse(f, mod, p)


def test_log_deriv_and_its_section_match_oracle(field):
    spec, _ = field
    rng = random.Random(spec.order + 1)
    mod, p = spec.modulus, spec.p
    f = random_coeffs(spec, 33, rng, unit=True)
    t = log_deriv(to_series(spec, f))
    assert coords(t) == series_log_deriv(f, mod, p)
    g = solve_log_deriv(t)
    assert series_log_deriv(coords(g), mod, p) == coords(t)
    assert g.coeffs[0] == spec.one()
    assert all(not g.coeffs[m] for m in range(p, 33, p))


def test_compose_matches_oracle(field):
    spec, _ = field
    rng = random.Random(spec.order + 2)
    f = random_coeffs(spec, 25, rng)
    g = random_coeffs(spec, 25, rng)
    g[0] = (0,) * spec.n
    got = to_series(spec, f).compose(to_series(spec, g))
    assert coords(got) == series_compose(f, g, spec.modulus, spec.p)


def test_additive_action_matches_oracle(field):
    # sum_i a_i X^(q^i) applied to g is sum_i a_i g^(q^i), with the powers
    # taken by repeated series products rather than by Frobenius
    spec, pq = field
    rng = random.Random(spec.order + 3)
    mod, p = spec.modulus, spec.p
    gamma = AdditiveSeries(spec, pq, 32, {
        i: spec.from_index(rng.randrange(1, spec.order))
        for i in range(AdditiveSeries.identity(spec, pq, 32).max_index() + 1)})
    g = random_coeffs(spec, 33, rng)
    g[0] = (0,) * spec.n
    want = [(0,) * spec.n] * 33
    power = g
    for i in range(gamma.max_index() + 1):
        a = gamma.terms[i].coords
        want = [coord_add(w, poly_mul_mod(a, c, mod, p), p)
                for w, c in zip(want, power)]
        power = series_power(power, pq.q, mod, p)
    assert coords(gamma.apply_to(to_series(spec, g))) == want


def test_linear_operations_match_oracle(field):
    # +, -, negation, scale, scale_arg and derivative read the index
    # tables, computed ones included
    spec, _ = field
    rng = random.Random(spec.order + 4)
    mod, p = spec.modulus, spec.p
    f = random_coeffs(spec, 17, rng)
    g = random_coeffs(spec, 13, rng)
    a = random_coeffs(spec, 1, rng, unit=True)[0]
    fs, gs, alpha = to_series(spec, f), to_series(spec, g), spec.element(a)
    neg_g = [tuple(-c % p for c in x) for x in g]
    assert coords(fs + gs) == [coord_add(x, y, p) for x, y in zip(f, g)]
    assert coords(-gs) == neg_g
    assert coords(fs - gs) == [coord_add(x, y, p) for x, y in zip(f, neg_g)]
    assert coords(fs.scale(alpha)) == [poly_mul_mod(a, x, mod, p) for x in f]
    powers = [spec.one().coords]
    while len(powers) < len(f):
        powers.append(poly_mul_mod(powers[-1], a, mod, p))
    assert coords(fs.scale_arg(alpha)) == [
        poly_mul_mod(x, w, mod, p) for x, w in zip(f, powers)]
    assert coords(fs.derivative()) == [
        tuple(i * c % p for c in x) for i, x in enumerate(f) if i]
