import json
import random
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from qcrit.digits import PrimePower
from qcrit.finite_field import FieldSpec, default_modulus, field_make

from field_oracle import poly_mul_mod


# ---------------------------------------------------------------------------
# Independent oracles: irreducibility by trial division
# ---------------------------------------------------------------------------

def brute_irreducible(poly, p):
    # trial division by every monic polynomial of degree 1..deg//2
    deg = len(poly) - 1
    for d in range(1, deg // 2 + 1):
        for m in range(p ** d):
            div, v = [], m
            for _ in range(d):
                v, r = divmod(v, p)
                div.append(r)
            div.append(1)
            # remainder of poly by div
            rem = list(poly)
            for i in range(len(rem) - 1, d - 1, -1):
                c = rem[i]
                if c:
                    for j in range(d + 1):
                        rem[i - d + j] = (rem[i - d + j] - c * div[j]) % p
            if not any(rem):
                return False
    return True


def all_monic(p, deg):
    for m in range(p ** deg):
        out, v = [], m
        for _ in range(deg):
            v, r = divmod(v, p)
            out.append(r)
        out.append(1)
        yield tuple(out)


# ---------------------------------------------------------------------------
# Construction and defaults
# ---------------------------------------------------------------------------

def test_default_modulus_prime_field():
    spec = field_make(2, 1)
    assert spec.modulus == (0, 1)


def test_default_modulus_f4_is_lowest_irreducible():
    # oracle: enumerate monic quadratics over F_2 in lexicographic order
    expect = next(m for m in all_monic(2, 2) if brute_irreducible(m, 2))
    assert expect == (1, 1, 1)
    assert field_make(2, 2).modulus == (1, 1, 1)


@pytest.mark.parametrize("p,n", [(2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_default_modulus_matches_bruteforce(p, n):
    expect = next(m for m in all_monic(p, n) if brute_irreducible(m, p))
    assert default_modulus(p, n) == expect


def test_nonprime_p_rejected():
    with pytest.raises(ValueError):
        field_make(4, 1)
    with pytest.raises(ValueError):
        field_make(1, 1)


def test_oversized_parameters_rejected_before_any_search():
    # p from 2^32 up would spend minutes in trial division, and fields of
    # more than 2^64 elements in the search for a modulus
    for p in (2 ** 32 + 15, 2 ** 61 - 1, 10 ** 18 + 3):
        with pytest.raises(ValueError, match="below 2"):
            field_make(p, 1)
        with pytest.raises(ValueError, match="below 2"):
            PrimePower(p, 1)
    for p, n in ((2, 65), (2, 3000), (3, 41), (65537, 5)):
        with pytest.raises(ValueError, match="more than 2"):
            field_make(p, n)
    with pytest.raises(ValueError, match="more than 2"):
        FieldSpec(2, 300, [1] * 301)
    assert field_make(2, 64).order == 2 ** 64
    assert field_make(3, 40).order == 3 ** 40
    assert field_make(4294967291, 1).order == 4294967291


def test_reducible_modulus_rejected():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, [1, 0, 1])  # (x+1)^2
    with pytest.raises(ValueError):
        FieldSpec(2, 2, [1, 1])  # degree mismatch
    with pytest.raises(ValueError):
        FieldSpec(3, 2, [1, 1, 2])  # not monic


# ---------------------------------------------------------------------------
# Arithmetic against the oracle
# ---------------------------------------------------------------------------

def test_f4_worked_examples():
    spec = field_make(2, 2)
    t = spec.gen()
    assert (t * t).coords == poly_mul_mod((0, 1), (0, 1), spec.modulus, 2)
    assert (t * t).coords == (1, 1)  # t^2 = t + 1
    assert t.inverse().coords == (1, 1)
    assert t * t.inverse() == spec.one()
    assert t.frobenius(1).coords == (1, 1)


@pytest.mark.parametrize("p,n", [(2, 2), (2, 4), (3, 2), (5, 2), (2, 8), (3, 5)])
def test_mul_matches_oracle(p, n):
    spec = field_make(p, n)
    rng = random.Random(17)
    for _ in range(200):
        a = spec.random_element(rng)
        b = spec.random_element(rng)
        assert (a * b).coords == poly_mul_mod(a.coords, b.coords, spec.modulus, p)


def test_field_axioms_randomized():
    rng = random.Random(40)
    specs = [field_make(2, 1), field_make(2, 2), field_make(2, 3),
             field_make(3, 1), field_make(3, 2), field_make(5, 1)]
    count = 0
    while count < 1200:
        spec = specs[count % len(specs)]
        a, b, c = (spec.random_element(rng) for _ in range(3))
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + (-a) == spec.zero()
        count += 1


@pytest.mark.parametrize("p,n", [(2, 8), (3, 6)])
def test_tables_built_on_first_use_by_racing_threads(p, n):
    # a fresh spec, so every thread may find the tables unbuilt and build
    # them; all of them must still see correct products
    spec = FieldSpec(p, n)
    failures, threads = [], []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(300):
            a, b = spec.random_element(rng), spec.random_element(rng)
            if (a * b).coords != poly_mul_mod(a.coords, b.coords, spec.modulus, p):
                failures.append((a, b))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (5, 1), (2, 8)])
def test_inverse_all_nonzero(p, n):
    spec = field_make(p, n)
    rng = random.Random(5)
    elems = (list(spec.elements())[1:] if spec.order <= 256
             else [spec.random_nonzero(rng) for _ in range(50)])
    for a in elems:
        assert a * a.inverse() == spec.one()
        assert a ** (spec.order - 1) == spec.one()


def test_inverse_of_zero_raises():
    spec = field_make(3, 2)
    with pytest.raises(ZeroDivisionError):
        spec.zero().inverse()


def test_mixed_spec_rejected():
    a = field_make(2, 2).one()
    b = field_make(3, 1).one()
    with pytest.raises(ValueError):
        a + b


# ---------------------------------------------------------------------------
# Frobenius and subfields
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p,n", [(2, 4), (3, 2), (2, 8)])
def test_frobenius_properties(p, n):
    spec = field_make(p, n)
    rng = random.Random(9)
    for _ in range(100):
        a = spec.random_element(rng)
        b = spec.random_element(rng)
        assert a.frobenius(1) == a ** p
        assert a.frobenius(n) == a
        assert (a + b).frobenius(2) == a.frobenius(2) + b.frobenius(2)
        assert (a * b).frobenius(3) == a.frobenius(3) * b.frobenius(3)


def test_pow_reduces_large_exponents():
    spec = field_make(3, 2)
    rng = random.Random(2)
    for _ in range(30):
        a = spec.random_nonzero(rng)
        e = rng.randrange(10 ** 12, 10 ** 13)
        assert a ** e == a ** (e % (spec.order - 1))


def test_subfield_membership():
    spec = field_make(2, 4)
    sub = spec.subfield_elements(2)
    assert len(sub) == 4
    # closed under the field operations
    subset = set(sub)
    for a in sub:
        for b in sub:
            assert a + b in subset and a * b in subset
    for a in spec.elements():
        assert a.in_subfield(2) == (a in subset)
    with pytest.raises(ValueError):
        spec.subfield_elements(3)


@pytest.mark.parametrize("p,n,ms", [(2, 9, (1, 3, 9)), (3, 6, (1, 2, 3, 6)),
                                    (2, 12, (2, 6)), (3, 2, (1, 2)), (5, 1, (1,))])
def test_subfield_elements_are_the_fixed_points_of_frobenius(p, n, ms):
    # subfield_elements tables x -> x^(p^m) from its images of the basis;
    # the definition applies the map to every element, in index order
    spec = field_make(p, n)
    for m in ms:
        fixed = tuple(a for a in spec.elements() if a.frobenius(m) == a)
        assert spec.subfield_elements(m) == fixed
        assert len(fixed) == p ** m


@given(st.integers(0, 8), st.integers(0, 8))
def test_hypothesis_f9_commutative(i, j):
    spec = field_make(3, 2)
    a, b = spec.from_index(i), spec.from_index(j)
    assert a * b == b * a
    assert a + b == b + a


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_json_round_trip_bit_exact():
    spec = field_make(3, 2)
    blob = json.dumps(spec.to_json(), sort_keys=True)
    again = FieldSpec.from_json(json.loads(blob))
    assert again == spec
    assert json.dumps(again.to_json(), sort_keys=True) == blob
    a = spec.element([2, 1])
    assert spec.element(a.to_json()) == a


@pytest.mark.parametrize("doc", [
    [3, 2, [2, 0, 1]], {"p": 3, "n": 2}, {"p": "3", "n": 2, "modulus": None},
    {"p": 3, "n": 2, "modulus": 5}, {"p": 3, "n": 2, "modulus": [[2], 0, 1]}])
def test_field_json_of_another_shape_is_refused(doc):
    with pytest.raises(ValueError, match="JSON"):
        FieldSpec.from_json(doc)
    assert FieldSpec.from_json({"p": 3, "n": 2, "modulus": None}) == field_make(3, 2)


@pytest.mark.parametrize("coords", [5, [None], [[1], 0], None])
def test_element_coordinates_that_are_not_integers_are_refused(coords):
    with pytest.raises(ValueError, match="coordinates must be integers"):
        field_make(3, 2).element(coords)


def test_field_make_is_cached():
    assert field_make(2, 2) is field_make(2, 2)
    assert field_make(2, 2) is field_make(2, 2, [1, 1, 1])


def test_field_cache_is_bounded_and_rebuilds_equal_specs():
    from qcrit import finite_field
    size = finite_field._SPEC_CACHE_SIZE
    primes = [p for p in range(2, 1000) if all(p % d for d in range(2, p))][:size]
    first = [field_make(p, 1) for p in primes]  # two keys each
    assert len(finite_field._SPEC_CACHE) <= size
    again = [field_make(p, 1) for p in primes]
    assert len(finite_field._SPEC_CACHE) <= size
    assert again == first
    assert any(a is not b for a, b in zip(again, first))  # some were rebuilt
    for spec in again:
        x = spec.from_index(spec.p - 1)
        assert x * x == spec.one() and x + spec.one() == spec.zero()
