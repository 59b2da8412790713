import math
import random

import pytest
from hypothesis import given, strategies as st

from qcrit.digits import (AdmissibleQuadruple, PrimePower,
                          _orbit_min_table, admissible_quadruples,
                          admissible_witness, coprime_part, critical_base_set,
                          critical_members, digital_cmp, digital_key,
                          from_digits, is_admissible, is_critical, lucas_binom,
                          min_residue, orbit_id, orbit_min, orbit_residues,
                          ord_p, p_core, p_defect, to_digits, LESS, EQUAL)

PRIMES = (2, 3, 5, 7)


def orbit_members(c, pq, bound):
    """Integers up to the bound, coprime to p, congruent to some p^i * c mod q-1."""
    res = orbit_residues(c, pq)
    p, m = pq.p, pq.q - 1
    return [n for n in range(1, bound + 1) if n % p and n % m in res]


def orbit_min_bruteforce(c, pq, bound=None):
    """Oracle for orbit_min: scan the orbit up to a bound and take the
    digital minimum directly."""
    if bound is None:
        bound = pq.q * pq.p ** (2 * pq.lam)
    members = orbit_members(c, pq, bound)
    if not members:
        raise RuntimeError(f"orbit of {c} has no member below {bound}")
    return min(members, key=lambda n: digital_key(n, pq.p))


# ---------------------------------------------------------------------------
# Expansions
# ---------------------------------------------------------------------------

def test_expansion_worked_example():
    assert to_digits(39, 2) == [1, 0, 0, 1, 1, 1]
    assert to_digits(39, 2, width=10) == [0, 0, 0, 0, 1, 0, 0, 1, 1, 1]


def test_zero_has_empty_expansion():
    for p in PRIMES:
        assert to_digits(0, p) == []
        assert from_digits([], p) == 0


def test_width_too_small():
    with pytest.raises(ValueError):
        to_digits(39, 2, width=5)


def test_round_trip_exhaustive():
    for p in PRIMES:
        for n in range(200_000):
            assert from_digits(to_digits(n, p), p) == n
    # strided coverage of the rest of the stated domain
    for p in PRIMES:
        for n in range(200_000, 1_000_000, 997):
            ds = to_digits(n, p)
            assert ds[0] != 0
            assert from_digits(ds, p) == n


@given(st.integers(0, 10 ** 6), st.sampled_from(PRIMES), st.integers(0, 5))
def test_round_trip_hypothesis(n, p, pad):
    width = len(to_digits(n, p)) + pad
    padded = to_digits(n, p, width=width)
    assert len(padded) == width
    assert from_digits(padded, p) == n


def test_bad_digit_rejected():
    with pytest.raises(ValueError):
        from_digits([0, 2], 2)


# ---------------------------------------------------------------------------
# Lucas binomials
# ---------------------------------------------------------------------------

def test_lucas_against_factorial_oracle():
    for p in (2, 3, 5):
        for m in range(301):
            for k in range(m + 11):
                assert lucas_binom(m, k, p) == math.comb(m, k) % p


def test_lucas_identity_cases():
    assert lucas_binom(123456789, 0, 7) == 1
    assert lucas_binom(5, 2, 2) == 0  # C(5,2) = 10
    assert lucas_binom(3, 7, 5) == 0  # k > m


def test_lucas_reduction_sign():
    # binomial(q^f*k - 1, (q^f-1)/(q^ell-1)) = (-1)^(f/ell) mod p for
    # critical k, checked against the exact factorial oracle.
    for p, lam, k, ells in ((2, 2, 3, (1, 2)), (3, 1, 2, (1, 2))):
        q = p ** lam
        for ell in ells:
            for f in (ell, 2 * ell):
                m = q ** f * k - 1
                j = (q ** f - 1) // (q ** ell - 1)
                want = (-1) ** (f // ell) % p
                assert lucas_binom(m, j, p) == want
                assert math.comb(m, j) % p == want


# ---------------------------------------------------------------------------
# Valuations and digit cores
# ---------------------------------------------------------------------------

def test_ord_and_coprime_part():
    assert ord_p(40, 2) == 3
    assert ord_p(1, 7) == 0
    assert ord_p(963, 3) == 2  # 963 = 9 * 107
    assert coprime_part(963, 3) == 107
    for p in PRIMES:
        for n in range(1, 3000):
            e, m = 0, n
            while m % p == 0:
                m //= p
                e += 1
            assert ord_p(n, p) == e
            assert coprime_part(n, p) == m
    with pytest.raises(ValueError):
        ord_p(0, 2)


def strip_core(n, p):
    # digit-string oracle: drop trailing zeros, then trailing (p-1) digits
    ds = to_digits(n, p)
    while ds and ds[-1] == 0:
        ds.pop()
    while ds and ds[-1] == p - 1:
        ds.pop()
    return from_digits(ds, p)


def test_core_worked_examples():
    assert p_core(963, 3) == 3
    assert p_core(39, 2) == 4
    for p in (2, 3, 5):
        for k in range(1, 5):
            for ell in range(1, 5):
                assert p_core(p ** (k - 1) * (p ** ell - 1), p) == 0


def test_core_matches_digit_oracle():
    for p in (2, 3, 5):
        for n in range(1, 5000):
            assert p_core(n, p) == strip_core(n, p)


def test_defect():
    assert p_defect(963, 3) == 2
    assert p_defect(1, 2) == 0
    for p in PRIMES:
        assert p_defect(p - 1, p) == 0
    for p in (2, 3):
        for n in range(1, 2000):
            assert p_defect(n, p) == len(to_digits(p_core(n, p), p))


# ---------------------------------------------------------------------------
# Digital well-ordering
# ---------------------------------------------------------------------------

def test_digital_cmp_examples():
    assert digital_cmp(7, 7, 2) == EQUAL
    assert digital_cmp(3, 6, 2) == LESS
    assert digital_cmp(2, 3, 2) == LESS


def test_digital_cmp_total_order():
    rng = random.Random(3)
    for p in (2, 3, 5):
        keys = {n: digital_key(n, p) for n in range(1, 500)}
        # keys are pairwise distinct, so comparison is a total order on all
        # pairs below 500 (transitivity is lexicographic tuple order)
        assert len(set(keys.values())) == len(keys)
        for m in range(1, 500, 7):
            for n in range(1, 500, 3):
                c = digital_cmp(m, n, p)
                assert c == -digital_cmp(n, m, p)
                assert (c == EQUAL) == (m == n)
                assert c == (keys[m] > keys[n]) - (keys[m] < keys[n])
        for _ in range(3000):
            x, y, z = (rng.randrange(1, 500) for _ in range(3))
            if digital_cmp(x, y, p) <= 0 and digital_cmp(y, z, p) <= 0:
                assert digital_cmp(x, z, p) <= 0


def digit_key(n, p):
    """The digital order's key read off the expansion of n: the core, then
    the count of trailing (p-1) digits of the part coprime to p, then the
    count of trailing zeros."""
    ds, zeros, nines = to_digits(n, p), 0, 0
    while ds[-1] == 0:
        ds.pop()
        zeros += 1
    while ds and ds[-1] == p - 1:
        ds.pop()
        nines += 1
    return from_digits(ds, p), nines, zeros


def test_digital_key_sorts_as_the_digit_key():
    # the core decides first, then the (p-1) run, then the zeros: 4 = 100_2
    # (core 0, one 1, two zeros) precedes 3 = 11_2 (core 0, two 1s)
    assert digit_key(4, 2) == (0, 1, 2) and digit_key(3, 2) == (0, 2, 0)
    for p in (2, 3, 5):
        ns = range(1, 501)
        assert (sorted(ns, key=lambda n: digital_key(n, p))
                == sorted(ns, key=lambda n: digit_key(n, p))), p


def test_defect_approximates_order():
    for p in (2, 3, 5):
        ds = {n: p_defect(n, p) for n in range(1, 500)}
        ks = {n: digital_key(n, p) for n in range(1, 500)}
        for m in range(1, 500):
            for n in range(1, 500):
                if ds[m] < ds[n]:
                    assert ks[m] < ks[n]
                if ks[m] <= ks[n]:
                    assert ds[m] <= ds[n]


# ---------------------------------------------------------------------------
# Residue orbits
# ---------------------------------------------------------------------------

def test_min_residue():
    pq = PrimePower(2, 3)  # q = 8
    for c in range(1, 50):
        v = min_residue(c, pq)
        assert 0 < v < 8 and (c - v) % 7 == 0
    assert min_residue(7, pq) == 7
    assert min_residue(14, pq) == 7
    assert min_residue(10, pq) == 3  # q + 2 -> 3


def test_orbit_members_examples():
    pq = PrimePower(2, 2)
    assert [n for n in orbit_members(1, pq, 3)] == [1]
    assert [n for n in orbit_members(3, pq, 3)] == [3]
    for pq in (PrimePower(2, 2), PrimePower(3, 2), PrimePower(5, 1)):
        for n in orbit_members(7, pq, 500):
            assert n % pq.p != 0


def test_orbit_min_prime_case():
    # q = p: the orbit minimum is the reduced residue itself
    for p in (2, 3, 5, 7):
        pq = PrimePower(p, 1)
        for c in range(1, 60):
            assert orbit_min(c, pq) == min_residue(c, pq)
            assert orbit_min(c, pq) == orbit_min_bruteforce(c, pq)


def test_orbit_min_worked_example():
    assert orbit_min(39, PrimePower(2, 10)) == 39


def test_orbit_min_invariances():
    for pq in (PrimePower(2, 2), PrimePower(3, 2), PrimePower(2, 4)):
        for c in range(1, 120):
            mu = orbit_min(c, pq)
            assert orbit_min(pq.p * c, pq) == mu
            assert orbit_min(c + pq.q - 1, pq) == mu


@pytest.mark.parametrize("p,lam", [(2, 1), (2, 2), (2, 4), (3, 1), (3, 2), (5, 1)])
def test_orbit_min_fast_equals_bruteforce(p, lam):
    pq = PrimePower(p, lam)
    table = _orbit_min_table(pq, pq.q * p ** (2 * lam))
    for c in range(1, 1001):
        assert orbit_min(c, pq) == table[orbit_id(c, pq)], c
    # spot-check the standalone per-orbit oracle as well
    for c in (1, 2, 7, 39, 100, 999):
        assert orbit_min(c, pq) == orbit_min_bruteforce(c, pq)


def orbit_min_wide_scan(c, pq):
    """orbit_min as it was written with g scanned up to 2*lam + 1."""
    p, lam, q = pq.p, pq.lam, pq.q
    core = min(p_core(min_residue(c * p ** i, pq), p) for i in range(lam))
    res = orbit_residues(c, pq)
    for g in range(2 * lam + 2):
        cand = (core + 1) * p ** g - 1
        if cand >= 1 and cand % p and cand % (q - 1) in res:
            return cand


@pytest.mark.parametrize("p,lams", [(2, range(1, 8)), (3, range(1, 5)),
                                    (5, range(1, 4)), (7, [2])])
def test_orbit_min_scan_to_lambda_equals_the_wide_scan(p, lams):
    for lam in lams:
        pq = PrimePower(p, lam)
        for c in range(1, pq.q):
            assert orbit_min(c, pq) == orbit_min_wide_scan(c, pq), (lam, c)


# ---------------------------------------------------------------------------
# Critical sets
# ---------------------------------------------------------------------------

def brute_base_set(pq):
    # direct transcription of the defining minimum, independent of the
    # library's orbit bookkeeping
    p, q = pq.p, pq.q
    out = []
    for c in range(1, q):
        if math.gcd(c, p) != 1:
            continue
        residues = {(c * p ** i) % (q - 1) for i in range(pq.lam)}
        members = [n for n in range(1, q)
                   if math.gcd(n, p) == 1 and n % (q - 1) in residues]
        mine = coprime_part(c + 1, p)
        if mine == min(coprime_part(n + 1, p) for n in members):
            out.append(c)
    return out


def test_base_set_prime_case():
    for p in (2, 3, 5, 7):
        assert critical_base_set(PrimePower(p, 1)) == list(range(1, p))


def test_base_set_q4():
    assert critical_base_set(PrimePower(2, 2)) == [1, 3]


@pytest.mark.parametrize("p,lam", [(2, 2), (2, 3), (3, 2), (5, 1), (2, 4)])
def test_base_set_matches_bruteforce(p, lam):
    pq = PrimePower(p, lam)
    assert critical_base_set(pq) == brute_base_set(pq)


def test_39_is_1024_critical():
    pq = PrimePower(2, 10)
    assert 39 in critical_base_set(pq)
    assert is_critical(39, pq)
    assert is_critical(40959, pq)  # 1024 * 40 - 1


def test_even_numbers_never_critical():
    pq = PrimePower(2, 3)
    for k in range(2, 200, 2):
        assert not is_critical(k, pq)


def test_base_members_are_critical():
    for pq in (PrimePower(2, 2), PrimePower(3, 2), PrimePower(2, 10)):
        for c in critical_base_set(pq):
            assert is_critical(c, pq)


def digital_description_critical(k, pq):
    # oracle from the string picture: some number of trailing blocks of
    # lam digits (p-1) strung after a base-set member
    p, q = pq.p, pq.q
    base = set(critical_base_set(pq))
    qi = 1
    while qi <= k + 1:
        if (k + 1) % qi == 0:
            c = (k + 1) // qi - 1
            if 1 <= c < q and c in base:
                return True
        qi *= q
    return False


@pytest.mark.parametrize("p,lam", [(2, 2), (3, 1), (2, 3)])
def test_is_critical_matches_digital_description(p, lam):
    pq = PrimePower(p, lam)
    for k in range(1, 5000):
        assert is_critical(k, pq) == digital_description_critical(k, pq), k


def test_critical_families_disjoint():
    # distinct base members generate families in distinct classes mod q-1
    for pq in (PrimePower(2, 2), PrimePower(3, 2), PrimePower(2, 4)):
        q = pq.q
        seen = set()
        for c in critical_base_set(pq):
            fam = []
            m = c
            while m <= 10 ** 5:
                fam.append(m)
                m = q * (m + 1) - 1
            assert len({x % (q - 1) for x in fam}) == 1
            assert not seen.intersection(fam)
            seen.update(fam)
        assert sorted(seen) == critical_members(pq, 10 ** 5)


# ---------------------------------------------------------------------------
# Admissible quadruples
# ---------------------------------------------------------------------------

def test_admissible_examples():
    assert is_admissible(1, 2, 1, 3, 2)
    assert not is_admissible(1, 2, 1, 4, 2)  # p | m
    assert not is_admissible(2, 1, 1, 3, 2)  # binomial(0, 2) = 0
    assert digital_cmp(2, 3, 2) == LESS


def test_huge_ell_is_refused_without_the_power():
    # p^ell > m once ell reaches the bit length of m
    assert not is_admissible(1, 2, 10 ** 9, 3, 2)
    assert is_admissible(1, 2, 10, 1025, 2)  # 1025 = 2^10 + 1 has 11 bits


def brute_quadruples(p, m_bound, ell_bound):
    out = []
    for m in range(1, m_bound + 1):
        for ell in range(1, ell_bound + 1):
            for j in range(1, m + 1):
                k = m - j * (p ** ell - 1)
                if k >= 1 and m % p != 0 and math.comb(k - 1, j) % p != 0:
                    out.append(AdmissibleQuadruple(j, k, ell, m))
    out.sort(key=lambda q: (q.m, q.ell, q.j))
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_enumeration_matches_bruteforce(p):
    got = list(admissible_quadruples(p, 48, 5))
    assert got == brute_quadruples(p, 48, 5)
    assert got == sorted(got, key=lambda q: (q.m, q.ell, q.j))


def test_witness_worked_example():
    w = admissible_witness(AdmissibleQuadruple(1, 2, 1, 3), 2)
    assert w == (2, 1, 1, 1)
    assert w.f + w.g >= w.e


def test_witness_zero_e_case():
    # p = 3, m = 4: no trailing 2-digits, so e = 0 forces r = 0
    quad = AdmissibleQuadruple(1, 2, 1, 4)
    assert is_admissible(*quad, 3)
    w = admissible_witness(quad, 3)
    assert w.e == 0 and w.r == 0


def test_witness_rejects_inadmissible():
    with pytest.raises(ValueError):
        admissible_witness(AdmissibleQuadruple(1, 2, 1, 4), 2)


def test_admissibility_needs_a_prime_p():
    for p in (4, 1, 0):
        with pytest.raises(ValueError, match="must be prime"):
            is_admissible(1, 2, 1, 5, p)
        with pytest.raises(ValueError, match="must be prime"):
            admissible_witness(AdmissibleQuadruple(1, 2, 1, 5), p)


def test_admissible_bounds_below_one_are_refused():
    for m_bound in (0, -5):
        with pytest.raises(ValueError, match="m_bound must be >= 1"):
            list(admissible_quadruples(2, m_bound, 3))


def test_witness_inequalities_hold_on_sample():
    for p in (2, 3):
        for quad in admissible_quadruples(p, 200, 6):
            w = admissible_witness(quad, p)
            assert w.f + w.g >= w.e
            assert p_core(quad.m, p) >= p_core(quad.k, p)
            assert w.r % quad.ell == 0


# ---------------------------------------------------------------------------
# PrimePower plumbing
# ---------------------------------------------------------------------------

def test_prime_power_validation():
    assert PrimePower(2, 10).q == 1024
    with pytest.raises(ValueError):
        PrimePower(6, 1)
    with pytest.raises(ValueError):
        PrimePower(2, 0)


def test_prime_power_refuses_q_above_2_to_the_64():
    assert PrimePower(2, 64).q == 2 ** 64
    assert PrimePower(3, 40).q == 3 ** 40
    for p, lam in ((2, 65), (3, 41), (4294967291, 3), (2, 10 ** 8)):
        with pytest.raises(ValueError, match="exceeds 2\\^64"):
            PrimePower(p, lam)


def test_prime_power_json():
    pq = PrimePower(3, 2)
    assert PrimePower.from_json(pq.to_json()) == pq


@pytest.mark.parametrize("doc", [[3, 2], "3^2", {"p": 3}, {"p": 3, "lambda": "2"},
                                 {"p": [3], "lambda": 2}, {"p": 3, "lambda": None}])
def test_prime_power_json_of_another_shape_is_refused(doc):
    with pytest.raises(ValueError, match="JSON"):
        PrimePower.from_json(doc)
