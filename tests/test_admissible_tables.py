"""The admissible listing, its blocks and the sweeps on per-integer digit
tables against the per-quadruple loops of tests/admissible_reference.py:
the listing gives the same quadruples in the same (m, ell, j) order, the
blocks give them j then ell, each block a prefix of block (1, j), both
build the blocks of each j once, and under a fault injected at a single
integer the sweeps give the same counterexamples in the same order, from
the API and from the CLI."""

import itertools
import json

import pytest
from hypothesis import example, given, strategies as st

import admissible_reference as ref
from qcrit import digits, theorems
from qcrit.cli import main
from qcrit.digits import (MAX_M_BOUND, AdmissibleQuadruple,
                          admissible_quadruples)

BOUNDS = [(2, 600, 10), (3, 729, 6), (5, 625, 4), (7, 343, 3)]


def check_blocks(p, m_bound, ell_bound):
    """The blocks come j then ell ascending, block (ell, j) is the prefix
    of block (1, j) with m <= m_bound, and sorted by (m, ell, j) their
    quadruples are the reference's."""
    blocks = list(digits.admissible_blocks(p, m_bound, ell_bound))
    assert [(j, ell) for ell, j, *_ in blocks] \
        == sorted((j, ell) for ell, j, *_ in blocks)
    for ell, j, step, ks in blocks:
        assert step == p ** ell - 1
        if ell == 1:
            first = ks
        assert ks == [k for k in first if k + j * step <= m_bound]
    quads = sorted((AdmissibleQuadruple(j, k, ell, k + j * step)
                    for ell, j, step, ks in blocks for k in ks),
                   key=lambda q: (q.m, q.ell, q.j))
    assert quads == list(ref.quadruples(p, m_bound, ell_bound))


@pytest.mark.parametrize("p,m_bound,ell_bound", BOUNDS)
def test_enumeration_matches_reference(p, m_bound, ell_bound):
    got = list(admissible_quadruples(p, m_bound, ell_bound))
    assert got == list(ref.quadruples(p, m_bound, ell_bound))
    check_blocks(p, m_bound, ell_bound)


@given(p=st.sampled_from([2, 3, 5, 7, 11]), m_bound=st.integers(1, 400),
       ell_bound=st.integers(0, 9))
@example(p=11, m_bound=10, ell_bound=3)  # m_bound < p: no quadruple
@example(p=7, m_bound=6, ell_bound=1)
@example(p=2, m_bound=400, ell_bound=9)  # ell_bound past log_p m_bound
@example(p=5, m_bound=400, ell_bound=9)
@example(p=3, m_bound=28, ell_bound=4)  # one past a power of p
@example(p=67, m_bound=400, ell_bound=2)  # p^2 above m_bound: one ell
@example(p=257, m_bound=400, ell_bound=2)  # p above the low-digit table
def test_blocks_list_the_reference_quadruples_in_order(p, m_bound, ell_bound):
    assert list(admissible_quadruples(p, m_bound, ell_bound)) \
        == list(ref.quadruples(p, m_bound, ell_bound))
    check_blocks(p, m_bound, ell_bound)


def _record_builds(monkeypatch) -> list[int]:
    """The j of every _dominating call from here on, in call order."""
    built, dominating = [], digits._dominating
    monkeypatch.setattr(digits, "_dominating",
                        lambda j, zmax, p: built.append(j) or dominating(
                            j, zmax, p))
    return built


def test_a_listing_cut_short_builds_few_blocks(monkeypatch):
    # the blocks of j are built as the listing reaches m = j*p + 1, the
    # least m of block (1, j), so the first quadruples of `qcrit admissible
    # --limit` do not wait for all 2,047 j of p = 2, m <= 4096: a listing
    # cut at m has built the blocks of each j <= (m-1)//p once, j ascending
    built = _record_builds(monkeypatch)
    for p, m_bound, ell_bound in BOUNDS + [(2, MAX_M_BOUND, 12)]:
        for cut in (1, 4, 50, 1000, 3000):
            built.clear()
            got = list(itertools.islice(
                admissible_quadruples(p, m_bound, ell_bound), cut))
            assert got == list(itertools.islice(
                ref.quadruples(p, m_bound, ell_bound), cut))
            assert built == list(range(1, (got[-1].m - 1) // p + 1))


@pytest.mark.parametrize("p,m_bound,ell_bound",
                         BOUNDS + [(2, MAX_M_BOUND, 12), (3, 2187, 7)])
def test_a_full_listing_sorts_the_blocks(monkeypatch, p, m_bound, ell_bound):
    # the listing and the blocks build the k of each j once, and the
    # listing is the blocks' quadruples in (m, ell, j) order, also at the
    # desk bounds of p = 2 and 3, where the reference is too slow
    built = _record_builds(monkeypatch)
    got = list(admissible_quadruples(p, m_bound, ell_bound))
    assert built == list(range(1, (m_bound - 1) // p + 1))
    built.clear()
    quads = sorted((AdmissibleQuadruple(j, k, ell, k + j * step)
                    for ell, j, step, ks in digits.admissible_blocks(
                        p, m_bound, ell_bound) for k in ks),
                   key=lambda q: (q.m, q.ell, q.j))
    assert built == list(range(1, (m_bound - 1) // p + 1))
    assert got == quads


@pytest.mark.parametrize("p,m_bound,ell_bound", BOUNDS)
def test_sweeps_match_reference(p, m_bound, ell_bound):
    for sweep, reference in ((theorems.verify_admissible_order, ref.order_failures),
                             (theorems.verify_admissible_witness,
                              ref.witness_failures)):
        r = sweep(p, m_bound, ell_bound)
        assert (r.checks, r.counterexamples) == reference(p, m_bound, ell_bound)
        assert r.passed and r.checks > 0


def _arm(payload: dict) -> str:
    """The failed check of a counterexample of either sweep."""
    if "check" in payload:
        return payload["check"]
    if "candidates" in payload:
        return "candidates"
    return "core" if "core_m" in payload else "orders"


# (arm, patched function, integer, faulty value from the true one, p,
#  m_bound, ell_bound): every counterexample the fault causes fails the arm
FAULTS = [
    ("digital_order", "digital_key", 7, lambda key: (10 ** 9, 0, 0), 2, 256, 6),
    # 28 failures, so the report is truncated after 25
    ("digital_order", "digital_key", 17, lambda key: (10 ** 9, 0, 0), 3, 243, 4),
    # 61 failures over ell = 1..6: the blocks find them (ell, j) first, and
    # the report keeps the 25 smallest by (m, ell, j)
    ("digital_order", "digital_key", 32, lambda key: (10 ** 9, 0, 0), 2, 256, 6),
    # ties: k = 7 gets the key of m = 9, and k = 3 that of m = 5, so the
    # order comparison reads EQUAL
    ("digital_order", "digital_key", 7, lambda key: (4, 9, 9), 2, 256, 6),
    ("digital_order", "digital_key", 3, lambda key: (1, 5, 5), 3, 243, 4),
    ("forced_j", "ord_p", 16, lambda e: e + 1, 2, 256, 6),
    ("forced_j", "ord_p", 81, lambda e: e + 1, 3, 243, 4),
    # cores made equal at a k where p^ord(k) is not j*(p^ell - 1) + 1
    ("forced_j", "p_core", 3, lambda c: 2, 2, 256, 6),
    ("forced_j", "p_core", 4, lambda c: 10, 3, 243, 4),
    ("candidates", "ord_p", 14, lambda e: e + 1, 2, 256, 6),
    ("candidates", "ord_p", 26, lambda e: e + 1, 3, 243, 4),
    ("orders", "ord_p", 34, lambda e: 0, 2, 256, 6),
    ("orders", "ord_p", 9, lambda e: 0, 3, 243, 4),
    ("core", "p_core", 10, lambda c: c + 10 ** 6, 2, 256, 6),
    ("core", "p_core", 12, lambda c: c + 10 ** 6, 3, 243, 4),
]


@pytest.mark.parametrize("arm,name,n0,fault,p,m_bound,ell_bound", FAULTS,
                         ids=[f"{f[0]}-p{f[4]}-{f[1]}-{f[2]}" for f in FAULTS])
def test_fault_at_one_integer_matches_reference(
        monkeypatch, fresh_digit_tables, capsys,
        arm, name, n0, fault, p, m_bound, ell_bound):
    true = getattr(digits, name)
    monkeypatch.setattr(digits, name, lambda n, p: (
        fault(true(n, p)) if n == n0 else true(n, p)))
    if arm in ("digital_order", "forced_j"):
        statement, sweep = "admissible-order", theorems.verify_admissible_order
        reference = ref.order_failures
    else:
        statement = "admissible-witness"
        sweep, reference = theorems.verify_admissible_witness, ref.witness_failures
    count, failures = reference(p, m_bound, ell_bound)
    assert failures and {_arm(f) for f in failures} == {arm}
    expected = ref.capped(failures, theorems._MAX_COUNTEREXAMPLES)

    r = sweep(p, m_bound, ell_bound)
    assert not r.passed
    assert r.checks == count
    assert r.counterexamples == expected

    code = main(["--format", "json", "verify", statement, "--p", str(p),
                 "--lambda", "1", "--m-bound", str(m_bound),
                 "--ell-bound", str(ell_bound)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["pass"] is False
    assert report["counterexamples"] == json.loads(json.dumps(expected))


def test_bounds_are_refused_before_any_table():
    with pytest.raises(ValueError, match="exceeds the limit"):
        admissible_quadruples(2, MAX_M_BOUND + 1, 3)
    for sweep in (theorems.verify_admissible_order,
                  theorems.verify_admissible_witness):
        with pytest.raises(ValueError, match="exceeds the limit"):
            sweep(3, 10 ** 8, 3)
    with pytest.raises(ValueError, match="prime"):
        admissible_quadruples(4, 64, 3)
    assert digits.digit_tables.cache_info().currsize <= 4
