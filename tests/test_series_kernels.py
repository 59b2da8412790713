"""The sub-quadratic series kernels against the quadratic loops they
replaced (series_reference), on both sides of every crossover, and against
the independent coordinate oracle (field_oracle) on random inputs.

The crossovers are the sparse-operand rule of products (_SPARSE nonzero
coefficients), the block size of the online recurrence (_BLOCK, larger on
bytes), past which log_deriv and solve_log_deriv split their blocks by
divide and conquer, the degree past which inverse_mult takes Newton steps
(_newton_limit: _BLOCK, larger on bytes from F_8 on), the route rule of log_deriv
(the recurrence up to a nonzero count set by the field, _QUOTIENT_NONZERO
times a cost of its coordinate planes, and one quotient above it; in
characteristic 2 up to 256 elements, the quotient from precision
_QUOTIENT_PREC d^2 on), the
byte width of the Kronecker slots, which grows with the precision and
with p, and in compose the residue split, which starts at precision p,
the monomial inner series, and the terms of the inner series carried down
the split: exactly 2 and _SPARSE of them, the byte path's limit, and
gamma-shaped series whose top term a level of the split keeps or drops.

Both routes of log_deriv are also called on their own, on every field of
the grid, at precisions 0 to 3, odd and even, on both sides of the
quotient's Newton reciprocal (2 _BLOCK), on dense units, units with one
nonzero coefficient in six and single-term units, against the recurrence
of series_reference and the coordinate oracle; and log_deriv is seen to
take the route of its rule on both sides of each field's crossover.

The Kronecker kernel is also called on its own: on operands of unequal
length, on prime-field coefficients (every coordinate plane but the first
zero), with its slots filled to their bound, on both sides of the slot
count from which it evaluates at 2^b and -2^b (KS2, _KS2_SLOTS), where a
spy shows which route runs, and through the fold of the
high planes under every default modulus of F_2 .. F_256, other moduli of
F_8, F_9, F_25 and F_289 and odd-p default moduli, against the coordinate
oracle. Its reduction mod p (_residues) is checked against v % p on both
sides of its byte-lookup limit, and spies show that an odd-p product reads
no entry of the field's tables.

The byte path of _mul_rows and _online, which F_{2^d} up to 256 elements
take, is called on its own under non-default moduli: rows in the last
degrees and operands shorter than n + 1, the recurrence through every
caller above its block limit, where its blocks start at lo > 1, and the
sums it leaves in s; a spy shows which fields take it, and another that
_online splits a block exactly when it is longer than its field's limit
(_block_limit).

The closed forms of the projection sweep, twisted_orbit_series and
critical_projection_formula, are compared with the FieldElement versions
in series_reference, and are seen to call none of the kernels.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qcrit import series as sr
from qcrit.digits import PrimePower
from qcrit.finite_field import FieldSpec, field_make
from qcrit.series import TruncSeries, log_deriv, solve_log_deriv

import series_reference as ref
from field_oracle import (series_compose, series_inverse, series_log_deriv,
                          series_mul, series_power)

S = sr._SPARSE
B = sr._BLOCK

# (p, n): prime fields, small tables, large tables, computed entries
SMALL = [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2)]
LARGE = [(3, 5), (2, 8)]
COMPUTED = [(2, 9), (3, 6), (257, 1), (4294967291, 1)]


def precisions(p, top):
    """0, 1, p-1, p and the precisions around the crossovers, up to top."""
    return sorted({n for n in (0, 1, p - 1, p, 127, 128, 129, 255, 256, 257, 1024,
                               B - 1, B, B + 1, 2 * B + 1)
                   if n <= top})


def grid(fields, top):
    return [(p, n, prec) for p, n in fields
            for prec in precisions(p, top)]


GRID = grid(SMALL, 1024) + grid(LARGE, 257) + grid(COMPUTED, 129)
IDS = [f"F{p ** n}-prec{prec}" for p, n, prec in GRID]


def random_idx(spec, length, rng, nonzero=None, valuation=0, unit=False):
    """Random index list; with `nonzero`, exactly that many nonzero entries
    (or all, if the list is shorter) at random positions from `valuation`."""
    out = [0] * length
    places = list(range(valuation, length))
    if nonzero is not None:
        places = sorted(rng.sample(places, min(nonzero, len(places))))
    for i in places:
        out[i] = rng.randrange(1, spec.order)
    if unit:
        out[0] = rng.randrange(1, spec.order)
    return out


def section_target(spec, length, rng):
    """Random index list with zero constant term and a_(p*i) = a_i^p at
    every index: a logarithmic derivative."""
    p, frob = spec.p, spec._frob1
    t = [0] * length
    for i in range(1, length):
        t[i] = rng.randrange(spec.order) if i % p else frob[t[i // p]]
    return t


def series(spec, idx):
    return TruncSeries(spec, len(idx) - 1, [spec.from_index(i) for i in idx])


def idx(f):
    return [c.idx for c in f.coeffs]


@pytest.mark.parametrize("p,n,prec", GRID, ids=IDS)
def test_mul_matches_schoolbook(p, n, prec):
    spec = field_make(p, n)
    rng = random.Random(prec * 31 + spec.order)
    dense = random_idx(spec, prec + 1, rng)
    for nonzero in (S, S + 1, None):
        other = random_idx(spec, prec + 1, rng, nonzero=nonzero)
        got = idx(series(spec, dense) * series(spec, other))
        assert got == ref.mul(spec, dense, other, prec), nonzero


# ---------------------------------------------------------------------------
# The Kronecker kernel, called directly
# ---------------------------------------------------------------------------

KRONECKER_FIELDS = SMALL + LARGE + COMPUTED
KRONECKER_IDS = [f"F{p ** n}" for p, n in KRONECKER_FIELDS]


@pytest.mark.parametrize("p,n", KRONECKER_FIELDS, ids=KRONECKER_IDS)
def test_kronecker_products_of_unequal_length_match_schoolbook(p, n):
    # the product is cut at prec below, at and above its own degree, and
    # the slots of 4294967291 are wider than the widest memoryview format
    spec = field_make(p, n)
    rng = random.Random(spec.order)
    for la, lb, prec in ((17, 40, 70), (40, 17, 56), (40, 17, 30), (33, 33, 16),
                         (1, 5, 10), (25, 9, 0)):
        a, b = random_idx(spec, la, rng), random_idx(spec, lb, rng)
        got = sr._mul_kronecker(spec, a, b, prec)
        assert got == ref.mul(spec, a, b, prec), (la, lb, prec)


@pytest.mark.parametrize("p,n", KRONECKER_FIELDS, ids=KRONECKER_IDS)
def test_kronecker_products_of_prime_field_coefficients(p, n):
    # the indices below p are the prime field: every plane but the first is 0
    spec = field_make(p, n)
    rng = random.Random(spec.order + 1)
    a = [rng.randrange(p) for _ in range(37)]
    b = [rng.randrange(p) for _ in range(29)]
    c = random_idx(spec, 33, rng)
    for x, y in ((a, b), (a, c), (c, a), (a, a)):
        assert sr._mul_kronecker(spec, x, y, 64) == ref.mul(spec, x, y, 64)


# F_729's digit planes join in two-byte slots; F_131 and F_251 reduce
# their slots by v % p, as p - 1 > 127
SLOT_FIELDS = SMALL + LARGE + [(3, 6), (131, 1), (251, 1)]


@pytest.mark.parametrize("p,n", SLOT_FIELDS,
                         ids=[f"F{p ** n}" for p, n in SLOT_FIELDS])
def test_kronecker_slots_hold_their_largest_sum(p, n):
    # with every coordinate p - 1, the middle plane's slots reach the bound
    # min(len) * n * (p-1)^2; lengths put the bound on both sides of 256,
    # and of 2^16 where that takes at most 300 coefficients
    spec = field_make(p, n)
    top, unit = spec.order - 1, n * (p - 1) ** 2
    lengths = {max(1, (limit - 1) // unit) for limit in (256, 2 ** 16)}
    lengths |= {limit // unit + 1 for limit in (256, 2 ** 16)}
    for length in sorted(x for x in lengths if x <= 300):
        a = [top] * length
        got = sr._mul_kronecker(spec, a, a, 2 * length)
        assert got == ref.mul(spec, a, a, 2 * length), length


# (p, n, modulus): the p = 2 fold under every default modulus through F_256
# and one other modulus of F_8; the odd-p fold under default and other
# moduli. The product slots of F_169 and F_289 pass a byte before their
# first reduction mod p; under x^2 + x + 1, t^2 = 16 t + 16, so F_289's
# folded digits reach 16 + 16 * 16 = 272 before their last (they sit in
# two-byte slots); and F_66049 packs its residues by to_bytes, as p > 255
FOLDS = ([(2, n, None) for n in range(1, 9)] + [(2, 3, (1, 0, 1, 1))]
         + [(3, 2, None), (3, 2, (2, 1, 1)), (3, 3, None), (3, 5, None),
            (5, 2, None), (5, 2, (2, 1, 1)), (7, 2, None), (13, 2, None),
            (17, 2, None), (17, 2, (1, 1, 1)), (257, 2, None)])


@pytest.mark.parametrize("p,n,modulus", FOLDS, ids=[
    f"F{p ** n}-{'default' if m is None else ''.join(map(str, m))}"
    for p, n, m in FOLDS])
def test_kronecker_fold_matches_coordinate_oracle(p, n, modulus):
    spec = field_make(p, n, modulus)
    rng = random.Random(spec.order)
    # t^(n-1) in every coefficient puts t^(2n-2) in every product slot;
    # every coordinate p - 1 puts the largest sums in every plane
    high, full = [p ** (n - 1)] * 24, [spec.order - 1] * 24
    for a, b in ((random_idx(spec, 30, rng), random_idx(spec, 30, rng)),
                 (high, high), (high, random_idx(spec, 24, rng)), (full, full),
                 (full, random_idx(spec, 24, rng))):
        coords = [[spec.from_index(i).coords for i in x] for x in (a, b)]
        got = sr._mul_kronecker(spec, a, b, len(a) - 1)
        assert ([spec.from_index(i).coords for i in got]
                == series_mul(*coords, spec.modulus, p))


# KS2, taken from _KS2_SLOTS product slots on: half slots of one byte
# (F_2, F_4, F_9, F_243, F_256, and F_729, which packs by to_bytes), of two
# (F_25, F_67) and of five (4294967291, whose slots pass the memoryview
# formats)
KS2_FIELDS = [(2, 1), (2, 2), (3, 2), (5, 2), (67, 1), (3, 5), (2, 8)]
K = sr._KS2_SLOTS
# (len(a), len(b), n): one slot below and at the crossover, odd and even
# slot counts, full products, a Newton step of _inverse (m, 2m + 1, 2m) and
# a split of _online (m, 2m - 1, 2m - 2)
KS2_SHAPES = [(K - 1, K - 1, K - 2), (K, K, K - 1), (K + 1, K + 1, K),
              (300, K - 88, 1000), (300, K - 87, 1000), (K // 2 + 1, K + 1, K),
              (K, 2 * K - 1, 2 * K - 2)]
# at precision 2048 on half slots of one and two bytes: a Newton step, a
# square, and an operand of 40 coefficients, whose slots fit one byte on F_4
# (so the one-plane route stays) but not on F_9 or F_25
DEEP_SHAPES = [(1025, 2049, 2048), (2049, 2049, 2048), (40, 2049, 2048)]
KS2_CASES = ([(p, n, *shape) for p, n in KS2_FIELDS for shape in KS2_SHAPES]
             + [(p, n, *shape) for p, n in ((2, 2), (3, 2), (5, 2))
                for shape in DEEP_SHAPES]
             + [(3, 6, K, K, K - 1), (4294967291, 1, K, K, K - 1)])


@pytest.mark.parametrize("p,n,la,lb,prec", KS2_CASES, ids=[
    f"F{p ** n}-{la}x{lb}-prec{prec}" for p, n, la, lb, prec in KS2_CASES])
def test_ks2_products_match_schoolbook(p, n, la, lb, prec):
    # KS2 reduces twice (its even and its odd half); it runs exactly from
    # K product slots on, where a slot needs more than one byte
    spec = field_make(p, n)
    rng = random.Random(la * lb + spec.order)
    a, b = random_idx(spec, la, rng), random_idx(spec, lb, rng)
    reduces, reduce = [], sr._reduce
    with mock.patch.object(sr, "_reduce",
                           lambda *args: reduces.append(args) or reduce(*args)):
        got = sr._mul_kronecker(spec, a, b, prec)
    assert got == ref.mul(spec, a, b, prec)
    count = min(prec + 1, la + lb - 1)
    bits = max(min(la, lb) * n * (p - 1) ** 2, spec.order - 1).bit_length()
    assert len(reduces) == (2 if count >= K and bits > 8 else 1)


@pytest.mark.parametrize("p", [3, 5, 13, 67, 127, 131, 251, 257])
def test_residues_match_the_remainder_of_each_slot(p):
    # slot * (p - 1) on both sides of 255 (byte lookups and v % p), the
    # largest slot value, residues in slots of one and two bytes, and a
    # slot past count, which is left out
    rng = random.Random(p)
    for slot in (1, 2, 3, 4, 5, 8):
        for width in (2,) if p > 255 else (1, 2):
            for count in (1, 7, 130):
                values = [rng.randrange(256 ** slot) for _ in range(count - 1)]
                values += [256 ** slot - 1, rng.randrange(1, 256 ** slot)]
                c = sum(v << 8 * slot * i for i, v in enumerate(values))
                want = sum(v % p << 8 * width * i for i, v in enumerate(values[:count]))
                assert sr._residues(c, count, slot, p, width) == want, (slot, width, count)


# The odd-p fields of test_characteristic_2_fields_to_256_elements_take_the_byte_path
# with F_729, whose digit planes join in two-byte slots
ODD_KRONECKER_FIELDS = [(3, 1), (3, 2), (3, 5), (3, 6)]


@pytest.mark.parametrize("p,n", ODD_KRONECKER_FIELDS,
                         ids=[f"F{p ** n}" for p, n in ODD_KRONECKER_FIELDS])
def test_odd_p_kronecker_products_make_no_table_lookup(p, n):
    # the planes reduce, fold and join on packed ints: no row of _add or
    # _mul is read, let alone an entry per coefficient
    spec = FieldSpec(p, n)  # not field_make's: the spies stay in this test
    reads = []

    class Spy:
        def __init__(self, table, rows):
            self.table, self.rows = table, rows

        def __getitem__(self, i):
            reads.append(i)
            entry = self.table[i]
            return Spy(entry, False) if self.rows else entry

    spec._add, spec._mul = Spy(spec._add, True), Spy(spec._mul, True)
    rng = random.Random(spec.order)
    for la, lb, prec in ((40, 40, 79), (200, 150, 300), (300, 300, 150)):
        a, b = random_idx(spec, la, rng), random_idx(spec, lb, rng)
        got = sr._mul_kronecker(spec, a, b, prec)
        assert got == ref.mul(field_make(p, n), a, b, prec), (la, lb, prec)
    assert reads == []


@pytest.mark.parametrize("p,n,prec", GRID, ids=IDS)
def test_inverse_and_log_deriv_match_recurrences(p, n, prec):
    spec = field_make(p, n)
    rng = random.Random(prec * 37 + spec.order)
    a = random_idx(spec, prec + 1, rng, unit=True)
    f = series(spec, a)
    assert idx(f.inverse_mult()) == ref.inverse(spec, a, prec)
    assert idx(log_deriv(f)) == ref.log_deriv(spec, a, prec)


# ---------------------------------------------------------------------------
# The two routes of log_deriv, called directly
# ---------------------------------------------------------------------------

ROUTES = {"rows": sr._log_deriv_rows, "quotient": sr._log_deriv_quotient}
# The quotient halves the precision: its reciprocal takes Newton steps from
# h = n // 2 > B on, and g r needs g's top coefficient only for odd n
ROUTE_PRECS = {0, 1, 2, 3, 10, 11}
ROUTE_GRID = (
    [(p, n, prec) for p, n in SMALL for prec in sorted(
        ROUTE_PRECS | {p - 1, p, 127, 128, 129, 513, *range(2 * B - 1, 2 * B + 4)})]
    + [(p, n, prec) for p, n in LARGE for prec in sorted(ROUTE_PRECS | {129, 257})]
    + [(p, n, prec) for p, n in COMPUTED for prec in sorted(ROUTE_PRECS | {40, 41})])


def route_operands(spec, prec, rng):
    """A dense unit, a unit with about one nonzero coefficient in six, and a
    unit of a single term."""
    return (random_idx(spec, prec + 1, rng, unit=True),
            random_idx(spec, prec + 1, rng, nonzero=prec // 6, valuation=1, unit=True),
            random_idx(spec, prec + 1, rng, nonzero=0, unit=True))


@pytest.mark.parametrize("p,n,prec", ROUTE_GRID,
                         ids=[f"F{p ** n}-prec{prec}" for p, n, prec in ROUTE_GRID])
def test_both_log_deriv_routes_match_the_recurrence(p, n, prec):
    spec = field_make(p, n)
    rng = random.Random(prec * 53 + spec.order)
    for a in route_operands(spec, prec, rng):
        want = ref.log_deriv(spec, a, prec)
        for name, route in ROUTES.items():
            assert route(spec, a, prec) == want, name


@pytest.mark.parametrize("p,n", KRONECKER_FIELDS, ids=KRONECKER_IDS)
def test_both_log_deriv_routes_match_coordinate_oracle(p, n):
    spec = field_make(p, n)
    rng = random.Random(spec.order + 2)
    for prec in (0, 1, 2, 3, 8, 9):
        for a in route_operands(spec, prec, rng):
            want = series_log_deriv([spec.from_index(i).coords for i in a],
                                    spec.modulus, p)
            for name, route in ROUTES.items():
                got = route(spec, a, prec)
                assert [spec.from_index(i).coords for i in got] == want, name


# The largest nonzero count that log_deriv still solves by the recurrence,
# by field order: 15 times max(2, 1.5 d^1.6) on the tabled fields of odd
# p, and 15 on those above 256 elements
ROWS_UP_TO = {3: 30, 5: 30, 9: 68, 243: 295, 512: 15, 729: 15, 257: 15,
              4294967291: 15}
# In characteristic 2 up to 256 elements the recurrence runs on bytes, at
# the same cost whatever the count: the quotient is taken from precision
# 128 d^2 on, which F_256 (8192) never reaches
QUOTIENT_FROM = {2: 128, 4: 512, 256: 8192}


@pytest.mark.parametrize("p,n", KRONECKER_FIELDS, ids=KRONECKER_IDS)
def test_log_deriv_takes_the_quotient_above_its_crossover(p, n):
    spec = field_make(p, n)
    rng = random.Random(spec.order + 3)
    taken = []

    def spy(name):
        return lambda *args: taken.append(name) or ROUTES[name](*args)

    def route(prec, nonzero, want):
        a = random_idx(spec, prec + 1, rng, nonzero=nonzero - 1, valuation=1,
                       unit=True)
        with mock.patch.multiple(sr, _log_deriv_rows=spy("rows"),
                                 _log_deriv_quotient=spy("quotient")):
            got = idx(log_deriv(series(spec, a)))
        assert taken.pop() == want, (prec, nonzero)
        assert got == ref.log_deriv(spec, a, prec), (prec, nonzero)

    if spec.order in QUOTIENT_FROM:
        start = QUOTIENT_FROM[spec.order]
        for prec in (start - 1, start):
            if prec <= sr.MAX_PREC:  # a single term, a sparse and a dense unit
                for nonzero in (1, 16, prec + 1):
                    route(prec, nonzero, "quotient" if prec >= start else "rows")
        if start > sr.MAX_PREC:
            route(sr.MAX_PREC, sr.MAX_PREC + 1, "rows")
        return
    top = ROWS_UP_TO[spec.order]
    for prec in (top - 1, top, 2 * top + 1):
        for nonzero in (top, top + 1):
            if nonzero <= prec + 1:
                route(prec, nonzero, "quotient" if nonzero > top else "rows")


# ---------------------------------------------------------------------------
# The characteristic-2 byte path of _mul_rows and _online
# ---------------------------------------------------------------------------

# (p, n, modulus): a modulus other than the default where there is one
# (x^2 + x + 1 is the only one of F_4); F_256's rows fill all 256 entries
# of a translate table
BYTE_FIELDS = [(2, 1, (1, 1)), (2, 2, None), (2, 3, (1, 0, 1, 1)),
               (2, 8, (1, 0, 1, 1, 1, 0, 0, 0, 1))]
BYTE_IDS = [f"F{p ** n}-{'default' if m is None else ''.join(map(str, m))}"
            for p, n, m in BYTE_FIELDS]
# On bytes _online splits only blocks of more than 4 _BLOCK degrees (F_2,
# F_4) or 16 _BLOCK (F_8 on): the recurrence tests below lower _BLOCK to
# this, so that blocks of 64 and 256 degrees split within their precisions.
BYTE_BLOCK = B // 8


@pytest.mark.parametrize("p,n,modulus", BYTE_FIELDS, ids=BYTE_IDS)
def test_byte_rows_match_schoolbook(p, n, modulus):
    spec = field_make(p, n, modulus)
    assert spec.modulus != field_make(p, n).modulus or n == 2
    rng = random.Random(spec.order + 5)
    every = list(range(spec.order)) * (300 // spec.order + 1)
    for la, lb, prec, nonzero in (
            (41, 41, 40, 3),     # rows whose products are cut at degree n
            (41, 41, 40, 41),    # every row
            (12, 30, 80, 12),    # both operands shorter than n + 1
            (30, 5, 80, 6),      # b shorter than a
            (300, 300, 299, 5),  # b holds every element
            (1, 1, 0, 1)):
        a = random_idx(spec, la, rng, nonzero=nonzero)
        for b in (random_idx(spec, lb, rng), every[:lb]):
            assert sr._mul_rows(spec, a, b, prec) == ref.mul(spec, a, b, prec)
    # nonzero rows only in the last degrees, each against every element
    a = [0] * 297 + [spec.order - 1, 1, rng.randrange(1, spec.order)]
    assert sr._mul_rows(spec, a, every[:300], 299) == ref.mul(spec, a, every[:300], 299)


@pytest.mark.parametrize("p,n,modulus", BYTE_FIELDS, ids=BYTE_IDS)
@mock.patch.object(sr, "_BLOCK", BYTE_BLOCK)
def test_byte_recurrence_matches_the_references(p, n, modulus):
    # above _block_limit the row route and solve_log_deriv split their
    # blocks: the byte block then starts at lo > 1, with s preloaded by the
    # split; inverse_mult runs one block through _newton_limit, then Newton
    # steps
    spec = field_make(p, n, modulus)
    rng = random.Random(spec.order + 7)
    for prec in (B - 1, B + 1, 2 * B + 1, 3 * B + 2):
        for nonzero in (None, prec // 6):
            a = random_idx(spec, prec + 1, rng, nonzero=nonzero, valuation=1,
                           unit=True)
            assert idx(series(spec, a).inverse_mult()) == ref.inverse(spec, a, prec)
            want = ref.log_deriv(spec, a, prec)
            for name, route in ROUTES.items():
                assert route(spec, a, prec) == want, (name, prec)
        t = section_target(spec, prec + 1, rng)
        assert idx(solve_log_deriv(series(spec, t))) == ref.solve_log_deriv(spec, t, prec)


@pytest.mark.parametrize("p,n,modulus", BYTE_FIELDS, ids=BYTE_IDS)
@mock.patch.object(sr, "_BLOCK", BYTE_BLOCK)
def test_byte_recurrence_leaves_each_sum_in_s(p, n, modulus):
    # on return s_m = S_m = s_m + sum_{k=1..m-1} w_k f_(m-k) for every m,
    # in one block and across the split, and f_m = c_m S_m
    spec = field_make(p, n, modulus)
    add, mul = spec._add, spec._mul
    rng = random.Random(spec.order + 11)
    for prec in (B // 4 - 1, 2 * B + 3):
        w = random_idx(spec, prec + 1, rng)
        s0 = random_idx(spec, prec + 1, rng)
        scales = [mul[rng.randrange(1, spec.order)] for _ in range(prec + 1)]
        f, s = [rng.randrange(spec.order)] + [0] * prec, list(s0)
        sr._online(spec, w, s, f, scales, 1, prec + 1)
        for m in range(1, prec + 1):
            want = s0[m]
            for k in range(1, m):
                want = add[want][mul[w[k]][f[m - k]]]
            assert s[m] == want and f[m] == scales[m][want], (prec, m)


@pytest.mark.parametrize("p,n,modulus", BYTE_FIELDS, ids=BYTE_IDS)
@mock.patch.object(sr, "_BLOCK", BYTE_BLOCK)
def test_byte_section_kernel_checks_every_even_degree(p, n, modulus):
    # _solve_log_deriv reads s_m at every multiple of 2 after the recurrence:
    # a target that breaks a_(2i) = a_i^2 past the first block must fail there
    spec = field_make(p, n, modulus)
    prec = 2 * B + 1
    t = section_target(spec, prec + 1, random.Random(spec.order))
    t[prec - 1] = spec._add[t[prec - 1]][1]
    with pytest.raises(AssertionError, match=f"degree {prec - 1};"):
        sr._solve_log_deriv(spec, t, prec)


# F_2 .. F_256 take the byte path; odd p and F_512 keep the lookup loops
PATH_FIELDS = [(2, d) for d in range(1, 9)] + [(3, 1), (3, 2), (3, 5), (2, 9)]


@pytest.mark.parametrize("p,n", PATH_FIELDS,
                         ids=[f"F{p ** n}" for p, n in PATH_FIELDS])
def test_characteristic_2_fields_to_256_elements_take_the_byte_path(p, n):
    spec = FieldSpec(p, n)  # not field_make's: the spies stay in this test
    on_bytes = p == 2 and n <= 8
    reads = {"add": 0, "bytes": 0}

    class Spy(tuple):
        def __getitem__(self, i):
            reads[self.name] += 1
            return tuple.__getitem__(self, i)

    def spy(name, table):
        wrapped = Spy(table[i] for i in range(spec.order))
        wrapped.name = name
        return wrapped

    assert (spec._mul_bytes is not None) == on_bytes
    spec._add = spy("add", spec._add)
    if on_bytes:
        spec._mul_bytes = spy("bytes", spec._mul_bytes)
    rng = random.Random(spec.order)
    a = random_idx(spec, 40, rng, nonzero=4)
    b = random_idx(spec, 40, rng)
    got = sr._mul_rows(spec, a, b, 39)
    w = random_idx(spec, 40, rng, unit=True)
    s, f = [0] * 40, [1] + [0] * 39
    sr._online(spec, w, s, f, [spec._mul[1]] * 40, 1, 40)
    # the byte path reads no sum from _add; the lookup loops read many
    assert (reads["add"] == 0) == on_bytes and (reads["bytes"] > 0) == on_bytes
    assert got == ref.mul(field_make(p, n), a, b, 39)


@pytest.mark.parametrize("p,n", PATH_FIELDS,
                         ids=[f"F{p ** n}" for p, n in PATH_FIELDS])
def test_online_splits_only_blocks_above_the_field_limit(p, n):
    # one block of every degree up to 4 _BLOCK on F_2 and F_4 and 16 _BLOCK
    # (MAX_PREC) on F_8 .. F_256; _BLOCK on the other fields
    spec = field_make(p, n)
    limit = B if p > 2 or n > 8 else 4 * B if n <= 2 else 16 * B
    assert sr._block_limit(spec) == limit
    rng = random.Random(spec.order + 13)
    for degrees, splits in ((limit, False), (limit + 1, True)):
        hi = degrees + 1
        w = random_idx(spec, hi, rng, unit=True)
        s, f = [0] * hi, [1] + [0] * degrees
        with mock.patch.object(sr, "_mul", wraps=sr._mul) as product:
            sr._online(spec, w, s, f, [spec._mul[1]] * hi, 1, hi)
        assert product.called == splits, degrees


@pytest.mark.parametrize("p,n", PATH_FIELDS,
                         ids=[f"F{p ** n}" for p, n in PATH_FIELDS])
def test_inverse_takes_newton_steps_only_above_the_field_limit(p, n):
    # the recurrence through _BLOCK degrees on F_2, F_4 and the fields off
    # bytes, 2 _BLOCK on F_8 and F_16, and 16 _BLOCK (MAX_PREC) from F_32 on
    spec = field_make(p, n)
    limit = (B if p > 2 or n > 8 or n <= 2 else 2 * B if n <= 4
             else 16 * B)
    assert sr._newton_limit(spec) == limit
    rng = random.Random(spec.order + 17)
    for degrees, newton in ((limit, False), (limit + 1, True)):
        a = random_idx(spec, degrees + 1, rng, unit=True)
        with mock.patch.object(sr, "_mul", wraps=sr._mul) as product:
            g = sr._inverse(spec, a, degrees)
        assert product.called == newton, degrees
        assert sr._mul(spec, a, g, degrees) == [1] + [0] * degrees


@pytest.mark.parametrize("p,n,prec", GRID, ids=IDS)
def test_solve_log_deriv_matches_recurrence(p, n, prec):
    spec = field_make(p, n)
    rng = random.Random(prec * 47 + spec.order)
    t = section_target(spec, prec + 1, rng)
    got = idx(solve_log_deriv(series(spec, t)))
    assert got == ref.solve_log_deriv(spec, t, prec)


@pytest.mark.parametrize("p,n,prec", GRID, ids=IDS)
def test_pow_matches_square_and_multiply(p, n, prec):
    spec = field_make(p, n)
    rng = random.Random(prec * 41 + spec.order)
    a = random_idx(spec, prec + 1, rng, nonzero=3)
    f = series(spec, a)
    for e in (0, 1, 2, p, 2 * p + 1, 13):
        assert idx(f ** e) == ref.power(spec, a, e, prec), e


def compose_cases(fields, precs, budget):
    """(p, n, prec, valuation, inner nonzeros), with None for a dense inner
    series. The reference Horner loop costs about
    (prec / valuation) * nonzeros * prec table lookups; cases above the
    budget are left out."""
    cases = []
    for p, n in fields:
        for prec in sorted({0, 1, p - 1, p, *precs}):
            if prec > max(precs):
                continue
            for v in (1, 2, 5, 31):
                if v > max(prec, 1):
                    continue
                for nonzero in (1, 3, S + 1, None):
                    cost = (prec // v + 1) * min(nonzero or prec, prec) * prec
                    if cost <= budget:
                        cases.append((p, n, prec, v, nonzero))
    return cases


def exact_cases(fields, prec, gamma_top):
    """(p, n, prec, valuation, exponents): inner series with terms at exactly
    these exponents. Monomials c X^v; 2 and _SPARSE terms at random
    exponents from v; and gamma-shaped series X + c_1 X^p + .. + c_i X^e
    with e = p^i (i = 1, 2, 5), at the precisions up to gamma_top where
    level d = 1 or 2 of the residue split has precision exactly e, which
    keeps that term there, or e - 1, which drops it."""
    cases = []
    for p, n in fields:
        rng = random.Random(p ** n)
        for v in (1, 2):
            cases.append((p, n, prec, v, (v,)))
            for count in (2, S):
                rest = rng.sample(range(v + 1, prec + 1), count - 1)
                cases.append((p, n, prec, v, (v, *sorted(rest))))
        for i in (1, 2, 5):
            for d in (1, 2):
                e, pd = p ** i, p ** d
                for top in (e * pd + pd - 1, e * pd - 1):  # kept, dropped
                    if top <= gamma_top:
                        gamma = tuple(p ** j for j in range(i + 1))
                        cases.append((p, n, top, 1, gamma))
    return cases


COMPOSE = (compose_cases(SMALL, (127, 128, 129, 255, 256, 257, 1024), 5e6)
           + compose_cases(LARGE, (129, 257), 2e6)
           + compose_cases(COMPUTED, (40,), 1e5)
           + exact_cases(SMALL, 257, 700) + exact_cases(LARGE, 129, 300)
           + exact_cases(COMPUTED, 40, 40))


def compose_id(p, n, prec, v, nonzero):
    if isinstance(nonzero, tuple):
        nonzero = ("at" + "-".join(map(str, nonzero)) if len(nonzero) < 4
                   else f"{len(nonzero)}terms")
    return f"F{p ** n}-prec{prec}-val{v}-nz{nonzero}"


@pytest.mark.parametrize("p,n,prec,v,nonzero", COMPOSE,
                         ids=[compose_id(*case) for case in COMPOSE])
def test_compose_matches_horner(p, n, prec, v, nonzero):
    # nonzero: a count of random terms from v (None: dense), or the exponents
    # of exactly the terms of the inner series, whose coefficients are not 1
    # where the field has other nonzero elements
    spec = field_make(p, n)
    rng = random.Random(prec * 43 + v * 7 + spec.order)
    a = random_idx(spec, prec + 1, rng)
    if isinstance(nonzero, tuple):
        g = [0] * (prec + 1)
        for e in nonzero:
            g[e] = rng.randrange(min(2, spec.order - 1), spec.order)
    else:
        g = random_idx(spec, prec + 1, rng, nonzero=nonzero, valuation=v)
        if v <= prec:
            g[v] = g[v] or 1
    got = idx(series(spec, a).compose(series(spec, g)))
    assert got == ref.compose(spec, a, g, prec)


# ---------------------------------------------------------------------------
# Property test against the coordinate oracle
# ---------------------------------------------------------------------------

ORACLE_FIELDS = [(2, 1), (3, 1), (2, 2), (3, 2), (2, 3)]
THRESHOLDS = {
    "default": {"_SPARSE": S, "_BLOCK": B,
                "_QUOTIENT_NONZERO": sr._QUOTIENT_NONZERO,
                "_QUOTIENT_PREC": sr._QUOTIENT_PREC},
    # low enough that every kernel branch runs at small precision
    "low": {"_SPARSE": 2, "_BLOCK": 3, "_QUOTIENT_NONZERO": 0,
            "_QUOTIENT_PREC": 0},
}


@st.composite
def operands(draw):
    p, n = draw(st.sampled_from(ORACLE_FIELDS))
    spec = field_make(p, n)
    prec = draw(st.integers(0, 48))
    coeff = st.integers(0, spec.order - 1)
    f = draw(st.lists(coeff, min_size=prec + 1, max_size=prec + 1))
    g = draw(st.lists(coeff, min_size=prec + 1, max_size=prec + 1))
    f[0] = f[0] or 1
    g[0] = 0
    return spec, f, g, draw(st.integers(0, 3 * p))


@pytest.mark.parametrize("thresholds", THRESHOLDS)
@settings(max_examples=30)
@given(operands())
def test_kernels_match_coordinate_oracle(thresholds, case):
    spec, f, g, e = case
    mod, p = spec.modulus, spec.p
    fc = [spec.from_index(i).coords for i in f]
    gc = [spec.from_index(i).coords for i in g]
    # g with its coefficients at multiples of p made Frobenius images
    t = list(g)
    for i in range(p, len(t), p):
        t[i] = spec._frob1[t[i // p]]
    with mock.patch.multiple(sr, **THRESHOLDS[thresholds]):
        fs, gs = series(spec, f), series(spec, g)
        assert [c.coords for c in (fs * gs).coeffs] == series_mul(fc, gc, mod, p)
        assert [c.coords for c in fs.inverse_mult().coeffs] == series_inverse(fc, mod, p)
        assert [c.coords for c in log_deriv(fs).coeffs] == series_log_deriv(fc, mod, p)
        assert [c.coords for c in (gs ** e).coeffs] == series_power(gc, e, mod, p)
        assert [c.coords for c in fs.compose(gs).coeffs] == series_compose(fc, gc, mod, p)
        ts = series(spec, t)
        assert log_deriv(solve_log_deriv(ts)) == ts


def test_low_thresholds_send_small_precisions_through_the_quotient():
    # so that the property test runs the quotient, its reciprocal's Newton
    # steps and its products on both sides of _SPARSE at small precision
    with mock.patch.multiple(sr, **THRESHOLDS["low"]):
        for p, n in ORACLE_FIELDS:
            spec = field_make(p, n)
            for prec in (0, 1, 2, 7):
                for a in route_operands(spec, prec, random.Random(prec)):
                    assert sr._quotient_wins(spec, prec, a)


@pytest.mark.parametrize("thresholds", THRESHOLDS)
def test_section_kernel_checks_every_multiple_of_p(thresholds):
    # solve_log_deriv refuses a target that breaks a_(p*i) = a_i^p before
    # solving; _solve_log_deriv's own test of the degenerate equation 0 = s
    # at every multiple of p must catch it as well, also past the first
    # block.
    spec = field_make(3, 2)
    with mock.patch.multiple(sr, **THRESHOLDS[thresholds]):
        n = 4 * sr._BLOCK + 1
        t = section_target(spec, n + 1, random.Random(n))
        m = n - n % 3
        t[m] = spec._add[t[m]][1]
        with pytest.raises(AssertionError, match=f"degree {m};"):
            sr._solve_log_deriv(spec, t, n)
        with pytest.raises(AssertionError, match=f"degree {m}$"):
            ref.solve_log_deriv(spec, t, n)
        with pytest.raises(ValueError, match=f"i={m // 3};"):
            solve_log_deriv(series(spec, t))


# The closed forms of the projection sweep: F_25 has binomials mod 5 other
# than 0 and 1, and F_256 is the generic path of the larger fields
CLOSED_FORM_FIELDS = [(2, 2), (2, 3), (3, 2), (5, 2), (2, 8)]


@st.composite
def closed_form_cases(draw):
    p, n = draw(st.sampled_from(CLOSED_FORM_FIELDS))
    spec = field_make(p, n)
    pq = PrimePower(p, draw(st.integers(1, 3)))
    k = draw(st.integers(1, 100).filter(lambda k: k % p))
    alpha, beta = (spec.from_index(draw(st.integers(0, spec.order - 1)))
                   for _ in range(2))
    return k, alpha, draw(st.integers(1, 4)), beta, pq, draw(st.integers(0, 256))


@settings(max_examples=100, deadline=None)
@given(closed_form_cases())
def test_closed_forms_match_the_field_element_reference(case):
    assert sr.twisted_orbit_series(*case) == ref.twisted_orbit_series(*case)
    assert (sr.critical_projection_formula(*case)
            == ref.critical_projection_formula(*case))


def test_closed_forms_call_no_series_kernel():
    # the projection sweep checks twisted_orbit_series against composing
    # and taking log_deriv; the check is worth something only while the
    # closed forms share none of those kernels
    def forbidden(*args):
        raise AssertionError("a closed form called a series kernel")

    spec, pq = field_make(2, 2), PrimePower(2, 2)
    alpha, beta = spec.gen(), spec.one()
    with mock.patch.multiple(sr, _mul=forbidden, _compose=forbidden,
                             _online=forbidden):
        for k in (1, 3, 7):
            for ell in (1, 2):
                closed = sr.twisted_orbit_series(k, alpha, ell, beta, pq, 256)
                formula = sr.critical_projection_formula(k, alpha, ell, beta,
                                                         pq, 257)
                assert closed == ref.twisted_orbit_series(
                    k, alpha, ell, beta, pq, 256)
                assert formula == ref.critical_projection_formula(
                    k, alpha, ell, beta, pq, 257)
                assert formula.support()  # k = 1, 3, 7 are critical for q = 4
    # the patch reaches the kernels' callers
    with mock.patch.multiple(sr, _mul=forbidden):
        with pytest.raises(AssertionError, match="series kernel"):
            closed * closed


@pytest.mark.parametrize("closed_form", [sr.twisted_orbit_series,
                                         sr.critical_projection_formula])
def test_closed_forms_refuse_a_negative_precision_or_twist(closed_form):
    spec, pq = field_make(2, 2), PrimePower(2, 2)
    with pytest.raises(ValueError, match="nonnegative"):
        closed_form(1, spec.one(), 1, spec.one(), pq, -1)
    # k = 1 is critical, so a twist index of 0 would never leave degree 2
    with pytest.raises(ValueError, match="twist index"):
        closed_form(1, spec.one(), 0, spec.one(), pq, 64)
