"""The argument guards of the digit, field and series layers and of the
sweeps' bounds, and the early returns beside them: each case calls one
public entry with an argument outside its domain and checks the exception
and its message, or the value returned. The invariant raises, which no
argument reaches, are each reached with one helper patched."""

import re
from fractions import Fraction

import pytest

from qcrit import digits, finite_field, series, theorems
from qcrit.digits import PrimePower
from qcrit.finite_field import FieldSpec, field_make
from qcrit.series import AdditiveSeries, TruncSeries

F2, F4, F9 = field_make(2, 1), field_make(2, 2), field_make(3, 2)
PQ2, PQ4 = PrimePower(2, 1), PrimePower(2, 2)
X4 = TruncSeries.x(F4, 4)
ID16 = AdditiveSeries.identity(F4, PQ4, 16)


# (label, call, exception type, message)
RAISES = [
    # series: dense truncated series
    ("monomial above prec", lambda: TruncSeries.monomial(F4, 4, 5, F4.one()),
     ValueError, "exponent 5 outside [0, 4]"),
    ("monomial below 0", lambda: TruncSeries.monomial(F4, 4, -1, F4.one()),
     ValueError, "exponent -1 outside [0, 4]"),
    ("coefficient beyond prec", lambda: X4.coefficient(5),
     ValueError, "coefficient 5 beyond precision 4"),
    ("coefficient below 0", lambda: X4.coefficient(-1),
     ValueError, "coefficient -1 beyond precision 4"),
    ("truncate upward", lambda: X4.truncate(5),
     ValueError, "cannot extend precision 4 to 5"),
    ("sum over two fields", lambda: X4 + TruncSeries.x(F2, 4),
     ValueError, "series over different fields"),
    ("negative power", lambda: X4 ** -1,
     ValueError, "negative powers: use inverse_mult() first"),
    ("derivative at prec 0", lambda: TruncSeries.one(F4, 0).derivative(),
     ValueError, "cannot differentiate a degree-0 truncation"),
    ("compose over two fields", lambda: X4.compose(TruncSeries.x(F2, 4)),
     ValueError, "series over different fields"),
    ("projection of a unit", lambda: series.critical_projection(
        TruncSeries.one(F4, 4), PQ4),
     ValueError, "projection requires zero constant term"),
    # series: sparse q-power series
    ("additive prec 0", lambda: AdditiveSeries(F4, PQ4, 0, {}),
     ValueError, "precision must be at least 1"),
    ("additive coefficient of another field",
     lambda: AdditiveSeries(F4, PQ4, 16, {0: F2.one()}),
     ValueError, "coefficient from a different field"),
    ("additive negative index",
     lambda: AdditiveSeries(F4, PQ4, 16, {-1: F4.one()}),
     ValueError, "negative term index"),
    ("generator index 0",
     lambda: AdditiveSeries.generator(F4, PQ4, 16, F4.one(), 0),
     ValueError, "generator index must be >= 1"),
    ("compose over two q", lambda: ID16.compose(
        AdditiveSeries.identity(F4, PQ2, 16)),
     ValueError, "mismatched additive series"),
    ("action over two fields", lambda: ID16.apply_to(TruncSeries.x(F2, 4)),
     ValueError, "series over different fields"),
    ("action on a unit", lambda: ID16.apply_to(TruncSeries.one(F4, 4)),
     ValueError, "action requires zero constant term"),
    ("as_trunc upward", lambda: ID16.as_trunc(17),
     ValueError, "cannot extend precision 16 to 17"),
    ("twisted orbit at a multiple of p", lambda: series.twisted_orbit_series(
        2, F4.one(), 1, F4.one(), PQ4, 8),
     ValueError, "exponent 2 must be positive and coprime to 2"),
    ("twisted orbit at 0", lambda: series.twisted_orbit_series(
        0, F4.one(), 1, F4.one(), PQ4, 8),
     ValueError, "exponent 0 must be positive and coprime to 2"),
    ("projection formula at a multiple of p",
     lambda: series.critical_projection_formula(
         4, F4.one(), 1, F4.one(), PQ4, 8),
     ValueError, "exponent 4 must be positive and coprime to 2"),
    ("random gamma of -1 factors", lambda: series.random_gamma(
        PQ4, F4, 16, 0, -1),
     ValueError, "factors -1 outside [0, 2048]"),
    ("random gamma above 2048 factors", lambda: series.random_gamma(
        PQ4, F4, 16, 0, 2049),
     ValueError, "factors 2049 outside [0, 2048]"),
    # finite_field
    ("extension degree 0", lambda: finite_field.FieldSpec(2, 0),
     ValueError, "extension degree must be >= 1, got 0"),
    ("modulus coefficient p", lambda: field_make(2, 2, [1, 2, 1]),
     ValueError, "modulus coefficients must lie in [0, p)"),
    ("one coordinate of two", lambda: F4.element([1]),
     ValueError, "expected 2 coordinates, got 1"),
    ("coordinate p", lambda: F4.element([2, 0]),
     ValueError, "coordinates must lie in [0, p)"),
    ("negative coordinate", lambda: F4.element([0, -1]),
     ValueError, "coordinates must lie in [0, p)"),
    ("index of the order", lambda: F4.from_index(4),
     ValueError, "index 4 out of range for field of order 4"),
    ("negative index", lambda: F4.from_index(-1),
     ValueError, "index -1 out of range for field of order 4"),
    ("generator of a prime field", lambda: F2.gen(),
     ValueError, "prime field has no basis generator t"),
    ("enumerate 2^13 elements", lambda: field_make(2, 13).elements(),
     ValueError, "refusing to enumerate a field with more than 4096 elements"),
    ("element plus int", lambda: F4.one() + 1,
     TypeError, "cannot combine field element with int"),
    ("negative element power", lambda: F4.gen() ** -1,
     ValueError, "negative exponent; use inverse() first"),
    ("subfield of a non-divisor", lambda: F4.gen().in_subfield(3),
     ValueError, "3 does not divide extension degree 2"),
    # digits
    ("digits of -1", lambda: digits.to_digits(-1, 2),
     ValueError, "digit expansion requires a nonnegative integer"),
    ("digits in base 1", lambda: digits.to_digits(5, 1),
     ValueError, "base must be at least 2"),
    ("digital key of 0", lambda: digits.digital_key(0, 2),
     ValueError, "the digital ordering is defined on positive integers"),
    ("residue of 0", lambda: digits.min_residue(0, PQ4),
     ValueError, "residue reduction requires a positive integer"),
    ("criticality of 0", lambda: digits.is_critical(0, PQ4),
     ValueError, "criticality is defined for positive integers"),
    # theorems: a sweep bound below 1 would pass with nothing checked
    ("orbit-min c_bound 0", lambda: theorems.verify_orbit_min(PQ4, c_bound=0),
     ValueError, "orbit-min: c_bound = 0 leaves nothing to check; it must be "
     "at least 1"),
    ("orbit-min oracle_bound -1", lambda: theorems.verify_orbit_min(
        PQ4, oracle_bound=-1),
     ValueError, "orbit-min: oracle_bound = -1 leaves nothing to check; it "
     "must be at least 1"),
]


@pytest.mark.parametrize("call,kind,message", [case[1:] for case in RAISES],
                         ids=[case[0] for case in RAISES])
def test_a_guard_raises_its_message(call, kind, message):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


# (label, call, value)
RETURNS = [
    ("agrees across fields", lambda: X4.agrees(TruncSeries.x(F2, 4)), False),
    ("action skips terms above the precision", lambda: AdditiveSeries(
        F4, PQ4, 16, {0: F4.one(), 2: F4.gen()}).apply_to(TruncSeries.x(F4, 8)),
     TruncSeries.x(F4, 8)),
    ("random gamma below q is X", lambda: series.random_gamma(PQ4, F4, 3, 0, 2),
     AdditiveSeries.identity(F4, PQ4, 3)),
    # ell past the bit length of prec: q^ell, which has 2*10^9 bits here
    # and takes seconds to compute, is never computed
    ("twisted orbit with ell past the precision", lambda: (
        series.twisted_orbit_series(1, F4.one(), 10 ** 9, F4.one(), PQ4, 32)),
     series.orbit_series(1, F4.one(), 32)),
    ("projection formula with ell past the precision", lambda: (
        series.critical_projection_formula(
            1, F4.one(), 10 ** 9, F4.one(), PQ4, 32)),
     TruncSeries.monomial(F4, 32, 2, F4.one())),
    ("series repr", lambda: repr(TruncSeries.x(F4, 2)),
     "<series X + O(X^3) over F_4>"),
    ("odd composite", lambda: finite_field.is_prime(9), False),
    ("field repr", lambda: repr(F4), "FieldSpec(p=2, n=2, modulus=[1, 1, 1])"),
    ("element difference", lambda: (F9.gen() - F9.one()) + F9.one(), F9.gen()),
    ("difference in characteristic 2", lambda: F4.gen() - F4.one(),
     F4.gen() + F4.one()),
    ("element repr", lambda: repr(F4.gen() + F4.one()), "<t+1 in F_4>"),
    ("binomial of negative m", lambda: digits.lucas_binom(-1, 0, 2), 0),
    ("binomial of negative k", lambda: digits.lucas_binom(3, -1, 2), 0),
    ("admissible with j = 0", lambda: digits.is_admissible(0, 2, 1, 3, 2),
     False),
]


@pytest.mark.parametrize("call,value", [case[1:] for case in RETURNS],
                         ids=[case[0] for case in RETURNS])
def test_an_early_return_gives_its_value(call, value):
    assert call() == value


# (label, module or class, attribute, stand-in, call, exception type,
# message): the stand-in breaks the fact that the raise guards
BARE_F4 = FieldSpec(2, 2)  # not from field_make's cache: _antilog runs
INVARIANTS = [
    ("an orbit misses its minimum", digits, "orbit_residues",
     lambda c, pq: frozenset(), lambda: digits.orbit_min(5, PQ4),
     RuntimeError, "no orbit representative found; internal invariant "
     "violated"),
    ("no irreducible modulus", finite_field, "_is_irreducible",
     lambda mod, p: False, lambda: finite_field.default_modulus(2, 3),
     RuntimeError, "no irreducible of degree 3 over F_2"),
    ("no primitive element", finite_field, "_poly_mul",
     lambda a, b, p: [1], BARE_F4._antilog,
     AssertionError, "F_4 has no primitive element; this is a bug"),
    ("Artin-Hasse not p-integral", series, "Fraction",
     lambda n=0: Fraction(n, 2),
     lambda: series._artin_hasse_residues.__wrapped__(2, 4),
     AssertionError, "coefficient 0 of the Artin-Hasse series is not "
     "2-integral"),
    ("Coleman's subfield short of q elements", FieldSpec, "subfield_elements",
     lambda spec, m: (), lambda: theorems.verify_coleman(PQ4, prec=8),
     AssertionError, "subfield enumeration did not find q elements"),
]


@pytest.mark.parametrize("owner,name,stand_in,call,kind,message",
                         [case[1:] for case in INVARIANTS],
                         ids=[case[0] for case in INVARIANTS])
def test_an_invariant_raises_its_message_once_broken(
        monkeypatch, owner, name, stand_in, call, kind, message):
    monkeypatch.setattr(owner, name, stand_in)
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()
