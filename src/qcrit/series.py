"""Truncated power series over a finite field, and the sparse series
spanned by q-power monomials that act on them by composition.

A TruncSeries of precision N is a series known exactly through degree N.
Every operation states the precision of its result; identity checks
compare two series through the smaller of their precisions. Results in
characteristic p follow the usual rules: (X^p)' = 0, and raising a series
to the p-th power is the coefficient-wise Frobenius with exponents
multiplied by p.

An AdditiveSeries holds terms a_i X^(q^i) sparsely, since even at high
precision such a series has only a handful of terms. Those with leading
term X form a group under composition; inverses are computed coefficient
by coefficient and stay inside the group.
"""

from __future__ import annotations

import random
import re
import struct
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from math import comb
from typing import Sequence

from .digits import PrimePower, is_critical
from .finite_field import FieldElement, FieldSpec, _cache_put, json_member


# The largest precision that the CLI options and JSON documents accept.
# The exact Artin-Hasse recursion is cubic in it: about 7 s at 2048 and
# 53 s at 4096.
MAX_PREC = 2048


def check_prec(prec: int) -> None:
    """Raise ValueError if prec is above MAX_PREC."""
    if prec > MAX_PREC:
        raise ValueError(f"precision {prec} exceeds the limit {MAX_PREC}")


# ---------------------------------------------------------------------------
# Dense truncated series
# ---------------------------------------------------------------------------

class TruncSeries:
    """Power series over F_{p^n} known exactly through degree prec.

    A series holds idx, the packed element indices of its prec + 1
    coefficients, and every operation computes on them with the field's
    tables. FieldElements are the API and JSON boundary: the constructor
    takes them, and coeffs and coefficient() build them when read."""

    __slots__ = ("spec", "prec", "idx")

    def __init__(self, spec: FieldSpec, prec: int, coeffs: Sequence[FieldElement]):
        idx = tuple(_index(spec, c) for c in coeffs)
        _check_length(prec, len(idx))
        self.spec, self.prec, self.idx = spec, prec, idx

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, spec: FieldSpec, prec: int) -> TruncSeries:
        return _series(spec, prec, (0,) * (prec + 1))

    @classmethod
    def one(cls, spec: FieldSpec, prec: int) -> TruncSeries:
        return cls.monomial(spec, prec, 0, spec.one())

    @classmethod
    def x(cls, spec: FieldSpec, prec: int) -> TruncSeries:
        return cls.monomial(spec, prec, 1, spec.one())

    @classmethod
    def monomial(cls, spec: FieldSpec, prec: int, k: int,
                 coeff: FieldElement) -> TruncSeries:
        if k < 0 or k > prec:
            raise ValueError(f"exponent {k} outside [0, {prec}]")
        out = [0] * (prec + 1)
        out[k] = _index(spec, coeff)
        return _series(spec, prec, out)

    @classmethod
    def from_scalars(cls, spec: FieldSpec, values: Sequence[int]) -> TruncSeries:
        """Series with integer coefficients reduced into the prime field."""
        return cls(spec, len(values) - 1, [spec.scalar(v) for v in values])

    # -- accessors ----------------------------------------------------------

    @property
    def coeffs(self) -> tuple[FieldElement, ...]:
        """The coefficients as field elements, built on each read."""
        return tuple(map(self.spec._elements.__getitem__, self.idx))

    def coefficient(self, i: int) -> FieldElement:
        if i < 0 or i > self.prec:
            raise ValueError(f"coefficient {i} beyond precision {self.prec}")
        return self.spec._elements[self.idx[i]]

    def is_unit(self) -> bool:
        return bool(self.idx[0])

    def valuation(self) -> int | None:
        return next((i for i, c in enumerate(self.idx) if c), None)

    def support(self) -> list[int]:
        return [i for i, c in enumerate(self.idx) if c]

    def truncate(self, prec: int) -> TruncSeries:
        if prec > self.prec:
            raise ValueError(f"cannot extend precision {self.prec} to {prec}")
        return _series(self.spec, prec, self.idx[:prec + 1])

    def agrees(self, other: TruncSeries) -> bool:
        """Equality through the smaller of the two precisions."""
        if self.spec != other.spec:
            return False
        n = min(self.prec, other.prec)
        return self.idx[:n + 1] == other.idx[:n + 1]

    # -- ring operations ----------------------------------------------------

    def _binop_prec(self, other: TruncSeries) -> int:
        if self.spec != other.spec:
            raise ValueError("series over different fields")
        return min(self.prec, other.prec)

    def __add__(self, other: TruncSeries) -> TruncSeries:
        n = self._binop_prec(other)
        add = self.spec._add
        return _series(self.spec, n, [add[a][b] for a, b in zip(self.idx, other.idx)])

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return self + (-other)

    def __neg__(self) -> TruncSeries:
        return _series(self.spec, self.prec, map(self.spec._neg.__getitem__, self.idx))

    def __mul__(self, other: TruncSeries) -> TruncSeries:
        """Cauchy product at the smaller precision."""
        n = self._binop_prec(other)
        return _series(self.spec, n, _mul(self.spec, self.idx, other.idx, n))

    def __pow__(self, e: int) -> TruncSeries:
        """Power by base-p digits: f^(p^j) is a Frobenius spread, so f^e
        takes (digit sum of e) - 1 products."""
        if e < 0:
            raise ValueError("negative powers: use inverse_mult() first")
        spec, n = self.spec, self.prec
        base, result = self.idx, None
        while e:
            e, digit = divmod(e, spec.p)
            for _ in range(digit):
                result = base if result is None else _mul(spec, result, base, n)
            if e:
                base = _spread(spec, base, n)
        if result is None:
            return TruncSeries.one(spec, n)
        return _series(spec, n, result)

    def scale(self, alpha: FieldElement) -> TruncSeries:
        """Multiply every coefficient by alpha."""
        row = self.spec._mul[_index(self.spec, alpha)]
        return _series(self.spec, self.prec, map(row.__getitem__, self.idx))

    def scale_arg(self, alpha: FieldElement) -> TruncSeries:
        """Substitute alpha*X for X: coefficient a_i becomes a_i * alpha^i."""
        c, n = _index(self.spec, alpha), self.prec
        terms = [(1, c)] if c else []
        return _series(self.spec, n, _compose(self.spec, self.idx, terms, n))

    def inverse_mult(self) -> TruncSeries:
        """Multiplicative inverse of a unit, at the same precision."""
        if not self.idx[0]:
            raise ValueError("series with zero constant term has no reciprocal")
        return _series(self.spec, self.prec, _inverse(self.spec, self.idx, self.prec))

    def derivative(self) -> TruncSeries:
        """Formal derivative; precision drops by one. In characteristic p
        the coefficients at multiples of p are annihilated."""
        if self.prec == 0:
            raise ValueError("cannot differentiate a degree-0 truncation")
        mul, p = self.spec._mul, self.spec.p
        return _series(self.spec, self.prec - 1,
                       [mul[i % p][c] for i, c in enumerate(self.idx) if i])

    def compose(self, inner: TruncSeries) -> TruncSeries:
        """Composition self(inner); requires inner(0) = 0.

        Exact through min(prec) because the inner series has positive
        valuation. Computed by splitting self by exponent residues mod p
        (see _compose), with no Horner loop."""
        n = self._binop_prec(inner)
        if inner.idx[0]:
            raise ValueError("inner series must have zero constant term")
        g = inner.idx
        terms = [(e, g[e]) for e in compress(range(n + 1), g)]
        return _series(self.spec, n, _compose(self.spec, self.idx, terms, n))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"field": self.spec.to_json(), "prec": self.prec,
                "coeffs": [c.to_json() for c in self.coeffs]}

    @classmethod
    def from_json(cls, data: dict) -> TruncSeries:
        prec = json_member(data, "prec", int)
        check_prec(prec)
        spec = FieldSpec.from_json(json_member(data, "field", dict))
        coeffs = json_member(data, "coeffs", list)
        _check_length(prec, len(coeffs))
        return cls(spec, prec, [spec.element(c) for c in coeffs])

    def __eq__(self, other) -> bool:
        return (isinstance(other, TruncSeries) and self.spec == other.spec
                and self.prec == other.prec and self.idx == other.idx)

    def __hash__(self) -> int:
        return hash((self.spec, self.prec, self.idx))

    def __str__(self) -> str:
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            cs = str(c)
            if i == 0:
                parts.append(cs)
                continue
            xs = "X" if i == 1 else f"X^{i}"
            if cs == "1":
                parts.append(xs)
            elif "+" in cs:
                parts.append(f"({cs})*{xs}")
            else:
                parts.append(f"{cs}*{xs}")
        body = " + ".join(parts) if parts else "0"
        return f"{body} + O(X^{self.prec + 1})"

    def __repr__(self) -> str:
        return f"<series {self} over F_{self.spec.order}>"


def _check_length(prec: int, count: int) -> None:
    if prec < 0:
        raise ValueError("precision must be nonnegative")
    if count != prec + 1:
        raise ValueError(f"expected {prec + 1} coefficients, got {count}")


def _index(spec: FieldSpec, c: FieldElement) -> int:
    """The index of c, after checking that c lies in spec."""
    if c.spec is not spec and c.spec != spec:
        raise ValueError("element from a different field")
    return c.idx


def _series(spec: FieldSpec, prec: int, idx) -> TruncSeries:
    """The series with these prec + 1 indices of spec, taken unchecked."""
    f = object.__new__(TruncSeries)
    f.spec, f.prec, f.idx = spec, prec, tuple(idx)
    return f


# ---------------------------------------------------------------------------
# Kernels on index lists
# ---------------------------------------------------------------------------
# A kernel takes series as sequences of packed element indices and returns
# the list of the n + 1 coefficients through degree n. The crossovers below
# come from timings on F_2, F_4, F_9, F_16, F_243 and F_256 at precision 64
# to 2048 (tools/series_ops.py, BENCH_21.json), and that of KS2 on F_4,
# F_9, F_67, F_243 and F_256 (BENCH_27.json). In characteristic 2 with at
# most 256 elements (spec._mul_bytes) a sum of indices is their XOR, and a
# row of a product or of the recurrence is one bytes.translate of a whole
# operand through a row of _mul, XORed into one big int.

# An operand with at most this many nonzero coefficients is multiplied row
# by row; denser products go by Kronecker substitution. On bytes, rows beat
# Kronecker at 32 nonzero coefficients too, but desk's series suites did not
# move with 32, 64 or 128 here.
_SPARSE = 16
# The online recurrence (_online) solves blocks of at most this many
# degrees one coefficient at a time; inverse_mult takes Newton steps above
# it (_newton_limit). 32 and 64 were not faster on desk's series sweeps. On
# bytes a block costs one translate per degree whatever d, while the split's
# product costs about d^1.6 plane products: there blocks take up to 4 times
# this on F_2 and F_4, and 16 times (MAX_PREC) from F_8 on (_block_limit).
_BLOCK = 128
# log_deriv's recurrence makes about one table lookup per nonzero
# coefficient of f per degree; its quotient route makes a few products per
# degree, each over the d coordinate planes, which costs about d^1.6 plane
# products (Karatsuba). The quotient is taken when f has more nonzero
# coefficients than this many per unit of 1.5 d^1.6, and at least twice
# this many; the fields this rule serves up to 256 elements have odd p.
# The 1.5 once paid for a v % p pass per plane. With the products reduced
# on bytes the crossover moves with the precision across the rule with and
# without it (F_9: about 60 nonzero at precision 128, 40 at 2048; F_243:
# about 220 at 512, 350 at 1024, 125 at 2048; BENCH_25.json), so it
# stays. Above 256 elements each lookup computes a product mod the
# modulus, and the count is this alone.
_QUOTIENT_NONZERO = 15
# On bytes the recurrence costs one translate per degree whatever the count,
# and the quotient is taken from precision this times d^2 on: F_2 from 128,
# F_4 from 512, F_16 at 2048, and F_256 never below MAX_PREC.
_QUOTIENT_PREC = 128
# Kronecker products through at least this many slots (coefficients) take
# KS2, two big-int products at half the width (_mul_kronecker). At 512 slots
# KS2 took 0.74-0.98 of the time of one plane per slot on the five fields
# above, 0.71-0.76 at 2048; at 256 it took 1.15 on F_4 and 1.21 on F_9.
_KS2_SLOTS = 512

# memoryview formats of the slot widths a product can be unpacked with
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"} if sys.byteorder == "little" else {}


def _mul(spec: FieldSpec, a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    a, b = a[:n + 1], b[:n + 1]
    nonzero_a, nonzero_b = len(a) - a.count(0), len(b) - b.count(0)
    if nonzero_a > nonzero_b:
        a, b, nonzero_a = b, a, nonzero_b
    if nonzero_a <= _SPARSE:
        return _mul_rows(spec, a, b, n)
    return _mul_kronecker(spec, a, b, n)


def _mul_rows(spec: FieldSpec, a: list[int], b: list[int], n: int) -> list[int]:
    """The schoolbook product, one row per nonzero coefficient of a. In
    characteristic 2 a row is one translate of b's bytes, XORed into one
    int at byte i."""
    if spec._mul_bytes is not None:
        rows, seg, acc = spec._mul_bytes, bytes(b[:n + 1]), 0
        for i, ai in enumerate(a):
            if ai:
                acc ^= int.from_bytes(seg[:n + 1 - i].translate(rows[ai]),
                                      "little") << 8 * i
        return list(acc.to_bytes(n + 1, "little"))
    add, mul = spec._add, spec._mul
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul[ai]
            seg = b[:n + 1 - i]
            out[i:i + len(seg)] = [add[o][row[x]] if x else o
                                   for o, x in zip(out[i:i + len(seg)], seg)]
    return out


def _mul_kronecker(spec: FieldSpec, a: list[int], b: list[int], n: int) -> list[int]:
    """The product by Kronecker substitution, one coordinate plane at a time.

    Slot i of plane j holds coordinate j of coefficient i. Karatsuba over
    the d = spec.n planes of a and b gives the 2d - 1 planes of the product,
    whose slots need bits bits: min(len) * d * (p-1)^2 bounds them.
    _reduce takes the planes to indices.

    From _KS2_SLOTS product slots on, where a half slot of h = ceil(bits /
    16) bytes is narrower than the plane's, the planes are evaluated at
    2^(8h) and at -2^(8h) (Harvey's KS2: "Faster polynomial multiplication
    via multipoint Kronecker substitution", J. Symbolic Comput. 2009): with
    E and O the even- and odd-index coordinates at a stride of 2h bytes,
    the operands are E + O 2^(8h) and E - O 2^(8h), each half as wide as
    one plane at a full slot. Karatsuba runs once on each, and from the two
    product planes P+ and P-, (P+ + P-) / 2 holds the even-index slots and
    (P+ - P-) / 2^(8h + 1) the odd ones, both in slots of 2h bytes."""
    p, d = spec.p, spec.n
    bits = max(min(len(a), len(b)) * d * (p - 1) ** 2, spec.order - 1).bit_length()
    slot = next((s for s in _SLOT_FORMATS if 8 * s >= bits), (bits + 7) // 8)
    count = min(n + 1, len(a) + len(b) - 1)
    half = -(-bits // 16)
    if count < _KS2_SLOTS or half >= slot:
        planes = _karatsuba(_planes(spec, a, slot), _planes(spec, b, slot))
        return list(_reduce(spec, planes, count, slot)) + [0] * (n + 1 - count)
    shift, wide, ops = 8 * half, 2 * half, []
    for x in (a, b):
        eo = list(zip(_planes(spec, x[::2], wide), _planes(spec, x[1::2], wide)))
        ops += [[e + (o << shift) for e, o in eo], [e - (o << shift) for e, o in eo]]
    pm = list(zip(_karatsuba(ops[0], ops[2]), _karatsuba(ops[1], ops[3])))
    out = [0] * (n + 1)
    evens = [(x + y) >> 1 for x, y in pm]
    odds = [(x - y) >> (shift + 1) for x, y in pm]
    out[0:count:2] = _reduce(spec, evens, (count + 1) // 2, wide)
    out[1:count:2] = _reduce(spec, odds, count // 2, wide)
    return out


def _reduce(spec: FieldSpec, planes: list[int], count: int, slot: int):
    """The first count indices of the product whose 2d - 1 coordinate
    planes, in slots of slot bytes, are planes. For p = 2 a mask reduces
    them mod 2, t^d .. t^(2d-2) fold back by XOR, and a slot then holds an
    index. For odd p each plane is reduced mod p (_residues: on bytes where
    slot * (p-1) fits one, else by v % p) into slots as wide as an index,
    the high planes fold back by multiples of the digits of t^d, keeping a
    slot below p^d, and the low planes, reduced once more, join as
    idx * p + plane from the top; one to_bytes reads it."""
    p, d = spec.p, spec.n
    top = [-c % p for c in spec.modulus[:d]]  # the digits of t^d
    if p == 2:
        mask = int.from_bytes((b"\1" + bytes(slot - 1)) * count, "little")
        planes = [c & mask for c in planes]
        for k in reversed(range(d, 2 * d - 1)):  # t^k = t^(k-d) t^d
            for j in (j for j, t in enumerate(top) if t):
                planes[k - d + j] ^= planes[k]
        return _slots(sum(c << j for j, c in enumerate(planes[:d])), count, slot)
    width = ((spec.order - 1).bit_length() + 7) // 8
    planes = [_residues(c, count, slot, p, width) for c in planes]
    if d > 1:
        for k in reversed(range(d, 2 * d - 1)):
            for j, t in enumerate(top):
                planes[k - d + j] += t * planes[k]
        planes = [_residues(c, count, width, p, width) for c in planes[:d]]
    idx = 0
    for c in reversed(planes):
        idx = idx * p + c
    return _slots(idx, count, width)


def _residues(c: int, count: int, slot: int, p: int, width: int) -> int:
    """The first count slots of c, slot bytes each, reduced mod p into
    slots of width bytes. Where slot * (p - 1) fits a byte, byte b of
    every slot is looked up as its value times 256^b mod p by one
    translate per b, and the lookups are summed per slot and reduced by
    one more translate. Elsewhere each slot is reduced by v % p."""
    if slot * (p - 1) > 255:
        res = [v % p for v in _slots(c, count, slot)]
        if p < 256:
            return _widen(bytes(res), width)
        return int.from_bytes(b"".join(v.to_bytes(width, "little") for v in res),
                              "little")
    raw = c.to_bytes(max(count * slot, c.bit_length() // 8 + 1), "little")
    tables = _residue_tables(p, slot)
    sums = sum(int.from_bytes(raw[b:count * slot:slot].translate(t), "little")
               for b, t in enumerate(tables)).to_bytes(count, "little")
    return _widen(sums.translate(tables[0]), width)


@lru_cache(maxsize=None)
def _residue_tables(p: int, slot: int) -> list[bytes]:
    """Table b maps a byte x to x * 256^b mod p."""
    return [bytes(x * 256 ** b % p for x in range(256)) for b in range(slot)]


def _widen(raw: bytes, width: int) -> int:
    """The int whose slots of width bytes hold the bytes of raw."""
    if width == 1:
        return int.from_bytes(raw, "little")
    buf = bytearray(len(raw) * width)
    buf[::width] = raw
    return int.from_bytes(buf, "little")


def _planes(spec: FieldSpec, a: list[int], slot: int) -> list[int]:
    """The d coordinate planes of a, as big ints of slot-byte slots."""
    p, d = spec.p, spec.n
    if spec.order > 256:
        return [int.from_bytes(b"".join((x // p ** j % p).to_bytes(slot, "little")
                                        for x in a), "little") for j in range(d)]
    raw, buf, planes = bytes(a), bytearray(len(a) * slot), []
    for table in _plane_tables(p, d):
        buf[::slot] = raw.translate(table)
        planes.append(int.from_bytes(buf, "little"))
    return planes


@lru_cache(maxsize=None)
def _plane_tables(p: int, d: int) -> list[bytes]:
    return [bytes(x // p ** j % p for x in range(256)) for j in range(d)]


def _karatsuba(a: list[int], b: list[int]) -> list[int]:
    """The 2d - 1 planes of a * b, by Karatsuba on halves of the d planes."""
    if len(a) == 1:
        return [a[0] * b[0]]
    m, pad = (len(a) + 1) // 2, [0] * (len(a) % 2)
    lo, hi = _karatsuba(a[:m], b[:m]), _karatsuba(a[m:], b[m:])
    mid = _karatsuba(*[[x + y for x, y in zip(s[:m], s[m:] + pad)] for s in (a, b)])
    out = lo + [0] + hi
    for i, (x, y, z) in enumerate(zip(mid, lo, hi + pad * 2)):
        out[m + i] += x - y - z
    return out


def _slots(c: int, count: int, slot: int):
    """The first count slots of the big int c."""
    raw = memoryview(c.to_bytes(max(count * slot, c.bit_length() // 8 + 1), "little"))
    if slot in _SLOT_FORMATS:
        return raw[:count * slot].cast(_SLOT_FORMATS[slot])
    return [int.from_bytes(raw[i:i + slot], "little")
            for i in range(0, count * slot, slot)]


def _spread(spec: FieldSpec, a: list[int], n: int) -> list[int]:
    """f^p through degree n: f_i^p moves to degree i*p."""
    p, frob = spec.p, spec._frob1
    out = [0] * (n + 1)
    out[::p] = [frob[c] if c else 0 for c in a[:n // p + 1]]
    return out


def _compose(spec: FieldSpec, a: list[int], terms: list[tuple[int, int]],
             n: int) -> list[int]:
    """a(g) through degree n, for g = sum of c X^e over the (e, c) of terms:
    the nonzero coefficients of g, by ascending exponent e >= 1.

    Coefficients of a past n // val(g) cannot reach degree n and are
    dropped first. A monomial g = c X^v sends a_i to a_i c^i X^(iv).
    Otherwise a is split by exponent residues mod p,
    a(Y) = sum_r Y^r A_r(Y^p), and A_r(g^p) = (A_r o G)(X^p) with G the
    terms of g up to degree n // p, each coefficient taken through the
    Frobenius: a composition at precision n // p. The parts are combined
    with one product by g each. On bytes, with at most _SPARSE terms, the
    partial result is one int: a product by g is one translate per term
    and a part joins by one XOR, as in _mul_rows."""
    if not terms:
        return [a[0]] + [0] * n
    v = terms[0][0]
    a = a[:n // v + 1]
    p, add, mul = spec.p, spec._add, spec._mul
    if len(terms) == 1:
        row, power = mul[terms[0][1]], 1
        res = [0] * (n + 1)
        for i, ai in enumerate(a):
            res[i * v] = mul[ai][power]
            power = row[power]
        return res
    frob = spec._frob1
    inner = [(e, frob[c]) for e, c in terms if e <= n // p]
    rows = spec._mul_bytes if len(terms) <= _SPARSE else None
    if rows is None:
        g = [0] * (n + 1)
        for e, c in terms:
            g[e] = c
    res = None if rows is None else 0
    for r in reversed(range(min(p, len(a)))):
        part = a[r::p]
        if len(part) > 1:
            part = _compose(spec, part, inner, n // p)
        if rows is None:
            res = [0] * (n + 1) if res is None else _mul(spec, res, g, n)
            at = slice(0, len(part) * p, p)
            res[at] = [add[x][y] if y else x for x, y in zip(res[at], part)]
            continue
        if res:  # times g, one translate per term
            seg, res = res.to_bytes(n + 1, "little"), 0
            for e, c in terms:
                res ^= int.from_bytes(seg[:n + 1 - e].translate(rows[c]),
                                      "little") << 8 * e
        spread = bytearray(2 * len(part))  # p = 2: part at the even degrees
        spread[::2] = bytes(part)
        res ^= int.from_bytes(spread, "little")
    return res if rows is None else list(res.to_bytes(n + 1, "little"))


def _inverse(spec: FieldSpec, a: Sequence[int], n: int) -> list[int]:
    """1/f through degree n for a unit f: the recurrence
    g_m = -(1/a_0) sum_{k=1..m} a_k g_(m-k) through degree _newton_limit,
    then Newton steps g <- g + g(1 - f g), each of which doubles the number
    of exact coefficients."""
    tops, limit = [], _newton_limit(spec)
    while n > limit:
        tops.append(n)
        n //= 2
    mul, neg = spec._mul, spec._neg
    inv0 = spec._inv[a[0]]
    g = [inv0] + [0] * n
    _online(spec, a, list(map(mul[inv0].__getitem__, a[:n + 1])), g,
            [mul[neg[inv0]]] * (n + 1), 1, n + 1)
    for top in reversed(tops):
        # f g = 1 + X^k e through degree top, with k = len(g) > top / 2
        e = _mul(spec, a, g, top)[len(g):]
        g += [neg[c] for c in _mul(spec, g, e, top - len(g))]
    return g


def _online(spec: FieldSpec, w: Sequence[int], s: list[int], f: list[int],
            scales: list, lo: int, hi: int) -> None:
    """Solve the online recurrence f_m = c_m S_m with
    S_m = s_m + sum_{k=1..m-1} w_k f_(m-k) for lo <= m < hi, in place.
    f below lo is known and s_m already holds its terms of S_m; c_m
    multiplies by the table row scales[m]. On return s_m holds S_m.

    Blocks of more than _block_limit(spec) degrees are split by divide and
    conquer (van der Hoeven, "Relax, but don't be too lazy", JSC 2002):
    solve the left half, add its terms to the right half's sums with one
    product, then solve the right half. Within a block, a field on bytes
    adds all of f_m's terms to the later sums as soon as f_m is known;
    other fields gather the terms of S_m when they reach degree m."""
    add = spec._add
    if hi - lo > _block_limit(spec):
        mid = (lo + hi) // 2
        _online(spec, w, s, f, scales, lo, mid)
        part = _mul(spec, f[lo:mid], w[1:hi - lo], hi - lo - 2)[mid - lo - 1:]
        s[mid:hi] = [add[x][y] if y else x for x, y in zip(s[mid:hi], part)]
        _online(spec, w, s, f, scales, mid, hi)
        return
    if spec._mul_bytes is not None:
        # byte j of acc holds the terms of S_(m+j) known so far; f_m's
        # terms w_k f_m (k >= 1) join it as one translate of w's bytes
        rows, ws = spec._mul_bytes, bytes(w[1:hi - lo])
        acc = int.from_bytes(bytes(s[lo:hi]), "little")
        for m in range(lo, hi):
            s[m] = sm = acc & 255
            f[m] = fm = scales[m][sm]
            acc >>= 8
            if fm:
                acc ^= int.from_bytes(ws.translate(rows[fm]), "little")
        return
    mul = spec._mul
    rows = [(k, mul[w[k]]) for k in range(1, hi - lo) if w[k]]
    # w_k f_(m-k) joins the sums at degree lo + k, so the degrees before the
    # next such start take the same terms, with no test of k per term
    live, start = [], lo
    for term in rows + [(hi - lo, None)]:
        stop = lo + term[0]
        for m in range(start, stop):
            sm = s[m]
            for k, row in live:
                fv = f[m - k]
                if fv:
                    sm = add[sm][row[fv]]
            s[m] = sm
            f[m] = scales[m][sm]
        live.append(term)
        start = stop


def _block_limit(spec: FieldSpec) -> int:
    """The most degrees that _online solves as one block over spec."""
    if spec._mul_bytes is None:
        return _BLOCK
    return _BLOCK * (4 if spec.n <= 2 else 16)


def _newton_limit(spec: FieldSpec) -> int:
    """The most degrees of 1/f that _inverse solves by the recurrence: on
    bytes, twice _BLOCK on F_8 and F_16 and one block from F_32 on, where
    a Newton step's products cost d^1.6 (BENCH_23.json inverse)."""
    if spec._mul_bytes is None or spec.n <= 2:
        return _BLOCK
    return 2 * _BLOCK if spec.n <= 4 else _block_limit(spec)


# ---------------------------------------------------------------------------
# Logarithmic derivative and its section
# ---------------------------------------------------------------------------

def log_deriv(f: TruncSeries) -> TruncSeries:
    """X * f' / f for a unit series, at the same precision.

    A group homomorphism from units to series with zero constant term;
    its kernel is exactly the units supported on multiples of p.
    """
    spec, n, a = f.spec, f.prec, f.idx
    if not a[0]:
        raise ValueError("logarithmic derivative requires a unit series")
    route = _log_deriv_quotient if _quotient_wins(spec, n, a) else _log_deriv_rows
    return _series(spec, n, route(spec, a, n))


def _quotient_wins(spec: FieldSpec, n: int, a: Sequence[int]) -> bool:
    """Whether log_deriv of the unit a through degree n takes the quotient
    route (see _QUOTIENT_NONZERO and _QUOTIENT_PREC)."""
    if spec._mul_bytes is not None:
        return n >= _QUOTIENT_PREC * spec.n ** 2
    cost = 1 if spec.order > 256 else max(2, 1.5 * spec.n ** 1.6)
    return n + 1 - a.count(0) > _QUOTIENT_NONZERO * cost


def _log_deriv_rows(spec: FieldSpec, a: Sequence[int], n: int) -> list[int]:
    """X f' = f t at degree m reads m a_m = sum_{k=0..m-1} a_k t_(m-k), so
    t_m = -(1/a_0) (-m a_m + sum_{k=1..m} a_k t_(m-k)), with t_0 = 0 and the
    integer m the prime-field element of index m mod p."""
    mul, p = spec._mul, spec.p
    t = [0] * (n + 1)
    s = [mul[-m % p][c] for m, c in enumerate(a)]
    scale = mul[spec._neg[spec._inv[a[0]]]]
    _online(spec, a, s, t, [scale] * (n + 1), 1, n + 1)
    return t


def _log_deriv_quotient(spec: FieldSpec, a: Sequence[int], n: int) -> list[int]:
    """X f' / f by the quotient step of Karp and Markstein ("High-precision
    division and square root", ACM TOMS 1997). With h = n // 2 and g = 1/f
    through degree h, q0 = X f' g is exact through degree h, and
    X f' - f q0 = X^(h+1) r; the quotient is q0 + X^(h+1) g r, and g r is
    needed only through degree n - h - 1 <= h."""
    add, mul, neg, p = spec._add, spec._mul, spec._neg, spec.p
    h = n // 2
    xf = [mul[m % p][c] for m, c in enumerate(a)]
    g = _inverse(spec, a, h)
    q0 = _mul(spec, xf, g, h)
    r = [add[x][neg[y]] if y else x
         for x, y in zip(xf[h + 1:], _mul(spec, a, q0, n)[h + 1:])]
    return q0 + _mul(spec, g, r, n - h - 1)


def solve_log_deriv(t: TruncSeries) -> TruncSeries:
    """A unit f with log_deriv(f) = t, normalized with f(0) = 1.

    The input must have zero constant term and satisfy the Frobenius
    constraint a_(p*i) = a_i^p at every index; otherwise it is not a
    logarithmic derivative and a ValueError is raised. Coefficients of f
    at multiples of p are not determined by t; this section sets them to
    zero, fixing one preimage out of the coset under units in X^p."""
    spec, n, a = t.spec, t.prec, t.idx
    p = spec.p
    if a[0]:
        raise ValueError("a logarithmic derivative has zero constant term")
    frob1 = spec._frob1
    for i in range(1, n // p + 1):
        if a[p * i] != frob1[a[i]]:
            raise ValueError(
                f"coefficient constraint a_(p*i) = a_i^p fails at i={i}; "
                "series is not a logarithmic derivative")
    return _series(spec, n, _solve_log_deriv(spec, a, n))


def _solve_log_deriv(spec: FieldSpec, a: Sequence[int], n: int) -> list[int]:
    """f with f_0 = 1 and m f_m = s_m = sum_{k=1..m} a_k f_(m-k)."""
    mul, inv, p = spec._mul, spec._inv, spec.p
    f = [1] + [0] * n
    s = list(a[:n + 1])  # the terms a_m f_0 of s_m
    # 1/m depends on m mod p; at a multiple of p, f_m is 0 (the zero row)
    residues = [mul[0]] + [mul[inv[r]] for r in range(1, min(p, n + 1))]
    _online(spec, a, s, f, (residues * (n // p + 1))[:n + 1], 1, n + 1)
    for m in range(p, n + 1, p):
        if s[m]:
            # The degree-m equation degenerates to 0 = s; with the
            # constraint a_(p*i) = a_i^p this never happens.
            raise AssertionError(
                f"inconsistent section at degree {m}; this is a bug")
    return f


# ---------------------------------------------------------------------------
# Critical projection
# ---------------------------------------------------------------------------

_CRITICAL_CACHE: dict = {}
_CRITICAL_CACHE_SIZE = 64


def _critical_set(pq: PrimePower, bound: int) -> frozenset[int]:
    key = (pq.p, pq.lam, bound)
    got = _CRITICAL_CACHE.get(key)
    if got is None:
        # the critical c below q are the base set, and the full set is its
        # closure under c -> q(c + 1) - 1 (critical_members)
        q, got = pq.q, set()
        for c in range(1, min(q, bound + 1)):
            if is_critical(c, pq):
                while c <= bound:
                    got.add(c)
                    c = q * (c + 1) - 1
        got = frozenset(got)
        _cache_put(_CRITICAL_CACHE, _CRITICAL_CACHE_SIZE, key, got)
    return got


def critical_projection(t: TruncSeries, pq: PrimePower) -> TruncSeries:
    """Keep only coefficients at critical exponents, shifted up one degree:
    sum a_k X^k maps to X * sum over critical k of a_k X^k. Input must have
    zero constant term; output precision is one higher."""
    if t.idx[0]:
        raise ValueError("projection requires zero constant term")
    n = t.prec
    crit = _critical_set(pq, n)
    out = [0] * (n + 2)
    for k, c in enumerate(t.idx):
        if c and k in crit:
            out[k + 1] = c
    return _series(t.spec, n + 1, out)


# ---------------------------------------------------------------------------
# Sparse q-power series and their composition action
# ---------------------------------------------------------------------------

def _term_index(key: str) -> int:
    """The index i of a "terms" key, which must read as str(i) writes it."""
    if not isinstance(key, str) or not re.fullmatch("0|-?[1-9][0-9]*", key):
        raise ValueError(f"term key {key!r} is not an integer index")
    return int(key)


class AdditiveSeries:
    """Series sum a_i X^(q^i), stored sparsely as index -> coefficient.

    These form a (noncommutative) ring under addition and composition and
    act on ordinary series by substitution. Terms beyond the precision
    bound are dropped."""

    __slots__ = ("spec", "pq", "prec", "terms")

    def __init__(self, spec: FieldSpec, pq: PrimePower, prec: int,
                 terms: dict[int, FieldElement]):
        if pq.p != spec.p:
            raise ValueError("prime power and field have different characteristics")
        if prec < 1:
            raise ValueError("precision must be at least 1")
        self.spec = spec
        self.pq = pq
        self.prec = prec
        # compare indices, not q**i: an untrusted index can be huge
        top = self.max_index()
        clean = {}
        for i, c in terms.items():
            if c.spec != spec:
                raise ValueError("coefficient from a different field")
            if i < 0:
                raise ValueError("negative term index")
            if i > top:
                raise ValueError(
                    f"term X^(q^{i}) exceeds precision bound {prec}")
            if c:
                clean[i] = c
        self.terms = clean

    @classmethod
    def identity(cls, spec: FieldSpec, pq: PrimePower, prec: int) -> AdditiveSeries:
        return cls(spec, pq, prec, {0: spec.one()})

    @classmethod
    def generator(cls, spec: FieldSpec, pq: PrimePower, prec: int,
                  beta: FieldElement, ell: int) -> AdditiveSeries:
        """X + beta * X^(q^ell)."""
        if ell < 1:
            raise ValueError("generator index must be >= 1")
        return cls(spec, pq, prec, {0: spec.one(), ell: beta})

    @property
    def is_gamma(self) -> bool:
        """Leading term X, i.e. a member of the composition group."""
        return self.terms.get(0) == self.spec.one()

    def coefficient(self, i: int) -> FieldElement:
        return self.terms.get(i, self.spec.zero())

    def max_index(self) -> int:
        q, i = self.pq.q, 0
        while q ** (i + 1) <= self.prec:
            i += 1
        return i

    def compose(self, other: AdditiveSeries) -> AdditiveSeries:
        """Ring product: substitution self(other(X))."""
        if self.spec != other.spec or self.pq != other.pq:
            raise ValueError("mismatched additive series")
        prec = min(self.prec, other.prec)
        lam = self.pq.lam
        out: dict[int, FieldElement] = {}
        for i, a in self.terms.items():
            for j, b in other.terms.items():
                m = i + j
                if self.pq.q ** m > prec:
                    continue
                term = a * b.frobenius(lam * i)
                cur = out.get(m)
                out[m] = term if cur is None else cur + term
        return AdditiveSeries(self.spec, self.pq, prec, out)

    def inverse(self) -> AdditiveSeries:
        """Compositional inverse of a series with leading term X.

        Coefficients satisfy b_m = -sum_{j<m} b_j * a_(m-j)^(q^j), so the
        inverse again has q-power support only."""
        if not self.is_gamma:
            raise ValueError("compositional inverse requires leading term X")
        spec, pq = self.spec, self.pq
        lam = pq.lam
        b: dict[int, FieldElement] = {0: spec.one()}
        for m in range(1, self.max_index() + 1):
            s = spec.zero()
            for j, bj in b.items():
                a = self.terms.get(m - j)
                if a is not None:
                    s = s + bj * a.frobenius(lam * j)
            if s:
                b[m] = -s
        return AdditiveSeries(spec, pq, self.prec, b)

    def apply_to(self, g: TruncSeries) -> TruncSeries:
        """Substitution self(g) for g with zero constant term, computed
        termwise: g^(q^i) is the coefficient-wise q^i Frobenius with all
        exponents multiplied by q^i."""
        if self.spec != g.spec:
            raise ValueError("series over different fields")
        if g.idx[0]:
            raise ValueError("action requires zero constant term")
        spec, pq = self.spec, self.pq
        n = min(self.prec, g.prec)
        add, mul, frob1 = spec._add, spec._mul, spec._frob1
        out = [0] * (n + 1)
        for i, a in self.terms.items():
            qi = pq.q ** i
            if qi > n:
                continue
            row, twist = mul[a.idx], pq.lam * i % spec.n
            for k in range(1, n // qi + 1):
                c = g.idx[k]
                if c:
                    # a * c^(q^i)
                    for _ in range(twist):
                        c = frob1[c]
                    out[k * qi] = add[out[k * qi]][row[c]]
        return _series(spec, n, out)

    def as_trunc(self, prec: int | None = None) -> TruncSeries:
        if prec is None:
            prec = self.prec
        if prec > self.prec:
            raise ValueError(f"cannot extend precision {self.prec} to {prec}")
        out = [0] * (prec + 1)
        for i, a in self.terms.items():
            e = self.pq.q ** i
            if e <= prec:
                out[e] = a.idx
        return _series(self.spec, prec, out)

    def to_json(self) -> dict:
        return {"field": self.spec.to_json(), "q": self.pq.to_json(),
                "prec": self.prec,
                "terms": {str(i): c.to_json() for i, c in sorted(self.terms.items())}}

    @classmethod
    def from_json(cls, data: dict) -> AdditiveSeries:
        prec = json_member(data, "prec", int)
        check_prec(prec)
        spec = FieldSpec.from_json(json_member(data, "field", dict))
        pq = PrimePower.from_json(json_member(data, "q", dict))
        terms = {_term_index(i): spec.element(c)
                 for i, c in json_member(data, "terms", dict).items()}
        return cls(spec, pq, prec, terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, AdditiveSeries) and self.spec == other.spec
                and self.pq == other.pq and self.prec == other.prec
                and self.terms == other.terms)

    def __repr__(self) -> str:
        q = self.pq.q
        parts = []
        for i, c in sorted(self.terms.items()):
            xs = "X" if i == 0 else f"X^{q}^{i}"
            cs = str(c)
            parts.append(xs if cs == "1" else f"({cs})*{xs}")
        return "<additive " + (" + ".join(parts) if parts else "0") + ">"


# ---------------------------------------------------------------------------
# Named series
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _artin_hasse_residues(p: int, prec: int) -> tuple[int, ...]:
    # exp(sum X^(p^i)/p^i) over the rationals, via the recursion
    # m*e_m = sum over p^i <= m of e_(m - p^i), then reduced mod p.
    # Every coefficient is p-integral; that is asserted, not assumed.
    e = [Fraction(1)]
    for m in range(1, prec + 1):
        s = Fraction(0)
        pi = 1
        while pi <= m:
            s += e[m - pi]
            pi *= p
        e.append(s / m)
    out = []
    for m, c in enumerate(e):
        if c.denominator % p == 0:
            raise AssertionError(
                f"coefficient {m} of the Artin-Hasse series is not {p}-integral")
        out.append(c.numerator * pow(c.denominator, -1, p) % p)
    return tuple(out)


def artin_hasse(p: int, prec: int, spec: FieldSpec) -> TruncSeries:
    """Reduction mod p of exp(sum_i X^(p^i)/p^i), mapped into the field.

    A unit with constant term 1 whose logarithmic derivative is exactly
    sum_i X^(p^i)."""
    if spec.p != p:
        raise ValueError(f"field has characteristic {spec.p}, not {p}")
    # a residue r in [0, p) is the index of the prime-field element r
    return _series(spec, prec, _artin_hasse_residues(p, prec))


def orbit_series(k: int, alpha: FieldElement, prec: int) -> TruncSeries:
    """sum_i alpha^(p^i) X^(k*p^i) for k coprime to p: the Frobenius orbit
    of the monomial alpha*X^k, and the normalized logarithmic derivative of
    the Artin-Hasse series evaluated at alpha*X^k."""
    spec = alpha.spec
    p = spec.p
    if k < 1 or k % p == 0:
        raise ValueError(f"exponent {k} must be positive and coprime to {p}")
    out = [0] * (prec + 1)
    _check_length(prec, len(out))
    c, frob1 = alpha.idx, spec._frob1
    while k <= prec:
        out[k] = c
        c, k = frob1[c], k * p
    return _series(spec, prec, out)


def twisted_orbit_series(k: int, alpha: FieldElement, ell: int,
                         beta: FieldElement, pq: PrimePower,
                         prec: int) -> TruncSeries:
    """Closed form of the orbit series after substituting X + beta*X^(q^ell):

        orbit_series(k, alpha) +
        sum_{i>=0} sum_{j>=1} binom(p^i*k - 1, j) alpha^(p^i) beta^j
                              X^(p^i*k + j*(q^ell - 1))

    with the binomials read mod p via Lucas (_lucas_row). It calls none of
    the kernels that the projection sweep checks it against."""
    spec = alpha.spec
    p, q = pq.p, pq.q
    if k < 1 or k % p == 0:
        raise ValueError(f"exponent {k} must be positive and coprime to {p}")
    if ell < 1:
        raise ValueError("twist index must be >= 1")
    out = [0] * (prec + 1)
    _check_length(prec, len(out))
    add, mul, frob1 = spec._add, spec._mul, spec._frob1
    a, row = _index(spec, alpha), mul[_index(spec, beta)]
    # q^ell > prec once ell reaches the bit length of prec: no q ** ell
    # then, and a step above prec leaves out every twist term
    step = q ** ell - 1 if ell < prec.bit_length() else prec + 1
    bpow = [1]  # beta^j for every j that reaches degree prec
    while len(bpow) <= (prec - k) // step:
        bpow.append(row[bpow[-1]])
    base = k
    while base <= prec:  # base = k*p^i and a = alpha^(p^i)
        out[base] = add[out[base]][a]
        for j, b in _lucas_row(base - 1, (prec - base) // step, p)[1:]:
            m = base + j * step
            out[m] = add[out[m]][mul[b][mul[a][bpow[j]]]]
        a, base = frob1[a], base * p
    return _series(spec, prec, out)


def _lucas_row(top: int, jmax: int, p: int) -> list[tuple[int, int]]:
    """(j, binom(top, j) mod p) for the j <= jmax, j = 0 first, whose
    binomial is not 0 mod p: by Lucas, the j whose base-p digits are at most
    top's (for p = 2, j & ~top == 0), with the product of their binomials."""
    row, place = [(0, 1)], 1
    while top and place <= jmax:
        top, d = divmod(top, p)
        row = [(j + c * place, b * comb(d, c) % p)
               for c in range(d + 1) for j, b in row if j + c * place <= jmax]
        place *= p
    return row


def critical_projection_formula(k: int, alpha: FieldElement, ell: int,
                                beta: FieldElement, pq: PrimePower,
                                prec: int) -> TruncSeries:
    """Predicted critical projection of the twisted orbit series:

        alpha X^(k+1) + sum over positive multiples f of ell of
        (-1)^(f/ell) alpha^(q^f) beta^((q^f-1)/(q^ell-1)) X^(q^f (k+1))

    when k is critical, and 0 otherwise. From f - ell to f, alpha^(q^f) and
    beta^(q^f) take lambda*ell Frobenius steps, and beta's power gains the
    factor beta^(q^(f-ell))."""
    spec = alpha.spec
    p, lam, q = pq.p, pq.lam, pq.q
    if k < 1 or k % p == 0:
        raise ValueError(f"exponent {k} must be positive and coprime to {p}")
    if ell < 1:
        raise ValueError("twist index must be >= 1")
    a, b = _index(spec, alpha), _index(spec, beta)
    out = [0] * (prec + 1)
    _check_length(prec, len(out))
    if not is_critical(k, pq):
        return _series(spec, prec, out)
    if k + 1 <= prec:
        out[k + 1] = a
    mul, neg, frob1 = spec._mul, spec._neg, spec._frob1
    # q^ell > prec once ell reaches the bit length of prec: no q ** ell then
    ql = q ** ell if ell < prec.bit_length() else prec + 1
    e, odd, m = b, True, ql * (k + 1)
    while m <= prec:
        for _ in range(lam * ell % spec.n):
            a, b = frob1[a], frob1[b]
        c = mul[a][e]
        out[m] = neg[c] if odd else c
        e, odd, m = mul[e][b], not odd, m * ql
    return _series(spec, prec, out)


# ---------------------------------------------------------------------------
# Seeded pseudo-random series
# ---------------------------------------------------------------------------
# The generator is Python's Mersenne Twister, fixed and documented, so a
# given seed reproduces the same stream everywhere. Verification never
# depends on a particular stream; a different generator only means
# different random instances.

def _draws(rng: random.Random, n: int, count: int) -> list[int]:
    """[rng.randrange(n) for _ in range(count)], leaving rng in the same
    state. Up to 32 bits randrange keeps the top n.bit_length() bits of one
    32-bit word and rejects values >= n, so each word yields at most one
    value: a round draws as many words as values are still missing."""
    k = n.bit_length()
    if k > 32:
        return [rng.randrange(n) for _ in range(count)]
    out: list[int] = []
    while len(out) < count:
        need = count - len(out)
        raw = rng.getrandbits(32 * need).to_bytes(4 * need, "little")
        if k <= 8:
            out += raw[3::4].translate(*_draw_tables(n))
        else:
            out += [v for v in (w >> (32 - k) for w in struct.unpack(f"<{need}I", raw))
                    if v < n]
    return out


@lru_cache(maxsize=None)
def _draw_tables(n: int) -> tuple[bytes, bytes]:
    """For n < 256: the table from a word's top byte to its top
    n.bit_length() bits, and the top bytes whose value is rejected."""
    shift = 8 - n.bit_length()
    return (bytes(x >> shift for x in range(256)),
            bytes(x for x in range(256) if x >> shift >= n))


def _random_unit(spec: FieldSpec, prec: int, rng: random.Random) -> TruncSeries:
    q = spec.order
    return _series(spec, prec, [rng.randrange(1, q), *_draws(rng, q, prec)])


def random_unit(spec: FieldSpec, prec: int, seed: int) -> TruncSeries:
    """Reproducible pseudo-random unit series."""
    return _random_unit(spec, prec, random.Random(seed))


def _random_gamma(pq: PrimePower, spec: FieldSpec, prec: int,
                  rng: random.Random, factors: int,
                  pool: Sequence[FieldElement] | None = None) -> AdditiveSeries:
    gamma = AdditiveSeries.identity(spec, pq, prec)
    ell_max = gamma.max_index()
    if ell_max < 1:
        return gamma
    for _ in range(factors):
        ell = rng.randrange(1, ell_max + 1)
        beta = rng.choice(pool) if pool is not None else spec.random_nonzero(rng)
        gamma = gamma.compose(AdditiveSeries.generator(spec, pq, prec, beta, ell))
    return gamma


def random_gamma(pq: PrimePower, spec: FieldSpec, prec: int, seed: int,
                 factors: int) -> AdditiveSeries:
    """Reproducible composition of `factors` random series X + beta*X^(q^ell)
    with q^ell within the precision bound. Zero factors gives X; a count
    below 0 or above MAX_PREC is refused."""
    if not 0 <= factors <= MAX_PREC:
        raise ValueError(f"factors {factors} outside [0, {MAX_PREC}]")
    return _random_gamma(pq, spec, prec, random.Random(seed), factors)
