"""Exact arithmetic in finite fields F_{p^n} with a fixed polynomial basis.

A field is described by a FieldSpec: characteristic p, extension degree n,
and a monic irreducible modulus over F_p. Elements are coordinate vectors
in the power basis 1, t, ..., t^(n-1), where t is a root of the modulus.
An element's index packs its coordinates as base-p digits.

Every field has the same operation tables on indices (_add, _mul, _neg,
_inv, _frob1) and an index -> element table (_elements), built on first
use. Fields of at most _TABLE_LIMIT elements store them as tuples, with
each row of _mul also kept as a 256-byte bytes.translate table
(_mul_bytes): in characteristic 2, where a sum is the XOR of indices, the
series kernels XOR these rows into products and recurrences, and for odd
p they pack digit slots with them. Larger fields compute each entry when
indexed, and _mul_bytes is None. The build is idempotent and specs and
elements are otherwise immutable, so everything here is safe to share
across threads.
"""

from __future__ import annotations

import threading
from functools import partial
from operator import xor
from typing import Iterator, Sequence

# Fields with at most this many elements store their tables as tuples. The
# q-by-q add and mul tables are the large ones: at 256 elements each holds
# 2^16 references to cached small ints, about 0.5 MB, so a field's tables
# take about 1 MB. Larger fields compute each entry when it is indexed.
# An index of a stored table must fit the byte of a _mul_bytes row.
_TABLE_LIMIT = 256

# Characteristics from 2^32 up would make is_prime's trial division, and
# fields above 2^64 elements the search for an irreducible modulus, run
# for minutes; both are refused before that work starts.
_P_LIMIT = 2 ** 32
_ORDER_LIMIT = 2 ** 64

_TABLES = ("_elements", "_add", "_mul", "_neg", "_inv", "_frob1", "_mul_bytes")

# field_make's cache, by (p, n, modulus), holds at most this many keys.
# Specs compare by value, so one that is dropped is simply built again.
_SPEC_CACHE: dict = {}
_SPEC_CACHE_SIZE = 32
_CACHE_LOCK = threading.Lock()


def _cache_put(cache: dict, size: int, key, value) -> None:
    """cache[key] = value, dropping the oldest keys first so that at most
    size remain. Readers need no lock; writers take _CACHE_LOCK."""
    with _CACHE_LOCK:
        while len(cache) >= size and key not in cache:
            del cache[next(iter(cache))]
        cache[key] = value


def check_prime(p) -> None:
    """Raise ValueError unless p is a prime below 2^32."""
    if isinstance(p, int) and p >= _P_LIMIT:
        raise ValueError(f"p must be below 2^32, got {p}")
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError(f"p must be prime, got {p!r}")


def _of_kind(value, kind) -> bool:
    """isinstance(value, kind), except that true and false are no numbers."""
    return isinstance(value, kind) and not isinstance(value, bool)


def json_member(data, name: str, kind, of=None):
    """data[name] for the from_json readers: ValueError unless data is a JSON
    object with that member of that kind (an array with items of kind `of`)."""
    if not isinstance(data, dict):
        raise ValueError(f"expected a JSON object, got {type(data).__name__}")
    value = data.get(name)
    if (name not in data or not _of_kind(value, kind)
            or of is not None and isinstance(value, list)
            and not all(_of_kind(v, of) for v in value)):
        raise ValueError(f"JSON member {name!r} is missing or of the wrong type")
    return value


def is_prime(m: int) -> bool:
    if m < 2:
        return False
    if m < 4:
        return True
    if m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# Polynomials over F_p, as ascending coefficient lists.
# ---------------------------------------------------------------------------

def _trim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _unpack(idx: int, p: int, n: int) -> list[int]:
    """The n base-p digits of idx, lowest first."""
    cs = []
    for _ in range(n):
        idx, d = divmod(idx, p)
        cs.append(d)
    return cs


def _pack(cs: Sequence[int], p: int) -> int:
    idx = 0
    for c in reversed(cs):
        idx = idx * p + c
    return idx


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _poly_rem(a: Sequence[int], mod: Sequence[int], p: int) -> list[int]:
    """Remainder of a modulo a monic polynomial, trimmed."""
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            base = i - dm
            for j in range(dm):
                if mod[j]:
                    a[base + j] = (a[base + j] - c * mod[j]) % p
    return _trim(a[:dm])


def _poly_gcd(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        # remainder modulo b made monic
        lead_inv = pow(b[-1], -1, p)
        a, b = b, _poly_rem(a, [c * lead_inv % p for c in b], p)
    return a


def _poly_powmod(a: Sequence[int], e: int, mod: Sequence[int], p: int) -> list[int]:
    result = [1]
    base = _poly_rem(a, mod, p)
    while e:
        if e & 1:
            result = _poly_rem(_poly_mul(result, base, p), mod, p)
        base = _poly_rem(_poly_mul(base, base, p), mod, p)
        e >>= 1
    return result


def _is_irreducible(mod: Sequence[int], p: int) -> bool:
    """Deterministic irreducibility test for a monic polynomial over F_p.

    Checks x^(p^n) = x mod f together with gcd(x^(p^(n/r)) - x, f) = 1 for
    every prime r dividing n. Exact, and fast enough for degrees up to 16.
    """
    n = len(mod) - 1
    if n == 1:
        return True
    x = [0, 1]
    iterates = {}
    h = x
    for k in range(1, n + 1):
        h = _poly_powmod(h, p, mod, p)
        iterates[k] = h
    if iterates[n] != x:
        return False
    m, r = n, 2
    while m > 1:
        if m % r == 0:
            diff = iterates[n // r] + [0, 0]
            diff[1] = (diff[1] - 1) % p
            if len(_poly_gcd(diff, mod, p)) != 1:
                return False
            while m % r == 0:
                m //= r
        r += 1
    return True


def default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Lowest monic irreducible of degree n over F_p.

    Candidates x^n + c are enumerated in increasing order of the integer
    value of c in base p, so the choice is deterministic and serialized
    field descriptions round-trip.
    """
    for m in range(p ** n):
        cand = _unpack(m, p, n) + [1]
        if _is_irreducible(cand, p):
            return tuple(cand)
    raise RuntimeError(f"no irreducible of degree {n} over F_{p}")


# ---------------------------------------------------------------------------
# Field specification and elements
# ---------------------------------------------------------------------------

class FieldSpec:
    """Immutable description of F_{p^n} = F_p[t]/(modulus)."""

    __slots__ = ("p", "n", "modulus", "order") + _TABLES

    def __init__(self, p: int, n: int, modulus: Sequence[int] | None = None):
        check_prime(p)
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"extension degree must be >= 1, got {n!r}")
        # n > 64 is refused first, so p ** n stays small
        if n > 64 or p ** n > _ORDER_LIMIT:
            raise ValueError(
                f"field of order {p}^{n} has more than 2^64 elements")
        if modulus is None:
            modulus = default_modulus(p, n)
        else:
            modulus = tuple(int(c) for c in modulus)
            if len(modulus) != n + 1:
                raise ValueError(
                    f"modulus must have {n + 1} coefficients, got {len(modulus)}")
            if any(c < 0 or c >= p for c in modulus):
                raise ValueError("modulus coefficients must lie in [0, p)")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            if not _is_irreducible(modulus, p):
                raise ValueError(f"modulus {list(modulus)} is reducible over F_{p}")
        self.p = p
        self.n = n
        self.modulus = modulus
        self.order = p ** n

    def __getattr__(self, name):
        # Only unset slots get here: the tables, on their first use.
        if name not in _TABLES:
            raise AttributeError(name)
        if self.order <= _TABLE_LIMIT:
            self._store_tables()
        else:
            self._compute_tables()
        return object.__getattribute__(self, name)

    def _new_element(self, idx: int) -> FieldElement:
        return FieldElement(self, tuple(_unpack(idx, self.p, self.n)), idx)

    def _antilog(self) -> list[int]:
        """Indices of g^0, ..., g^(q-2) for the least primitive element g."""
        p, n, mod = self.p, self.n, self.modulus
        for g in range(1, self.order):
            gpoly = _unpack(g, p, n)
            powers, x = [1], [1]
            while True:
                x = _poly_rem(_poly_mul(x, gpoly, p), mod, p)
                v = _pack(x, p)
                if v == 1:
                    break
                powers.append(v)
            if len(powers) == self.order - 1:
                return powers
        raise AssertionError(f"F_{self.order} has no primitive element; this is a bug")

    def _store_tables(self) -> None:
        p, n, q = self.p, self.n, self.order
        # a + b: add p^k to the row of a - p^k, where k is the lowest
        # nonzero digit of a; shift[k] adds p^k to every index
        shift = []
        for k in range(n):
            pk = p ** k
            shift.append(tuple(y - (p - 1) * pk if (y // pk) % p == p - 1 else y + pk
                               for y in range(q)))
        add = [tuple(range(q))]
        for a in range(1, q):
            k, pk = 0, 1
            while a // pk % p == 0:
                k, pk = k + 1, pk * p
            add.append(tuple(map(shift[k].__getitem__, add[a - pk])))
        # a * b = g^(log a + log b) for a, b nonzero
        exp = self._antilog()
        log = [0] * q
        for i, v in enumerate(exp):
            log[v] = i
        nonzero_logs = log[1:]
        exp2 = exp * 2
        mul = [(0,) * q]
        for a in range(1, q):
            rotated = exp2[log[a]:]
            mul.append((0, *map(rotated.__getitem__, nonzero_logs)))
        qm = q - 1
        self._inv = (0, *(exp[-lg % qm] for lg in nonzero_logs))
        self._frob1 = (0, *(exp[lg * p % qm] for lg in nonzero_logs))
        self._neg = tuple(row.index(0) for row in add)
        self._add = tuple(add)
        self._mul = tuple(mul)
        self._mul_bytes = tuple(bytes(row) + bytes(256 - q) for row in mul)
        self._elements = tuple(map(self._new_element, range(q)))

    def _compute_tables(self) -> None:
        p, n, q, mod = self.p, self.n, self.order, self.modulus

        def add_digits(a, b):
            s, place = 0, 1
            while a or b:
                a, x = divmod(a, p)
                b, y = divmod(b, p)
                s += (x + y) % p * place
                place *= p
            return s

        def mul(apoly, b):
            return _pack(_poly_rem(_poly_mul(apoly, _unpack(b, p, n), p), mod, p), p)

        def neg(a):
            return _pack([-c % p for c in _unpack(a, p, n)], p)

        def power(e):
            return lambda a: _pack(_poly_powmod(_unpack(a, p, n), e, mod, p), p)

        add = xor if p == 2 else add_digits
        self._elements = _Computed(self._new_element)
        self._add = _Computed(lambda a: _Computed(partial(add, a)))
        self._mul = _Computed(
            lambda a: _Computed(partial(mul, _trim(_unpack(a, p, n)))))
        self._neg = _Computed(neg)
        self._inv = _Computed(power(q - 2))
        self._frob1 = _Computed(power(p))
        self._mul_bytes = None

    # -- constructors -------------------------------------------------------

    def element(self, coords: Sequence[int]) -> FieldElement:
        if not isinstance(coords, (list, tuple)) or not all(
                type(c) is int for c in coords):  # not float, bool or str
            raise ValueError(f"coordinates must be integers, got {coords!r}")
        if len(coords) != self.n:
            raise ValueError(f"expected {self.n} coordinates, got {len(coords)}")
        if any(c < 0 or c >= self.p for c in coords):
            raise ValueError("coordinates must lie in [0, p)")
        return self._elements[_pack(coords, self.p)]

    def from_index(self, idx: int) -> FieldElement:
        """Element whose coordinates are the base-p digits of idx."""
        if idx < 0 or idx >= self.order:
            raise ValueError(f"index {idx} out of range for field of order {self.order}")
        return self._elements[idx]

    def zero(self) -> FieldElement:
        return self.from_index(0)

    def one(self) -> FieldElement:
        return self.from_index(1)

    def gen(self) -> FieldElement:
        """The basis root t; only meaningful for n >= 2."""
        if self.n < 2:
            raise ValueError("prime field has no basis generator t")
        return self.from_index(self.p)

    def scalar(self, k: int) -> FieldElement:
        """Image of the integer k under Z -> F_p -> F_{p^n}."""
        return self.from_index(k % self.p)

    def elements(self) -> Iterator[FieldElement]:
        if self.order > 4096:
            raise ValueError("refusing to enumerate a field with more than 4096 elements")
        return (self.from_index(i) for i in range(self.order))

    def nonzero_elements(self) -> Iterator[FieldElement]:
        return (self.from_index(i) for i in range(1, self.order))

    def subfield_elements(self, m: int) -> tuple[FieldElement, ...]:
        """All elements of the subfield F_{p^m}, i.e. fixed points of x -> x^(p^m).

        That map is F_p-linear, so its images are tabled from those of the
        basis: x = sum_j x_j t^j maps to sum_j x_j (t^j)^(p^m)."""
        if self.n % m != 0:
            raise ValueError(f"{m} does not divide extension degree {self.n}")
        self.elements()  # refuses a field above 4096 elements, before any work
        p, add, mul, images = self.p, self._add, self._mul, [0]
        for j in range(self.n):  # images holds those of the indices below p^j
            b = self.from_index(p ** j).frobenius(m).idx
            images += [add[y][s] for s in [mul[c][b] for c in range(1, p)]
                       for y in images]
        return tuple(self._elements[x] for x, y in enumerate(images) if x == y)

    def random_element(self, rng) -> FieldElement:
        return self.from_index(rng.randrange(self.order))

    def random_nonzero(self, rng) -> FieldElement:
        return self.from_index(rng.randrange(1, self.order))

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {"p": self.p, "n": self.n, "modulus": list(self.modulus)}

    @classmethod
    def from_json(cls, data: dict) -> FieldSpec:
        return field_make(json_member(data, "p", int), json_member(data, "n", int),
                          json_member(data, "modulus", (list, type(None)), int))

    # -- comparison ---------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldSpec)
                and self.p == other.p and self.n == other.n
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.n, self.modulus))

    def __repr__(self) -> str:
        return f"FieldSpec(p={self.p}, n={self.n}, modulus={list(self.modulus)})"


def field_make(p: int, n: int, modulus: Sequence[int] | None = None) -> FieldSpec:
    """Construct (and cache) a field description.

    When the modulus is omitted the lowest lexicographic monic irreducible
    is selected, so repeated calls are deterministic.
    """
    key = (p, n, tuple(modulus) if modulus is not None else None)
    spec = _SPEC_CACHE.get(key)
    if spec is None:
        spec = FieldSpec(p, n, modulus)
        _cache_put(_SPEC_CACHE, _SPEC_CACHE_SIZE, key, spec)
        _cache_put(_SPEC_CACHE, _SPEC_CACHE_SIZE, (p, n, spec.modulus), spec)
    return spec


class _Computed:
    """A table of a field too large to store: indexing computes the entry.
    The rows of a two-index table are again computed tables."""

    __slots__ = ("entry",)

    def __init__(self, entry):
        self.entry = entry

    def __getitem__(self, i):
        return self.entry(i)


class FieldElement:
    """Immutable element of F_{p^n}, held as n coordinates in [0, p) and
    their packed index."""

    __slots__ = ("spec", "coords", "idx")

    def __init__(self, spec: FieldSpec, coords: tuple[int, ...], idx: int):
        self.spec = spec
        self.coords = coords
        self.idx = idx

    def _check(self, other: FieldElement) -> None:
        if not isinstance(other, FieldElement):
            raise TypeError(f"cannot combine field element with {type(other).__name__}")
        if self.spec != other.spec:
            raise ValueError("elements belong to different fields")

    def __bool__(self) -> bool:
        return self.idx != 0

    def __add__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        spec = self.spec
        return spec._elements[spec._add[self.idx][other.idx]]

    def __sub__(self, other: FieldElement) -> FieldElement:
        return self + (-other)

    def __neg__(self) -> FieldElement:
        spec = self.spec
        return spec._elements[spec._neg[self.idx]]

    def __mul__(self, other: FieldElement) -> FieldElement:
        self._check(other)
        spec = self.spec
        return spec._elements[spec._mul[self.idx][other.idx]]

    def inverse(self) -> FieldElement:
        if self.idx == 0:
            raise ZeroDivisionError("inverse of zero field element")
        spec = self.spec
        return spec._elements[spec._inv[self.idx]]

    def __pow__(self, e: int) -> FieldElement:
        if e < 0:
            raise ValueError("negative exponent; use inverse() first")
        spec = self.spec
        if self.idx == 0:
            return spec.one() if e == 0 else self
        e %= spec.order - 1
        result = spec.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def frobenius(self, i: int = 1) -> FieldElement:
        """The i-th power of the p-power map, x -> x^(p^i)."""
        spec = self.spec
        idx, frob1 = self.idx, spec._frob1
        for _ in range(i % spec.n):
            idx = frob1[idx]
        return spec._elements[idx]

    def in_subfield(self, m: int) -> bool:
        if self.spec.n % m != 0:
            raise ValueError(f"{m} does not divide extension degree {self.spec.n}")
        return self.frobenius(m) == self

    def to_json(self) -> list[int]:
        return list(self.coords)

    def __eq__(self, other) -> bool:
        return (isinstance(other, FieldElement)
                and self.coords == other.coords and self.spec == other.spec)

    def __hash__(self) -> int:
        return hash((self.spec, self.coords))

    def __str__(self) -> str:
        if self.spec.n == 1:
            return str(self.coords[0])
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                var = "t" if i == 1 else f"t^{i}"
                parts.append(var if c == 1 else f"{c}{var}")
        return "+".join(reversed(parts)) if parts else "0"

    def __repr__(self) -> str:
        return f"<{self} in F_{self.spec.order}>"
