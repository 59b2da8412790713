"""Base-p digit combinatorics: expansions, Lucas binomials, digit cores,
the digital well-ordering, cyclic residue orbits and critical integers.

Digit strings are read most significant digit first, and the empty string
stands for 0. All functions here are pure and operate on plain integers,
so sweeps over ranges can be partitioned freely across workers.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

from .finite_field import _ORDER_LIMIT, check_prime, json_member

LESS, EQUAL, GREATER = -1, 0, 1


# ---------------------------------------------------------------------------
# Expansions and Lucas binomials
# ---------------------------------------------------------------------------

def to_digits(n: int, p: int, width: int | None = None) -> list[int]:
    """Base-p digits of n, most significant first.

    The minimal expansion of 0 is empty. A width pads with leading zeros
    and must not be shorter than the minimal expansion.
    """
    if n < 0:
        raise ValueError("digit expansion requires a nonnegative integer")
    if p < 2:
        raise ValueError("base must be at least 2")
    out: list[int] = []
    while n:
        n, d = divmod(n, p)
        out.append(d)
    out.reverse()
    if width is not None:
        if width < len(out):
            raise ValueError(f"width {width} too small for {len(out)} digits")
        out[:0] = [0] * (width - len(out))
    return out


def from_digits(digits: Sequence[int], p: int) -> int:
    n = 0
    for d in digits:
        if d < 0 or d >= p:
            raise ValueError(f"digit {d} out of range for base {p}")
        n = n * p + d
    return n


def lucas_binom(m: int, k: int, p: int) -> int:
    """binomial(m, k) mod p, computed digit by digit.

    Follows the convention binomial(m, k) = 0 unless 0 <= k <= m.
    """
    if m < 0 or k < 0:
        return 0
    acc = 1
    while k or m:
        m, mr = divmod(m, p)
        k, kr = divmod(k, p)
        if kr > mr:
            return 0
        if kr:
            acc = acc * math.comb(mr, kr) % p
    return acc


# ---------------------------------------------------------------------------
# Valuations, cores, defects and the digital well-ordering
# ---------------------------------------------------------------------------

def ord_p(n: int, p: int) -> int:
    """Exact power of p dividing n (n >= 1)."""
    if n <= 0:
        raise ValueError("order at p requires a positive integer")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def coprime_part(n: int, p: int) -> int:
    """n with all factors of p removed."""
    if n <= 0:
        raise ValueError("coprime part requires a positive integer")
    while n % p == 0:
        n //= p
    return n


def p_core(n: int, p: int) -> int:
    """Digit core of n: drop trailing 0 digits, then trailing (p-1) digits."""
    t = coprime_part(n, p) + 1
    while t % p == 0:
        t //= p
    return t - 1


def p_defect(n: int, p: int) -> int:
    """Length of the minimal expansion of the digit core."""
    return len(to_digits(p_core(n, p), p))


def digital_key(n: int, p: int) -> tuple[int, int, int]:
    """Sort key realizing the digital well-ordering.

    Compares digit cores first, then the count of trailing (p-1) digits
    (through n with trailing zeros removed), then trailing zeros (through
    n itself).
    """
    if n <= 0:
        raise ValueError("the digital ordering is defined on positive integers")
    t = n
    while t % p == 0:
        t //= p
    u = t + 1
    while u % p == 0:
        u //= p
    return (u - 1, t, n)


def digital_cmp(m: int, n: int, p: int) -> int:
    """-1, 0 or 1 as m precedes, equals or follows n in the digital order."""
    a, b = digital_key(m, p), digital_key(n, p)
    return (a > b) - (a < b)


# ---------------------------------------------------------------------------
# Prime powers and residue orbits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PrimePower:
    """A prime power q = p^lam, the modulus scale for residue orbits."""

    p: int
    lam: int
    q: int = field(init=False, compare=False)

    def __post_init__(self):
        check_prime(self.p)
        if self.lam < 1:
            raise ValueError(f"exponent must be >= 1, got {self.lam!r}")
        # lambda > 64 is refused first, so p ** lam stays small
        if self.lam > 64 or self.p ** self.lam > _ORDER_LIMIT:
            raise ValueError(f"q = {self.p}^{self.lam} exceeds 2^64")
        object.__setattr__(self, "q", self.p ** self.lam)

    def to_json(self) -> dict:
        return {"p": self.p, "lambda": self.lam}

    @classmethod
    def from_json(cls, data: dict) -> "PrimePower":
        return cls(json_member(data, "p", int), json_member(data, "lambda", int))


def min_residue(c: int, pq: PrimePower) -> int:
    """Least positive integer congruent to c mod q-1; always in (0, q)."""
    if c <= 0:
        raise ValueError("residue reduction requires a positive integer")
    return (c - 1) % (pq.q - 1) + 1


def orbit_residues(c: int, pq: PrimePower) -> frozenset[int]:
    """Residues mod q-1 of p^i * c for all i."""
    m = pq.q - 1
    return frozenset((c * pq.p ** i) % m for i in range(pq.lam))


def orbit_id(c: int, pq: PrimePower) -> int:
    """Canonical label of the orbit of c: the least of its reduced rotations."""
    return min(min_residue(c * pq.p ** i, pq) for i in range(pq.lam))


def orbit_min(c: int, pq: PrimePower) -> int:
    """Least member of the orbit of c under the digital well-ordering.

    Every orbit member coprime to p whose digit core equals the orbit-wide
    minimum core has the shape (core+1) * p^g - 1, and among those the
    digital order increases with g. So: take the smallest core over the
    reduced rotations, then the smallest g whose candidate lands in the
    orbit. Scanning g up to lam is exhaustive: p^lam = q is 1 mod q - 1,
    so the residue of (core+1) * p^g - 1 mod q - 1 has period lam in g,
    and for g >= 1 the candidate is at least 1 and coprime to p (it is -1
    mod p). So if some g' >= 1 lands in the orbit, so does the g in
    [1, lam] congruent to g' mod lam, and g = 0 is scanned on its own.
    """
    p, lam, q = pq.p, pq.lam, pq.q
    core = min(p_core(min_residue(c * p ** i, pq), p) for i in range(lam))
    base = core + 1
    res = orbit_residues(c, pq)
    m = q - 1
    for g in range(lam + 1):
        cand = base * p ** g - 1
        if cand >= 1 and cand % p and cand % m in res:
            return cand
    raise RuntimeError("no orbit representative found; internal invariant violated")


# The longest scans of integers by orbit. The orbit-minimum table of the
# orbit-min and cyclic-digits sweeps scans [1, q*p^(2*lambda)] at about
# 2 us an integer, and the critical base set scans (0, q) at about 10 us
# (CPython 3.11, one core of a Xeon: p = 2, lambda = 7, 2^21 integers, in
# 4.4 s; q = 2^20 in 11 s). MAX_BASE_SCAN also caps the user bounds of
# those sweeps: orbit-min takes about 5 us for each c <= c_bound and each
# integer of its windows up to oracle_bound, and cyclic-digits 5 to 6 us
# for each of the lambda rotations of every c <= bound. The tests and the
# benchmark scan at most 15,625 and 1,023, and their bounds are at most
# 10,000.
MAX_ORBIT_TABLE = 2 ** 22
MAX_BASE_SCAN = 2 ** 20


def check_orbit_scan(n: int, limit: int, what: str) -> None:
    """Raise ValueError when a scan of n integers is above the limit."""
    if n > limit:
        raise ValueError(f"{what} scans {n} integers, above the limit "
                         f"{limit}")


def _orbit_min_table(pq: PrimePower, bound: int) -> dict[int, int]:
    """Digital minimum of every orbit, by one scan of [1, bound]."""
    p = pq.p
    best: dict[int, tuple[tuple[int, int, int], int]] = {}
    for n in range(1, bound + 1):
        if n % p:
            oid = orbit_id(n, pq)
            key = digital_key(n, p)
            cur = best.get(oid)
            if cur is None or key < cur[0]:
                best[oid] = (key, n)
    return {oid: n for oid, (_, n) in best.items()}


# ---------------------------------------------------------------------------
# Critical integers
# ---------------------------------------------------------------------------

def critical_base_set(pq: PrimePower) -> list[int]:
    """Integers c in (0, q) coprime to p minimizing (c+1) / p^ord(c+1) over
    the members of their orbit below q. Computed by direct scan, for q - 1
    up to MAX_BASE_SCAN."""
    p, q = pq.p, pq.q
    check_orbit_scan(q - 1, MAX_BASE_SCAN,
                     f"the critical base set for q = {q}")
    best: dict[int, int] = {}
    for n in range(1, q):
        if n % p:
            oid = orbit_id(n, pq)
            v = coprime_part(n + 1, p)
            if oid not in best or v < best[oid]:
                best[oid] = v
    return [c for c in range(1, q) if c % p
            and coprime_part(c + 1, p) == best[orbit_id(c, pq)]]


def critical_members(pq: PrimePower, bound: int) -> list[int]:
    """All critical integers up to the bound: q^i*(c+1)-1 over the base set."""
    return sorted(_closure(critical_base_set(pq), pq.q, bound))


def _closure(base, q: int, bound: int) -> list[int]:
    """Every q^i*(c+1)-1 up to the bound, i >= 0, over the c of base."""
    out = []
    for c in base:
        while c <= bound:
            out.append(c)
            c = q * (c + 1) - 1
    return out


def is_critical(k: int, pq: PrimePower) -> bool:
    """Membership in the full critical set: k coprime to p whose digit core
    equals the core of its orbit minimum."""
    if k <= 0:
        raise ValueError("criticality is defined for positive integers")
    p = pq.p
    if k % p == 0:
        return False
    return p_core(k, p) == p_core(orbit_min(k, pq), p)


# ---------------------------------------------------------------------------
# Admissible quadruples and their carry witness
# ---------------------------------------------------------------------------

class AdmissibleQuadruple(NamedTuple):
    j: int
    k: int
    ell: int
    m: int


class AdmissibleWitness(NamedTuple):
    e: int
    f: int
    g: int
    r: int


class WitnessError(ValueError):
    """Raised when the witness for an admissible quadruple does not exist or
    is not unique; carries the offending data for counterexample reports."""

    def __init__(self, message: str, payload: dict):
        super().__init__(message)
        self.payload = payload


def is_admissible(j: int, k: int, ell: int, m: int, p: int) -> bool:
    """Quadruple test: m coprime to p, m = k + j*(p^ell - 1), and
    binomial(k-1, j) nonzero mod p. p must be prime."""
    check_prime(p)
    if j < 1 or k < 1 or ell < 1 or m < 1:
        return False
    # p^ell > m once ell reaches the bit length of m: no p ** ell then
    if m % p == 0 or ell >= m.bit_length() or m != k + j * (p ** ell - 1):
        return False
    return lucas_binom(k - 1, j, p) != 0


# The p = 2 desk bound: listing its 473,580 quadruples takes about 100 MB.
MAX_M_BOUND = 4096


def check_m_bound(m_bound: int) -> None:
    """Raise ValueError unless m_bound is in [1, MAX_M_BOUND]."""
    if m_bound > MAX_M_BOUND:
        raise ValueError(f"m_bound {m_bound} exceeds the limit {MAX_M_BOUND}")
    if m_bound < 1:
        raise ValueError(f"m_bound must be >= 1, got {m_bound}")


class DigitTables(NamedTuple):
    """Per-integer tables of 1 <= n <= m_bound + 1, indexed by n; entry 0
    is a placeholder. The admissible sweeps read them at the k and m of
    every block of admissible_blocks."""

    p: int
    ordp: list[int]     # ord_p(n)
    core: list[int]     # p_core(n)
    gord: list[int]     # ord_p(n / p^ord_p(n) + 1)
    rank: list[int]     # dense rank of digital_key(n): the digital order


@lru_cache(maxsize=4)
def digit_tables(p: int, m_bound: int) -> DigitTables:
    """The tables for admissible quadruples with m <= m_bound, built on
    first use; p must be prime and 1 <= m_bound <= MAX_M_BOUND."""
    check_prime(p)
    check_m_bound(m_bound)
    ns = range(1, m_bound + 2)
    ordp = [0] + [ord_p(n, p) for n in ns]
    keys = [None] + [digital_key(n, p) for n in ns]
    order = sorted(ns, key=keys.__getitem__)
    rank = [0] * (len(ns) + 1)
    for prev, n in zip(order, order[1:]):
        rank[n] = rank[prev] + (keys[prev] != keys[n])
    return DigitTables(
        p, ordp, [0] + [p_core(n, p) for n in ns],
        [0] + [ord_p(n // p ** ordp[n] + 1, p) for n in ns], rank)


def admissible_blocks(p: int, m_bound: int, ell_bound: int
                      ) -> Iterator[tuple[int, int, int, list[int]]]:
    """(ell, j, step = p^ell - 1, ks) for every (ell, j) that has an
    admissible quadruple with m <= m_bound and ell <= ell_bound, j then ell
    ascending; ks lists the k of the quadruples (j, k, ell, k + j*step),
    ascending. A bad p or m_bound raises at the call.

    By Lucas, binomial(k-1, j) != 0 mod p exactly when every base-p digit
    of y = k-1 is at least that of j. So y = j + z, where each digit of z
    is at most p-1 minus that of j, and ks is the mixed-radix product of
    those digit ranges, built from the lowest digit up. As m = k + j*step
    is congruent to y_0 + 1 - j_0 mod p, p divides m only when j_0 = 0 and
    z_0 = p-1: that last digit is left out. Block (ell, j) is the prefix
    of block (1, j) with k <= m_bound - j*step, so the k of each j are
    built once (_blocks_of), here and in admissible_quadruples."""
    check_prime(p)
    check_m_bound(m_bound)
    return chain.from_iterable(_blocks_of(j, p, m_bound, ell_bound)
                               for j in range(1, (m_bound - 1) // p + 1))


def _blocks_of(j: int, p: int, m_bound: int, ell_bound: int):
    """The blocks (ell, j, p^ell - 1, ks) of one j, ell ascending. Block
    (ell, j) is _dominating(j, m_bound - 1 - j*p^ell, p), so it is the
    prefix of block (1, j) with k <= m_bound - j*(p^ell - 1), cut by one
    bisection."""
    ks, pl = _dominating(j, m_bound - 1 - j * p, p), p
    for ell in range(1, ell_bound + 1):
        if j * pl >= m_bound:  # the least m of a block is j*p^ell + 1
            break
        yield ell, j, pl - 1, ks[:bisect_right(ks, m_bound - j * (pl - 1))]
        pl *= p


def _dominating(j: int, zmax: int, p: int) -> list[int]:
    """The k = j + 1 + z, ascending, over the z <= zmax each of whose
    base-p digits is at most p-1 minus that of j, the lowest at most p-2
    when j_0 = 0; a smaller zmax gives a prefix of the list. The digits
    below the unit of _low_digits come from its table, so a block whose
    zmax is below that unit is one slice of it."""
    unit, low = _low_digits(p)
    rest, r = divmod(j, unit)
    zs = low[r]
    ks = list(map((j + 1).__add__, zs[:bisect_right(zs, zmax)]))
    return _extend(ks, rest, unit, j + 1 + zmax, p)


def _extend(ks: list[int], rest: int, unit: int, limit: int,
            p: int) -> list[int]:
    """ks, the ascending sums that every choice of the digits of z below
    unit gives, extended in ascending order by every choice of the digits
    from that of unit up: each at most p-1 minus that of j (rest is
    j // unit), the lowest at most p-2 when j_0 = 0. Sums above limit are
    cut."""
    zmax = limit - ks[0]
    while unit <= zmax:
        rest, d = divmod(rest, p)
        top = p - 1 - d if d or unit > 1 else p - 2
        if top:
            lower = ks[:]
            for z in range(unit, min(top * unit, zmax) + 1, unit):
                ks += [z + y for y in lower]
        unit *= p
    del ks[bisect_right(ks, limit):]  # the top digit's sums can pass it
    return ks


@lru_cache(maxsize=8)
def _low_digits(p: int) -> tuple[int, list[tuple[int, ...]]]:
    """(u, low): u the largest power of p at most 64, and low[r] the z < u
    of _dominating for a j that is r mod u. It saves the digit loop below
    u on every block. A larger u saves more on short listings but costs
    more to build in a fresh process: at 256 the table of p = 2 or 3 takes
    about 2 ms, more than the jobs of a queries pass gain from it."""
    unit = 1
    while unit * p <= 64:
        unit *= p
    return unit, [tuple(_extend([0], r, 1, unit - 1, p)) for r in range(unit)]


def admissible_quadruples(p: int, m_bound: int, ell_bound: int
                          ) -> Iterator[AdmissibleQuadruple]:
    """All admissible quadruples with m <= m_bound and ell <= ell_bound,
    in ascending (m, ell, j) order, from the blocks of admissible_blocks:
    the blocks of a j are built when the listing reaches m = j*p + 1, the
    least m of block (1, j), and block (ell, j) is filed by m at
    m = j*p^ell + 1, its least m, so a listing cut short builds the blocks
    of the j up to its last m / p only and files fewer still. A bad p or
    m_bound raises at the call."""
    check_prime(p)
    check_m_bound(m_bound)
    return _in_m_order(p, m_bound, ell_bound)


def _in_m_order(p: int, m_bound: int, ell_bound: int
                ) -> Iterator[AdmissibleQuadruple]:
    # Block (ell, j) holds m from j*p^ell + 1 up. The blocks of j are built
    # at m = j*p + 1 and wait in the queue of their ell, j ascending, until
    # m = j*p^ell + 1, when the block puts j in the bucket of its ell at
    # each of its m. So the buckets of an m are complete once it is
    # reached, and read ell by ell they give (ell, j) order. The buckets of
    # an ell are made with its first block filed, and each is dropped once
    # read.
    waiting: list[deque[tuple[int, list[int]]]] = []
    buckets: list[list[list[int]]] = []
    steps: list[int] = []
    for m in range(2, m_bound + 1):
        j, r = divmod(m - 1, p)
        if not r:
            for ell, _, step, ks in _blocks_of(j, p, m_bound, ell_bound):
                if ell > len(waiting):
                    waiting.append(deque())
                waiting[ell - 1].append((step, ks))
        ell = 1
        while not r and ell <= len(waiting):  # m - 1 = j*p^ell: file (ell, j)
            step, ks = waiting[ell - 1].popleft()
            if ell > len(buckets):
                buckets.append([[] for _ in range(m_bound + 1)])
                steps.append(step)
            by_m = buckets[ell - 1]
            for mk in map((j * step).__add__, ks):
                by_m[mk].append(j)
            j, r = divmod(j, p)
            ell += 1
        for ell, (by_m, step) in enumerate(zip(buckets, steps), 1):
            for j in by_m[m]:
                yield AdmissibleQuadruple(j, m - j * step, ell, m)
            by_m[m] = None


@lru_cache(maxsize=256)
def witness_candidates(p: int, e: int, ell: int) -> dict[int, list[int]]:
    """The multiples r of ell in [0, e+ell-1], ascending, by the residue
    of (p^r - 1)/(p^ell - 1) mod p^e: the witnesses of j by j mod p^e."""
    out: dict[int, list[int]] = {}
    for r in range(0, e + ell, ell):
        out.setdefault((p ** r - 1) // (p ** ell - 1) % p ** e, []).append(r)
    return out


def admissible_witness(quad: AdmissibleQuadruple, p: int) -> AdmissibleWitness:
    """Derived data (e, f, g, r) of an admissible quadruple.

    e, f, g are the p-orders of m+1, k and k/p^f + 1. r is the unique
    multiple of ell in [0, e+ell-1] with j = (p^r - 1)/(p^ell - 1) mod p^e;
    its existence and uniqueness, together with f+g >= e and core(m) >=
    core(k), are enforced and any violation raises WitnessError. A
    composite p, or a quadruple that is not admissible, raises ValueError."""
    j, k, ell, m = quad
    if not is_admissible(j, k, ell, m, p):
        raise ValueError(f"{quad} is not admissible for p={p}")
    e = ord_p(m + 1, p)
    f = ord_p(k, p)
    g = ord_p(k // p ** f + 1, p)
    found = list(witness_candidates(p, e, ell).get(j % p ** e, ()))
    payload = {"quad": list(quad), "p": p, "e": e, "f": f, "g": g}
    if len(found) != 1:
        raise WitnessError(
            f"expected exactly one witness r for {quad}, found {found}",
            {**payload, "candidates": found})
    r = found[0]
    if f + g < e:
        raise WitnessError(
            f"order inequality f+g >= e fails for {quad}", {**payload, "r": r})
    if p_core(m, p) < p_core(k, p):
        raise WitnessError(
            f"core inequality core(m) >= core(k) fails for {quad}",
            {**payload, "r": r,
             "core_m": p_core(m, p), "core_k": p_core(k, p)})
    return AdmissibleWitness(e, f, g, r)
