"""Per-operation timings of the series kernels, as JSON on stdout.

    PYTHONPATH=src python tools/series_ops.py [--repeat 3]

Times TruncSeries `*`, `inverse_mult`, `log_deriv`, `solve_log_deriv`
and `compose` at precision 128, 512 and 2048 over F_4, F_9, F_243 and
F_256, and `*` alone over F_67, F_251 and F_729, in time per call: the
best of --repeat samples that loop the call for at least 20 ms
(tools/timing.py).
The inputs are seeded random units; `solve_log_deriv` solves for the
logarithmic derivative of one, and the inner series of `compose` is a
random composition of two X + beta*X^(q^ell), the shape the equivariance
and Coleman sweeps compose with; `scale_arg` substitutes t*X, the
generator t of the field. The "compose" rows time f.compose(g) on
sparse inner series at the same precisions and fields: g a random
composition of 1 to 4 series X + beta*X^(q^ell), as the equivariance and
Coleman trials draw them, and t*(X + t*X^(q^ell))^k at ell = 1 and
k = p^2 - 1, p^3 - 1 and p^4 - 1, the shape the projection sweep composes
the Artin-Hasse series with (4, 8 and 16 terms for p = 2, 9, 27 and 81
for p = 3). The "closed_forms" rows time
`twisted_orbit_series` and `critical_projection_formula`, the closed forms
of the projection sweep, at the same precisions over F_4 and F_9. Run it
with PYTHONPATH pointing at two checkouts to compare them.

When the checkout has one division kernel for inverse_mult and log_deriv
(_divide), a "crossovers" section times each kernel against the
alternative on either side of its threshold: row products against
Kronecker products by the number of nonzero coefficients; the online
recurrence through solve_log_deriv, its thinnest caller, in three ways:
split into blocks of at most _BLOCK degrees, at the checkout's own rule
(_block_limit, which lets blocks grow on bytes) and as one block of
every degree, at precision 64 to 2048, here also over F_8; and the two
routes of log_deriv, _divide by the recurrence alone (its limit at the
precision) and by one quotient step (its limit one below), on units with
1/16, 1/4 and all of their coefficients nonzero, at precision 64, 128,
256, 512, 1024 and 2048. The crossovers run over F_2, F_4, F_9, F_16,
F_243 and F_256. Each log_deriv row takes max(5, --repeat) samples of
each route in turn, reports their medians, and names the route that
log_deriv's rule (_quotient_wins) takes. The inverse rows time 1/f of a
random unit on the byte fields F_2, F_4, F_8, F_16, F_32 and F_256 at
precision 512, 1024 and 2048 in three ways: Newton steps above _BLOCK
degrees, the checkout's own rule (_newton_limit) and the recurrence as
one block of every degree, the medians of max(3, --repeat) samples of
each in turn. The kronecker rows time _mul_kronecker on two random units
of 256, 512, 1024 and 2048 coefficients through their first as many
slots, over F_4, F_9, F_67, F_243 and F_256, by one plane per slot and
by KS2 (evaluation at 2^b and -2^b), the medians of max(5, --repeat)
samples of each in turn, and name the route that the checkout's rule
(_KS2_SLOTS) takes. The online rows time the odd-p online recurrence
through solve_log_deriv and log_deriv's recurrence (_divide through its
limit) on F_3, F_9, F_25, F_27, F_81, F_243 and F_251 at precision 128,
512 and 2048, on a dense and a sparse input (a unit, or a logarithmic
derivative, with 1/16 of its coefficients nonzero), in three ways: every
block by the gather loop, every block on digit slots (_online_packed)
and the checkout's own rule (_packed_wins), the medians of max(5,
--repeat) samples of each in turn. The log_deriv rows cover F_3, F_25,
F_27, F_81 and F_251 as well.
"""

from __future__ import annotations

import argparse
import json
import platform
import random
import sys
from unittest import mock

from qcrit import series as sr
from qcrit.digits import PrimePower
from qcrit.finite_field import field_make
from timing import alternated, best

# (p, n, lambda of the composition series)
FIELDS = [(2, 2, 2), (3, 2, 1), (3, 5, 1), (2, 8, 2)]
# the crossover rows add F_2 and F_16: characteristic 2, whose products and
# recurrence run on bytes, at d = 1 and d = 4 between F_4 and F_256
CROSSOVER_FIELDS = [(2, 1), (2, 2), (3, 2), (2, 4), (3, 5), (2, 8)]
# the block rows add F_8, the first byte field on which one block beats
# the split through MAX_PREC
BLOCK_FIELDS = [(2, 1), (2, 2), (2, 3), (3, 2), (2, 4), (3, 5), (2, 8)]
# the inverse rows: every byte field through F_16, and F_32 and F_256
INVERSE_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (2, 8)]
# the product rows add F_67, the least p whose four-byte product slots
# reduce mod p by v % p (4 (p - 1) > 255), F_251, whose product slots, of
# two bytes and up, all do, and F_729, whose digits join in two-byte slots
MUL_FIELDS = [(67, 1), (251, 1), (3, 6)]
# the KS2 rows: half slots of one byte (F_4, F_9, F_243, F_256) and of two
# (F_67, whose product coefficients need 21 to 24 bits here)
KS2_FIELDS = [(2, 2), (3, 2), (67, 1), (3, 5), (2, 8)]
# the online rows: odd p at d = 1 (F_3, F_251), 2 (F_9, F_25) and 3 to 5
ONLINE_FIELDS = [(3, 1), (3, 2), (5, 2), (3, 3), (3, 4), (3, 5), (251, 1)]
# the log_deriv rows add the odd-p online fields that the crossover rows lack
LOG_DERIV_FIELDS = CROSSOVER_FIELDS + [f for f in ONLINE_FIELDS
                                       if f not in CROSSOVER_FIELDS]
PRECS = [128, 512, 2048]


def ops(repeat: int) -> list[dict]:
    rows = []
    for p, n, lam in FIELDS:
        spec, pq = field_make(p, n), PrimePower(p, lam)
        for prec in PRECS:
            f = sr.random_unit(spec, prec, 1)
            g = sr.random_unit(spec, prec, 2)
            gamma = sr.random_gamma(pq, spec, prec, 3, 2).as_trunc()
            row = {"field": spec.order, "prec": prec}
            row["mul_ms"] = best(lambda: f * g, repeat)
            row["inverse_mult_ms"] = best(f.inverse_mult, repeat)
            row["log_deriv_ms"] = best(lambda: sr.log_deriv(f), repeat)
            t = sr.log_deriv(g)
            row["solve_log_deriv_ms"] = best(lambda: sr.solve_log_deriv(t), repeat)
            row["compose_ms"] = best(lambda: f.compose(gamma), repeat)
            row["scale_arg_ms"] = best(lambda: f.scale_arg(spec.gen()), repeat)
            rows.append(row)
            print(json.dumps(row), flush=True, file=sys.stderr)
    for p, n in MUL_FIELDS:
        spec = field_make(p, n)
        for prec in PRECS:
            f = sr.random_unit(spec, prec, 1)
            g = sr.random_unit(spec, prec, 2)
            row = {"field": spec.order, "prec": prec,
                   "mul_ms": best(lambda: f * g, repeat)}
            rows.append(row)
            print(json.dumps(row), flush=True, file=sys.stderr)
    return rows


def compose(repeat: int) -> list[dict]:
    rows = []
    for p, n, lam in FIELDS:
        spec, pq = field_make(p, n), PrimePower(p, lam)
        t = spec.gen()
        for prec in PRECS:
            f = sr.random_unit(spec, prec, 1)
            inners = {f"gamma{i}": sr.random_gamma(pq, spec, prec, 3, i).as_trunc()
                      for i in range(1, 5)}
            twist = sr.AdditiveSeries.generator(spec, pq, prec, t, 1).as_trunc()
            for e in (2, 3, 4):
                inners[f"power{p ** e - 1}"] = (twist ** (p ** e - 1)).scale(t)
            for name, g in inners.items():
                row = {"field": spec.order, "prec": prec, "inner": name,
                       "terms": len(g.support()),
                       "compose_ms": best(lambda: f.compose(g), repeat)}
                rows.append(row)
                print(json.dumps(row), flush=True, file=sys.stderr)
    return rows


def closed_forms(repeat: int) -> list[dict]:
    """The projection sweep's closed forms on F_4 (q = 4) and F_9 (q = 3):
    k = 1, which is critical for every q, alpha = beta = t and ell = 1."""
    rows = []
    for p, n, lam in FIELDS[:2]:
        spec, pq = field_make(p, n), PrimePower(p, lam)
        t = spec.gen()
        for prec in PRECS:
            row = {"field": spec.order, "prec": prec}
            row["twisted_orbit_series_ms"] = best(
                lambda: sr.twisted_orbit_series(1, t, 1, t, pq, prec), repeat)
            row["critical_projection_formula_ms"] = best(
                lambda: sr.critical_projection_formula(1, t, 1, t, pq, prec), repeat)
            rows.append(row)
            print(json.dumps(row), flush=True, file=sys.stderr)
    return rows


def crossovers(repeat: int) -> dict:
    out = {"mul_rows_vs_kronecker": [], "kernel_block_vs_split": [],
           "log_deriv_rows_vs_quotient": []}
    for p, n in LOG_DERIV_FIELDS:
        spec = field_make(p, n)
        if (p, n) in CROSSOVER_FIELDS:
            mul_rows(spec, out["mul_rows_vs_kronecker"], repeat)
        out["log_deriv_rows_vs_quotient"] += log_deriv_rows(spec, repeat)
    for p, n in BLOCK_FIELDS:
        spec = field_make(p, n)
        limit = sr._block_limit(spec)
        for prec in (64, 128, 256, 512, 1024, 2048):
            t = sr.log_deriv(sr.random_unit(spec, prec, 6)).idx
            row = {"field": spec.order, "prec": prec, "block": sr._BLOCK,
                   "limit": limit}

            def solve():
                return sr._solve_log_deriv(spec, t, prec)

            with mock.patch.object(sr, "_block_limit", lambda spec: sr._BLOCK):
                row["split_ms"] = best(solve, repeat)
            row["rule_ms"] = best(solve, repeat)
            with mock.patch.object(sr, "_block_limit", lambda spec: prec), \
                    mock.patch.object(sr, "_BLOCK", max(sr._BLOCK, prec)):
                row["one_block_ms"] = best(solve, repeat)
            out["kernel_block_vs_split"].append(row)
    out["inverse_newton_vs_block"] = [
        inverse_row(p, n, prec, max(3, repeat))
        for p, n in INVERSE_FIELDS for prec in (512, 1024, 2048)]
    out["kronecker_plain_vs_ks2"] = [
        kronecker_row(p, n, slots, max(5, repeat))
        for p, n in KS2_FIELDS for slots in (256, 512, 1024, 2048)]
    out["online_gather_vs_packed"] = [
        online_row(p, n, prec, kind, max(5, repeat))
        for p, n in ONLINE_FIELDS for prec in PRECS
        for kind in ("solve dense", "solve sparse", "rows dense", "rows sparse")]
    return out


def mul_rows(spec, rows: list, repeat: int) -> None:
    for prec in (128, 2048):
        dense = [c.idx for c in sr.random_unit(spec, prec, 4).coeffs]
        for nonzero in (4, 8, 16, 32):
            sparse = [0] * (prec + 1)
            for i in range(nonzero):
                sparse[i * (prec // nonzero)] = dense[i] or 1
            rows.append({
                "field": spec.order, "prec": prec, "nonzero": nonzero,
                "rows_ms": best(lambda: sr._mul_rows(spec, sparse, dense, prec), repeat),
                "kronecker_ms": best(
                    lambda: sr._mul_kronecker(spec, sparse, dense, prec), repeat)})


def log_deriv_rows(spec, repeat: int) -> list[dict]:
    rows = []
    for prec in (64, 128, 256, 512, 1024, 2048):
        for share in (16, 4, 1):
            a = _unit(spec, prec, share, random.Random(prec * share))
            quotient = sr._quotient_wins(spec, prec, a)
            row = {"field": spec.order, "prec": prec,
                   "nonzero": "all" if share == 1 else f"1/{share}",
                   "count": prec + 1 - a.count(0),
                   "rule": "quotient" if quotient else "rows"}
            row.update(alternated({
                "rows_ms": lambda: _log_deriv(spec, a, prec, prec),
                "quotient_ms": lambda: _log_deriv(spec, a, prec, prec - 1)},
                max(5, repeat)))
            print(json.dumps(row), flush=True, file=sys.stderr)
            rows.append(row)
    return rows


def online_row(p: int, n: int, prec: int, kind: str, rounds: int) -> dict:
    """One input of the online recurrence, by the gather loop, on digit
    slots and by the checkout's rule: "solve" is _solve_log_deriv of a
    logarithmic derivative, "rows" log_deriv's recurrence on a unit, and a sparse
    input has 1/16 of its coefficients nonzero."""
    spec = field_make(p, n)
    rng = random.Random(prec + spec.order)
    share = 16 if kind.endswith("sparse") else 1
    if kind.startswith("solve"):
        a = _target(spec, prec, share, rng)
        call = sr._solve_log_deriv
    else:
        a = _unit(spec, prec, share, rng)

        def call(spec, a, prec):
            return _log_deriv(spec, a, prec, prec)
    rule = sr._packed_wins

    def online(packed_wins):
        # every way patches the module, so that all pay the same for it
        def run():
            with mock.patch.object(sr, "_packed_wins", packed_wins):
                return call(spec, a, prec)
        return run

    row = {"field": spec.order, "prec": prec, "input": kind,
           "count": prec + 1 - a.count(0)}
    row.update(alternated({
        "gather_ms": online(lambda spec, size, nonzero: False),
        "packed_ms": online(lambda spec, size, nonzero: True),
        "rule_ms": online(rule)}, rounds))
    print(json.dumps(row), flush=True, file=sys.stderr)
    return row


def kronecker_row(p: int, n: int, slots: int, rounds: int) -> dict:
    spec = field_make(p, n)
    a, b = sr.random_unit(spec, slots - 1, 8).idx, sr.random_unit(spec, slots - 1, 9).idx
    limit = sr._KS2_SLOTS

    def kronecker(ks2_slots):
        # both routes patch the module, so that both pay the same for it
        def run():
            with mock.patch.object(sr, "_KS2_SLOTS", ks2_slots):
                return sr._mul_kronecker(spec, a, b, slots - 1)
        return run

    row = {"field": spec.order, "slots": slots,
           "rule": "ks2" if slots >= limit else "plain"}
    row.update(alternated({"plain_ms": kronecker(slots + 1), "ks2_ms": kronecker(0)},
                          rounds))
    print(json.dumps(row), flush=True, file=sys.stderr)
    return row


def inverse_row(p: int, n: int, prec: int, rounds: int) -> dict:
    spec = field_make(p, n)
    a = sr.random_unit(spec, prec, 7).idx
    rule = sr._newton_limit

    def inverse(**values):
        # every way patches the module, so that all pay the same for it
        def run():
            with mock.patch.multiple(sr, **values):
                return sr._divide(spec, None, a, prec, sr._newton_limit(spec))
        return run

    row = {"field": spec.order, "prec": prec, "limit": rule(spec)}
    row.update(alternated({
        "newton_ms": inverse(_newton_limit=lambda spec: sr._BLOCK),
        "rule_ms": inverse(_newton_limit=rule),
        "one_block_ms": inverse(
            _BLOCK=max(sr._BLOCK, prec), _newton_limit=lambda spec: prec,
            _block_limit=lambda spec: prec)}, rounds))
    print(json.dumps(row), flush=True, file=sys.stderr)
    return row


def _log_deriv(spec, a: list[int], prec: int, limit: int) -> list[int]:
    """log_deriv of the unit a by _divide through the given limit: the
    recurrence alone at limit = prec, one quotient step below it."""
    return sr._divide(spec, sr._weighted(spec, a), a, prec, limit)


def _unit(spec, prec: int, share: int, rng: random.Random) -> list[int]:
    """A unit whose nonzero coefficients are its constant term and
    (prec + 1) / share - 1 others, at random degrees."""
    a = [0] * (prec + 1)
    for i in [0] + rng.sample(range(1, prec + 1), (prec + 1) // share - 1):
        a[i] = rng.randrange(1, spec.order)
    return a


def _target(spec, prec: int, share: int, rng: random.Random) -> list[int]:
    """A logarithmic derivative (zero constant term, a_(p i) = a_i^p) with
    about (prec + 1) / share nonzero coefficients: random ones at degrees
    prime to p, and the Frobenius images they force."""
    p, frob = spec.p, spec._frob1
    t = [0] * (prec + 1)
    free = [i for i in range(1, prec + 1) if i % p]
    for i in rng.sample(free, max(1, len(free) // share)):
        t[i] = rng.randrange(1, spec.order)
    for i in range(p, prec + 1, p):
        t[i] = frob[t[i // p]]
    return t


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    result = {"python": platform.python_version(), "repeat": args.repeat,
              "ops": ops(args.repeat), "compose": compose(args.repeat),
              "closed_forms": closed_forms(args.repeat)}
    if hasattr(sr, "_divide"):
        result["crossovers"] = crossovers(args.repeat)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
