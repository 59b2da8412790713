"""Per-operation timings of the series kernels, as JSON on stdout.

    PYTHONPATH=src python tools/series_ops.py [--repeat 3]

Times TruncSeries `*`, `inverse_mult`, `log_deriv`, `solve_log_deriv`
and `compose` at precision 128, 512 and 2048 over F_4, F_9, F_243 and
F_256, in time per call: the best of --repeat samples that loop the
call for at least 20 ms (tools/timing.py).
The inputs are seeded random units; `solve_log_deriv` solves for the
logarithmic derivative of one, and the inner series of `compose` is a
random composition of two X + beta*X^(q^ell), the shape the equivariance
and Coleman sweeps compose with. Run it with PYTHONPATH pointing at two
checkouts to compare them.

When the checkout has the index-list kernels, a "crossovers" section
times each kernel against the loop it replaces on either side of its
threshold: row products against Kronecker products by the number of
nonzero coefficients, the inverse recurrence against Newton steps, the
log_deriv recurrence against X f' f^(-1), and, when the checkout has it,
the solve_log_deriv recurrence (one block of every degree) against its
divide-and-conquer split at the default block size.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from qcrit import series as sr
from qcrit.digits import PrimePower
from qcrit.finite_field import field_make
from timing import best

# (p, n, lambda of the composition series)
FIELDS = [(2, 2, 2), (3, 2, 1), (3, 5, 1), (2, 8, 2)]
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
            rows.append(row)
            print(json.dumps(row), flush=True, file=sys.stderr)
    return rows


def crossovers(repeat: int) -> dict:
    out = {"mul_rows_vs_kronecker": [], "inverse_recurrence_vs_newton": [],
           "log_deriv_recurrence_vs_newton": []}
    for p, n, _ in FIELDS:
        spec = field_make(p, n)
        for prec in (128, 2048):
            dense = [c.idx for c in sr.random_unit(spec, prec, 4).coeffs]
            for nonzero in (4, 8, 16, 32):
                sparse = [0] * (prec + 1)
                for i in range(nonzero):
                    sparse[i * (prec // nonzero)] = dense[i] or 1
                out["mul_rows_vs_kronecker"].append({
                    "field": spec.order, "prec": prec, "nonzero": nonzero,
                    "rows_ms": best(lambda: sr._mul_rows(spec, sparse, dense, prec), repeat),
                    "kronecker_ms": best(
                        lambda: sr._mul_kronecker(spec, sparse, dense, prec), repeat)})
        for prec in (64, 128, 256, 512):
            a = [c.idx for c in sr.random_unit(spec, prec, 5).coeffs]
            xf = [spec._mul[m % p][c] for m, c in enumerate(a)]
            out["inverse_recurrence_vs_newton"].append({
                "field": spec.order, "prec": prec,
                "recurrence_ms": best(lambda: sr._inverse_recurrence(spec, a, prec), repeat),
                "newton_ms": best(lambda: sr._inverse(spec, a, prec), repeat)})
            out["log_deriv_recurrence_vs_newton"].append({
                "field": spec.order, "prec": prec,
                "recurrence_ms": best(
                    lambda: sr._log_deriv_recurrence(spec, a, prec), repeat),
                "newton_ms": best(lambda: sr._mul(
                    spec, xf, sr._inverse(spec, a, prec), prec), repeat)})
        if hasattr(sr, "_SECTION_BASE"):
            out.setdefault("solve_recurrence_vs_relaxed", []).extend(
                solve_crossovers(spec, repeat))
    return out


def solve_crossovers(spec, repeat: int) -> list[dict]:
    rows, base = [], sr._SECTION_BASE
    for prec in (64, 128, 256, 512, 2048):
        t = sr.log_deriv(sr.random_unit(spec, prec, 6)).idx
        row = {"field": spec.order, "prec": prec, "base": base}
        row["relaxed_ms"] = best(lambda: sr._solve_log_deriv(spec, t, prec), repeat)
        # with the block size at prec, the whole solve is one recurrence
        sr._SECTION_BASE = max(base, prec)
        try:
            row["recurrence_ms"] = best(
                lambda: sr._solve_log_deriv(spec, t, prec), repeat)
        finally:
            sr._SECTION_BASE = base
        rows.append(row)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    result = {"python": platform.python_version(), "repeat": args.repeat,
              "ops": ops(args.repeat)}
    if hasattr(sr, "_mul_kronecker"):
        result["crossovers"] = crossovers(args.repeat)
    print(json.dumps(result, indent=1))


if __name__ == "__main__":
    main()
