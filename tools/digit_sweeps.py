"""Timings of the digit-layer sweeps, as JSON on stdout.

    PYTHONPATH=src python tools/digit_sweeps.py [--repeat 3]

Times `orbit_min` over c <= 1000, the critical base set and the critical
integers up to 10000 for q = 4, 16, 9 and 25. For the admissible
quadruples it times the listing in (m, ell, j) order (`enumerate_ms`),
its first quadruple alone (`first_ms`: what `qcrit admissible --limit 1`
waits for), the blocks that the two sweeps enumerate (`blocks_ms`: every
k of `admissible_blocks`), the per-integer tables that the sweeps read
(`tables_ms`: one `digit_tables` call), and the admissible-order and
admissible-witness sweeps, at the desk bounds (`theorems.desk_bounds`:
m <= 4096, 2187 and 3125 for p = 2, 3 and 5) and at the sizes of the
short `verify` and `admissible` jobs of the benchmark's queries workload:
(p, m_bound, ell_bound) = (3, 243, 4) and (2, 99, 4). Each figure is the
time per call, the best of --repeat samples that loop the call for at
least 20 ms (tools/timing.py). When the checkout has digit tables, they
are dropped before every call but those of `blocks_ms`, which reads
none, so each figure includes building them, as in a fresh `qcrit`
process. Run it with PYTHONPATH pointing at two checkouts to compare
them.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys

from qcrit import digits, theorems
from qcrit.digits import PrimePower
from timing import best

PRIME_POWERS = [(2, 2), (2, 4), (3, 2), (5, 2)]
ADMISSIBLE = [(p, *theorems.desk_bounds(p)) for p in (2, 3, 5)] + [
    (3, 243, 4), (2, 99, 4)]


def cold(fn):
    """fn, run after the cached digit tables are dropped."""
    tables = getattr(digits, "digit_tables", None)

    def run():
        if tables is not None:
            tables.cache_clear()
        return fn()
    return run


def orbits(repeat: int) -> list[dict]:
    rows = []
    for p, lam in PRIME_POWERS:
        pq = PrimePower(p, lam)
        row = {"p": p, "lambda": lam, "q": pq.q}
        row["orbit_min_ms"] = best(
            lambda: [digits.orbit_min(c, pq) for c in range(1, 1001)], repeat)
        row["critical_base_set_ms"] = best(
            lambda: digits.critical_base_set(pq), repeat)
        row["critical_members_ms"] = best(
            lambda: digits.critical_members(pq, 10000), repeat)
        rows.append(row)
        print(json.dumps(row), flush=True, file=sys.stderr)
    return rows


def admissible(repeat: int) -> list[dict]:
    rows = []
    for p, m_bound, ell_bound in ADMISSIBLE:
        row = {"p": p, "m_bound": m_bound, "ell_bound": ell_bound,
               "quadruples": sum(1 for _ in digits.admissible_quadruples(
                   p, m_bound, ell_bound))}
        row["enumerate_ms"] = best(cold(lambda: sum(
            1 for _ in digits.admissible_quadruples(p, m_bound, ell_bound))),
            repeat)
        row["blocks_ms"] = best(lambda: sum(
            len(ks) for *_, ks in digits.admissible_blocks(
                p, m_bound, ell_bound)), repeat)
        row["first_ms"] = best(cold(lambda: next(iter(
            digits.admissible_quadruples(p, m_bound, ell_bound)))), repeat)
        if hasattr(digits, "digit_tables"):
            row["tables_ms"] = best(
                cold(lambda: digits.digit_tables(p, m_bound)), repeat)
        for name, sweep in (("order", theorems.verify_admissible_order),
                            ("witness", theorems.verify_admissible_witness)):
            row[f"{name}_sweep_ms"] = best(
                cold(lambda: sweep(p, m_bound, ell_bound)), repeat)
        rows.append(row)
        print(json.dumps(row), flush=True, file=sys.stderr)
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()
    print(json.dumps({"python": platform.python_version(),
                      "repeat": args.repeat, "orbits": orbits(args.repeat),
                      "admissible": admissible(args.repeat)}, indent=1))


if __name__ == "__main__":
    main()
