"""The per-quadruple admissible sweeps that qcrit ran before its per-integer
digit tables, kept as the reference for differential tests.

Every quantity is derived again for each quadruple, through the public
functions of qcrit.digits. They are looked up on the module when called,
so a fault patched into one of them reaches the reference as it reaches
the tables.
"""

from qcrit import digits
from qcrit.digits import AdmissibleQuadruple, WitnessError


def quadruples(p, m_bound, ell_bound):
    """Ascending (m, ell, j): p = 2 tests the binomial by a bit mask, odd p
    call lucas_binom on every candidate j <= (m-1)/(p^ell - 1)."""
    for m in range(1, m_bound + 1):
        if m % p == 0:
            continue
        for ell in range(1, ell_bound + 1):
            step = p ** ell - 1
            if step >= m:
                break
            for j in range(1, (m - 1) // step + 1):
                k = m - j * step
                if p == 2:
                    if (k - 1) & j == j:
                        yield AdmissibleQuadruple(j, k, ell, m)
                elif digits.lucas_binom(k - 1, j, p) != 0:
                    yield AdmissibleQuadruple(j, k, ell, m)


def order_failures(p, m_bound, ell_bound):
    """(quadruple count, counterexamples) of the admissible-order sweep."""
    bad, count = [], 0
    for quad in quadruples(p, m_bound, ell_bound):
        count += 1
        j, k, ell, m = quad
        if digits.digital_cmp(k, m, p) != digits.LESS:
            bad.append({"quad": list(quad), "check": "digital_order",
                        "key_k": digits.digital_key(k, p),
                        "key_m": digits.digital_key(m, p)})
            continue
        if digits.p_core(k, p) == digits.p_core(m, p):
            e = digits.ord_p(k, p)
            if e == 0 or e % ell != 0 or j * (p ** ell - 1) != p ** e - 1:
                bad.append({"quad": list(quad), "check": "forced_j",
                            "ord_k": e})
    return count, bad


def witness(quad, p):
    """The witness derivation, with the r candidates found by a scan."""
    j, k, ell, m = quad
    e = digits.ord_p(m + 1, p)
    f = digits.ord_p(k, p)
    g = digits.ord_p(k // p ** f + 1, p)
    pe = p ** e
    step = p ** ell - 1
    found = [r for r in range(0, e + ell, ell)
             if ((p ** r - 1) // step) % pe == j % pe]
    payload = {"quad": list(quad), "p": p, "e": e, "f": f, "g": g}
    if len(found) != 1:
        raise WitnessError("candidates", {**payload, "candidates": found})
    r = found[0]
    if f + g < e:
        raise WitnessError("orders", {**payload, "r": r})
    core_m, core_k = digits.p_core(m, p), digits.p_core(k, p)
    if core_m < core_k:
        raise WitnessError("cores", {**payload, "r": r, "core_m": core_m,
                                     "core_k": core_k})
    return e, f, g, r


def witness_failures(p, m_bound, ell_bound):
    """(quadruple count, counterexamples) of the admissible-witness sweep."""
    bad, count = [], 0
    for quad in quadruples(p, m_bound, ell_bound):
        count += 1
        try:
            witness(quad, p)
        except WitnessError as err:
            bad.append(err.payload)
    return count, bad


def capped(failures, cap):
    """The counterexample list of a report: the first cap failures, then a
    marker with the total when there were more."""
    if len(failures) <= cap:
        return failures
    return failures[:cap] + [{"truncated": True,
                              "total_failures": len(failures)}]
