"""The quadratic series loops that qcrit used before its sub-quadratic
kernels, kept as the reference for differential tests.

Each kernel takes lists of packed element indices and returns the n + 1
coefficients through degree n. They work through the field's operation
tables, as the library does; field_oracle checks the tables themselves
against arithmetic written out from the definitions. The two closed forms
at the end take and return what the library's do, and compute with
FieldElement operators and lucas_binom, as qcrit did before it computed
them on the tables.
"""

from qcrit.digits import is_critical, lucas_binom
from qcrit.series import TruncSeries, orbit_series


def mul(spec, a, b, n):
    """Schoolbook Cauchy product, one row per nonzero coefficient of the
    sparser operand."""
    add, mul_ = spec._add, spec._mul
    a, b = a[:n + 1], b[:n + 1]
    if a.count(0) < b.count(0):
        a, b = b, a
    out = [0] * (n + 1)
    for i, ai in enumerate(a):
        if ai:
            row = mul_[ai]
            for j in range(min(n - i + 1, len(b))):
                bj = b[j]
                if bj:
                    out[i + j] = add[out[i + j]][row[bj]]
    return out


def power(spec, a, e, n):
    """Square and multiply."""
    result = [1] + [0] * n
    base = a
    while e:
        if e & 1:
            result = mul(spec, result, base, n)
        base = mul(spec, base, base, n)
        e >>= 1
    return result


def inverse(spec, a, n):
    """Solve f * g = 1 one degree at a time."""
    add, mul_, neg = spec._add, spec._mul, spec._neg
    inv0 = spec._inv[a[0]]
    rows = [(k, mul_[a[k]]) for k in range(1, n + 1) if a[k]]
    out = [inv0] + [0] * n
    row0 = mul_[inv0]
    for m in range(1, n + 1):
        s = 0
        for k, row in rows:
            if k > m:
                break
            if out[m - k]:
                s = add[s][row[out[m - k]]]
        out[m] = row0[neg[s]]
    return out


def log_deriv(spec, a, n):
    """Solve X f' = f t one degree at a time: m a_m = sum_j a_j t_(m-j)."""
    add, mul_, neg, p = spec._add, spec._mul, spec._neg, spec.p
    rows = [(k, mul_[neg[a[k]]]) for k in range(1, n + 1) if a[k]]
    t = [0] * (n + 1)
    row0 = mul_[spec._inv[a[0]]]
    for m in range(1, n + 1):
        s = mul_[m % p][a[m]]
        for k, row in rows:
            if k >= m:
                break
            if t[m - k]:
                s = add[s][row[t[m - k]]]
        t[m] = row0[s]
    return t


def compose(spec, a, g, n):
    """Horner's rule, from the last coefficient of a that reaches degree n."""
    v = next((i for i, c in enumerate(g[:n + 1]) if c), None)
    if v is None:
        return [a[0]] + [0] * n
    top = min(len(a) - 1, n // v)
    res = [a[top]] + [0] * n
    for i in range(top - 1, -1, -1):
        res = mul(spec, res, g, n)
        res[0] = spec._add[res[0]][a[i]]
    return res


def solve_log_deriv(spec, a, n):
    """Solve X f' = f t for f with f_0 = 1 one degree at a time:
    m f_m = sum_{k=1..m} a_k f_(m-k), and at a multiple m of p the equation
    must read 0 = 0."""
    add, mul_, inv, p = spec._add, spec._mul, spec._inv, spec.p
    rows = [(k, mul_[a[k]]) for k in range(1, n + 1) if a[k]]
    f = [1] + [0] * n
    for m in range(1, n + 1):
        s = 0
        for k, row in rows:
            if k > m:
                break
            if f[m - k]:
                s = add[s][row[f[m - k]]]
        if m % p:
            f[m] = mul_[inv[m % p]][s]
        elif s:
            raise AssertionError(f"inconsistent section at degree {m}")
    return f


def twisted_orbit_series(k, alpha, ell, beta, pq, prec):
    """The closed form as qcrit first computed it: FieldElement arithmetic
    and one lucas_binom per term."""
    spec = alpha.spec
    p, q = pq.p, pq.q
    out = list(orbit_series(k, alpha, prec).coeffs)
    step = q ** ell - 1
    i = 0
    while k * p ** i <= prec:
        base = k * p ** i
        top = base - 1
        afrob = alpha.frobenius(i)
        bpow = beta
        j = 1
        while base + j * step <= prec:
            b = lucas_binom(top, j, p)
            if b:
                idx = base + j * step
                out[idx] = out[idx] + spec.scalar(b) * afrob * bpow
            bpow = bpow * beta
            j += 1
        i += 1
    return TruncSeries(spec, prec, out)


def critical_projection_formula(k, alpha, ell, beta, pq, prec):
    """The predicted critical projection, term by term with FieldElement
    powers."""
    spec = alpha.spec
    p, lam, q = pq.p, pq.lam, pq.q
    out = [spec.zero()] * (prec + 1)
    if not is_critical(k, pq):
        return TruncSeries(spec, prec, out)
    if k + 1 <= prec:
        out[k + 1] = alpha
    minus_one = spec.scalar(p - 1)
    f = ell
    while q ** f * (k + 1) <= prec:
        sign = spec.one() if (f // ell) % 2 == 0 else minus_one
        coeff = sign * alpha.frobenius(lam * f) * beta ** ((q ** f - 1) // (q ** ell - 1))
        out[q ** f * (k + 1)] = coeff
        f += ell
    return TruncSeries(spec, prec, out)
