"""Independent oracle: schoolbook arithmetic on coordinate tuples.

A field element is a tuple of n coordinates in [0, p), the coefficients of
a polynomial in t modulo (modulus, p). A series is a list of such tuples.
Nothing here calls qcrit, so the tests compare the library with arithmetic
written out from the definitions.
"""


def poly_mul_mod(a, b, modulus, p):
    n = len(modulus) - 1
    prod = [0] * (2 * n)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    for i in range(len(prod) - 1, n - 1, -1):
        c = prod[i]
        if c:
            prod[i] = 0
            for j in range(n):
                prod[i - n + j] = (prod[i - n + j] - c * modulus[j]) % p
    return tuple(prod[:n])


def coord_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def coord_inverse(a, modulus, p):
    """a^(q-2), by square and multiply with poly_mul_mod."""
    n = len(modulus) - 1
    e = p ** n - 2
    result, base = (1,) + (0,) * (n - 1), a
    while e:
        if e & 1:
            result = poly_mul_mod(result, base, modulus, p)
        base = poly_mul_mod(base, base, modulus, p)
        e >>= 1
    return result


def series_mul(f, g, modulus, p):
    """Cauchy product through the shorter length."""
    n = min(len(f), len(g))
    zero = (0,) * (len(modulus) - 1)
    out = [zero] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] = coord_add(out[i + j], poly_mul_mod(f[i], g[j], modulus, p), p)
    return out


def series_inverse(f, modulus, p):
    """Reciprocal of a unit: solve f * g = 1 one degree at a time."""
    inv0 = coord_inverse(f[0], modulus, p)
    g = [inv0]
    for m in range(1, len(f)):
        s = (0,) * (len(modulus) - 1)
        for k in range(1, m + 1):
            s = coord_add(s, poly_mul_mod(f[k], g[m - k], modulus, p), p)
        g.append(tuple(-c % p for c in poly_mul_mod(inv0, s, modulus, p)))
    return g


def series_log_deriv(f, modulus, p):
    """X * f' * f^(-1): the coefficient of X f' at degree m is m * f_m."""
    xf = [tuple(m * c % p for c in f[m]) for m in range(len(f))]
    return series_mul(xf, series_inverse(f, modulus, p), modulus, p)


def series_power(g, e, modulus, p):
    n = len(modulus) - 1
    out = [(1,) + (0,) * (n - 1)] + [(0,) * n] * (len(g) - 1)
    for _ in range(e):
        out = series_mul(out, g, modulus, p)
    return out


def series_compose(f, g, modulus, p):
    """sum_i f_i g^i through the shorter length, power by power."""
    n = min(len(f), len(g))
    out = [(0,) * (len(modulus) - 1)] * n
    power = series_power(g[:n], 0, modulus, p)
    for i in range(n):
        out = [coord_add(o, poly_mul_mod(f[i], c, modulus, p), p)
               for o, c in zip(out, power)]
        power = series_mul(power, g[:n], modulus, p)
    return out
