"""The hot arithmetic kernels, in pure Python.

Two kernel families live here:

* sparse polynomial kernels: term maps ``{monomial_key: int}`` where a
  monomial key is a tuple of ``(var, exp)`` pairs sorted by variable
  index, exponents positive, and coefficients are nonzero Python ints;
* dense modular kernels: fixed-length coefficient tuples over
  ``Z/modulus`` reduced against a monic polynomial given by precomputed
  reduction rows.

The package calls them through ``kernels``.
"""


def monomial_key_mul(m1, m2):
    """Merge two sorted (var, exp) tuples, adding exponents."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif v1 < v2:
            out.append((v1, e1))
            i += 1
        else:
            out.append((v2, e2))
            j += 1
    out.extend(m1[i:])
    out.extend(m2[j:])
    return tuple(out)


def sparse_add(a, b):
    if len(b) > len(a):
        a, b = b, a
    out = dict(a)
    for key, coeff in b.items():
        c = out.get(key)
        if c is None:
            out[key] = coeff
        else:
            c += coeff
            if c:
                out[key] = c
            else:
                del out[key]
    return out


def sparse_neg(a):
    return {key: -coeff for key, coeff in a.items()}


def sparse_scale(a, k):
    if k == 0:
        return {}
    if k == 1:
        return dict(a)
    return {key: coeff * k for key, coeff in a.items()}


def sparse_mul(a, b):
    if not a or not b:
        return {}
    if len(a) < len(b):
        a, b = b, a
    out = {}
    for kb, cb in b.items():
        if kb:
            for ka, ca in a.items():
                key = monomial_key_mul(ka, kb)
                c = out.get(key)
                if c is None:
                    out[key] = ca * cb
                else:
                    c += ca * cb
                    if c:
                        out[key] = c
                    else:
                        del out[key]
        else:
            for ka, ca in a.items():
                c = out.get(ka)
                if c is None:
                    out[ka] = ca * cb
                else:
                    c += ca * cb
                    if c:
                        out[ka] = c
                    else:
                        del out[ka]
    return out


def sparse_pow(a, k):
    if k == 0:
        return {(): 1}
    result = None
    base = a
    while True:
        if k & 1:
            result = base if result is None else sparse_mul(result, base)
        k >>= 1
        if not k:
            return dict(result)
        base = sparse_mul(base, base)


def zmod_poly_mulmod(a, b, red_rows, modulus):
    """Multiply two degree-<d coefficient tuples modulo a monic degree-d
    polynomial over Z/modulus.

    ``red_rows[t]`` holds the expansion of x^(d+t) on the power basis.
    """
    d = len(a)
    conv = [0] * (2 * d - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    conv[i + j] += ai * bj
    out = conv[:d]
    for t in range(d - 2, -1, -1):
        c = conv[d + t] % modulus
        if c:
            row = red_rows[t]
            for j in range(d):
                rj = row[j]
                if rj:
                    out[j] += c * rj
    return tuple(c % modulus for c in out)


def zmod_vec_add(a, b, modulus):
    return tuple((x + y) % modulus for x, y in zip(a, b))


def zmod_vec_sub(a, b, modulus):
    return tuple((x - y) % modulus for x, y in zip(a, b))


def flat_mul(a, b, struct_rows, modulus):
    """Bilinear product on flattened coordinates.

    ``struct_rows[i][j]`` is the coordinate tuple of basis_i * basis_j.
    """
    r = len(a)
    out = [0] * r
    for i in range(r):
        ai = a[i]
        if ai:
            rows_i = struct_rows[i]
            for j in range(r):
                bj = b[j]
                if bj:
                    c = (ai * bj) % modulus
                    row = rows_i[j]
                    for k in range(r):
                        rk = row[k]
                        if rk:
                            out[k] += c * rk
    return tuple(x % modulus for x in out)
