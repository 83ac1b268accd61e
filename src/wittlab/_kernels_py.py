"""The hot arithmetic kernels, in pure Python.

Two kernel families live here:

* sparse polynomial kernels: term maps ``{monomial_key: int}`` where a
  monomial key is a tuple of ``(var, exp)`` pairs sorted by variable
  index, exponents positive, and coefficients are nonzero Python ints;
* dense modular kernels: fixed-length coefficient tuples over
  ``Z/modulus`` reduced against a monic polynomial given by precomputed
  reduction rows, or multiplied through structure rows (``flat_mul``).

``flat_mul`` is the reference product on structure rows: it loops over
every (i, j, k) cell.  The rings of a tower multiply with a product that
``compile_flat_mul`` generates once from their own rows, and the tests
compare it with ``flat_mul``, and its x -> x^p (``compile_flat_pow``)
with chained products.  In the same way ``compile_flat_linear`` turns a
matrix on flattened coordinates (sigma^i or the trace of a tower) into
a straight-line function, which the tests compare with a plain
matrix-vector product, and ``compile_ghost_pass`` turns one shape of
``wittcore.ghost_sum`` (summands per column, levels) at one pair of
moduli into one, cached by its arguments, which the tests compare with
the level-by-level loop it replaced.  ``compile_witt_trace_pass`` does
the same for the Witt trace from the top ring of a tower into the ring
below, from the rows of the field trace; the tests compare it with the
Witt sum of the Galois conjugates.

The package calls them through ``kernels``.
"""

from functools import cache
from itertools import combinations_with_replacement
from math import comb, factorial, prod


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


def flat_mul_plan(struct_rows):
    """The cells (i, j) of a rank-r product grouped by their structure
    row: a list of ``(row, pairs)`` in first-seen order, zero rows left
    out, since they contribute nothing.  Every entry must be an int."""
    r = len(struct_rows)
    groups = {}
    for i in range(r):
        if len(struct_rows[i]) != r:
            raise ValueError(f"structure row {i} has {len(struct_rows[i])} cells, need {r}")
        for j in range(r):
            row = tuple(_checked_int(c) for c in struct_rows[i][j])
            if len(row) != r:
                raise ValueError(f"structure cell ({i}, {j}) has {len(row)} coordinates, need {r}")
            if any(row):
                groups.setdefault(row, []).append((i, j))
    return list(groups.items())


def _checked_int(x) -> int:
    """An integer bound for the generated source; anything else is
    refused, so that source holds only integer literals and local names."""
    if type(x) is not int:
        raise TypeError(f"a compiled constant must be an int, got {type(x).__name__}")
    return x


def flat_mul_source(plan, rank: int, modulus: int, factors: str = "ab") -> str:
    """Straight-line source of ``mul(a, b)`` for a product plan, or with
    ``factors`` "a" * p and cells of p indices of ``pth(a)`` = a^p.

    Each group's cells (i, j, ...) are summed once, as terms a_i * b_j *
    ...  A unit row (one coordinate equal to 1) adds that sum to its
    coordinate directly; any other row scales it by the row's constants,
    inlined as the representatives of least absolute value, after one
    reduction modulo ``modulus`` in a product; a power's degree-p sums are
    scaled unreduced (0.84 of the reduced power's time, median of timings
    at ranks 2-8).  Every output coordinate is reduced once, at the end.
    """
    if _checked_int(modulus) < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    names = sorted(set(factors))
    lines = [f"def {'mul' if len(names) > 1 else 'pth'}({', '.join(names)}):"]
    coords = range(_checked_int(rank))
    lines += [f"    ({', '.join(f'{v}{i}' for i in coords)},) = {v}" for v in names]
    terms = [[] for _ in range(rank)]
    for g, (row, cells) in enumerate(plan):
        total = " + ".join(
            " * ".join(f"{v}{_checked_int(k)}" for v, k in zip(factors, cell)) for cell in cells
        )
        consts = [(k, _checked_int(c) % modulus) for k, c in enumerate(row)]
        consts = [(k, c - modulus if 2 * c > modulus else c) for k, c in consts if c]
        if len(consts) == 1 and consts[0][1] == 1:
            terms[consts[0][0]].append(total)
            continue
        lines.append(f"    g{g} = " + (f"({total}) % {modulus}" if len(names) > 1 else total))
        for k, c in consts:
            terms[k].append(f"g{g}" if c == 1 else f"{c} * g{g}")
    outs = [f"({' + '.join(t)}) % {modulus}" if t else "0" for t in terms]
    lines.append(f"    return ({', '.join(outs)},)")
    return "\n".join(lines) + "\n"


def _define(source: str, filename: str, name: str, **bound):
    """The function ``name`` defined by generated ``source``, the one place such
    code is run: with no builtins, so it sees only its own names and ``bound``."""
    namespace = {"__builtins__": {}, **bound}
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def compile_flat_mul(struct_rows, modulus: int):
    """The product on flattened coordinates modulo ``modulus`` with these
    structure rows, as a function ``mul(a, b)`` compiled once; it returns
    what ``flat_mul(a, b, struct_rows, modulus)`` returns."""
    rank = len(struct_rows)
    source = flat_mul_source(flat_mul_plan(struct_rows), rank, modulus)
    return _define(source, f"<flat_mul rank {rank}>", "mul")


def multinomial(counts) -> int:
    """(k_1 + ... + k_m)! / (k_1! ... k_m!)."""
    return factorial(sum(counts)) // prod(factorial(k) for k in counts)


def compile_flat_pow(struct_rows, modulus: int, p: int, mul):
    """x -> x^p modulo ``modulus``, compiled once, returning what p-1 chained
    calls of ``mul`` (the product compiled from these rows) return: the
    multinomial expansion when its C(r+p-1, p) monomials are fewer than
    5/4 of a product's r^2 cells (where the two forms' timings cross),
    else the chain.  Monomial a_k1 * ... * a_kp has the row of the basis
    elements k1..kp multiplied (``flat_mul``), times its coefficient."""
    r = len(struct_rows)
    source, form = f"def pth(a):\n    return {'mul(' * (p - 1)}a{', a)' * (p - 1)}\n", "chain"
    if 4 * comb(r + p - 1, p) < 5 * r * r:
        unit = [tuple(int(i == k) for i in range(r)) for k in range(r)]
        groups = {}
        for mono in combinations_with_replacement(range(r), p):
            e = unit[mono[0]]
            for k in mono[1:]:
                e = flat_mul(e, unit[k], struct_rows, modulus)
            c = multinomial([mono.count(k) for k in set(mono)])
            groups.setdefault(tuple(c * x % modulus for x in e), []).append(mono)
        source, form = flat_mul_source(list(groups.items()), r, modulus, "a" * p), "expansion"
    return _define(source, f"<flat_pow rank {r} {form}>", "pth", mul=mul)


def _tuple(names) -> str:
    return f"({', '.join(names)},)"


def ghost_pass_source(p: int, rank: int, widths, levels: int, modulus: int, base: int) -> str:
    """Straight-line source of ``ghost_pass(pth, columns)``: components
    1..``levels`` of the Witt sum of columns of these widths (summands per
    column; the columns above them are zero), as ``wittcore.ghost_sum``
    defines them, on rank-``rank`` coordinates modulo ``modulus``.

    Level l raises every summand of each lower column i, then S_i, with
    ``pth`` once, in that order.  Each numerator coordinate is one integer
    sum reduced once modulo ``modulus``; above level 1 it is checked for a
    remainder modulo q = p^(l-1), which raises ``indivisible(coordinate,
    q)``, and only then divided.  Each S_l is reduced modulo ``base`` as
    soon as it is computed.
    """
    for x in (p, rank, levels, base):
        _checked_int(x)
    if _checked_int(modulus) < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    given = len(widths)
    widths = [_checked_int(w) for w in widths] + [0] * (levels - given)
    coords = range(rank)
    lines = ["def ghost_pass(pth, columns):"]
    if given:
        lines.append(f"    {_tuple(f'c{i}' for i in range(given))} = columns")
    for i in range(given):
        lines.append(f"    {_tuple(f'y{i}_{j}' for j in range(widths[i]))} = c{i}")
    for l in range(levels):
        for i in range(l):
            lines += [f"    y{i}_{j} = pth(y{i}_{j})" for j in range(widths[i])]
            lines.append(f"    s{i} = pth(s{i})")
        tuples = [f"y{i}_{j}" for i in range(l + 1) for j in range(widths[i])]
        tuples += [f"s{i}" for i in range(l)]
        lines += [f"    {_tuple(f'{t}_{k}' for k in coords)} = {t}" for t in tuples]
        q = p**l
        for k in coords:
            groups = []
            for i in range(l + 1):
                group = " + ".join(f"y{i}_{j}_{k}" for j in range(widths[i]))
                if i < l:
                    group = f"{group} - s{i}_{k}" if group else f"-s{i}_{k}"
                if group:
                    groups.append(group if i == 0 else f"{p**i} * ({group})")
            lines.append(f"    s{l}_{k} = ({' + '.join(groups) or 0}) % {modulus}")
            if q > 1:
                lines.append(f"    if s{l}_{k} % {q}:")
                lines.append(f"        raise indivisible(s{l}_{k}, {q})")
                lines.append(f"    s{l}_{k} //= {q}")
        lines.append(f"    o{l} = {_tuple(f's{l}_{k} % {base}' for k in coords)}")
        if l < levels - 1:
            lines.append(f"    s{l} = {_tuple(f's{l}_{k}' for k in coords)}")
    lines.append(f"    return {_tuple(f'o{l}' for l in range(levels))}")
    return "\n".join(lines) + "\n"


@cache
def compile_ghost_pass(
    p: int, rank: int, widths: tuple, levels: int, modulus: int, base: int, indivisible
):
    """The ghost pass of this shape (``ghost_pass_source``) as a function
    ``ghost_pass(pth, columns)``, compiled once for each set of arguments
    and shared by every ring they fit; ``pth`` is x -> x^p on the lifted
    ring, and ``indivisible(c, q)`` the exception raised for a numerator
    coordinate c with a remainder modulo q."""
    source = ghost_pass_source(p, rank, widths, levels, modulus, base)
    name = f"<ghost_pass rank {rank} widths {tuple(widths)} levels {levels}>"
    return _define(source, name, "ghost_pass", indivisible=indivisible)


def _linear_terms(row, names, modulus: int) -> list:
    """The terms row[m] * names[m] of a linear form, the entries inlined as
    the representatives of least absolute value modulo ``modulus``, and
    zero entries left out."""
    terms = []
    for c, a in zip(row, names):
        c = _checked_int(c) % modulus
        if 2 * c > modulus:
            c -= modulus
        if c:
            terms.append(a if c == 1 else f"-{a}" if c == -1 else f"{c} * {a}")
    return terms


def witt_trace_pass_source(p: int, rows, count: int, levels: int, modulus: int, base: int) -> str:
    """Straight-line source of ``trace_pass(pth_L, pth_K, components)``:
    components 1..``levels`` of the Witt trace of (x_1, ..., x_count, 0,
    ...), given x_1..x_count on the top ring's coordinates, on the
    coordinates of the ring below, with ``rows`` the field trace as a
    matrix from the first to the second, modulo ``modulus``.

    The ghost map commutes with the Galois action, so the l-th ghost
    component of the Witt trace is tr(w_l(x)), and

        S_l = (tr(sum_{i<=l} p^(i-1) x_i^(p^(l-i))) - sum_{i<l} p^(i-1) S_i^(p^(l-i))) / p^(l-1).

    Level l raises each lower x_i with ``pth_L`` and each S_i with
    ``pth_K`` once, in that order, sums p^(i-1) x_i coordinate by
    coordinate, and applies the rows to that sum.  The numerator, division
    check and reductions are those of ``ghost_pass_source``: a remainder
    modulo p^(l-1) raises ``indivisible(coordinate, q)``.
    """
    for x in (p, count, levels, base):
        _checked_int(x)
    if _checked_int(modulus) < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("the trace needs at least one row, all of one length")
    coords, below = range(len(rows[0])), range(len(rows))
    used = [k for k in coords if any(_checked_int(row[k]) % modulus for row in rows)]
    lines = ["def trace_pass(pth_L, pth_K, components):"]
    if count:
        lines.append(f"    {_tuple(f'x{i}' for i in range(count))} = components")
    for l in range(levels):
        given = range(min(l + 1, count))
        lines += [f"    x{i} = pth_L(x{i})" for i in given if i < l]
        lines += [f"    s{i} = pth_K(s{i})" for i in range(l)]
        lines += [f"    {_tuple(f'x{i}_{k}' for k in coords)} = x{i}" for i in given]
        lines += [f"    {_tuple(f's{i}_{r}' for r in below)} = s{i}" for i in range(l)]
        sums = {}  # coordinate -> the name of its sum, for the columns the rows use
        for k in used:
            terms = [f"x{i}_{k}" if i == 0 else f"{p**i} * x{i}_{k}" for i in given]
            if len(terms) > 1:
                lines.append(f"    t{k} = {' + '.join(terms)}")
                sums[k] = f"t{k}"
            elif terms:
                sums[k] = terms[0]
        q = p**l
        for r in below:
            row = [rows[r][k] for k in sums]
            total = " + ".join(_linear_terms(row, sums.values(), modulus)) or "0"
            lower = " + ".join(f"s{i}_{r}" if i == 0 else f"{p**i} * s{i}_{r}" for i in range(l))
            lines.append(f"    s{l}_{r} = ({total}{f' - ({lower})' if lower else ''}) % {modulus}")
            if q > 1:
                lines.append(f"    if s{l}_{r} % {q}:")
                lines.append(f"        raise indivisible(s{l}_{r}, {q})")
                lines.append(f"    s{l}_{r} //= {q}")
        lines.append(f"    o{l} = {_tuple(f's{l}_{r} % {base}' for r in below)}")
        if l < levels - 1:
            lines.append(f"    s{l} = {_tuple(f's{l}_{r}' for r in below)}")
    lines.append(f"    return {_tuple(f'o{l}' for l in range(levels))}")
    return "\n".join(lines) + "\n"


@cache
def compile_witt_trace_pass(
    p: int, rows: tuple, count: int, levels: int, modulus: int, base: int, indivisible
):
    """The Witt trace pass of this shape (``witt_trace_pass_source``) as a
    function ``trace_pass(pth_L, pth_K, components)``, compiled once for
    each set of arguments; ``pth_L`` and ``pth_K`` are x -> x^p on the
    lifted top ring and the lifted ring below, and ``indivisible`` is as
    for ``compile_ghost_pass``."""
    source = witt_trace_pass_source(p, rows, count, levels, modulus, base)
    name = f"<witt_trace_pass {len(rows)}x{len(rows[0])} count {count} levels {levels}>"
    return _define(source, name, "trace_pass", indivisible=indivisible)


def flat_linear_source(matrix, modulus: int) -> str:
    """Straight-line source of ``apply(a)``, the matrix times the column
    ``a`` modulo ``modulus``.

    Zero entries are left out, the others are inlined as the
    representatives of least absolute value, and every output coordinate
    is reduced once; a row with no nonzero entry returns 0.
    """
    if _checked_int(modulus) < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    if not matrix or not matrix[0]:
        raise ValueError("a matrix needs at least one row and one column")
    cols = len(matrix[0])
    names = [f"a{m}" for m in range(cols)]
    outs = []
    for r, row in enumerate(matrix):
        if len(row) != cols:
            raise ValueError(f"matrix row {r} has {len(row)} entries, need {cols}")
        terms = _linear_terms(row, names, modulus)
        outs.append(f"({' + '.join(terms)}) % {modulus}" if terms else "0")
    a = ", ".join(names)
    return f"def apply(a):\n    ({a},) = a\n    return ({', '.join(outs)},)\n"


def compile_flat_linear(matrix, modulus: int):
    """The matrix acting on flattened coordinates modulo ``modulus``, as a
    function ``apply(a)`` compiled once; it returns the tuple of
    ``sum_m matrix[r][m] * a[m] % modulus`` over the rows r."""
    source = flat_linear_source(matrix, modulus)
    return _define(source, f"<flat_linear {len(matrix)}x{len(matrix[0])}>", "apply")
