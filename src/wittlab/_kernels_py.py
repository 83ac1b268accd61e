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
``compile_flat_ring`` generates once from their own rows
(``flat_mul_source``), and the tests
compare it with ``flat_mul``, and its x -> x^p (``compile_flat_pow``)
with chained products.  In the same way ``compile_flat_linear`` turns a
matrix on flattened coordinates (sigma^i or the trace of a tower) into
a straight-line function, which the tests compare with a plain
matrix-vector product, and ``compile_ghost_pass`` turns one shape of
Witt vector arithmetic in ghost coordinates (summands per column, levels)
at one pair of moduli into one, cached by its arguments.  A linear map
on ghost components chooses the operation: the identity rows give the
Witt sum, minus the identity the negative, and the rows of the field
trace the Witt trace from the top ring of a tower into the ring below.
The tests compare the sum with the loop it replaced, the negative with
the column-by-column solve, and the trace with the conjugates' Witt sum.
``compile_ghost_zero`` shares the pass's lines that raise and unpack the
summands, and only checks each level's ghost component modulo a power
of p: the trace audit's test that a Witt sum is zero, compared in the
tests with that sum built.
``compile_smith_solve`` turns a Smith form U*A*V = diag(p^v) into a
straight-line solve of A*x = c, which the tests compare with the
interpreted ``localfield.linsolve``.  ``compile_flat_val`` unrolls a
ring's valuation in weight order, against the per-coordinate loop in
``tests/oracles.py``, and ``compile_kernel_redraw`` the sampler's draw
of a trace-kernel component with its memo key, redrawn while the key is
known to fail.  ``compile_field_checks`` fuses one sample of each field
lemma, its draws (the rejection loop of ``localfield._uniform``), its
valuations and its maps, into one function per tower; the tests compare
the reports with the lemmas' forms on ``OElem`` and plain ``randrange``.

The package calls them through ``kernels``.
"""

from functools import cache
from itertools import combinations_with_replacement
from math import comb, factorial, gcd, prod
from operator import itemgetter, mul as _mul


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
    out, since they contribute nothing.  Every entry must be an int; a
    row object that several cells share is checked once."""
    r = len(struct_rows)
    groups = {}
    # id of a row object -> (the object, kept so that its id is not reused,
    # and its group's cells, None for a zero row)
    seen = {}
    for i in range(r):
        if len(struct_rows[i]) != r:
            raise ValueError(f"structure row {i} has {len(struct_rows[i])} cells, need {r}")
        for j in range(r):
            cell = struct_rows[i][j]
            if id(cell) not in seen:
                row = tuple(_checked_int(c) for c in cell)
                if len(row) != r:
                    raise ValueError(
                        f"structure cell ({i}, {j}) has {len(row)} coordinates, need {r}"
                    )
                seen[id(cell)] = cell, (groups.setdefault(row, []) if any(row) else None)
            cells = seen[id(cell)][1]
            if cells is not None:
                cells.append((i, j))
    return list(groups.items())


def _checked_int(x) -> int:
    """An integer bound for the generated source; anything else is
    refused, so that source holds only integer literals and local names."""
    if type(x) is not int:
        raise TypeError(f"a compiled constant must be an int, got {type(x).__name__}")
    return x


def _positive(x, what: str = "modulus") -> int:
    """``_checked_int(x)``, refused unless it is at least 1."""
    if _checked_int(x) < 1:
        raise ValueError(f"{what} must be positive, got {x}")
    return x


def flat_mul_source(plan, rank: int, modulus: int, factors: str = "ab") -> str:
    """Straight-line source of ``mul(a, b)`` for a product plan, or with
    ``factors`` "a" * p and cells of p indices of ``pth(a)`` = a^p, from
    ``_plan_terms``: a product's group sums are reduced, a power's are not
    (0.84 of the reduced power's time, median of timings at ranks 2-8), and
    every output coordinate is reduced once, at the end."""
    _positive(modulus)
    names = sorted(set(factors))
    lines = [f"def {'mul' if len(names) > 1 else 'pth'}({', '.join(names)}):"]
    coords = range(_checked_int(rank))
    lines += [f"    ({', '.join(f'{v}{i}' for i in coords)},) = {v}" for v in names]
    body, terms = _plan_terms(plan, rank, modulus, factors, len(names) > 1)
    lines += body
    lines.append(f"    return {_tuple(_reduced_sum(t, modulus) for t in terms)}")
    return "\n".join(lines) + "\n"


def _plan_terms(plan, rank: int, modulus: int, factors, reduce: bool, g: str = "g"):
    """The lines that name a plan's group sums and the terms of its ``rank``
    output coordinates.  A group's cells (i, j, ...) are summed once, as
    ``factors[0]``i * ``factors[1]``j * ...; a unit row adds the sum to its
    coordinate, and any other nonzero row scales it, named ``g``<group> and
    reduced when ``reduce``, by its constants of least absolute value."""
    lines, terms = [], [[] for _ in range(rank)]
    for j, (row, cells) in enumerate(plan):
        total = " + ".join(
            " * ".join(f"{v}{_checked_int(k)}" for v, k in zip(factors, cell)) for cell in cells
        )
        consts = [(k, _least_residue(c, modulus)) for k, c in enumerate(row)]
        consts = [(k, c) for k, c in consts if c]
        if len(consts) == 1 and consts[0][1] == 1:
            terms[consts[0][0]].append(total)
        elif consts:
            lines.append(f"    {g}{j} = " + (f"({total}) % {modulus}" if reduce else total))
            for k, c in consts:
                terms[k].append(f"{g}{j}" if c == 1 else f"{c} * {g}{j}")
    return lines, terms


def _define(source: str, filename: str, names: str, **bound):
    """The function of one name, or the tuple of the functions of several
    space-separated ``names``, defined by generated ``source``: the one place
    such code is run, with no builtins, so it sees only its own names and
    ``bound``."""
    namespace = {"__builtins__": {}, **bound}
    exec(compile(source, filename, "exec"), namespace)
    return itemgetter(*names.split())(namespace)


def compile_flat_ring(struct_rows, p: int, digits: int):
    """The product modulo p^digits on these structure rows, compiled once;
    it returns what ``flat_mul`` does."""
    rank = len(struct_rows)
    source = flat_mul_source(flat_mul_plan(struct_rows), rank, p**digits)
    return _define(source, f"<flat_mul rank {rank}>", "mul")


def compile_flat_val(p: int, digits: int, by_weight):
    """``val_raw(a)``, compiled once from straight-line source:
    v_p(c_r)*e + w(r) minimized over the coordinates of a rank-e ring modulo
    p^digits, None when all are 0 modulo p^digits; ``by_weight`` holds the
    pairs (r, w(r)) in increasing weight (``_val_lines``)."""
    names = [f"a{m}" for m in range(len(by_weight))]
    lines = ["def val_raw(a):", f"    {_tuple(names)} = a"]
    lines += [*_val_lines("v", names, p, digits, by_weight, "return None"), "    return v"]
    source = "\n".join(lines) + "\n"
    scaled = {p**k: k * len(by_weight) for k in range(digits)}
    return _define(source, f"<flat_val rank {len(by_weight)}>", "val_raw", gcd=gcd, scaled=scaled)


def _val_lines(v: str, names, p: int, digits: int, by_weight, zero: str, scaled: str = "scaled"):
    """Lines that set ``v`` to the valuation of the coordinates ``names``,
    which may be unreduced, or run ``zero`` when all are 0 modulo p^digits.
    g = gcd(p^digits, c_0, c_1, ...) is p^k, k = min_r v_p(c_r), ``scaled``
    names the dict p^k -> k*e, and the weights are distinct and below e:
    the valuation is k*e + w(r) for the least-weight r (``by_weight``) with
    c_r nonzero modulo p^(k+1), and some r has one, so the last is untested."""
    modulus = _checked_int(p) ** _checked_int(digits)
    lines = [f"    g = gcd({modulus}, {', '.join(names)})"] + [f"    q = g * {p}"][: len(by_weight) - 1]
    lines += [f"    if g == {modulus}:", f"        {zero}"]
    for r, w in by_weight[:-1]:
        lines += [f"    elif {names[_checked_int(r)]} % q:", f"        {v} = {scaled}[g] + {_checked_int(w)}"]
    return lines + ["    else:", f"        {v} = {scaled}[g] + {_checked_int(by_weight[-1][1])}"]


def uniform_lines(names, modulus) -> list:
    """Source lines that set each local of ``names`` to a draw below
    ``modulus`` (an int, inlined, or a local's name) as ``localfield._uniform``
    does: getrandbits(modulus.bit_length()) until the value is below it."""
    bits = f"{modulus}.bit_length()" if isinstance(modulus, str) else modulus.bit_length()
    lines = []
    for x in names:
        draw = f"{x} = getrandbits({bits})"
        lines += [f"    {draw}", f"    while {x} >= {modulus}:", f"        {draw}"]
    return lines


def compile_kernel_redraw(matrix, modulus: int, residue_modulus: int):
    """``redraw(getrandbits, particular, bad, limit)`` for the matrix [I | K]
    on a particular solution's coordinates followed by kernel coefficients,
    compiled once: it draws the coefficients below ``modulus`` in turn
    (``uniform_lines``), keys the draw by ``matrix`` times it modulo
    ``residue_modulus``, and draws again while the key is in ``bad`` and
    fewer than ``limit`` draws were rejected.  It returns ``(v, key, hits)``:
    the last draw, the particular's coordinates then the coefficients, its
    key and the number of draws rejected before it."""
    _positive(modulus)
    _positive(residue_modulus)
    rank, names = len(matrix), [f"a{m}" for m in range(len(matrix[0]))]
    keys = [_linear_terms(row, names, residue_modulus) for row in matrix]
    keys = [_reduced_sum(t, residue_modulus) for t in keys]
    lines = ["def redraw(getrandbits, particular, bad, limit):"]
    lines += [f"    {_tuple(names[:rank])} = particular", "    hits = 0", "    while True:"]
    lines += ["    " + x for x in uniform_lines(names[rank:], modulus)]
    lines += [f"        key = {_tuple(keys)}", "        if hits >= limit or key not in bad:"]
    lines += [f"            return {_tuple(names)}, key, hits", "        hits += 1"]
    return _define("\n".join(lines) + "\n", f"<kernel_redraw rank {rank}>", "redraw")


def multinomial(counts) -> int:
    """(k_1 + ... + k_m)! / (k_1! ... k_m!)."""
    return factorial(sum(counts)) // prod(factorial(k) for k in counts)


def pth_plan(struct_rows, modulus: int, p: int):
    """The multinomial expansion of x -> x^p modulo ``modulus`` as a plan
    (``flat_mul_source``): monomial a_k1 * ... * a_kp, a cell of p indices,
    has the row of the basis elements k1..kp multiplied (``flat_mul``),
    times its coefficient.  None where its C(r+p-1, p) monomials are not
    fewer than 5/4 of a product's r^2 cells, where the expansion's timing
    and that of p-1 chained products cross."""
    r = len(struct_rows)
    if 4 * comb(r + p - 1, p) >= 5 * r * r:
        return None
    unit, groups = _unit(r), {}
    for mono in combinations_with_replacement(range(r), p):
        e = unit[mono[0]]
        for k in mono[1:]:
            e = flat_mul(e, unit[k], struct_rows, modulus)
        c = multinomial([mono.count(k) for k in set(mono)])
        groups.setdefault(tuple(c * x % modulus for x in e), []).append(mono)
    return list(groups.items())


def compile_flat_pow(struct_rows, modulus: int, p: int, mul):
    """x -> x^p modulo ``modulus``, compiled once, returning what p-1 chained
    calls of ``mul`` (the product compiled from these rows) return: the
    expansion where ``pth_plan`` gives one, else the chain."""
    r, plan = len(struct_rows), pth_plan(struct_rows, modulus, p)
    source, form = f"def pth(a):\n    return {'mul(' * (p - 1)}a{', a)' * (p - 1)}\n", "chain"
    if plan is not None:
        source, form = flat_mul_source(plan, r, modulus, "a" * p), "expansion"
    return _define(source, f"<flat_pow rank {r} {form}>", "pth", mul=mul)


def compile_field_checks(L, K, trace, sigma, prec_modulus: int):
    """A tower's field-lemma checks ``(vktr, vksub, fixed)``, compiled once
    from its rings ``L`` and ``K`` (``localfield.FlatRing``), ``trace`` rows
    and ``sigma``'s matrix; each draws with ``uniform_lines`` from the
    sample's ``getrandbits``, and a zero at precision is 0 modulo
    ``prec_modulus``.  ``vktr(getrandbits, pows, cap, cap_K, s)`` and
    ``vksub(getrandbits, pows, cap, cap_K)`` draw an O_L element, then k
    below len(pows), take a = the element * pows[k] (pi_L^k) and v_L(a),
    and skip (None) a zero, a v_L(a) at or past ``cap`` and a bound past
    ``cap_K``.  Else vktr returns (v_L(a), v_K(tr a), ceil((v_L(a) +
    s(p-1))/p)) and vksub (v_L(a), v_K(tr(a^p) - tr(a)^p), e_K + v_L(a)),
    v_K as ``val_raw`` gives it, with tr(a^p) - tr(a)^p one polynomial in
    the coordinates of a and of the reduced trace (``_power_terms``).
    ``fixed(getrandbits, n)`` draws n O_K elements and returns 1 when sigma
    moves one.  Else it draws an index below n and O_L elements until
    coordinate 0 is a unit u, and returns 2 when the vector with pi_L * u
    added to the indexed component reads fixed, else 0: the others are
    fixed and sigma - 1 is linear, so that is one gcd of (sigma - 1) * pi_L
    on u, and the index is drawn only to keep the stream."""
    p, modulus, rank, e = L.p, L.modulus, L.flat_rank, K.flat_rank
    P = _positive(prec_modulus)
    a, u = [f"a{m}" for m in range(rank)], [f"u{m}" for m in range(rank)]
    c, d = [f"c{m}" for m in range(e)], [f"d{m}" for m in range(e)]
    draw = [*uniform_lines(a, modulus), "    m = len(pows)", *uniform_lines(["k"], "m")]
    draw += [f"    {_tuple(a)} = mul({_tuple(a)}, pows[k])"]
    draw += _val_lines("va", a, p, L.digits, L.by_weight, "return None", "sL")
    draw += ["    if va >= cap:", "        return None"]
    val_K = _val_lines("vk", d, p, K.digits, K.by_weight, "vk = None", "sK")
    traces = [_sum(_linear_terms(row, a, modulus)) for row in trace]
    lines = ["def vktr(getrandbits, pows, cap, cap_K, s):", *draw]
    lines += [f"    bound = -(-(va + s * {p - 1}) // {p})", "    if bound > cap_K - 2:"]
    lines += ["        return None", *(f"    d{i} = {t}" for i, t in enumerate(traces)), *val_K]
    lines += ["    return va, vk, bound", "def vksub(getrandbits, pows, cap, cap_K):", *draw]
    lines += [f"    expected = {e} + va", "    if expected >= cap_K - 1:", "        return None"]
    lines += [f"    t{i} = ({t}) % {modulus}" for i, t in enumerate(traces)]
    (up, ups), (down, downs) = _power_terms(L, "a", trace, "g"), _power_terms(K, "t", _unit(e), "h")
    lines += up + down + [f"    d{i} = {_sum(x)} - ({_sum(y)})" for i, (x, y) in enumerate(zip(ups, downs))]
    lines += [*val_K, "    return va, vk, expected"]
    minus_one = [[x - (r == m) for m, x in enumerate(row)] for r, row in enumerate(sigma)]
    times_pi = [L.mul(L.pi_elem, b) for b in _unit(rank)]  # pi_L times each basis element
    moved = [_sum(_linear_terms(row[:e], c, modulus)) for row in minus_one]
    perturbed = [[sum(map(_mul, row, col)) for col in times_pi] for row in minus_one]
    perturbed = [_sum(_linear_terms(row, u, modulus)) for row in perturbed]
    lines += ["def fixed(getrandbits, n):", "    moved = i = 0", "    while i < n:"]
    lines += ["    " + x for x in uniform_lines(c, modulus)]
    lines += [f"        if gcd({P}, {', '.join(moved)}) != {P}:", "            moved = 1", "        i += 1"]
    lines += ["    if moved:", "        return 1", *uniform_lines(["i"], "n"), "    while True:"]
    lines += ["    " + x for x in uniform_lines(u, modulus)]
    lines += [f"        if u0 % {p}:", "            break", f"    if gcd({P}, {', '.join(perturbed)}) == {P}:"]
    lines += ["        return 2", "    return 0"]
    bound = dict(gcd=gcd, len=len, mul=L.mul, gpth=L.pth_power, hpth=K.pth_power)
    bound.update(sL={p**k: k * rank for k in range(L.digits)}, sK={p**k: k * e for k in range(K.digits)})
    source = "\n".join(lines) + "\n"
    return _define(source, f"<field_checks rank {rank}>", "vktr vksub fixed", **bound)


def _power_terms(ring, v: str, rows, g: str):
    """The lines and the terms of each row of ``rows`` times x^p, x the
    ``ring`` element named v0, v1, ...: ``pth_plan``'s groups, their rows
    mapped through ``rows`` and their sums unreduced, or where it has none
    the rows on x^p from the ring's ``pth_power``, bound as ``g``pth."""
    r, modulus = ring.flat_rank, ring.modulus
    plan, lines, factors = pth_plan(ring.struct, modulus, ring.p), [], v * ring.p
    if plan is None:
        x = [f"{g}x{k}" for k in range(r)]
        lines.append(f"    {_tuple(x)} = {g}pth({_tuple(f'{v}{k}' for k in range(r))})")
        plan, factors = [(row, [(k,)]) for k, row in enumerate(_unit(r))], [f"{g}x"]
    plan = [(tuple(sum(map(_mul, row, col)) for row in rows), cells) for col, cells in plan]
    body, terms = _plan_terms(plan, len(rows), modulus, factors, False, g)
    return lines + body, terms


def _unit(r: int) -> list:
    """The rows of the rank-r identity."""
    return [tuple(int(i == k) for i in range(r)) for k in range(r)]


def _sum(terms) -> str:
    """The unreduced sum of ``terms``, or 0 for none."""
    return " + ".join(terms) or "0"


def _tuple(names) -> str:
    return f"({', '.join(names)},)"


def _least_residue(c, modulus: int) -> int:
    """The representative of ``c`` of least absolute value modulo
    ``modulus``, as generated source inlines a constant."""
    c = _checked_int(c) % modulus
    return c - modulus if 2 * c > modulus else c


def _linear_terms(row, names, modulus: int) -> list:
    """The terms row[m] * names[m] of a linear form, the entries inlined as
    ``_least_residue`` gives them, and zero entries left out."""
    terms = []
    for c, a in zip(row, names):
        c = _least_residue(c, modulus)
        if c:
            terms.append(a if c == 1 else f"-{a}" if c == -1 else f"{c} * {a}")
    return terms


def _reduced_sum(terms, modulus: int) -> str:
    """The sum of ``terms`` reduced modulo ``modulus``, or 0 for none."""
    return f"({' + '.join(terms)}) % {modulus}" if terms else "0"


def _weighted(p: int, groups) -> str:
    """sum_i p^i * groups[i], the empty groups left out."""
    return " + ".join(g if i == 0 else f"{p**i} * ({g})" for i, g in enumerate(groups) if g)


def _unpack_columns(widths) -> list:
    """The line that names summand j of column i ``yi_j``, or none for no
    column."""
    if not widths:
        return []
    columns = (_tuple(f"y{i}_{j}" for j in range(w)) for i, w in enumerate(widths))
    return [f"    {_tuple(columns)} = columns"]


def _level_summands(p: int, widths, l: int, coords, pth: str):
    """Level l+1 of a ghost pass over columns of these widths (those past
    the list are zero): the lines that raise every summand of the columns
    below it once more with ``pth`` and unpack the coordinates of every
    summand it reads, and W_{l+1} = sum_{i<=l} p^i * (column i's summands)
    at each coordinate, an unreduced sum ("" where no summand reaches)."""
    widths = list(widths[: l + 1]) + [0] * (l + 1 - len(widths))
    summands = [(i, f"y{i}_{j}") for i in range(l + 1) for j in range(widths[i])]
    lines = [f"    {y} = {pth}({y})" for i, y in summands if i < l]
    lines += [f"    {_tuple(f'{y}_{k}' for k in coords)} = {y}" for _, y in summands]
    totals = [
        _weighted(p, [" + ".join(f"y{i}_{j}_{k}" for j in range(widths[i])) for i in range(l + 1)])
        for k in coords
    ]
    return lines, totals


def ghost_pass_source(p: int, rows, widths, levels: int, modulus: int, base: int) -> str:
    """Straight-line source of ``ghost_pass(pth_in, pth_out, columns)``:
    components 1..``levels`` of the Witt vector whose ghost components are
    ``rows`` applied to those of the sum of columns of these widths
    (summands per column; the columns above them are zero), on the
    coordinates ``rows`` map to, modulo ``modulus``.  With

        W_l = sum over summands of  sum_{i<=l} p^(i-1) x_i^(p^(l-i)),
        S_l = (rows W_l - sum_{i<l} p^(i-1) S_i^(p^(l-i))) / p^(l-1),

    the identity rows give the Witt sum, minus the identity the negative,
    and the rows of the field trace the Witt trace, since the ghost map
    commutes with the Galois action.

    Level l raises every summand of each lower column with ``pth_in``,
    then each S_i with ``pth_out``, once, and sums W_l unreduced at each
    coordinate a row uses.  Each numerator coordinate is one integer sum
    reduced once modulo ``modulus``; above level 1 a remainder modulo q =
    p^(l-1) raises ``indivisible(coordinate, q)``, and only then is it
    divided.  Each S_l is reduced modulo ``base`` as soon as it is computed.
    """
    for x in (p, levels, base):
        _checked_int(x)
    _positive(modulus)
    if not rows or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError("a ghost pass needs at least one row, all of one length")
    widths = [_checked_int(w) for w in widths]
    coords, outs = range(len(rows[0])), range(len(rows))
    uses = [sum(1 for row in rows if _checked_int(row[k]) % modulus) for k in coords]
    lines = ["def ghost_pass(pth_in, pth_out, columns):", *_unpack_columns(widths)]
    for l in range(levels):
        raised, totals = _level_summands(p, widths, l, coords, "pth_in")
        lines += raised
        lines += [f"    s{i} = pth_out(s{i})" for i in range(l)]
        lines += [f"    {_tuple(f's{i}_{r}' for r in outs)} = s{i}" for i in range(l)]
        sums = {}  # coordinate -> W_l there, named once if several rows use it
        for k, total in zip(coords, totals):
            if uses[k] > 1 and not total.isidentifier():
                lines.append(f"    t{k} = {total}")
                total = f"t{k}"
            if uses[k] and total:
                sums[k] = total if total.isidentifier() else f"({total})"
        q = p**l
        for r in outs:
            total = " + ".join(_linear_terms([rows[r][k] for k in sums], sums.values(), modulus))
            lower = _weighted(p, [f"s{i}_{r}" for i in range(l)])
            total = f"{total or 0} - ({lower})" if lower else total or "0"
            lines.append(f"    s{l}_{r} = ({total}) % {modulus}")
            if q > 1:
                lines.append(f"    if s{l}_{r} % {q}:")
                lines.append(f"        raise indivisible(s{l}_{r}, {q})")
                lines.append(f"    s{l}_{r} //= {q}")
        lines.append(f"    o{l} = {_tuple(f's{l}_{r} % {base}' for r in outs)}")
        if l < levels - 1:
            lines.append(f"    s{l} = {_tuple(f's{l}_{r}' for r in outs)}")
    lines.append(f"    return {_tuple(f'o{l}' for l in range(levels))}")
    return "\n".join(lines) + "\n"


@cache
def compile_ghost_pass(
    p: int, rows: tuple, widths: tuple, levels: int, modulus: int, base: int, indivisible
):
    """``ghost_pass_source`` compiled once for each set of arguments and
    shared by every ring they fit: ``pth_in`` and ``pth_out`` are x -> x^p
    on the lifted rings the rows map from and to, and ``indivisible(c, q)``
    is raised for a numerator coordinate c with a remainder modulo q."""
    source = ghost_pass_source(p, rows, widths, levels, modulus, base)
    shape = f"{len(rows)}x{len(rows[0])} widths {tuple(widths)} levels {levels}"
    return _define(source, f"<ghost_pass {shape}>", "ghost_pass", indivisible=indivisible)


def ghost_zero_source(p: int, rank: int, widths, levels: int, digits: int) -> str:
    """Straight-line source of ``ghost_zero(pth, columns)``: the first
    level l <= ``levels`` at which the ghost component W_l of the Witt sum
    of columns of these widths, on rank-``rank`` coordinates, has a
    coordinate not divisible by p^(digits+l-1), or 0 when none has.

    W_l is the sum ``ghost_pass_source`` starts from, and the check is
    whether that Witt sum is zero modulo p^digits: its components S_i all
    are exactly when every W_l is zero modulo p^(digits+l-1), since
    W_l = sum_{i<=l} p^(i-1) S_i^(p^(l-i)).  Level l raises every summand
    of each lower column with ``pth`` once, as a ghost pass does, and
    reduces each coordinate of W_l once; no S_i is built and nothing is
    divided.
    """
    for x in (p, rank, levels):
        _checked_int(x)
    _positive(digits, "digits")
    widths = [_checked_int(w) for w in widths]
    lines = ["def ghost_zero(pth, columns):", *_unpack_columns(widths)]
    for l in range(levels):
        raised, totals = _level_summands(p, widths, l, range(rank), "pth")
        q = p ** (digits + l)
        tests = [f"({total}) % {q}" for total in totals if total]
        lines += raised
        if tests:
            lines += [f"    if {' or '.join(tests)}:", f"        return {l + 1}"]
    lines.append("    return 0")
    return "\n".join(lines) + "\n"


@cache
def compile_ghost_zero(p: int, rank: int, widths: tuple, levels: int, digits: int):
    """``ghost_zero_source`` compiled once for each set of arguments and
    shared by every ring they fit; ``pth`` is x -> x^p on a ring lifted
    far enough that its modulus is a multiple of p^(digits+levels-1)."""
    source = ghost_zero_source(p, rank, widths, levels, digits)
    shape = f"rank {rank} widths {tuple(widths)} levels {levels}"
    return _define(source, f"<ghost_zero {shape}>", "ghost_zero")


def flat_linear_source(matrix, modulus: int) -> str:
    """Straight-line source of ``apply(a)``, the matrix times the column
    ``a`` modulo ``modulus``.

    Zero entries are left out, the others are inlined as the
    representatives of least absolute value, and every output coordinate
    is reduced once; a row with no nonzero entry returns 0.
    """
    _positive(modulus)
    if not matrix or not matrix[0]:
        raise ValueError("a matrix needs at least one row and one column")
    cols = len(matrix[0])
    names = [f"a{m}" for m in range(cols)]
    outs = []
    for r, row in enumerate(matrix):
        if len(row) != cols:
            raise ValueError(f"matrix row {r} has {len(row)} entries, need {cols}")
        outs.append(_reduced_sum(_linear_terms(row, names, modulus), modulus))
    return f"def apply(a):\n    {_tuple(names)} = a\n    return {_tuple(outs)}\n"


def compile_flat_linear(matrix, modulus: int):
    """The matrix acting on flattened coordinates modulo ``modulus``, as a
    function ``apply(a)`` compiled once; it returns the tuple of
    ``sum_m matrix[r][m] * a[m] % modulus`` over the rows r."""
    source = flat_linear_source(matrix, modulus)
    return _define(source, f"<flat_linear {len(matrix)}x{len(matrix[0])}>", "apply")


def smith_solve_source(pivots, U, V, p: int, modulus: int) -> str:
    """Straight-line source of ``solve(c)`` against a Smith form U*A*V =
    diag(p^v) modulo ``modulus``, a power of p: the particular solution of
    A*x = c and delta, the largest pivot v, as ``linsolve`` returns them.

    u = U*c, each coordinate reduced once.  Then, in the order ``linsolve``
    tests them, each u_k of a pivot v > 0 must be 0 modulo p^v and each u_k
    past the rank must be 0, else ``unsolvable(u_k)`` is raised; only then
    is z_k = u_k / p^v divided, and x = V*z over the first rank columns of
    V.  Constants are inlined as in ``flat_linear_source``.
    """
    for x in (p, *pivots):
        _checked_int(x)
    _positive(modulus)
    if not U or not V:
        raise ValueError("a Smith form needs at least one row and one column")
    if any(len(row) != len(U) for row in U) or any(len(row) != len(V) for row in V):
        raise ValueError("U and V must be square")
    rank = len(pivots)
    cs = [f"c{j}" for j in range(len(U))]
    lines = ["def solve(c):", f"    {_tuple(cs)} = c"]
    for i, row in enumerate(U):
        lines.append(f"    u{i} = ({' + '.join(_linear_terms(row, cs, modulus)) or 0}) % {modulus}")
    tests = [(k, f"u{k} % {p**v}") for k, v in enumerate(pivots) if v]
    for k, test in tests + [(k, f"u{k}") for k in range(rank, len(U))]:
        lines += [f"    if {test}:", f"        raise unsolvable(u{k})"]
    lines += [f"    z{k} = u{k} // {p**v}" for k, v in enumerate(pivots) if v]
    zs = [f"z{k}" if v else f"u{k}" for k, v in enumerate(pivots)]
    outs = []
    for row in V:
        terms = _linear_terms(row[:rank], zs, modulus)
        if len(terms) == 1 and terms[0] in zs:
            outs.append(terms[0])  # u_k is reduced, and so is z_k <= u_k
        else:
            outs.append(_reduced_sum(terms, modulus))
    lines.append(f"    return {_tuple(outs)}, {max(pivots, default=0)}")
    return "\n".join(lines) + "\n"


def compile_smith_solve(pivots, U, V, p: int, modulus: int, unsolvable):
    """``smith_solve_source`` compiled once, with ``unsolvable(u)`` the
    exception raised for the first coordinate u of U*c that fails its test."""
    source = smith_solve_source(pivots, U, V, p, modulus)
    shape = f"{len(U)}x{len(V)} pivots {tuple(pivots)}"
    return _define(source, f"<smith_solve {shape}>", "solve", unsolvable=unsolvable)
