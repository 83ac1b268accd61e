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
``tests/oracles.py``, and
``compile_tower_draws`` unrolls a tower's element draws from the
rejection loop of ``localfield._uniform``, their reference, and
``compile_kernel_redraw`` the sampler's draw of a trace-kernel
component with its memo key, redrawn while the key is known to fail.

The package calls them through ``kernels``.
"""

from functools import cache
from itertools import combinations_with_replacement
from math import comb, factorial, gcd, prod
from operator import itemgetter


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
    ``factors`` "a" * p and cells of p indices of ``pth(a)`` = a^p.

    Each group's cells (i, j, ...) are summed once, as terms a_i * b_j *
    ...  A unit row (one coordinate equal to 1) adds that sum to its
    coordinate directly; any other row scales it by the row's constants,
    inlined as the representatives of least absolute value, after one
    reduction modulo ``modulus`` in a product; a power's degree-p sums are
    scaled unreduced (0.84 of the reduced power's time, median of timings
    at ranks 2-8).  Every output coordinate is reduced once, at the end.
    """
    _positive(modulus)
    names = sorted(set(factors))
    lines = [f"def {'mul' if len(names) > 1 else 'pth'}({', '.join(names)}):"]
    coords = range(_checked_int(rank))
    lines += [f"    ({', '.join(f'{v}{i}' for i in coords)},) = {v}" for v in names]
    terms = [[] for _ in range(rank)]
    for g, (row, cells) in enumerate(plan):
        total = " + ".join(
            " * ".join(f"{v}{_checked_int(k)}" for v, k in zip(factors, cell)) for cell in cells
        )
        consts = [(k, _least_residue(c, modulus)) for k, c in enumerate(row)]
        consts = [(k, c) for k, c in consts if c]
        if len(consts) == 1 and consts[0][1] == 1:
            terms[consts[0][0]].append(total)
            continue
        lines.append(f"    g{g} = " + (f"({total}) % {modulus}" if len(names) > 1 else total))
        for k, c in consts:
            terms[k].append(f"g{g}" if c == 1 else f"{c} * g{g}")
    lines.append(f"    return {_tuple(_reduced_sum(t, modulus) for t in terms)}")
    return "\n".join(lines) + "\n"


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
    pairs (r, w(r)) in increasing weight.  g = gcd(p^digits, c_0, c_1, ...)
    is p^v, v = min_r v_p(c_r), and ``scaled[g]`` is v*e.  The weights are
    distinct and below e, so the minimum is v*e + w(r) for the least-weight
    r with c_r nonzero modulo p^(v+1), and some r has one, so the last is
    not tested."""
    modulus = _checked_int(p) ** _checked_int(digits)
    names = [f"a{m}" for m in range(len(by_weight))]
    lines = ["def val_raw(a):", f"    {_tuple(names)} = a", f"    g = gcd({modulus}, {', '.join(names)})"]
    lines += [f"    if g == {modulus}:", "        return None", f"    q = g * {p}"]
    for r, w in by_weight[:-1]:
        lines += [f"    if a{_checked_int(r)} % q:", f"        return scaled[g] + {_checked_int(w)}"]
    lines.append(f"    return scaled[g] + {_checked_int(by_weight[-1][1])}")
    scaled = {p**v: v * len(by_weight) for v in range(digits)}
    source = "\n".join(lines) + "\n"
    return _define(source, f"<flat_val rank {len(by_weight)}>", "val_raw", gcd=gcd, scaled=scaled)


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


def compile_tower_draws(p: int, rank_L: int, rank_K: int, modulus: int, mul, pi_power):
    """A tower's element draws, functions of ``getrandbits`` that draw each
    coordinate below ``modulus`` in turn (``uniform_lines``), compiled once:
    ``draw_L``, an O_L element; ``draw_spread(getrandbits, cap)``, the same
    times ``pi_power(s)`` (by ``mul``) for a shift s below max(1, cap // 3);
    ``draw_K``, an O_K element followed by O_L's zero tail; and ``draw_unit``,
    ``draw_L`` until coordinate 0, of weight 0, is a unit (valuation 0)."""
    names = [f"a{m}" for m in range(_checked_int(rank_L))]
    coords, elem = uniform_lines(names, _checked_int(modulus)), _tuple(names)
    lines = ["def draw_L(getrandbits):", *coords, f"    return {elem}"]
    lines += ["def draw_spread(getrandbits, cap):", *coords, "    m = cap // 3", "    if m < 1:"]
    lines += ["        m = 1", *uniform_lines(["s"], "m"), "    if s:"]
    lines += [f"        return mul({elem}, pi_power(s))", f"    return {elem}"]
    lines += ["def draw_K(getrandbits):", *uniform_lines(names[:rank_K], modulus)]
    lines.append(f"    return {_tuple(names[:rank_K] + ['0'] * (rank_L - rank_K))}")
    lines += ["def draw_unit(getrandbits):", "    while True:", "        a = draw_L(getrandbits)"]
    lines += [f"        if a[0] % {_checked_int(p)}:", "            return a"]
    return _define(
        "\n".join(lines) + "\n", f"<tower_draws rank {rank_L}>",
        "draw_L draw_spread draw_K draw_unit", mul=mul, pi_power=pi_power,
    )


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
