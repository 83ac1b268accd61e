"""Slow reference forms of the fast paths, kept as their test oracles.

* The ring primitives that run on one C-level call each:
  ``FlatRing.val_raw`` and ``ExtensionTower._zero_raw`` (one gcd) and the
  draws of ``localfield._uniform`` (getrandbits).  These are the
  per-coordinate loops and the plain ``rng.randrange`` calls they
  replaced; the test modules compare the fast forms against them, and
  the field-lemma oracles in ``test_cohomlab`` draw and take valuations
  through them only.
* ``ValExtended``, the valuation-at-the-cap rule as an object (a value,
  or "at least cap"; margins taken at the cap; a bound past the cap
  refused), and ``_update_margin``: the form ``cohomlab.at_cap`` and
  ``cohomlab._at_least`` replaced.  The OElem oracles below take every
  valuation through it, on the per-coordinate valuation loop
  (``vL_by_coordinates``, ``vK_by_coordinates``).
* The Witt lemmas ``carry_identity`` and ``residual_invariant`` on OElem
  components: each sample's flat components wrapped in elements, Galois
  conjugates one element at a time, the residual through
  ``wittcore.carry_value`` on rows with an explicit zero column, and
  every check through the OElem dunders and ``ValExtended``.
  ``step_bounds`` and ``main`` likewise on OElem components.
  ``cohomlab`` runs these lemmas on flat coordinate tuples; their
  reports must agree byte for byte.
* ``wittcore.ghost_sum`` as the level-by-level loop it replaced
  (``ghost_sum_by_loops``): per-level list comprehensions over the
  columns, and one ``divide_exact`` call per level.  The package runs a
  straight-line pass compiled per shape; both must give the same
  components and raise the same IntegralityViolation.
* ``WittVec.__neg__`` as the column-by-column solve it replaced
  (``negative_by_columns``), one ``ghost_sum`` pass per carry: the oracle
  of the one-pass negative past the negation tables.
* Witt sums and negatives by evaluating the addition and negation
  polynomials (``polynomial_witt_sum``, ``polynomial_witt_neg``) at
  values that add and multiply with ints: ints, MPolys or OElems.  Over
  a tower ring ``flat_witt_sum`` and ``flat_witt_neg`` take and return
  flat coordinate tuples, as ``WittVec`` holds them, and evaluate on
  OElems, wrapped and unwrapped here.  The package sums, carries and
  negates only through ``wittcore.ghost_sum``; every test of that path
  compares it with these.
* The structure rows of O_L cell by cell (``struct_by_cells``), as
  ``build_rings`` made them before it built each distinct row once.
* The component polynomials of a p-fold sum by folding the binary
  addition polynomials (``pfold_components_by_folding``), which
  ``wittcore.PFoldDecomposition`` solves from their ghost identities.
* sigma^i by substitution (``substitute``, ``conjugates_by_substitution``):
  the coefficient polynomial of an element, its O_K coefficients of the
  powers of pi_L, evaluated by Horner at sigma^i(pi_L), which is
  sigma(pi_L) substituted into itself i - 1 times.  The package builds sigma's matrix from the powers of
  sigma(pi_L) and sigma^i by applying it; these are its oracle.
* The roots of E_L by the digit-by-digit search that Newton's method
  replaced (``roots_by_digit_search``), and ``DigitSearchTower``, a tower
  whose sigma is chosen from them by the old rule (the first root in the
  sorted order of its coordinates).  The search grows every candidate by
  one pi_L-adic digit at a time, so its roots are zeros of E_L modulo
  p^N_int but not always reductions of roots in O_L; the tests compare
  the Newton roots with them to N_int - 2 digits, and the decisions to
  build or refuse on a list of small Eisenstein polynomials.  Such a
  root fails the build's exact comparison of the sum of sigma^i with
  the trace from E_L's power sums on most towers, so this oracle of the
  root skips that comparison (``_check_trace``).
  ``PowerSigmaTower`` takes sigma^k as its generator, for the tests that
  a verdict does not depend on the generator; it overrides
  ``ExtensionTower._sigma_root`` alone.
* A particular solution plus a combination of the trace-kernel basis as
  the loop over the basis (``kernel_elem_by_loop``); the package applies
  the ``combine`` of ``ExtensionTower.trace_kernel_maps``, one matrix
  [I | K] compiled per tower, whose residues at p^delta the same pair's
  ``redraw`` computes as the sampler's memo keys.
* ``wrong_in_last``, a solve whose answers are off by one in the last
  coordinate, which sigma moves: the wrong solve the postconditions and
  oracles must catch; and ``trace_rows_off_by_one``, the trace from
  E_L's power sums with one entry off by one, which the build must
  refuse.
* The cascade s(1 - p^-i) as the sum (s(p-1)/p) * sum_{k<i} p^-k in
  exact rationals (``cascade``), and the step bound and the stable length
  read from it (``step_bound_by_cascade``, ``stable_witt_length_by_cascade``):
  the oracle of ``cohomlab.step_bound`` and ``stable_witt_length``, which
  use the closed forms s - s // p^i and the least M with p^(M-1) > s.
* ``unflatten``, ``int_elem``, ``is_zero_at_precision``, ``eq_at_precision``,
  ``in_K_at_precision``, ``pi_K`` and ``project_to_K``: OElem helpers
  that only the tests use, and ``zmod``, Z/p^k as a rank-1 tower ring.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import repeat

from wittlab import cohomlab, wittcore
from wittlab.cohomlab import _base_report, witt_length
from wittlab.exactpoly import MPoly
from wittlab.localfield import (
    ExtensionTower,
    NotNormal,
    OElem,
    PrecisionTooLow,
    _eval_top,
    build_rings,
)
from wittlab.wittcore import PFOLD_RANGE, IntegralityViolation, ctx_for, fold_var, xvar, yvar


@dataclass(frozen=True)
class ValExtended:
    """A valuation that is either exactly known or at least the cap."""

    value: int | None
    cap: int

    @property
    def finite(self) -> bool:
        return self.value is not None

    def capped(self) -> int:
        """The value, or the cap when it is only known to be at least that."""
        return self.cap if self.value is None else self.value

    def at_least(self, bound: int) -> bool:
        """Decide ``v >= bound``; refuses bounds beyond the cap."""
        if bound > self.cap:
            raise PrecisionTooLow(
                f"assertion v >= {bound} exceeds the valuation cap {self.cap}"
            )
        if self.value is None:
            return True
        return self.value >= bound

    def __repr__(self) -> str:
        if self.value is None:
            return f">= {self.cap}"
        return str(self.value)

    @classmethod
    def at_cap(cls, v: int | None, cap: int) -> "ValExtended":
        """A ring valuation (``val_raw``; None is zero at working
        precision) reported at the cap: at or past it, "at least cap"."""
        return cls(None if v is None or v >= cap else v, cap)


def _update_margin(margins: dict, key: str, value: int) -> None:
    if key not in margins or value < margins[key]:
        margins[key] = value


def polynomial_witt_sum(p, rows) -> tuple:
    """The components of the left-to-right Witt sum of ``rows``, equal
    length sequences of values that add and multiply with ints (ints,
    MPolys or OElems), by evaluating the addition polynomials."""
    ctx = ctx_for(p, len(rows[0]))
    acc = tuple(rows[0])
    for row in rows[1:]:
        assign = {}
        for j in range(1, ctx.n + 1):
            assign[xvar(j)] = acc[j - 1]
            assign[yvar(j)] = row[j - 1]
        acc = tuple(phi.eval(assign) for phi in ctx.addition)
    return acc


def polynomial_witt_neg(p, row) -> tuple:
    """The components of the Witt negative of ``row``, values as for
    ``polynomial_witt_sum``, by evaluating the negation polynomials."""
    assign = dict(enumerate(row))
    return tuple(iota.eval(assign) for iota in ctx_for(p, len(row)).negation)


def flat_witt_sum(ring, rows) -> tuple:
    """``polynomial_witt_sum`` over a tower ring on rows of flat coordinate
    tuples: each entry wrapped in an OElem, each component unwrapped."""
    values = polynomial_witt_sum(ring.p, [[OElem(ring, c) for c in row] for row in rows])
    return tuple(v.data for v in values)


def flat_witt_neg(ring, row) -> tuple:
    """``polynomial_witt_neg`` over a tower ring, on flat coordinate tuples."""
    return tuple(v.data for v in polynomial_witt_neg(ring.p, [OElem(ring, c) for c in row]))


def pfold_components_by_folding(p, n) -> list:
    """The component polynomials of a sum of p length-n vectors, in the
    p-fold variables (``fold_var``), by folding the binary addition
    polynomials p - 1 times with ``MPoly.eval``: the construction that
    ``PFoldDecomposition`` replaced by solving the sum's own ghost
    identities."""
    rows = [[MPoly.var(fold_var(p, i, j)) for j in range(1, n + 1)] for i in range(1, p + 1)]
    acc = rows[0]
    for row in rows[1:]:
        assign = {}
        for j in range(1, n + 1):
            assign[xvar(j)] = acc[j - 1]
            assign[yvar(j)] = row[j - 1]
        acc = [phi.eval(assign) for phi in ctx_for(p, n).addition]
    return acc


@cache
def zmod(p, digits):
    """Z/p^digits as a tower ring: O_K for K = Q_p, of rank 1, built once
    per (p, digits) so that vectors over it share one ring."""
    return build_rings(p, [-p], [p] + [0] * (p - 1), digits)[0]


def roots_by_digit_search(L, dv, s_pre) -> list:
    """The roots of E_L other than pi_L, in sorted order, found in ``L``
    (O_L at N_int digits) by growing a tree of candidates one pi_L-adic
    digit at a time down to depth cap_int - dv, where cap_int = e_L*N_int
    and dv = v_L(E_L'(pi_L)).  NotNormal when the tree passes 4p^2
    candidates or does not end in p roots with pi_L among them."""
    p = L.p
    pi = L.pi_elem
    cap_int = L.flat_rank * L.digits
    k_stop = cap_int - dv
    pi_pows = [L.one_elem]
    for _ in range(k_stop):
        pi_pows.append(L.mul(pi_pows[-1], pi))
    digits = [L.from_int(d) for d in range(p)]

    def threshold(k: int) -> int:
        return min(k + (p - 1) * min(k, s_pre + 1), cap_int)

    candidates = [L.zero_elem]
    for k in range(k_stop):
        t = threshold(k + 1)
        nxt = []
        for cand in candidates:
            for d in range(p):
                c2 = cand if d == 0 else L.add(cand, L.mul(digits[d], pi_pows[k]))
                v = L.val_raw(_eval_top(L, c2))
                if v is None or v >= t:
                    nxt.append(c2)
        candidates = nxt
        if len(candidates) > 4 * p * p:
            raise NotNormal("root search diverged; step is not a clean Galois step")
    roots = [c for c in candidates if L.val_raw(_eval_top(L, c)) is None]
    if len(roots) != p:
        raise NotNormal(
            f"found {len(roots)} roots of the top polynomial at precision, need {p}"
        )
    others = sorted(r for r in roots if r != pi)
    if len(others) != p - 1:
        raise NotNormal("uniformizer is not among the lifted roots")
    return others


def substitute(L, a, point):
    """The coefficient polynomial of ``a`` in O_L, sum_j a_j*pi_L^j with
    a_j in O_K, evaluated at ``point`` by Horner."""
    acc = L.zero_elem
    for j in range(L.p - 1, -1, -1):
        acc = L.add(L.mul(acc, point), L.embed(L.coeff(a, j)))
    return acc


def pi_conjugates_by_substitution(tower) -> tuple:
    """sigma^i(pi_L) for i = 0, ..., p-1: sigma(pi_L) substituted into
    sigma^(i-1)(pi_L)."""
    conj = [tower.L.pi_elem]
    for _ in range(tower.p - 1):
        conj.append(substitute(tower.L, conj[-1], tower.sigma_root))
    return tuple(conj)


def conjugates_by_substitution(tower, a) -> tuple:
    """sigma^i(a) for i = 0, ..., p-1, each by substitution."""
    return tuple(substitute(tower.L, a, point) for point in pi_conjugates_by_substitution(tower))


class DigitSearchTower(ExtensionTower):
    """An ``ExtensionTower`` whose sigma is the first of the roots
    ``roots_by_digit_search`` finds, in sorted order; the dv checks before
    it and the order checks after it are the package's.  It skips the
    comparison of the sum of sigma^i with the trace from E_L's power sums,
    which a root exact only to N_int - 2 digits fails."""

    def _sigma_root(self, dv: int, s_pre: int):
        return roots_by_digit_search(self.L, dv, s_pre)[0]

    def _check_trace(self, rows: tuple) -> None:
        pass


class PowerSigmaTower(ExtensionTower):
    """An ``ExtensionTower`` whose generator is sigma^k for the package's
    sigma: its root is sigma's substituted into itself k - 1 times."""

    def __init__(self, k: int, *args):
        self.k = k
        super().__init__(*args)

    def _sigma_root(self, dv: int, s_pre: int):
        root = point = super()._sigma_root(dv, s_pre)
        for _ in range(self.k - 1):
            point = substitute(self.L, point, root)
        return point


def _rebuild_args(tower) -> tuple:
    """The arguments that build ``tower`` again, at the same N: its rings'
    Eisenstein coefficients, which they keep unreduced, and its
    description."""
    return list(tower.K.ecoeffs), [list(c) for c in tower.L.ecoeffs], tower.description


def tower_by_digit_search(tower) -> DigitSearchTower:
    """``tower`` built again, at the same N, with the digit-search sigma."""
    return DigitSearchTower(*_rebuild_args(tower))


def tower_with_sigma_power(tower, k) -> PowerSigmaTower:
    """``tower`` built again, at the same N, with sigma^k as its generator."""
    return PowerSigmaTower(k, *_rebuild_args(tower))


def kernel_elem_by_loop(tower, base, coeffs) -> tuple:
    """``base`` plus sum of r_k * k over ``tower.trace_kernel_flat``, one
    basis vector at a time, reduced at the end."""
    acc = base
    for r, k in zip(coeffs, tower.trace_kernel_flat):
        acc = [a + r * c for a, c in zip(acc, k)]
    return tower.L.reduce(acc)


def wrong_in_last(solve):
    """``solve`` with its particular's last coordinate one too large; basis
    element 1 is fixed by sigma, so a wrong "y + 1" must be taken in a
    coordinate sigma moves."""

    def wrong(*args):
        x, delta = solve(*args)
        return x[:-1] + (x[-1] + 1,), delta

    return wrong


def trace_rows_off_by_one(monkeypatch, r, m):
    """Patch ``ExtensionTower.trace_rows`` so that its entry (r, m), taken
    modulo the rows' shape, is one too large."""
    true_rows = ExtensionTower.trace_rows

    def off_by_one(self, digits):
        rows = [list(row) for row in true_rows(self, digits)]
        row = rows[r % len(rows)]
        row[m % len(row)] = (row[m % len(row)] + 1) % self.p**digits
        return tuple(map(tuple, rows))

    monkeypatch.setattr(ExtensionTower, "trace_rows", off_by_one)


def struct_by_cells(tower) -> tuple:
    """O_L's structure rows as ``build_rings`` made them before equal rows
    were shared: each cell (r, m), r = j*e_K + i and m = jj*e_K + ii, its
    own p O_K products, pi_K^(i+ii) times each O_K coefficient of
    pi_L^(j+jj), with pi_L's powers by one multiply each from E_L."""
    K, p, e, el = tower.K, tower.p, tower.e_K, tower.L.ecoeffs
    pl = [[K.one_elem] + [K.zero_elem] * (p - 1)]
    for _ in range(2 * p - 2):
        x = pl[-1]
        pl.append([K.sub(lo, K.mul(x[-1], c)) for lo, c in zip([K.zero_elem] + x[:-1], el)])
    index = [(i, j) for j in range(p) for i in range(e)]
    return tuple(
        tuple(
            tuple(x for c in pl[j + jj] for x in K.mul(K.pow(K.pi_elem, i + ii), c))
            for ii, jj in index
        )
        for i, j in index
    )


def unflatten(ring, coords) -> OElem:
    """The element of ``ring`` with these flat coordinates, reduced."""
    return OElem(ring, ring.reduce(coords))


def int_elem(ring, k: int) -> OElem:
    """The integer k as an element of ``ring``."""
    return OElem(ring, ring.from_int(k))


def is_zero_at_precision(tower, a: OElem) -> bool:
    """v(a) >= cap: every coordinate is 0 modulo p^N (``_zero_raw``)."""
    return tower._zero_raw(a.data)


def eq_at_precision(tower, a: OElem, b: OElem) -> bool:
    return is_zero_at_precision(tower, a - b)


def in_K_at_precision(tower, a: OElem) -> bool:
    """Every pi_L coefficient of an O_L element beyond degree 0 vanishes."""
    return tower._zero_raw(a.data[tower.K.flat_rank :])


def pi_K(tower) -> OElem:
    return OElem(tower.K, tower.K.pi_elem)


def project_to_K(tower, a: OElem) -> OElem:
    """An O_L element that lies in O_K at precision, as an O_K element."""
    return OElem(tower.K, tower.project_to_K_raw(a.data))


def vp_int_by_division(x, p, vmax):
    """The repeated-division p-adic valuation of an integer; None means
    v_p(x) >= vmax (zero at working precision)."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
        if v >= vmax:
            return None
    return v


def val_by_coordinates(ring, a):
    """v_p(c_r)*e + w(r) minimized over the coordinates, one valuation per
    coordinate; None when every coordinate is 0 modulo p^digits."""
    best = None
    for c, w in zip(a, ring.weights):
        v = vp_int_by_division(c, ring.p, ring.digits)
        if v is not None and (best is None or v * ring.flat_rank + w < best):
            best = v * ring.flat_rank + w
    return best


def zero_by_coordinates(tower, coords):
    """Every coordinate is 0 modulo p^N, one remainder per coordinate."""
    m = tower.p**tower.N
    return not any(c % m for c in coords)


def fixed_by_substitution(tower, a):
    """sigma(a) = a at precision, with sigma(a) by substitution."""
    return zero_by_coordinates(tower, tower.L.sub(substitute(tower.L, a, tower.sigma_root), a))


def vL_by_coordinates(tower, a: OElem) -> ValExtended:
    return ValExtended.at_cap(val_by_coordinates(tower.L, a.data), tower.val_cap)


def vK_by_coordinates(tower, a: OElem) -> ValExtended:
    return ValExtended.at_cap(val_by_coordinates(tower.K, a.data), tower.val_cap_K)


def randrange_K_elem(tower, rng) -> OElem:
    return unflatten(tower.K, [rng.randrange(tower.modulus) for _ in range(tower.K.flat_rank)])


def randrange_L_elem(tower, rng, spread_valuation=False) -> OElem:
    """``ExtensionTower.random_L_elem`` drawn with one ``rng.randrange``
    per coordinate, and with ``spread_valuation`` the tower's ``draw_spread``,
    its pi_L power by ``OElem.__pow__``."""
    a = unflatten(tower.L, [rng.randrange(tower.modulus) for _ in range(tower.L.flat_rank)])
    if spread_valuation:
        a = a * tower.pi_L ** rng.randrange(0, max(1, tower.val_cap // 3))
    return a


def randrange_L_unit(tower, rng) -> OElem:
    while True:
        a = randrange_L_elem(tower, rng)
        if val_by_coordinates(tower.L, a.data) == 0:
            return a


def ghost_sum_by_loops(ring, columns, levels) -> tuple:
    """``wittcore.ghost_sum`` level by level: at level l every lower
    column's summands and S_i are raised once with the lifted ring's
    ``pth_power``, the numerator is summed coordinate by coordinate, and
    ``divide_exact`` reduces it and divides it by p^(l-1)."""
    if levels < max(1, len(columns)):
        raise ValueError(f"{len(columns)} columns give no {levels} levels")
    if not all(columns):
        raise ValueError("a column needs at least one summand")
    p, lifted = ring.p, ring.flat_lift(levels - 1)
    pth, modulus = lifted.pth_power, lifted.modulus
    # the current p-powers of each column's summands; a zero column has none
    rows = list(columns) + [[]] * (levels - len(columns))
    powers = []  # the current p-power of each S_i
    sums = []
    for l in range(levels):
        num = lifted.zero_elem
        for i in range(l):
            ys = rows[i] = [pth(y) for y in rows[i]]
            s = powers[i] = pth(powers[i])
            q = p**i
            t = zip(*ys) if ys else repeat(())
            num = [c + q * (sum(y) - u) for c, y, u in zip(num, t, s)]
        q = p**l
        if rows[l]:
            num = [c + q * sum(y) for c, y in zip(num, zip(*rows[l]))]
        s = divide_exact(num, q, modulus)
        powers.append(s)
        sums.append(ring.reduce(s))
    return tuple(sums)


def negative_by_columns(y) -> tuple:
    """``WittVec.__neg__`` as the column-by-column solve it replaced: the
    z with y + z = 0, z_{j+1} = -(y_{j+1} + carry of columns 1..j), one
    ``wittcore.ghost_sum`` pass per carry."""
    ring, y = y.ring, y.components
    z = [ring.neg(y[0])]
    for j in range(1, len(y)):
        carry = wittcore.ghost_sum(ring, list(zip(y, z)), j + 1)[-1]
        z.append(ring.neg(ring.add(y[j], carry)))
    return tuple(z)


def divide_exact(coords, q, modulus) -> tuple:
    """Reduce every coordinate modulo ``modulus``, then divide it by q; a
    remainder is an integrality bug."""
    out = []
    for c in coords:
        d, r = divmod(c % modulus, q)
        if r:
            raise IntegralityViolation(
                f"ghost numerator coordinate {c % modulus} is not divisible by {q}"
            )
        out.append(d)
    return tuple(out)


def residual_by_carry_value(tower, comps, level) -> OElem:
    """The p-fold residual at the conjugate family of OElem components (in
    O_L): the level-l component of the Witt sum of the conjugate rows with
    columns l-1 and l set to zero, which is the carry with column l-1 set
    to zero."""
    rows = [
        [tower.galois(c, i).data for c in comps[: level - 2]] + [tower.L.zero_elem]
        for i in range(tower.p)
    ]
    return OElem(tower.L, wittcore.carry_value(level, rows, tower.L))


def carry_identity_by_elements(tower, samples=200, seed=0, n=None):
    """``cohomlab.verify_carry_identity`` on OElem components."""
    p = tower.p
    n = witt_length("carry_identity", tower, n)
    C = wittcore.alternating_binom_constant(p)
    report = _base_report(
        tower, "carry_identity", {"samples": samples, "seed": seed, "n": n}
    )
    sign_ok = {"minus": True, "plus": True}
    for sample in cohomlab._sampler_mix(tower, n, samples, seed, "carry", report):
        comps = [OElem(tower.L, c) for c in sample.vec.components]
        for level in range(2, n + 1):
            t_l = tower.trace(comps[level - 1])
            t_prev = tower.trace(comps[level - 2])
            t_pow = tower.trace(comps[level - 2] ** p)
            lhs = (-t_l) * p
            base = t_pow - t_prev**p
            h_val = project_to_K(tower, residual_by_carry_value(tower, comps, level))
            cterm = (t_prev**p) * (C * p)
            matched = False
            for sign, rhs in (
                ("minus", base - cterm + h_val * p),
                ("plus", base + cterm + h_val * p),
            ):
                if eq_at_precision(tower, lhs, rhs):
                    matched = True
                else:
                    sign_ok[sign] = False
            if not matched:
                report.record_failure({"seed": sample.seed, "level": level})
    if sign_ok["minus"]:
        report.sign_convention = "minus"
        report.observations["c_term_degenerate"] = C == 0
    elif sign_ok["plus"]:
        report.sign_convention = "plus"
    else:
        report.sign_convention = "neither"
        if not report.failures:
            report.record_failure({"what": "no consistent sign convention"})
    report.observations["carry_constant"] = C
    report.observations["symbolic_sign_convention"] = (
        wittcore.pfold_decomposition(p, n).sign_convention
        if n <= PFOLD_RANGE.get(p, 0)
        else None
    )
    return report


def residual_invariant_by_elements(tower, samples=200, seed=0, n=None):
    """``cohomlab.verify_residual_invariant`` on OElem components, levels
    3..n."""
    p = tower.p
    n = witt_length("residual_invariant", tower, n)
    report = _base_report(
        tower, "residual_invariant", {"samples": samples, "seed": seed, "n": n}
    )
    for sample in cohomlab._sampler_mix(tower, n, samples, seed, "residual", report):
        label = sample.seed
        comps = [OElem(tower.L, c) for c in sample.vec.components]
        for level in range(3, n + 1):
            h_raw = residual_by_carry_value(tower, comps, level)
            if not eq_at_precision(tower, tower.galois(h_raw), h_raw):
                report.record_failure(
                    {"seed": label, "level": level, "what": "not Galois-fixed"}
                )
                continue
            if not in_K_at_precision(tower, h_raw):
                report.record_failure(
                    {"seed": label, "level": level, "what": "not in fixed ring"}
                )
                continue
            vals = [vL_by_coordinates(tower, comps[i]) for i in range(level - 2)]
            if not all(v.finite for v in vals):
                continue
            bound = p * min(v.value for v in vals)
            if bound > tower.val_cap_K - 1:
                continue
            vk = vK_by_coordinates(tower, project_to_K(tower, h_raw))
            margin = vk.capped() - bound
            _update_margin(report.margins, "residual_valuation_slack", margin)
            if not vk.at_least(bound):
                report.record_failure(
                    {
                        "seed": label,
                        "level": level,
                        "what": "valuation bound",
                        "v_K(h)": vk.value,
                        "bound": bound,
                    }
                )
    if "residual_valuation_slack" not in report.margins:
        report.undetermined(
            f"no valuation bound fell below val_cap_K - 1 = {tower.val_cap_K - 1}"
        )
    return report


def cascade(s, p, i) -> Fraction:
    """(s(p-1)/p) * sum_{k<i} p^-k = s(1 - p^-i), the cascaded valuation
    bound i components from the top, in exact rationals."""
    return Fraction(s * (p - 1), p) * sum(Fraction(1, p**k) for k in range(i))


def step_bound_by_cascade(s, p, i) -> int:
    """``cohomlab.step_bound`` as the ceiling of the cascade."""
    frac = cascade(s, p, i)
    return -(-frac.numerator // frac.denominator)


def stable_witt_length_by_cascade(s, p) -> int:
    """``cohomlab.stable_witt_length`` as the least M whose cascade over
    M - 1 components climbs past s - 1."""
    M = 1
    while cascade(s, p, M - 1) <= s - 1:
        M += 1
    return M


def step_bounds_by_elements(tower, samples=200, seed=0, n=None):
    """``cohomlab.verify_step_bounds`` on OElem components, with the
    cascaded bound read from ``cohomlab.step_bound`` at call time."""
    p, s = tower.p, tower.s
    n = witt_length("step_bounds", tower, n)
    report = _base_report(
        tower, "step_bounds", {"samples": samples, "seed": seed, "n": n}
    )
    steps = cohomlab._sampler_mix(tower, n, samples, seed, "steps", report, coboundary_every=4)
    for sample in steps:
        comps = [OElem(tower.L, c) for c in sample.vec.components]
        for i in range(1, n):
            bound = cohomlab.step_bound(s, p, i)
            v = vL_by_coordinates(tower, comps[n - i - 1])
            margin = v.capped() - bound
            _update_margin(report.margins, f"component_{n - i}_slack", margin)
            if not v.at_least(bound):
                report.record_failure(
                    {
                        "seed": sample.seed,
                        "provenance": sample.provenance,
                        "component": n - i,
                        "v_L": v.value,
                        "bound": bound,
                    }
                )
    return report


def main_by_elements(tower, samples=200, seed=0, n=None):
    """``cohomlab.verify_main_theorem`` on OElem components; the sample
    stream and the class decisions are read from ``cohomlab`` at call time,
    and the contrast candidates are the tower's trace-kernel basis."""
    s = tower.s
    M = witt_length("main", tower, n)
    report = _base_report(tower, "main", {"samples": samples, "seed": seed, "M": M})
    for sample in cohomlab._sampler_mix(tower, M, samples, seed, "main", report):
        label = sample.seed
        x1 = OElem(tower.L, sample.vec.components[0])
        v1 = vL_by_coordinates(tower, x1)
        margin = v1.capped() - s
        _update_margin(report.margins, "first_component_slack", margin)
        if not v1.at_least(s):
            report.record_failure(
                {"seed": label, "what": "valuation", "v_L(x1)": v1.value, "s": s}
            )
            continue
        verdict = cohomlab.level1_class_trivial(tower, x1.data)
        if verdict.status == "undetermined":
            report.undetermined(
                f"{label}: class obstruction at depth {verdict.obstruction_depth} "
                f"not certified at N={tower.N}"
            )
        elif verdict.status != "trivial":
            report.record_failure(
                {
                    "seed": label,
                    "what": "class",
                    "verdict": verdict.status,
                    "depth": verdict.obstruction_depth,
                }
            )

    try:
        order = cohomlab.h1_order_level1(tower)
    except cohomlab.NotStabilized as exc:
        report.undetermined(str(exc))
        order = None
    report.observations["h1_order_level1"] = order
    if order is not None and order > 1:
        contrast, undecided = None, 0
        for idx, cand in enumerate(tower.trace_kernel_flat):
            verdict = cohomlab.level1_class_trivial(tower, cand)
            undecided += verdict.status == "undetermined"
            if verdict.status == "nontrivial":
                v = vL_by_coordinates(tower, OElem(tower.L, cand))
                contrast = {
                    "candidate_index": idx,
                    "v_L": v.value,
                    "obstruction_depth": verdict.obstruction_depth,
                }
                if not (v.finite and v.value <= s - 1):
                    report.record_failure(
                        {"what": "contrast valuation", "v_L": v.value, "s": s}
                    )
                break
        if contrast is None and undecided:
            report.undetermined(f"no contrast: {undecided} basis classes undetermined")
        elif contrast is None:
            report.record_failure({"what": "no nontrivial level-one class found"})
        else:
            report.observations["contrast"] = contrast

    if M >= 2:
        observed = None
        below = cohomlab._sampler_mix(tower, M - 1, min(samples, 50), seed, "main-below", report)
        for sample in below:
            x1 = OElem(tower.L, sample.vec.components[0])
            value = vL_by_coordinates(tower, x1).capped()
            observed = value if observed is None else min(observed, value)
        report.observations["min_v_L_x1_at_length_M_minus_1"] = observed
    return report
