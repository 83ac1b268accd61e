"""Truncated Witt-vector arithmetic via certified integral polynomials.

Everything here is bootstrapped from the ghost polynomials

    w_l(X_1, ..., X_l) = X_1^(p^(l-1)) + p*X_2^(p^(l-2)) + ... + p^(l-1)*X_l.

The addition, negation and p-fold sum polynomials are produced by
solving the ghost identities recursively; the divisions involved are
exact integer divisions, so a successful construction doubles as an
integrality certificate.  They are built the first time something asks
for them, and only inside the symbolic budgets ``BINARY_RANGE`` and
``PFOLD_RANGE``.  They serve ``wittlab polys`` and the p-fold
decomposition and, in the tests, as the oracle of the numeric path; no
vector is summed by evaluating them.

There is one numeric path.  A Witt vector lives over a ring of a tower,
one ``localfield.FlatRing`` per level, and its sums, carries and
negatives, and the Witt trace W(O_L) -> W(O_K), are computed in ghost
coordinates by one pass: for l levels the summands are lifted to the
same ring at l-1 more base digits, a linear map is applied to the sum of
their ghost components, and the result's Witt components are recovered
one level at a time by certified exact division.  The map is the
identity for a sum (``ghost_sum``), minus the identity for a negative,
and the field trace for the Witt trace (``ghost_trace``), since the
ghost map commutes with sigma.  The pass is straight-line code compiled
on first use for each shape (summands per column, levels), moduli and
map, and shared by every ring with those; the division check lives in
that generated code, and a remainder raises IntegralityViolation.
Because the addition polynomials are integral, the result is exactly
what evaluating them gives.  No table is needed here, so a tower vector
may be as long as the tower's precision allows.

The trace-zero sampler takes its carries from ``ghost_trace``, one
p-th-power chain per component where the Witt sum of its p conjugates
needs p.  The sampler's audit and the lemmas keep that Witt sum
(``ghost_sum`` in ``cohomlab.witt_trace``) on purpose: it reads the
field through sigma, where ``ghost_trace`` reads it through E_L's
coefficients, so a fault in either fails the audit, and it is
``ghost_trace``'s oracle in the tests.

The p-fold decomposition splits the l-th component of a sum of p
vectors into the plain coefficient sum plus a carry polynomial, and
splits the carry further into two explicitly p-divisible brackets plus
a deep residual whose monomials all have degree >= p^2; the residual is
defined by subtraction, and the sign of the middle bracket that makes
the degree audit pass is recorded rather than assumed.  The residual
h_l equals carry_l with the column l-1 variables set to zero: it is the
level-l component of the Witt sum of the p rows with columns l-1 and l
set to zero, so numerically it is one ``ghost_sum`` pass over columns
1..l-2 at l levels, and the symbolic residual is needed only as audit
and oracle.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from functools import cache, cached_property, partial
from math import comb
from typing import Sequence

from . import kernels
from .exactpoly import MPoly, NotDivisible

# Symbolic budgets: term counts grow like p^(n-1), so the supported
# window is fixed rather than discovered by timeout.  They bound the
# polynomial tables only; tower-ring arithmetic runs on ``ghost_sum``.
# PFOLD_RANGE[p] is also the default Witt length of carry_identity and
# residual_invariant (``cohomlab.witt_length``), 2 past the tables; the latter's is at least 3.
BINARY_RANGE = {2: 5, 3: 4, 5: 3}
PFOLD_RANGE = {2: 4, 3: 3, 5: 2}


class IntegralityViolation(ArithmeticError):
    """An exact division that is guaranteed to succeed failed.

    This always indicates an implementation bug, never bad input.
    """


class DegreeAuditFailure(AssertionError):
    """A generated polynomial violates its degree or support bound."""

    def __init__(self, what: str, level: int, found):
        self.what = what
        self.level = level
        self.found = found
        super().__init__(f"{what} audit failed at level {level}: found {found}")


def _check_range(p: int, n: int, table: dict[int, int], kind: str) -> None:
    if p not in table or n < 1 or n > table[p]:
        supported = ", ".join(f"(p={q}, n<={m})" for q, m in sorted(table.items()))
        raise ValueError(f"(p={p}, n={n}) outside the {kind} range: {supported}")


# Variable slots.  Ghost polynomials use the single space j -> j-1;
# binary addition uses X_j -> 2(j-1), Y_j -> 2(j-1)+1; the p-fold space
# packs summand i, component j into p*(j-1) + (i-1).


def xvar(j: int) -> int:
    return 2 * (j - 1)


def yvar(j: int) -> int:
    return 2 * (j - 1) + 1


def fold_var(p: int, i: int, j: int) -> int:
    return p * (j - 1) + (i - 1)


def ghost_poly(p: int, level: int) -> MPoly:
    """w_level in the single variable space (component j at slot j-1)."""
    if level < 1:
        raise ValueError("level must be >= 1")
    acc = MPoly.zero()
    for i in range(1, level + 1):
        acc = acc + MPoly.var(i - 1, p ** (level - i), p ** (i - 1))
    return acc


class WittCtx:
    """Length-n vectors at a prime p, with their ghost polynomials; the
    addition and negation tables are built on first access."""

    def __init__(self, p: int, n: int):
        if n < 1:
            raise ValueError(f"Witt length must be at least 1, got {n}")
        self.p = p
        self.n = n
        self.ghost = [ghost_poly(p, l) for l in range(1, n + 1)]

    @cached_property
    def addition(self) -> list[MPoly]:
        _check_range(self.p, self.n, BINARY_RANGE, "binary symbolic")
        return _solve_ghost(self.p, _sum_targets(self.ghost, (xvar, yvar)), "addition")

    @cached_property
    def negation(self) -> list[MPoly]:
        _check_range(self.p, self.n, BINARY_RANGE, "binary symbolic")
        return _solve_ghost(self.p, [-w for w in self.ghost], "negation")

    def vec(self, ring, components: Sequence) -> "WittVec":
        """A length-n vector over ``ring`` from integers, ring elements (read
        through their ``data``) or reduced flat coordinate tuples."""
        elements = (ring.from_int(c) if isinstance(c, int) else c for c in components)
        comps = tuple(getattr(c, "data", c) for c in elements)
        if len(comps) != self.n:
            raise ValueError(f"expected {self.n} components, got {len(comps)}")
        return WittVec(ring, comps)

    def verify_ghost_identities(self) -> None:
        """Exact symbolic check of the addition and negation identities."""
        targets = _sum_targets(self.ghost, (xvar, yvar))
        for l in range(1, self.n + 1):
            w = self.ghost[l - 1]
            lhs = w.eval({j - 1: self.addition[j - 1] for j in range(1, l + 1)})
            if lhs != targets[l - 1]:
                raise IntegralityViolation(f"ghost addition identity fails at level {l}")
            neg_lhs = w.eval({j - 1: self.negation[j - 1] for j in range(1, l + 1)})
            if neg_lhs != -w:
                raise IntegralityViolation(f"ghost negation identity fails at level {l}")

    def to_obj(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "ghost": [g.to_obj() for g in self.ghost],
            "addition": [f.to_obj() for f in self.addition],
            "negation": [f.to_obj() for f in self.negation],
        }


@cache
def ctx_for(p: int, n: int) -> WittCtx:
    return WittCtx(p, n)


def _sum_targets(ghost: Sequence[MPoly], slots) -> list[MPoly]:
    """w_l of a sum, the sum of w_l of its summands, at each level l of
    ``ghost``: summand i has component j at variable ``slots[i](j)``."""
    return [
        sum((w.rename_vars({j - 1: f(j) for j in range(1, l + 1)}) for f in slots), MPoly.zero())
        for l, w in enumerate(ghost, start=1)
    ]


def _solve_ghost(p: int, targets: list[MPoly], what: str) -> list[MPoly]:
    """The polynomials f_1, ..., f_n with w_l(f_1, ..., f_l) = targets[l-1],
    solved level by level; every division is exact or raises."""
    polys: list[MPoly] = []
    for l, rem in enumerate(targets, start=1):
        for i in range(1, l):
            rem = rem - polys[i - 1] ** (p ** (l - i)) * p ** (i - 1)
        try:
            polys.append(rem.exact_div_int(p ** (l - 1)))
        except NotDivisible as exc:
            raise IntegralityViolation(f"{what} polynomial level {l}: {exc}") from exc
    return polys


@dataclass(frozen=True)
class WittVec:
    """A Witt vector over a ring of a tower: its components are reduced flat
    coordinate tuples of ``ring``, n is their number and p the ring's.  Sums,
    differences and negatives run on ``ghost_sum``, the one numeric path; the
    addition and negation polynomials, which give the same values, are its oracle."""

    ring: object
    components: tuple

    def __post_init__(self):
        if not hasattr(self.ring, "flat_lift"):
            name = type(self.ring).__name__
            raise ValueError(f"Witt vectors need a tower ring with flat_lift, not {name}")

    def __add__(self, other: "WittVec") -> "WittVec":
        return witt_sum((self, other))

    def __neg__(self) -> "WittVec":
        """The vector whose ghost components are minus this one's: one
        ghost pass of minus the identity over the components."""
        ring, n = self.ring, len(self.components)
        rows, columns = _unit_rows(ring.flat_rank, -1), zip(self.components)
        return WittVec(ring, _ghost_pass(ring.p, rows, ring, columns, (1,) * n, n))

    def __sub__(self, other: "WittVec") -> "WittVec":
        return self + (-other)


def witt_sum(vectors: Sequence[WittVec]) -> WittVec:
    """The Witt sum of vectors of one length over one ring, in one
    ``ghost_sum`` pass."""
    if not vectors:
        raise ValueError("a Witt sum needs at least one vector")
    ring, n = vectors[0].ring, len(vectors[0].components)
    for v in vectors[1:]:
        if v.ring is not ring or len(v.components) != n:
            raise ValueError("operands must share length and ring")
    columns = list(zip(*(v.components for v in vectors)))
    return WittVec(ring, ghost_sum(ring.p, ring, columns, n))


def ghost_sum(p: int, ring, columns: Sequence[Sequence[tuple]], levels: int) -> tuple:
    """Components 1..``levels`` of the Witt sum of several vectors over a
    ring of a tower, as reduced flat coordinate tuples.
    ``columns[i]`` holds component i+1 of every summand, each as the flat
    coordinate tuple of a ring element.  ``levels`` is at least
    ``len(columns)``; the columns above those given are zero and never
    built, so with one level more the top component is the carry into it.

    With M the ring's base digits, the summands are read as elements of
    the lifted ring at M + levels - 1 digits, where

        W_l = sum over summands of  sum_{i<=l} p^(i-1) x_i^(p^(l-i))
        S_l = (W_l - sum_{i<l} p^(i-1) S_i^(p^(l-i))) / p^(l-1).

    Each S_l is then known modulo p^(M+levels-l), at least p^M, and
    enters later levels multiplied by p^(l-1), so its ambiguity vanishes
    modulo the lifted modulus.  The lifted ring reduces to the working
    ring and the addition polynomials are integral, so S_l reduced modulo
    p^M is the polynomial value.

    This is the ghost pass with the identity rows: it raises through the
    lifted ring's ``pth_power``, read at call time, and its generated
    division raises IntegralityViolation on a remainder, so nothing is
    floored.
    """
    if levels < max(1, len(columns)):
        raise ValueError(f"{len(columns)} columns give no {levels} levels")
    widths = tuple(map(len, columns))
    if 0 in widths:
        raise ValueError("a column needs at least one summand")
    return _ghost_pass(p, _unit_rows(ring.flat_rank, 1), ring, columns, widths, levels)


def ghost_trace(tower, components: Sequence[tuple], levels: int) -> tuple:
    """Components 1..``levels`` of the Witt trace of (x_1, ..., x_k, 0, ...)
    from W(O_L) into W(O_K), given x_1..x_k on O_L flat coordinates, as
    reduced O_K flat coordinate tuples; ``levels`` is at least k.

    The ghost map commutes with sigma, so the l-th ghost component of the
    trace is tr(w_l(x)): one p-th-power chain per component on O_L and one
    per partial sum S_i on O_K, where the Witt sum of the p conjugates
    raises p chains per component.  It is the ghost pass with the rows of
    the trace at the lifted digit count (``tower.trace_rows``, which needs
    no sigma), and gives the Witt sum of the conjugates reduced to O_K,
    byte for byte.
    """
    if levels < max(1, len(components)):
        raise ValueError(f"{len(components)} components give no {levels} levels")
    rows, widths = tower.trace_rows(tower.N_int + levels - 1), (1,) * len(components)
    return _ghost_pass(tower.p, rows, tower.L, zip(components), widths, levels, tower.K)


def _ghost_pass(p: int, rows: tuple, ring, columns, widths: tuple, levels: int, out=None):
    """Components 1..``levels`` of the Witt vector whose ghost components
    are ``rows`` applied to those of the sum of ``columns`` (an iterable
    of columns of these widths) over ``ring``, as reduced flat coordinate
    tuples of ``out`` (``ring`` when None), both rings read at levels - 1
    more base digits; the pass (``kernels.compile_ghost_pass``) is
    compiled once per shape, moduli and rows."""
    lifted = ring.flat_lift(levels - 1)
    pth_out = (lifted if out is None else out.flat_lift(levels - 1)).pth_power
    ghost_pass = kernels.compile_ghost_pass(
        p, rows, widths, levels, lifted.modulus, ring.modulus, _indivisible
    )
    return ghost_pass(lifted.pth_power, pth_out, columns)


@cache
def _unit_rows(rank: int, sign: int) -> tuple:
    """``sign`` times the identity on rank-``rank`` coordinates, built once
    per rank: the rows of a ghost pass for a sum (1) or a negative (-1)."""
    return tuple(tuple(sign * (i == k) for k in range(rank)) for i in range(rank))


def _indivisible(c: int, q: int) -> IntegralityViolation:
    """What a ghost pass raises for a numerator coordinate c, reduced
    modulo the lifted modulus, that q does not divide."""
    return IntegralityViolation(f"ghost numerator coordinate {c} is not divisible by {q}")


def alternating_binom_constant(p: int) -> int:
    """(1/p) * sum_{j=1}^{p-1} (-1)^j * C(p, j); -1 for p=2, 0 for odd p."""
    total = sum((-1) ** j * comb(p, j) for j in range(1, p))
    if total % p:
        raise IntegralityViolation("alternating binomial sum not divisible by p")
    return total // p


class PFoldDecomposition:
    """Symbolic split of the component polynomials of a p-term sum.

    The component polynomials are solved from the sum's ghost identities,
    w_l(g_1, ..., g_l) = w_l(x_1) + ... + w_l(x_p) on the p-fold
    variables (``fold_var``).  For each level l the component polynomial
    splits as

        g_l = x_{1,l} + ... + x_{p,l} + carry_l

    where the carry involves only columns j <= l-1 and every monomial
    has degree >= p.  The carry itself splits into a Frobenius bracket,
    a binomial bracket (sign recorded, not assumed), and a residual
    whose monomials all have degree >= p^2 and involve only columns
    j <= l-2.  Both brackets are certified p-divisible on extraction.
    """

    def __init__(self, p: int, n: int):
        _check_range(p, n, PFOLD_RANGE, "p-fold symbolic")
        self.p = p
        self.n = n
        self.carry_constant = alternating_binom_constant(p)
        summands = [partial(fold_var, p, i) for i in range(1, p + 1)]
        targets = _sum_targets(ctx_for(p, n).ghost, summands)
        self.component_polys: list[MPoly] = _solve_ghost(p, targets, "p-fold sum")

        self.carry_polys: list[MPoly] = []
        for l in range(1, n + 1):
            f = self.component_polys[l - 1]
            for i in range(1, p + 1):
                f = f - MPoly.var(fold_var(p, i, l))
            self.carry_polys.append(f)

        self._audit_carries()
        self.residual_polys: list[MPoly] = []
        self.sign_convention = self._extract_residuals()

    def _audit_carries(self) -> None:
        for l in range(1, self.n + 1):
            f = self.carry_polys[l - 1]
            if l == 1:
                if not f.is_zero():
                    raise DegreeAuditFailure("first carry must vanish", l, repr(f))
                continue
            mindeg = f.min_monomial_degree()
            if mindeg < self.p:
                raise DegreeAuditFailure("carry degree", l, mindeg)
            allowed = {
                fold_var(self.p, i, j)
                for i in range(1, self.p + 1)
                for j in range(1, l)
            }
            if not f.variables() <= allowed:
                raise DegreeAuditFailure("carry support", l, sorted(f.variables()))

    def _brackets(self, l: int) -> tuple[MPoly, MPoly]:
        p = self.p
        col = [MPoly.var(fold_var(p, i, l - 1)) for i in range(1, p + 1)]
        s = MPoly.zero()
        for v in col:
            s = s + v
        frob = MPoly.zero()
        for v in col:
            frob = frob + v**p
        frob = frob - s**p
        first = frob.exact_div_int(p)
        carry_prev = self.carry_polys[l - 2]
        mid = MPoly.zero()
        if not carry_prev.is_zero():
            fpow = MPoly.const(1)
            for j in range(1, p):
                fpow = fpow * carry_prev
                mid = mid + s ** (p - j) * fpow * comb(p, j)
            mid = mid.exact_div_int(p)
        return first, mid

    def _residual_ok(self, h: MPoly, l: int) -> bool:
        if h.min_monomial_degree() < self.p**2:
            return False
        allowed = {
            fold_var(self.p, i, j)
            for i in range(1, self.p + 1)
            for j in range(1, l - 1)
        }
        return h.variables() <= allowed

    def _extract_residuals(self) -> str:
        # The residual is whatever is left of the carry after removing
        # the two p-divisible brackets; only the middle bracket's sign
        # is in question, so compute the residual both ways and keep
        # the convention whose degree/support audit passes everywhere.
        verdicts = {"minus": True, "plus": True}
        per_sign: dict[str, list[MPoly]] = {"minus": [], "plus": []}
        degenerate = True
        for l in range(2, self.n + 1):
            first, mid = self._brackets(l)
            f = self.carry_polys[l - 1]
            if not mid.is_zero():
                degenerate = False
            per_sign["minus"].append(f - first + mid)
            per_sign["plus"].append(f - first - mid)
            for sign in ("minus", "plus"):
                if not self._residual_ok(per_sign[sign][-1], l):
                    verdicts[sign] = False
        if verdicts["minus"]:
            self.residual_polys = per_sign["minus"]
            return "degenerate" if degenerate else "minus"
        if verdicts["plus"]:
            self.residual_polys = per_sign["plus"]
            return "plus"
        raise DegreeAuditFailure("residual", self.n, "no sign convention passes")

    def residual_for_level(self, l: int) -> MPoly:
        """Residual entering the level-l identity (zero when l == 2)."""
        if not 2 <= l <= self.n:
            raise ValueError(f"level {l} out of range")
        return self.residual_polys[l - 2]

    def to_obj(self) -> dict:
        return {
            "p": self.p,
            "n": self.n,
            "carry_constant": self.carry_constant,
            "sign_convention": self.sign_convention,
            "component": [g.to_obj() for g in self.component_polys],
            "carry": [f.to_obj() for f in self.carry_polys],
            "residual": [h.to_obj() for h in self.residual_polys],
        }


@cache
def pfold_decomposition(p: int, n: int) -> PFoldDecomposition:
    return PFoldDecomposition(p, n)


def carry_value(p: int, level: int, rows: Sequence[Sequence[tuple]], ring) -> tuple:
    """Numeric carry at a level, without the symbolic decomposition.

    ``rows`` holds p sequences of flat coordinate tuples covering columns
    1..level-1.  Because the carry does not involve column ``level``,
    it is the top component of the sum with that column zero.
    """
    columns = [[row[j] for row in rows] for j in range(level - 1)]
    return ghost_sum(p, ring, columns, level)[-1]


def content_hash(obj: dict) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def dump_tables(p: int, n: int) -> dict:
    """JSON-ready dump of the polynomial tables, keyed and hashed."""
    obj = {"p": p, "n": n, "binary": ctx_for(p, n).to_obj()}
    if p in PFOLD_RANGE and n <= PFOLD_RANGE[p]:
        obj["pfold"] = pfold_decomposition(p, n).to_obj()
    else:
        obj["pfold"] = None
    obj["content_hash"] = content_hash(obj)
    return obj
