"""Exact arithmetic in rings of integers of totally ramified p-adic towers.

A tower is Q_p -> K -> L where K/Q_p is totally ramified of degree e_K
(possibly trivial) and L/K is a degree-p Galois step, each level
presented by an Eisenstein polynomial.  Base residues are carried
modulo p^N_int where N_int exceeds the advertised precision N by a
guard margin: every random element is drawn uniformly modulo p^N_int,
so the margin fixes the draws and every sampled verdict, and a linear
solve that loses delta digits to its pivots still holds past N.  The
lower break s comes first, from v_L(E_L'(pi_L)) = (p-1)(s+1), Hilbert's
formula for the different.  Then one root of the top Eisenstein
polynomial, sigma(pi_L), is lifted by Newton's method a few digits past
N_int and reduced, so it is the reduction of a root in O_L, and sigma,
read from it, is an exact automorphism of the working ring, of order p
by two checks: sigma^p(pi_L) = pi_L and sigma(pi_L) != pi_L.

O_K and O_L are both a ``FlatRing``: an element is a tuple of residues
modulo p^N_int on a fixed Z_p-basis, pi_K^i on O_K and pi_K^i*pi_L^j at
index j*e_K + i on O_L, so the O_K-coefficient of pi_L^j is a slice.
Products are bilinear through structure rows built from the integer
Eisenstein coefficients: each ring compiles them, once, into a
straight-line product (``kernels.compile_flat_ring``), and
``kernels.flat_mul`` on the same rows is its reference.  Each field map
has one source: sigma^i are matrices on the same coordinates
built from the powers of sigma(pi_L), and the trace into O_K comes from
E_L's power sums, with no sigma.  One comparison at build, exact modulo
p^N_int, ties the two; substituting sigma^i(pi_L) into an element's
coefficients is the tests' oracle.  The tower compiles each map, once,
into a straight-line function (``kernels.compile_flat_linear``), and a
Smith form solved against on every sample compiles its solve on first
use (``SmithForm.solve``); ``linsolve`` interprets a form, for the forms
used once.

Valuations are reported at the advertised cap (``at_cap``): a value at
or beyond the cap is None, the interval "at least cap", and the
verifiers refuse any assertion past the cap rather than guess it.
"""

from __future__ import annotations

import hashlib
import json
import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cache
from typing import Sequence

from . import kernels


class NotEisenstein(ValueError):
    """Defining polynomial is not Eisenstein at this level."""


class NotNormal(ValueError):
    """The top step is not Galois at working precision."""


class PrecisionTooLow(ValueError):
    """A request needs more base digits than the tower carries."""


class TraceNotRational(ArithmeticError):
    """A Galois-stable quantity failed to land in the level below."""


class NoSolutionAtPrecision(ArithmeticError):
    """Linear system certified unsolvable modulo p^depth.

    ``depth`` is the number of base digits at which the obstruction is
    already visible; ``delta`` is the precision loss profile (largest
    pivot valuation) of the elimination that produced the certificate.
    """

    def __init__(self, depth: int, delta: int = 0):
        self.depth = depth
        self.delta = delta
        super().__init__(f"no solution modulo p^{depth} (delta={delta})")


def at_cap(v: int | None, cap: int) -> int | None:
    """A ring valuation (``val_raw``; None is zero at working precision)
    reported at the cap: None, "at least cap", at or past it."""
    return None if v is None or v >= cap else v


@cache
def _vp_table(p: int, vmax: int) -> tuple[int, dict[int, int]]:
    """p^vmax and {p^k: k for k < vmax}."""
    return p**vmax, {p**k: k for k in range(vmax)}


def _vp_int(x: int, p: int, vmax: int) -> int | None:
    """p-adic valuation of an integer, for vmax >= 1; None means v_p(x) >=
    vmax (zero at working precision).  gcd(x, p^vmax) is p^min(v, vmax)."""
    modulus, exponents = _vp_table(p, vmax)
    return exponents.get(math.gcd(x, modulus))


@cache
def _power_of_ten(k: int) -> int:
    """10^k, built once: every verifier call checks its Witt length's modulus."""
    return 10**k


def check_printable(p: int, digits: int) -> None:
    """PrecisionTooLow when p^digits has more decimal digits than Python
    turns into a string (``sys.get_int_max_str_digits()``, 0 for no
    limit): the generated kernels inline their moduli as decimal
    literals, so no ring can be compiled past that limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    # digits * log10(p) decides, and p^digits is built only within one
    # decimal digit of the limit; an int compares with a float exactly
    low, high = ((limit + k) / math.log10(p) for k in (-1, 1))
    if limit and (digits >= high or digits > low and p**digits >= _power_of_ten(limit)):
        raise PrecisionTooLow(
            f"the modulus {p}^{digits} has more than {limit} decimal digits, the limit of "
            "sys.get_int_max_str_digits() on the moduli the kernels print; lower N"
        )


def _uniform(rng, modulus: int, count: int) -> list[int]:
    """``count`` draws below ``modulus`` >= 1 that replay as many
    ``rng.randrange(modulus)`` calls bit for bit, values and generator
    state: CPython draws getrandbits(modulus.bit_length()) until the value
    is below the modulus (modulus.bit_length(), not (modulus -
    1).bit_length(), so a modulus of 1 draws bits too)."""
    k, bits = modulus.bit_length(), rng.getrandbits
    out: list[int] = []
    while len(out) < count:
        r = bits(k)
        if r < modulus:
            out.append(r)
    return out


def _check_eisenstein(name: str, valuations: Sequence[int | None]) -> None:
    """Non-leading coefficients in the maximal ideal, constant term of
    valuation exactly one; the leading coefficient 1 is implicit."""
    for j, v in enumerate(valuations):
        if j == 0:
            if v != 1:
                raise NotEisenstein(f"{name}: constant term has valuation {v}, need exactly 1")
        elif v is not None and v < 1:
            raise NotEisenstein(f"{name}: coefficient of x^{j} is a unit")


class FlatRing:
    """O_K or O_L as coordinate tuples modulo p^digits on a Z_p-basis: the
    one ring object of its level, which ``OElem.level`` and
    ``WittVec.ring`` point to and ``wittcore.ghost_sum`` is given.

    O_K has the basis pi_K^i (i < e_K); O_L has the basis pi_K^i*pi_L^j
    (i < e_K, j < p) at index r = j*e_K + i, so the K-coefficient of
    pi_L^j is the slice ``coeff(a, j)``.  ``weights[r]`` is the valuation
    of basis element r in this ring's units (i on O_K, i*p + j on O_L),
    and ``struct[r][m]`` holds the coordinates of the product of basis
    elements r and m; ``mul`` is the product compiled from them, and
    ``pth_power`` is x -> x^p, compiled from them on first use.
    ``by_weight`` lists the pairs (r, weights[r]) in increasing weight.
    ``val_raw(a)`` is the valuation in this ring's units, None when every
    coordinate is 0 modulo p^digits: one gcd, then the coordinates in
    increasing weight, compiled (``kernels.compile_flat_val``) on its first
    call.
    ``ecoeffs`` are the non-leading coefficients of the level's
    Eisenstein polynomial, as elements of the level below: the integers,
    unreduced, that the ring and its lifts are built from.  ``lifts``
    holds the tower's ring pairs by digit count (``flat_lift``, which is
    what the ghost-coordinate Witt sums in ``wittcore`` run on).
    """

    def __init__(
        self,
        name: str,
        p: int,
        digits: int,
        block: int,
        weights: tuple,
        struct: tuple,
        ecoeffs: tuple,
        lifts: "_Lifts",
    ):
        self.name = name
        self.p = p
        self.digits = digits
        self.modulus = p**digits
        self.block = block  # coordinates per coefficient of the level below
        self.weights = weights
        self.struct = struct
        self.by_weight = tuple(sorted(enumerate(weights), key=lambda rw: rw[1]))
        self.mul = kernels.compile_flat_ring(struct, p, digits)
        self.val_raw = self._compile_val
        self.ecoeffs = ecoeffs
        self.flat_rank = len(weights)
        self.zero_elem = (0,) * self.flat_rank
        self.one_elem = self.from_int(1)
        # pi_L on O_L, pi_K on O_K; at rank 1 pi_K is the root -E_K(0) of
        # E_K (p itself when K = Q_p)
        self.pi_elem = struct[0][block] if self.flat_rank > 1 else (-ecoeffs[0] % self.modulus,)
        self._lifts, self._level = lifts, ("O_K", "O_L").index(name)
        self._pth_power = None  # a cached_property's __dict__ write slows lookups

    def from_int(self, k: int) -> tuple:
        return (k % self.modulus,) + self.zero_elem[1:]

    def _compile_val(self, a):
        """``val_raw`` until its first call, which compiles it."""
        self.val_raw = kernels.compile_flat_val(self.p, self.digits, self.by_weight)
        return self.val_raw(a)

    def flat_lift(self, extra_digits: int) -> "FlatRing":
        """This ring rebuilt at ``extra_digits`` more base digits, with its
        own compiled product; both levels are built once per digit count,
        and ``flat_lift(0)`` is this ring.  Reducing the lifted ring modulo
        the working modulus gives this ring back."""
        return self._lifts[self.digits + extra_digits][self._level]

    def reduce(self, coords: Sequence[int]) -> tuple:
        return tuple(c % self.modulus for c in coords)

    def embed(self, a: tuple) -> tuple:
        """An element of the level below (a prefix of the basis)."""
        return tuple(a) + self.zero_elem[len(a) :]

    def coeff(self, a: tuple, j: int) -> tuple:
        """The coefficient of the j-th power of this level's uniformizer."""
        return a[j * self.block : (j + 1) * self.block]

    def add(self, a, b):
        return kernels.zmod_vec_add(a, b, self.modulus)

    def sub(self, a, b):
        return kernels.zmod_vec_sub(a, b, self.modulus)

    def neg(self, a):
        return self.sub(self.zero_elem, a)

    def scale_int(self, a, k: int):
        k %= self.modulus
        return tuple((x * k) % self.modulus for x in a)

    def pow(self, a, k: int):
        result = None
        while k:
            if k & 1:
                result = a if result is None else self.mul(result, a)
            k >>= 1
            if k:
                a = self.mul(a, a)
        return self.one_elem if result is None else result

    @property
    def pth_power(self):
        """x -> x^p, compiled on first use (``kernels.compile_flat_pow``)."""
        if self._pth_power is None:
            self._pth_power = kernels.compile_flat_pow(self.struct, self.modulus, self.p, self.mul)
        return self._pth_power


class _Lifts(dict):
    """A tower's (O_K, O_L) pairs by digit count, shared by both rings and
    all their lifts; ``build_rings`` builds a missing pair."""

    def __init__(self, *args):
        self.args = args  # p, e_k, e_l

    def __missing__(self, digits: int) -> tuple:
        return build_rings(*self.args, digits, self)


def build_rings(
    p: int, e_k: Sequence[int], e_l: Sequence, digits: int, lifts: _Lifts | None = None
) -> tuple[FlatRing, FlatRing]:
    """O_K and O_L modulo p^digits from the non-leading integer Eisenstein
    coefficients: ``e_k`` of E_K (``[-p]`` when K = Q_p), ``e_l`` of E_L,
    each an integer or a list of O_K coordinates.  The structure rows are
    powers of pi_K and pi_L, built by multiplying by each in turn.  Each
    ring keeps them, unreduced, as ``ecoeffs``; the pair joins ``lifts`` (a
    new one for the working pair, when None), from which both lift themselves."""
    working = lifts is None
    lifts = _Lifts(p, e_k, e_l) if working else lifts
    check_printable(p, digits)
    mod = p**digits
    e = len(e_k)
    e_k_mod = [c % mod for c in e_k]
    _check_eisenstein("O_K", [_vp_int(c, p, digits) for c in e_k_mod])

    def times_pi_K(x: tuple) -> tuple:
        top = x[-1]
        return tuple((lo - top * c) % mod for lo, c in zip((0,) + x[:-1], e_k_mod))

    pk = [(1,) + (0,) * (e - 1)]  # pk[u] = pi_K^u
    for _ in range(2 * e - 2):
        pk.append(times_pi_K(pk[-1]))
    K_struct = tuple(tuple(pk[a + b] for b in range(e)) for a in range(e))
    K = FlatRing("O_K", p, digits, 1, tuple(range(e)), K_struct, tuple(e_k), lifts)

    el = []
    for c in e_l:
        coords = list(c) if isinstance(c, list) else [c]
        if len(coords) > e:
            raise NotEisenstein(f"O_L: coefficient {c!r} has more than e_K={e} coordinates")
        el.append(K.embed(coords))
    if working:  # a lift's coefficients are these, at more digits
        _check_eisenstein("O_L", [K.val_raw(c) for c in el])

    def times_pi_L(x: list) -> list:
        # x[j] is the O_K coefficient of pi_L^j; pi_L^p = -sum_j el[j]*pi_L^j
        top = x[-1]
        return [K.sub(lo, K.mul(top, c)) for lo, c in zip([K.zero_elem] + x[:-1], el)]

    pl = [[K.one_elem] + [K.zero_elem] * (p - 1)]  # pl[v] = pi_L^v
    for _ in range(2 * p - 2):
        pl.append(times_pi_L(pl[-1]))
    # basis r = j*e + i is pi_K^i * pi_L^j; the product of basis elements
    # (i, j) and (ii, jj) is the row of pi_K^(i+ii) * pi_L^(j+jj), built
    # once and shared by every cell that needs it
    rows = {
        (u, v): tuple(x for c in pl[v] for x in K.mul(pk[u], c))
        for u in range(2 * e - 1)
        for v in range(2 * p - 1)
    }
    index = [(i, j) for j in range(p) for i in range(e)]
    struct = tuple(tuple(rows[i + ii, j + jj] for ii, jj in index) for i, j in index)
    weights = tuple(i * p + j for i, j in index)
    L = FlatRing("O_L", p, digits, e, weights, struct, tuple(el), lifts)
    lifts[digits] = K, L
    return K, L


class OElem:
    """Element of O_K or O_L, pinned to its level."""

    __slots__ = ("level", "data")

    def __init__(self, level: FlatRing, data: tuple):
        self.level = level
        self.data = data

    def _coerce(self, other) -> tuple:
        """The coordinates of ``other``, an element of this level or an int."""
        if isinstance(other, OElem):
            if other.level is not self.level:
                raise ValueError("operands live at different tower levels")
            return other.data
        if isinstance(other, int):
            return self.level.from_int(other)
        raise TypeError(f"cannot combine OElem with {type(other).__name__}")

    def __add__(self, other):
        return OElem(self.level, self.level.add(self.data, self._coerce(other)))

    __radd__ = __add__

    def __sub__(self, other):
        return OElem(self.level, self.level.sub(self.data, self._coerce(other)))

    def __rsub__(self, other):
        return OElem(self.level, self.level.sub(self._coerce(other), self.data))

    def __neg__(self):
        return OElem(self.level, self.level.neg(self.data))

    def __mul__(self, other):
        if isinstance(other, int):
            return OElem(self.level, self.level.scale_int(self.data, other))
        return OElem(self.level, self.level.mul(self.data, self._coerce(other)))

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power of an integral element")
        return OElem(self.level, self.level.pow(self.data, k))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.data == self.level.from_int(other)
        return isinstance(other, OElem) and other.level is self.level and other.data == self.data

    def __hash__(self):
        return hash((id(self.level), self.data))

    def __repr__(self):
        return f"OElem<{self.level.name}>{self.data}"


# ---------------------------------------------------------------------------
# valuation-pivoted linear algebra over Z/p^M


@dataclass
class SmithForm:
    """U*A*V = diag(p^v) with U, V invertible mod p^M."""

    pivots: list[int]
    U: list[list[int]]
    V: list[list[int]]
    p: int
    modulus: int
    digits: int
    _solve: object = field(default=None, init=False, repr=False, compare=False)

    def kernel_basis(self) -> list[list[int]]:
        """p^(digits - v_k) * column k of V for each v_k > 0, v_k = digits past the rank."""
        pivots = self.pivots + [self.digits] * (len(self.V) - len(self.pivots))
        return [
            [row[k] * self.p ** (self.digits - v) % self.modulus for row in self.V]
            for k, v in enumerate(pivots)
            if v > 0
        ]

    @property
    def solve(self):
        """``linsolve`` against this form as straight-line code, compiled on
        first use (``kernels.compile_smith_solve``): ``solve(rhs)`` returns
        (particular, delta) and raises the same NoSolutionAtPrecision,
        for a right-hand side with one entry per row of U (``check_rhs``)."""
        if self._solve is None:
            p, digits, delta = self.p, self.digits, max(self.pivots, default=0)

            def unsolvable(u: int) -> NoSolutionAtPrecision:
                # u is a reduced nonzero coordinate of U*rhs, so v_p(u) < digits
                return NoSolutionAtPrecision(_vp_int(u, p, digits) + 1, delta)

            self._solve = kernels.compile_smith_solve(
                self.pivots, self.U, self.V, p, self.modulus, unsolvable
            )
        return self._solve

    def check_rhs(self, rhs: Sequence[int]) -> None:
        """ValueError unless ``rhs`` has one entry per row of the system."""
        if len(rhs) != len(self.U):
            raise ValueError(f"right-hand side has {len(rhs)} entries, the system {len(self.U)} rows")

    def image_basis(self, matrix: Sequence[Sequence[int]]) -> list[list[int]]:
        """Columns k < rank of A*V, A the matrix this form was built from:
        column k is U^-1 e_k p^v_k and the rest vanish, so they span im A."""
        m, n, mod = len(self.U), len(self.V), self.modulus
        return [
            [sum(matrix[i][j] * self.V[j][k] for j in range(n)) % mod for i in range(m)]
            for k in range(len(self.pivots))
        ]


def smith_normal_form(matrix: Sequence[Sequence[int]], p: int, digits: int) -> SmithForm:
    """U*A*V = diag(p^v) on one table: A's m rows, each followed by its row
    of U, which the row operations act on, then V's n rows, which the
    column operations act on; U and V start as identities."""
    modulus, exponents = _vp_table(p, digits)
    m = len(matrix)
    n = len(matrix[0]) if m else 0
    T = [
        [x % modulus for x in row] + [int(i == j) for j in range(m)]
        for i, row in enumerate(matrix)
    ]
    T += [[int(i == j) for j in range(n)] for i in range(n)]
    pivots: list[int] = []
    for k in range(min(m, n)):
        best, bi, bj = digits, -1, -1
        for i in range(k, m):
            for j in range(k, n):
                v = exponents.get(math.gcd(T[i][j], modulus), digits)
                if v < best:
                    best, bi, bj = v, i, j
        if bi < 0:
            break
        T[k], T[bi] = T[bi], T[k]
        for row in T:
            row[k], row[bj] = row[bj], row[k]
        pv = p**best
        uinv = pow(T[k][k] // pv, -1, modulus)
        T[k][k:] = [x * uinv % modulus for x in T[k][k:]]
        for i in range(k + 1, m):
            if T[i][k]:
                mult = T[i][k] // pv
                T[i][k:] = [(x - mult * y) % modulus for x, y in zip(T[i][k:], T[k][k:])]
        for j in range(k + 1, n):
            if T[k][j]:
                mult = T[k][j] // pv
                for row in T:
                    row[j] = (row[j] - mult * row[k]) % modulus
        pivots.append(best)
    return SmithForm(pivots, [row[n:] for row in T[:m]], T[m:], p, modulus, digits)


def linsolve(snf: SmithForm, rhs: Sequence[int]) -> tuple[tuple, int]:
    """Solve A*x = rhs over Z/p^digits, with A the matrix ``snf`` was
    built from (p, digits and the shape are read from it).

    Returns a particular solution as a reduced coordinate tuple and
    ``delta``, the largest pivot valuation; a kernel basis is
    ``snf.kernel_basis()``.  Raises :class:`NoSolutionAtPrecision`, whose
    depth is the digit count at which the system is already
    contradictory, and ValueError on a right-hand side of the wrong
    length.  It interprets U and V on every call: the solve of a form used
    once, and the reference for the compiled ``snf.solve``.
    """
    snf.check_rhs(rhs)
    p, digits = snf.p, snf.digits
    modulus, exponents = _vp_table(p, digits)
    delta = max(snf.pivots, default=0)
    # p^v_k divides row k of U*rhs; a row past the rank has v_k = digits
    pivots = snf.pivots + [digits] * (len(snf.U) - len(snf.pivots))
    z = []
    for row, v in zip(snf.U, pivots):
        u = sum(map(operator.mul, row, rhs)) % modulus
        vu = exponents.get(math.gcd(u, modulus), digits)
        if vu < v:
            raise NoSolutionAtPrecision(vu + 1, delta)
        z.append(u // p**v)
    # z_k past n is zero (past the rank), as is each z_k that m < n omits
    return tuple([sum(map(operator.mul, row, z)) % modulus for row in snf.V]), delta


# ---------------------------------------------------------------------------
# the tower


def _strip_monic(coeffs: Sequence, name: str, width: int = 1) -> list:
    """Coefficient lists are little-endian and carry the leading 1, an
    integer or a list of at most ``width`` coordinates, 1 then zeros."""
    coeffs = list(coeffs)
    if len(coeffs) < 2:
        raise NotEisenstein(f"{name}: need degree >= 1")
    lead = coeffs[-1]
    coords = lead if isinstance(lead, list) and 0 < len(lead) <= width else [lead]
    if coords != [1] + [0] * (len(coords) - 1):
        raise NotEisenstein(f"{name}: leading coefficient must be 1, got {lead!r}")
    return coeffs[:-1]


def precision_policy(p: int, e_k: int, s_bound: int, witt_length: int) -> int:
    """Smallest advertised N whose cap covers the planned assertions."""
    need = 2 * witt_length * (s_bound + p * e_k) + 8
    return -(-need // (p * e_k))


def _working_digits(p: int, e_k: int, N: int) -> int:
    """N_int, the base digits of the working rings: N plus guard digits,
    sized from the generic bound on the derivative valuation; the module
    docstring says what they are for."""
    dv_bound = p * e_k + 2 * p + 4
    return N + 2 + -(-dv_bound // (p * e_k))


def _eval_top(R: FlatRing, x):
    """E_L at a point of R, O_L at some digit count, by Horner."""
    acc = R.one_elem
    for j in range(R.p - 1, -1, -1):
        acc = R.add(R.mul(acc, x), R.embed(R.ecoeffs[j]))
    return acc


def _eval_deriv(R: FlatRing, x):
    """E_L' at a point of R, by Horner."""
    acc = R.from_int(R.p)
    for j in range(R.p - 1, 0, -1):
        acc = R.add(R.mul(acc, x), R.scale_int(R.embed(R.ecoeffs[j]), j))
    return acc


class ExtensionTower:
    """L/K/Q_p with a chosen Galois generator and precomputed maps.

    Built by ``build_tower``, which reads the coefficient lists: ``e_k``
    and ``e_l`` are the non-leading integer Eisenstein coefficients
    (``e_k`` is ``[-p]`` when K = Q_p; an ``e_l`` entry is an integer or
    a list of O_K coordinates), and ``description`` is the tower's JSON
    description, whose sha256 is ``tower_hash``."""

    def __init__(self, e_k: list, e_l: list, description: dict):
        p, N = description["p"], description["N"]
        self.p = p
        self.N = N
        self.e_K = len(e_k)
        self.e_L = p * self.e_K
        self.N_int = _working_digits(p, self.e_K, N)
        self.modulus = p**self.N_int
        self.prec_modulus = p**N  # coordinates divisible by it are zero at precision
        # the working levels reduce the integer coefficients modulo
        # p^N_int, the lifted copies (``flat_lift``) at more digits
        self.K, self.L = build_rings(p, e_k, e_l, self.N_int)
        # a second name for L, read by perfbench/baseline.py
        self.LR = self.L

        self.val_cap = p * self.e_K * N
        self.val_cap_K = self.e_K * N

        self._find_sigma()
        self._build_matrices()
        self._pi_L_pows = [self.L.one_elem]
        self._field_checks = None  # compiled on first use (``field_checks``)

        self.description = description
        blob = json.dumps(description, sort_keys=True, separators=(",", ":"))
        self.tower_hash = hashlib.sha256(blob.encode()).hexdigest()

    # -- construction helpers ------------------------------------------

    def _find_sigma(self) -> None:
        """s, then sigma.  Hilbert's formula for the different (Serre, Local
        Fields, IV 1) gives dv = v_L(E_L'(pi_L)) = (p-1)(s+1) on a cyclic
        degree-p step, as each sigma^i(pi_L) - pi_L has valuation s + 1.  The
        terms p*pi_L^(p-1) and j*a_j*pi_L^(j-1), 0 < j < p, of E_L'(pi_L) have
        distinct valuations modulo p, all at least p, the first p*e_K + p - 1:
        so p <= dv <= p*e_K + p - 1 (below the cap), (p-1) | dv gives s >= 1,
        and s(p-1) = dv - (p-1) <= p*e_K, the wild bound.  As p is prime,
        sigma has order p exactly when sigma^p(pi_L) = pi_L != sigma(pi_L)."""
        L, p = self.L, self.p
        pi = L.pi_elem
        dv = L.val_raw(_eval_deriv(L, pi))
        if dv % (p - 1):
            raise NotNormal(
                f"derivative valuation {dv} is not a multiple of p-1; "
                "the step cannot be cyclic of degree p"
            )
        self.dv, self.s = dv, dv // (p - 1) - 1
        self.sigma_root = self._sigma_root(dv, self.s)
        self._build_galois()

        conj = self.conjugates_raw(pi)
        if not self._zero_raw(L.sub(self.galois_maps[1](conj[-1]), pi)):
            raise NotNormal("sigma does not have order p at precision")
        if self._zero_raw(L.sub(conj[1], pi)):
            raise NotNormal("sigma has order < p at precision")

    def _sigma_root(self, dv: int, s: int):
        """sigma(pi_L) in the working ring, the one place that picks the
        generator: the root of E_L that is pi_L + pi_L^(s+1) modulo
        pi_L^(s+2), by Newton's step x <- x - E_L(x)/E_L'(x) from there.
        The differences sigma^i(pi_L) - pi_L have valuation s + 1 and
        leading digits 1..p-1, so the start is nearer its root than the
        roots are to each other, and its distance to it past s + 1
        doubles at each step.  Dividing by E_L'(x), of valuation dv, leaves
        ceil(dv/e_L) digits open, and R carries one more.  A zero step
        means E_L(x) = 0 in R, so no later step moves x and the loop ends
        there; the fixed count is its cap."""
        L, p = self.L, self.p
        R = L.flat_lift(-(-dv // self.e_L) + 1)
        x = R.add(R.pi_elem, R.pow(R.pi_elem, s + 1))
        for _ in range((R.digits * R.flat_rank).bit_length() + 1):
            deriv = _eval_deriv(R, x)  # struct[0][m] = 1 * basis element m
            mat = tuple(zip(*(R.mul(deriv, b) for b in R.struct[0])))
            try:
                step, _ = linsolve(smith_normal_form(mat, p, R.digits), _eval_top(R, x))
            except NoSolutionAtPrecision:
                raise NotNormal("a Newton step has no solution") from None
            if not any(step):
                break
            x = R.sub(x, step)
        root = L.reduce(x)
        if L.val_raw(_eval_top(L, root)) is not None:
            raise NotNormal("Newton's method gave no root of the top polynomial")
        return root

    def _build_galois(self) -> None:
        """``galois_mats[i]``, sigma^i on flat coordinates (entry [r][m] is
        coordinate r of sigma^i of basis element m), and ``galois_maps[i]``,
        each compiled (index 0 unused).  sigma comes from rho = ``sigma_root``
        alone: pi_K^a*pi_L^b, basis element b*e_K + a, maps to pi_K^a*rho^b.
        The product is exactly bilinear modulo p^N_int, so sigma^i's columns
        are sigma of sigma^(i-1)'s, byte for byte the substitution of
        sigma^i(pi_L) that the tests keep as the oracle."""
        L, e, mod = self.L, self.e_K, self.modulus
        rank = L.flat_rank
        basis = [tuple(int(r == m) for r in range(rank)) for m in range(rank)]
        powers = [L.one_elem]
        for _ in range(self.p - 1):
            powers.append(L.mul(powers[-1], self.sigma_root))
        columns = [L.mul(basis[a], power) for power in powers for a in range(e)]
        mats = [tuple(zip(*basis)), tuple(zip(*columns))]
        sigma = kernels.compile_flat_linear(mats[1], mod)
        maps = [None, sigma]
        for _ in range(2, self.p):
            columns = [sigma(c) for c in columns]
            mats.append(tuple(zip(*columns)))
            maps.append(kernels.compile_flat_linear(mats[-1], mod))
        self.galois_mats, self.galois_maps = tuple(mats), tuple(maps)

    def _check_trace(self, rows: tuple) -> None:
        """sum_i ``galois_mats[i]`` must be ``rows``, the trace from E_L's
        power sums, above zero rows, exactly modulo p^N_int: the one
        comparison of the two sources, made at build.  A difference, as
        from a root exact to fewer digits, is an internal fault."""
        mod, rank = self.modulus, self.L.flat_rank
        total = tuple(tuple(sum(col) % mod for col in zip(*r)) for r in zip(*self.galois_mats))
        if total != rows + ((0,) * rank,) * (rank - len(rows)):
            raise TraceNotRational("the sum of sigma^i is not the trace from E_L's power sums")

    def _build_matrices(self) -> None:
        """The trace, ``trace_rows(N_int)`` with no sigma, compiled as
        ``trace_map`` into O_K coordinates and checked against sigma once;
        sigma - 1's matrix; the trace's Smith form."""
        mod = self.modulus
        self._trace_rows: dict[int, tuple] = {}  # digits -> the trace into O_K
        rows = self.trace_rows(self.N_int)
        self._check_trace(rows)
        self.trace_map = kernels.compile_flat_linear(rows, mod)
        self.sigma_minus_one_mat = [
            [(x - (r == m)) % mod for m, x in enumerate(row)]
            for r, row in enumerate(self.galois_mats[1])
        ]
        self._trace_snf = smith_normal_form(rows, self.p, self.N_int)
        self.trace_kernel_flat = tuple(tuple(k) for k in self._trace_snf.kernel_basis())
        # whether tr(x) = c is solvable depends on c modulo p^delta, delta
        # the largest pivot; a zero row of the form needs every digit
        pivots = self._trace_snf.pivots
        if len(pivots) == self.K.flat_rank:
            self.trace_residue_modulus = self.p ** max(pivots, default=0)
        else:
            self.trace_residue_modulus = self.modulus
        # the sampler's (combine, redraw) pair, compiled on first use
        # (``trace_kernel_maps``), and its memo: each prefix of residue keys
        # maps to the keys of the next component after which the next trace
        # equation has no solution (``cohomlab.sample_trace_zero``)
        self._trace_kernel_maps = None
        self.unsolvable_prefixes: dict[tuple, set] = {}
        self._smo_snf: dict[int, SmithForm] = {}  # digits -> Smith form of sigma - 1

    @property
    def trace_kernel_maps(self):
        """``(combine, redraw)`` on one matrix [I | K], compiled on first use:
        ``combine`` maps a particular solution's coordinates followed by
        coefficients r to the particular plus sum_k r_k * k over
        ``trace_kernel_flat`` modulo p^N_int (``kernels.compile_flat_linear``),
        and ``redraw`` draws the coefficients and keys the draw by the same
        sum modulo ``trace_residue_modulus`` (``kernels.compile_kernel_redraw``),
        so a sampled component's memo key is its residues by construction."""
        if self._trace_kernel_maps is None:
            rank = self.L.flat_rank
            matrix = [
                [int(r == m) for m in range(rank)] + [k[r] for k in self.trace_kernel_flat]
                for r in range(rank)
            ]
            self._trace_kernel_maps = (
                kernels.compile_flat_linear(matrix, self.modulus),
                kernels.compile_kernel_redraw(matrix, self.modulus, self.trace_residue_modulus),
            )
        return self._trace_kernel_maps

    # -- raw (tuple-level) operations -----------------------------------

    def conjugates_raw(self, a) -> tuple:
        """sigma^i(a) for i = 0, ..., p-1, on flat coordinates."""
        return (a,) + tuple(f(a) for f in self.galois_maps[1:])

    def _zero_raw(self, coords) -> bool:
        """Zero at precision, v >= cap: every coordinate is 0 modulo p^N,
        decided as gcd(p^N, c_0, c_1, ...) = p^N, one gcd.  In a ring of
        ramification index e (the flat rank), basis element r has weight
        w(r) < e and cap = e*N, so the coordinate c at r contributes
        v_p(c)*e + w(r) >= e*N exactly when v_p(c) >= N; the weights are
        distinct modulo e, so the valuation is the least contribution."""
        m = self.prec_modulus
        return math.gcd(m, *coords) == m

    def _fixed_raw(self, a) -> bool:
        """sigma(a) = a at precision: ``_zero_raw`` of sigma(a) - a, with the
        sigma the tower holds in ``galois_maps[1]`` at call time."""
        return self._zero_raw(map(operator.sub, self.galois_maps[1](a), a))

    def project_to_K_raw(self, a):
        """The O_K coordinates of an O_L element that lies in O_K at
        precision; TraceNotRational otherwise."""
        e = self.K.flat_rank
        if not self._zero_raw(a[e:]):
            raise TraceNotRational("element does not lie in O_K at precision")
        return a[:e]

    # -- public element API ----------------------------------------------

    @property
    def pi_L(self) -> OElem:
        return OElem(self.L, self.L.pi_elem)

    def embed_K(self, a: OElem) -> OElem:
        if a.level is not self.K:
            raise ValueError("embed_K expects an O_K element")
        return OElem(self.L, self.L.embed(a.data))

    def galois(self, a: OElem, times: int = 1) -> OElem:
        times %= self.p
        if a.level is self.K or times == 0:
            return a
        return OElem(self.L, self.galois_maps[times](a.data))

    def trace(self, a: OElem) -> OElem:
        if a.level is not self.L:
            raise ValueError("trace expects an O_L element")
        return OElem(self.K, self.trace_map(a.data))

    def vL(self, a: OElem) -> int | None:
        if a.level is self.K:
            a = self.embed_K(a)
        return at_cap(self.L.val_raw(a.data), self.val_cap)

    def vK(self, a: OElem) -> int | None:
        if a.level is not self.K:
            raise ValueError("vK expects an O_K element")
        return at_cap(self.K.val_raw(a.data), self.val_cap_K)

    def strict_break_regime(self) -> bool:
        """True when s > e_K/(p-1) strictly; towers sitting exactly on
        the bound are the delicate boundary cases, labeled False."""
        return self.s * (self.p - 1) > self.e_K

    # -- linear solving ----------------------------------------------------

    def solve_trace_eq(self, c) -> tuple[tuple, int]:
        """x with tr(x) = c at precision, on flat coordinates (c on O_K,
        x on O_L), and ``delta``, the digits the solve loses (its largest
        pivot valuation), through the trace form's compiled solve."""
        snf = self._trace_snf
        snf.check_rhs(c)
        return snf.solve(c)

    def solve_sigma_minus_one(self, c, digits: int) -> tuple[tuple, int]:
        """y with (sigma-1)y = c modulo p^digits, on O_L flat coordinates
        (advertised precision and above only), and ``delta``, through the
        compiled solve of the form at those digits; raises
        NoSolutionAtPrecision otherwise, and TraceNotRational when
        sigma(y) - y - c is not zero at precision (``_zero_raw``)."""
        if digits < self.N:
            raise PrecisionTooLow("cannot solve below the advertised precision")
        snf = self.sigma_minus_one_snf(digits)
        snf.check_rhs(c)
        y, delta = snf.solve(c)
        sub = operator.sub
        if not self._zero_raw(map(sub, map(sub, self.galois_maps[1](y), y), c)):
            raise TraceNotRational("solver postcondition failed")
        return y, delta

    def sigma_minus_one_snf(self, digits: int) -> SmithForm:
        """The Smith form of (sigma - 1) modulo p^digits, built on first use
        at each digit count."""
        snf = self._smo_snf.get(digits)
        if snf is None:
            snf = self._smo_snf[digits] = smith_normal_form(
                self.sigma_minus_one_mat, self.p, digits
            )
        return snf

    def trace_rows(self, digits: int) -> tuple:
        """The trace of O_L into O_K modulo p^digits, N_int or more, as e_K
        rows on O_L flat coordinates, built on first use at each digit
        count with no sigma: Tr(pi_K^i*pi_L^j) = pi_K^i*P_j, where P_j is
        the j-th power sum of E_L's roots, from Newton's identities
        P_k + a_(p-1)*P_(k-1) + ... + a_(p-k+1)*P_1 + k*a_(p-k) = 0 on the
        unreduced coefficients a_j of E_L, in O_K at that digit count.  At
        N_int they are the tower's one source of the trace: ``trace_map``
        is compiled from them, the trace's Smith form is theirs, and the
        build checks them against the sum of sigma^i (``_check_trace``)."""
        rows = self._trace_rows.get(digits)
        if rows is None:
            K, p, a = self.K.flat_lift(digits - self.N_int), self.p, self.L.ecoeffs
            sums = [K.scale_int(K.one_elem, p)]
            for k in range(1, p):
                acc = K.scale_int(a[p - k], k)
                for i in range(1, k):
                    acc = K.add(acc, K.mul(a[p - i], sums[k - i]))
                sums.append(K.neg(acc))
            columns = [K.mul(K.struct[0][i], P) for P in sums for i in range(K.flat_rank)]
            rows = self._trace_rows[digits] = tuple(zip(*columns))
        return rows

    # -- sampling -----------------------------------------------------------

    @property
    def field_checks(self) -> tuple:
        """``(vktr, vksub, fixed)``, the field lemmas' per-sample checks,
        compiled on first use (``kernels.compile_field_checks``) from the
        rings, ``trace_rows(N_int)`` and sigma's matrix ``galois_mats[1]``."""
        if self._field_checks is None:
            self._field_checks = kernels.compile_field_checks(
                self.L, self.K, self.trace_rows(self.N_int), self.galois_mats[1], self.prec_modulus
            )
        return self._field_checks

    def random_L_raw(self, rng) -> tuple:
        """Uniform O_L coordinates modulo p^N_int (``_uniform``)."""
        return tuple(_uniform(rng, self.modulus, self.L.flat_rank))

    def pi_L_powers(self, count: int) -> tuple:
        """pi_L^k for k < count, from a per-tower table grown on demand."""
        pows = self._pi_L_pows
        while len(pows) < count:
            pows.append(self.L.mul(pows[-1], self.L.pi_elem))
        return tuple(pows[:count])

    def random_L_elem(self, rng) -> OElem:
        """``random_L_raw`` as an O_L element."""
        return OElem(self.L, self.random_L_raw(rng))


def build_tower(
    p: int,
    N: int | str,
    e_l_coeffs: Sequence,
    e_k_coeffs: Sequence[int] | None = None,
    *,
    witt_length_hint: int = 4,
    seed: int = 0,
) -> ExtensionTower:
    """Construct and validate a tower from little-endian lists of integer
    coefficients that carry the leading 1 (``e_k_coeffs`` None when
    K = Q_p, where an empty list is refused; ``tower_from_obj`` turns a
    JSON description's into integers).  It strips the leading 1, refuses
    a top step whose degree is not p and then a p that is not prime (so
    trial division stops at the square root of the length of E_L), takes
    e_K from the stripped E_K, resolves ``N="auto"`` by the policy at the
    generic bound on the break, refuses an N whose working modulus
    p^N_int is past ``check_printable``'s limit before any ring is built,
    and after construction refuses an N below the policy at the tower's
    break for Witt length ``witt_length_hint``.
    The generator sigma has sigma(pi_L) = pi_L + pi_L^(s+1) modulo
    pi_L^(s+2)."""
    e_k = _strip_monic(e_k_coeffs, "E_K") if e_k_coeffs is not None else [-p]
    e_l = _strip_monic(e_l_coeffs, "E_L", len(e_k))
    if len(e_l) != p:
        raise NotEisenstein(f"top step must have degree {p}, got {len(e_l)}")
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"tower p must be a prime, got {p}")
    if N == "auto":
        s_bound = (p * len(e_k)) // (p - 1)
        N = precision_policy(p, len(e_k), s_bound, witt_length_hint)
    if not isinstance(N, int) or N < 4:
        raise PrecisionTooLow(f"N={N!r} is not an acceptable precision")
    # refused before p^N is built; the Newton lift's digits are checked
    # when its rings are (``build_rings``)
    check_printable(p, _working_digits(p, len(e_k), N))
    # the lists, leading 1 included, as decimal strings: these are hashed
    description = {
        "p": p,
        "N": N,
        "E_K": [str(c) for c in e_k_coeffs] if e_k_coeffs is not None else None,
        "E_L": [[str(x) for x in c] if isinstance(c, list) else str(c) for c in e_l_coeffs],
        "seed": seed,
    }
    tower = ExtensionTower(e_k, e_l, description)
    smin = precision_policy(p, tower.e_K, tower.s, witt_length_hint)
    if N < smin:
        raise PrecisionTooLow(
            f"N={N} below the policy minimum {smin} for Witt length "
            f"{witt_length_hint} at s={tower.s}"
        )
    return tower


def _tower_int(value, what: str) -> int:
    """An integer field of a tower description; JSON strings of digits
    count, anything else is a malformed description (ValueError)."""
    try:
        if not isinstance(value, bool) and isinstance(value, (int, str)):
            return int(value)
    except ValueError:
        pass
    raise ValueError(f"tower {what} must be an integer, got {value!r}")


def _tower_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ValueError(f"tower {what} must be a list, got {value!r}")
    return value


def check_keys(obj, what: str, keys: Sequence[str], required: Sequence[str] = ()) -> None:
    """The one shape check of a JSON input, a tower or a manifest: an object
    with the ``required`` keys and no key outside ``keys``."""
    if not isinstance(obj, dict):
        raise ValueError(f"a {what} must be a JSON object, got {type(obj).__name__}")
    for key in obj:  # a misspelt key would otherwise take its default unseen
        if key not in keys:
            listing = f"{', '.join(keys[:-1])} and {keys[-1]}"
            raise ValueError(f"unknown {what} key {key!r}: the keys are {listing}")
    for key in required:
        if key not in obj:
            raise ValueError(f"{what} has no {key!r}")


def tower_from_obj(obj: dict, **overrides) -> ExtensionTower:
    """A tower from its JSON description, with ``N`` or ``seed``
    replaced by ``overrides``; a description of the wrong shape raises
    ValueError with a one-line message."""
    check_keys(obj, "tower", ("p", "N", "E_K", "E_L", "seed"), required=("p", "E_L"))
    p = _tower_int(obj["p"], "p")
    e_l = [
        [_tower_int(x, "E_L coefficient") for x in c] if isinstance(c, list)
        else _tower_int(c, "E_L coefficient")
        for c in _tower_list(obj["E_L"], "E_L")
    ]
    e_k = obj.get("E_K")
    if e_k is not None:
        e_k = [_tower_int(c, "E_K coefficient") for c in _tower_list(e_k, "E_K")]
    # checked even when an override replaces it: the file is malformed
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValueError(f"tower seed must be an integer, got {seed!r}")
    n_prec = obj.get("N", "auto")
    if n_prec != "auto":
        n_prec = _tower_int(n_prec, "N")
    return build_tower(p, overrides.get("N", n_prec), e_l, e_k, seed=overrides.get("seed", seed))


def read_json(path: str):
    """The JSON value in the file ``path``; one that cannot be opened, decoded
    or parsed (not UTF-8, nested past the recursion limit) is a ValueError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(str(exc)) from None


def load_tower(path: str, **overrides) -> ExtensionTower:
    return tower_from_obj(read_json(path), **overrides)
