"""Sparse multivariate polynomials over arbitrary-precision integers.

Polynomials are stored canonically as a map from monomial keys to
nonzero integer coefficients, where a monomial key is a tuple of
``(variable_index, exponent)`` pairs sorted by variable index with all
exponents positive.  Equality of polynomials is equality of term maps.

The only divisions supported are exact integer divisions; a failed
exact division raises :class:`NotDivisible` and is how integrality of a
construction gets certified.
"""

from __future__ import annotations

from typing import Mapping

from . import kernels

MonomialKey = tuple  # tuple[tuple[int, int], ...]


class NotDivisible(ArithmeticError):
    """Exact division failed; carries the offending term's key."""

    def __init__(self, monomial: MonomialKey, coefficient: int, divisor: int):
        self.monomial = monomial
        self.coefficient = coefficient
        self.divisor = divisor
        super().__init__(
            f"coefficient {coefficient} of {_monomial_str(monomial)} not divisible by {divisor}"
        )


class UnassignedVariable(KeyError):
    """Evaluation was asked for with a variable left unassigned."""


def _monomial_str(key: MonomialKey) -> str:
    """``x0^2*x3`` for the key ((0, 2), (3, 1)); ``1`` for the constant."""
    if not key:
        return "1"
    return "*".join(f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in key)


def _term_sort_key(item: tuple[MonomialKey, int]):
    key = item[0]
    return (sum(e for _, e in key), key)


class MPoly:
    """Sparse polynomial with exact integer coefficients.

    Instances are immutable in use: every operation returns a fresh
    value, so they are safe to share across threads.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Mapping[MonomialKey, int] | None = None):
        self.terms: dict[MonomialKey, int] = dict(terms) if terms else {}

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "MPoly":
        return cls()

    @classmethod
    def const(cls, c: int) -> "MPoly":
        return cls({(): c} if c else {})

    @classmethod
    def var(cls, index: int, exp: int = 1, coeff: int = 1) -> "MPoly":
        if coeff == 0:
            return cls()
        return cls({((index, exp),): coeff})

    # -- ring operations ----------------------------------------------

    def __add__(self, other) -> "MPoly":
        other = _coerce(other)
        return MPoly(kernels.sparse_add(self.terms, other.terms))

    __radd__ = __add__

    def __neg__(self) -> "MPoly":
        return MPoly(kernels.sparse_neg(self.terms))

    def __sub__(self, other) -> "MPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "MPoly":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "MPoly":
        if isinstance(other, int):
            return MPoly(kernels.sparse_scale(self.terms, other))
        return MPoly(kernels.sparse_mul(self.terms, other.terms))

    def __rmul__(self, other) -> "MPoly":
        return self.__mul__(other)

    def __pow__(self, k: int) -> "MPoly":
        if k < 0:
            raise ValueError("negative polynomial power")
        return MPoly(kernels.sparse_pow(self.terms, k))

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            return self.terms == MPoly.const(other).terms
        return isinstance(other, MPoly) and self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- queries ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def variables(self) -> frozenset[int]:
        out: set[int] = set()
        for key in self.terms:
            for v, _ in key:
                out.add(v)
        return frozenset(out)

    def min_monomial_degree(self) -> float:
        """Minimum total degree over stored terms; +inf for the zero poly."""
        if not self.terms:
            return float("inf")
        return min(sum(e for _, e in key) for key in self.terms)

    # -- exact division and evaluation --------------------------------

    def exact_div_int(self, k: int) -> "MPoly":
        """Divide every coefficient by ``k``; certifies integrality.

        Raises :class:`NotDivisible` on the canonically-first offending
        term, so failures are deterministic.
        """
        if k == 0:
            raise ZeroDivisionError("exact_div_int by zero")
        out = {}
        for key, coeff in self.terms.items():
            q, r = divmod(coeff, k)
            if r:
                bad = min((t for t in self.terms.items() if t[1] % k), key=_term_sort_key)
                raise NotDivisible(*bad, k)
            out[key] = q
        return MPoly(out)

    def eval(self, assignment: Mapping[int, object]):
        """Substitute values for variables and sum the terms in the values'
        own arithmetic: ints, MPolys and tower elements all combine with
        ints on either side, so a polynomial with no non-constant term
        evaluates to an int.  Every variable that occurs must be assigned.
        """
        acc = 0
        powcache: dict[tuple[int, int], object] = {}
        for key, coeff in self.terms.items():
            prod = None
            for v, e in key:
                base = powcache.get((v, e))
                if base is None:
                    if v not in assignment:
                        raise UnassignedVariable(v)
                    base = _ring_pow(assignment[v], e, powcache, v)
                prod = base if prod is None else prod * base
            acc = acc + (coeff if prod is None else prod * coeff)
        return acc

    def rename_vars(self, mapping: Mapping[int, int]) -> "MPoly":
        """Relabel variable indices; the map must be injective on support."""
        out = {}
        for key, coeff in self.terms.items():
            new = tuple(sorted((mapping.get(v, v), e) for v, e in key))
            if new in out:
                raise ValueError("variable renaming collides")
            out[new] = coeff
        return MPoly(out)

    # -- serialization ------------------------------------------------

    def to_obj(self) -> list:
        """Canonical JSON form: [[coeff-as-string, [[var, exp], ...]], ...]."""
        return [
            [str(coeff), [[v, e] for v, e in key]]
            for key, coeff in sorted(self.terms.items(), key=_term_sort_key)
        ]

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key, coeff in sorted(self.terms.items(), key=_term_sort_key):
            mono = _monomial_str(key)
            if not key:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(mono)
            elif coeff == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{coeff}*{mono}")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(value) -> MPoly:
    if isinstance(value, MPoly):
        return value
    if isinstance(value, int):
        return MPoly.const(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to MPoly")


def _ring_pow(base, e: int, cache: dict, v: int):
    """Power with per-evaluation caching, built by repeated squaring."""
    if e == 1:
        cache[(v, 1)] = base
        return base
    half = cache.get((v, e // 2))
    if half is None:
        half = _ring_pow(base, e // 2, cache, v)
    result = half * half
    if e & 1:
        if (v, 1) not in cache:
            cache[(v, 1)] = base
        result = result * cache[(v, 1)]
    cache[(v, e)] = result
    return result
