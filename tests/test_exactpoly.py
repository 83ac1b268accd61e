import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittlab.exactpoly import (
    Monomial,
    MPoly,
    NotDivisible,
    UnassignedVariable,
)

from oracles import int_elem, zmod


def rand_poly(rng, nvars=4, nterms=5, maxexp=4, maxcoeff=30):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        key = tuple(
            sorted(
                (v, rng.randrange(1, maxexp + 1))
                for v in rng.sample(range(nvars), rng.randrange(0, nvars))
            )
        )
        c = rng.randrange(-maxcoeff, maxcoeff + 1)
        if c:
            terms[key] = c
    return MPoly(terms)


X0 = MPoly.var(0)
X1 = MPoly.var(1)
Y0 = MPoly.var(2)


class TestBasics:
    def test_cancellation(self):
        assert (X0 + (-X0)).is_zero()

    def test_disjoint_supports(self):
        p = MPoly.var(0, 2) + 2 * MPoly.var(1) + MPoly.var(2, 2)
        assert len(p.terms) == 3
        assert p.coefficient(Monomial({1: 1})) == 2

    def test_coefficient_arithmetic(self):
        p = 3 * (X0 * X1) + (-1) * (X0 * X1)
        assert p == 2 * X0 * X1

    def test_mul_binomial_square(self):
        assert (X0 + Y0) * (X0 + Y0) == X0**2 + 2 * X0 * Y0 + Y0**2

    def test_mul_zero(self):
        assert (rand_poly(random.Random(0)) * MPoly.zero()).is_zero()

    def test_exponent_addition(self):
        assert MPoly.var(0, 2) * MPoly.var(0, 3) == MPoly.var(0, 5)

    def test_monomial_invariants(self):
        with pytest.raises(ValueError):
            Monomial(((0, 0),))
        assert Monomial({}).key == ()
        assert Monomial({3: 2, 1: 1, 2: 0}).key == ((1, 1), (3, 2))


class TestExactDivision:
    def test_simple(self):
        p = 2 * MPoly.var(1) + 4 * MPoly.var(0)
        assert p.exact_div_int(2) == MPoly.var(1) + 2 * MPoly.var(0)

    def test_not_divisible(self):
        with pytest.raises(NotDivisible) as info:
            (3 * X0).exact_div_int(2)
        assert info.value.coefficient == 3
        assert info.value.divisor == 2

    def test_binomial_halving(self):
        # ((X+Y)^2 - X^2 - Y^2) / 2 == X*Y, expanded independently
        square = (X0 + Y0) * (X0 + Y0)
        p = square - X0**2 - Y0**2
        assert p.exact_div_int(2) == X0 * Y0

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            X0.exact_div_int(0)

    def test_roundtrip_random(self):
        rng = random.Random(7)
        for _ in range(200):
            p = rand_poly(rng)
            k = rng.choice([-7, -2, 3, 5, 11])
            assert (p * k).exact_div_int(k) == p


class TestEval:
    """Evaluation over the integers and over Z/p^k, a rank-1 tower ring."""

    def test_mod_ring(self):
        ring = zmod(2, 3)
        p = X0 + Y0
        assert p.eval({0: int_elem(ring, 1), 2: int_elem(ring, 1)}) == 2

    def test_zero_annihilates(self):
        ring = zmod(2, 3)
        p = X0 * Y0
        assert p.eval({0: int_elem(ring, 0), 2: int_elem(ring, 5)}) == 0

    def test_constants_evaluate_to_ints(self):
        # no term carries a value, so the sum stays in the ints
        ring = zmod(2, 3)
        for poly in (MPoly.zero(), MPoly.const(9)):
            value = poly.eval({0: int_elem(ring, 3)})
            assert type(value) is int and value == poly.coefficient(Monomial())

    def test_over_z(self):
        p = X0**2 + 2 * MPoly.var(1)
        assert p.eval({0: 3, 1: 1}) == 11

    def test_unassigned(self):
        with pytest.raises(UnassignedVariable):
            (X0 + X1).eval({0: 1})

    def test_hom_property_random(self):
        rng = random.Random(3)
        ring = zmod(3, 16)
        for _ in range(100):
            p, q = rand_poly(rng), rand_poly(rng)
            vals = {v: rng.randrange(-50, 50) for v in range(4)}
            mvals = {v: int_elem(ring, x) for v, x in vals.items()}
            for values in (vals, mvals):
                assert (p + q).eval(values) == p.eval(values) + q.eval(values)
                assert (p * q).eval(values) == p.eval(values) * q.eval(values)


class TestRingAxioms:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**63), st.integers(0, 2**63), st.integers(0, 2**63))
    def test_axioms(self, a, b, c):
        rng_a, rng_b, rng_c = (random.Random(x) for x in (a, b, c))
        p, q, r = rand_poly(rng_a), rand_poly(rng_b), rand_poly(rng_c)
        assert p + q == q + p
        assert (p + q) + r == p + (q + r)
        assert p * q == q * p
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p - p).is_zero()


class TestDegreesAndSerialization:
    def test_min_degree(self):
        p = X0 * X1 + X0**3
        assert p.min_monomial_degree() == 2
        assert MPoly.zero().min_monomial_degree() == float("inf")

    def test_canonical_order_is_graded(self):
        p = X0**3 + X0 * X1 + MPoly.const(5)
        degrees = [sum(e for _, e in m.key) for m, _ in p.iter_terms()]
        assert degrees == sorted(degrees)

    def test_serialization_is_byte_stable(self):
        # same polynomial assembled in two different orders
        p = X0 + X1 + X0 * X1
        q = X0 * X1 + X1 + X0
        assert json.dumps(p.to_obj()) == json.dumps(q.to_obj())

    def test_coefficients_as_strings(self):
        obj = (123456789012345678901234567890 * X0).to_obj()
        assert obj[0][0] == "123456789012345678901234567890"

    def test_rename_vars(self):
        p = X0 + 2 * X1
        q = p.rename_vars({0: 5, 1: 6})
        assert q == MPoly.var(5) + 2 * MPoly.var(6)
        with pytest.raises(ValueError):
            (X0 + X1).rename_vars({0: 1})
