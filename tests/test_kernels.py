import importlib.util
import pathlib
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wittlab
from wittlab import _kernels_py as pure
from wittlab import kernels


def rand_terms(rng, nvars=5, nterms=8, maxexp=6):
    terms = {}
    for _ in range(rng.randrange(nterms + 1)):
        key = tuple(
            sorted(
                (v, rng.randrange(1, maxexp))
                for v in rng.sample(range(nvars), rng.randrange(nvars))
            )
        )
        c = rng.randrange(-10**12, 10**12)
        if c:
            terms[key] = c
    return terms


class TestPureLane:
    def test_monomial_merge(self):
        got = pure.monomial_key_mul(((0, 1), (2, 3)), ((0, 2), (1, 1)))
        assert got == ((0, 3), (1, 1), (2, 3))

    def test_mul_matches_schoolbook(self):
        rng = random.Random(0)
        for _ in range(100):
            a, b = rand_terms(rng), rand_terms(rng)
            got = pure.sparse_mul(a, b)
            want = {}
            for ka, ca in a.items():
                for kb, cb in b.items():
                    k = pure.monomial_key_mul(ka, kb)
                    want[k] = want.get(k, 0) + ca * cb
            want = {k: c for k, c in want.items() if c}
            assert got == want

    def test_pow_matches_repeated_mul(self):
        rng = random.Random(1)
        for _ in range(30):
            a = rand_terms(rng, nterms=4, maxexp=3)
            acc = {(): 1}
            for k in range(5):
                assert pure.sparse_pow(a, k) == acc
                acc = pure.sparse_mul(acc, a)

    def test_mulmod_reduces(self):
        # x^2 = 2 in Z/2^10: (a + b*x)^2 = a^2 + 2b^2 + 2ab*x
        rows = ((2, 0),)
        mod = 2**10
        a = (3, 5)
        got = pure.zmod_poly_mulmod(a, a, rows, mod)
        assert got == ((3 * 3 + 2 * 5 * 5) % mod, (2 * 3 * 5) % mod)


def eisenstein_coeffs(tower):
    """Non-leading integer coefficients of E_K, and of E_L as lists of
    O_K coordinates, read from the tower description."""
    desc, e = tower.description, tower.e_K
    e_k = [int(c) for c in (desc["E_K"] or [-tower.p, 1])[:-1]]
    e_l = []
    for c in desc["E_L"][:-1]:
        coords = [int(x) for x in c] if isinstance(c, list) else [int(c)]
        e_l.append(coords + [0] * (e - len(coords)))
    return e_k, e_l


def schoolbook_K(x, y, e_k, mod):
    """O_K product: polynomials in pi_K, reduced by E_K."""
    e = len(e_k)
    conv = [0] * (2 * e - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            conv[i + j] += xi * yj
    for t in range(2 * e - 2, e - 1, -1):  # pi_K^t = -sum_i c_i pi_K^(t-e+i)
        for i, c in enumerate(e_k):
            conv[t - e + i] -= conv[t] * c
    return [c % mod for c in conv[:e]]


def schoolbook_L(a, b, e_k, e_l, mod):
    """O_L product: polynomials in pi_L over O_K, reduced by E_L and then
    (inside every O_K product) by E_K."""
    p, e = len(e_l), len(e_k)
    conv = [[0] * e for _ in range(2 * p - 1)]
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod = schoolbook_K(ai, bj, e_k, mod)
            conv[i + j] = [x + y for x, y in zip(conv[i + j], prod)]
    for t in range(2 * p - 2, p - 1, -1):  # pi_L^t = -sum_j E_L[j] pi_L^(t-p+j)
        for j, c in enumerate(e_l):
            prod = schoolbook_K(conv[t], c, e_k, mod)
            conv[t - p + j] = [x - y for x, y in zip(conv[t - p + j], prod)]
    return [[x % mod for x in k] for k in conv[:p]]


class TestRingProducts:
    """``flat_mul`` on the structure rows of O_K and O_L against the
    schoolbook nested product, which uses only the Eisenstein
    coefficients."""

    def test_mul_matches_generic(self, all_towers):
        rng = random.Random(6)
        for name, tower in all_towers.items():
            e_k, e_l = eisenstein_coeffs(tower)
            mod = tower.modulus
            for level in (tower.K, tower.L):
                for _ in range(40):
                    a, b = (
                        tuple(rng.randrange(mod) for _ in range(level.flat_rank))
                        for _ in range(2)
                    )
                    if level is tower.K:
                        want = schoolbook_K(a, b, e_k, mod)
                    else:
                        blocks = [
                            [list(level.coeff(x, j)) for j in range(tower.p)] for x in (a, b)
                        ]
                        want = [c for k in schoolbook_L(*blocks, e_k, e_l, mod) for c in k]
                    assert level.mul(a, b) == tuple(want), (name, level.name)

    def test_uniformizers_are_roots(self, all_towers):
        for name, tower in all_towers.items():
            e_k, e_l = eisenstein_coeffs(tower)
            pi_K, pi_L = tower.pi_K, tower.pi_L
            at_pi_K = sum((pi_K**i * c for i, c in enumerate(e_k)), pi_K ** len(e_k))
            at_pi_L = sum(
                (tower.embed_K(tower.K.unflatten(c)) * pi_L**j for j, c in enumerate(e_l)),
                pi_L**tower.p,
            )
            assert at_pi_K == 0 and at_pi_L == 0, name


def ring_at(tower, level, extra):
    """O_K or O_L of a tower, at its working precision or lifted."""
    ring = tower.K if level == "K" else tower.L
    return ring.flat_lift(extra) if extra else ring


def check_product(build, struct, modulus, pairs):
    """A product built from ``struct`` against ``flat_mul``, byte for byte."""
    mul = build(struct, modulus)
    for a, b in pairs:
        assert mul(a, b) == pure.flat_mul(a, b, struct, modulus)


def random_structure(draw, rank, modulus, zero_odds):
    """Dense structure rows; each cell is zero with probability ``zero_odds``."""
    return tuple(
        tuple(
            (0,) * rank
            if draw(0, 99) < zero_odds
            else tuple(draw(0, modulus - 1) for _ in range(rank))
            for _ in range(rank)
        )
        for _ in range(rank)
    )


def random_pairs(draw, rank, modulus, count):
    return [
        tuple(tuple(draw(0, modulus - 1) for _ in range(rank)) for _ in range(2))
        for _ in range(count)
    ]


TOWER_RINGS = [
    (name, level, extra)
    for name in ("q2_i", "q2_sqrt2", "q2_sqrt_minus2", "q3", "nested", "quartic")
    for level in ("K", "L")
    for extra in range(4)
]
PRODUCT_PROPERTY = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def compile_source(source):
    namespace = {}
    exec(source, namespace)
    return namespace["mul"]


def drop_a_group(struct, modulus):
    """Mutant generator: the source leaves out one structure group."""
    plan = pure.flat_mul_plan(struct)
    return compile_source(pure.flat_mul_source(plan[:-1], len(struct), modulus))


def unreduced_group(struct, modulus):
    """Mutant generator: the contribution of one non-unit group skips the
    reduction; it is added after the output is reduced."""
    plan = pure.flat_mul_plan(struct)
    unit = [0] * (len(struct) - 1) + [1]
    k = next((k for k, (row, _) in enumerate(plan) if sorted(row) != unit), None)
    if k is None:
        return kernels.compile_flat_mul(struct, modulus)
    row, pairs = plan[k]
    rest = compile_source(pure.flat_mul_source(plan[:k] + plan[k + 1 :], len(struct), modulus))

    def mul(a, b):
        g = sum(a[i] * b[j] for i, j in pairs) % modulus
        return tuple(x + c * g for x, c in zip(rest(a, b), row))

    return mul


class TestCompiledProduct:
    """The product each ring compiles from its structure rows against
    ``flat_mul``, the reference kernel."""

    @pytest.mark.parametrize("name,level,extra", TOWER_RINGS)
    @PRODUCT_PROPERTY
    @given(data=st.data())
    def test_tower_rings_match_flat_mul(self, all_towers, name, level, extra, data):
        ring = ring_at(all_towers[name], level, extra)
        draw = lambda lo, hi: data.draw(st.integers(lo, hi))
        pairs = random_pairs(draw, ring.flat_rank, ring.modulus, 4)
        # the product the ring compiled when it was built
        check_product(lambda struct, modulus: ring.mul, ring.struct, ring.modulus, pairs)

    @pytest.mark.parametrize("zero_odds", [0, 50, 100])
    @PRODUCT_PROPERTY
    @given(data=st.data())
    def test_random_structures_match_flat_mul(self, zero_odds, data):
        draw = lambda lo, hi: data.draw(st.integers(lo, hi))
        rank = draw(1, 4)
        modulus = data.draw(st.sampled_from([2, 3, 2**24, 3**23, 5**30, 10**40 + 7]))
        struct = random_structure(draw, rank, modulus, zero_odds)
        pairs = random_pairs(draw, rank, modulus, 4)
        check_product(kernels.compile_flat_mul, struct, modulus, pairs)

    @pytest.mark.parametrize(
        "build", [drop_a_group, unreduced_group], ids=lambda f: f.__name__
    )
    def test_mutant_generators_fail(self, all_towers, build):
        rng = random.Random(0)
        draw = rng.randint
        with pytest.raises(AssertionError):
            for name, level, extra in TOWER_RINGS:
                ring = ring_at(all_towers[name], level, extra)
                pairs = random_pairs(draw, ring.flat_rank, ring.modulus, 4)
                check_product(build, ring.struct, ring.modulus, pairs)
            for rank in range(1, 5):
                modulus = 3**23
                struct = random_structure(draw, rank, modulus, 0)
                check_product(build, struct, modulus, random_pairs(draw, rank, modulus, 4))

    @pytest.mark.parametrize("bad", [1.0, "1", True, None])
    def test_generator_accepts_only_integers(self, bad):
        struct = (((1, 0), (0, 1)), ((0, 1), (bad, 0)))
        with pytest.raises(TypeError):
            kernels.compile_flat_mul(struct, 2**10)
        with pytest.raises(TypeError):
            kernels.compile_flat_mul((((1,),),), bad)

    def test_source_holds_only_literals_and_locals(self, q3):
        ring = q3.L.flat_lift(3)
        source = pure.flat_mul_source(pure.flat_mul_plan(ring.struct), 3, ring.modulus)
        names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", source))
        assert names <= {"def", "mul", "return", "a", "b"} | {
            f"{x}{k}" for x in "abg" for k in range(9)
        }

    def test_unit_rows_add_directly(self, q3):
        # O_L of q3_ramified: pi_L^0..pi_L^2 are basis vectors, so only
        # the cells landing on pi_L^3 and pi_L^4 are reduced before scaling
        source = pure.flat_mul_source(pure.flat_mul_plan(q3.L.struct), 3, q3.modulus)
        assert source.count(f") % {q3.modulus}\n") == 2


class TestVecKernels:
    def test_add_sub_per_coordinate(self):
        rng = random.Random(7)
        for mod in (2**24, 3**45):
            for rank in (1, 2, 4):
                for _ in range(50):
                    a = tuple(rng.randrange(mod) for _ in range(rank))
                    b = tuple(rng.randrange(mod) for _ in range(rank))
                    assert kernels.zmod_vec_add(a, b, mod) == tuple(
                        (x + y) % mod for x, y in zip(a, b)
                    )
                    assert kernels.zmod_vec_sub(a, b, mod) == tuple(
                        (x - y) % mod for x, y in zip(a, b)
                    )


class TestSelector:
    def test_backend_exposes_api(self):
        # the benchmark's tracer wraps these names on the kernels module
        path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        names = tracer.KERNEL_LAYERS
        assert len(names) == 10
        assert wittlab.BACKEND == kernels.BACKEND == "python"
        for name in names:
            assert getattr(kernels, name) is getattr(pure, name)
