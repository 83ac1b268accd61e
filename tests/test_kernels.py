import importlib.util
import pathlib
import random

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
                (tower.embed_K(tower.unflatten_K(c)) * pi_L**j for j, c in enumerate(e_l)),
                pi_L**tower.p,
            )
            assert at_pi_K == 0 and at_pi_L == 0, name


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
