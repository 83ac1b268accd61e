import importlib.util
import pathlib
import random

import wittlab
from wittlab import _kernels_py as pure
from wittlab import kernels
from wittlab.localfield import ExtLevel


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


class TestRingProducts:
    """The kernels behind O_K and O_L products against the schoolbook
    product: ``flat_mul`` on a level over O_K, ``zmod_poly_mulmod`` on a
    level over Z_p."""

    def test_mul_matches_generic(self, all_towers):
        rng = random.Random(6)
        for name, tower in all_towers.items():
            levels = [tower.L] + ([tower.K] if isinstance(tower.K, ExtLevel) else [])
            for level in levels:
                for _ in range(40):
                    a, b = (
                        level.unflatten([rng.randrange(level.modulus) for _ in range(level.flat_rank)])
                        for _ in range(2)
                    )
                    assert level.mul(a, b) == level._mul_generic(a, b), (name, level.name)
        # the nested towers reach both kernels: flat_mul on L, and
        # zmod_poly_mulmod of degree > 1 on K
        for name in ("nested", "quartic"):
            tower = all_towers[name]
            assert tower.L.flat_struct is not None and tower.K.degree > 1


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
