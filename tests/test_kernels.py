import importlib.util
import pathlib
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wittlab
from wittlab import _kernels_py as pure
from wittlab import cohomlab, kernels, wittcore
from wittlab.localfield import NoSolutionAtPrecision, linsolve, smith_normal_form

from conftest import SIX_TOWERS, load
from oracles import conjugates_by_substitution, ghost_sum_by_loops, pi_K, unflatten


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
            pk, pi_L = pi_K(tower), tower.pi_L
            at_pi_K = sum((pk**i * c for i, c in enumerate(e_k)), pk ** len(e_k))
            at_pi_L = sum(
                (tower.embed_K(unflatten(tower.K, c)) * pi_L**j for j, c in enumerate(e_l)),
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
    for name in SIX_TOWERS
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


def compile_mul(struct, modulus):
    """The product ``compile_flat_ring`` generates from these rows, at any
    modulus: ``flat_mul_source`` on their plan."""
    return compile_source(pure.flat_mul_source(pure.flat_mul_plan(struct), len(struct), modulus))


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
        return compile_mul(struct, modulus)
    row, pairs = plan[k]
    rest = compile_source(pure.flat_mul_source(plan[:k] + plan[k + 1 :], len(struct), modulus))

    def mul(a, b):
        g = sum(a[i] * b[j] for i, j in pairs) % modulus
        return tuple(x + c * g for x, c in zip(rest(a, b), row))

    return mul


def test_plan_checks_each_shared_row_once(q3, monkeypatch):
    # the tower shares one row object among the cells of one exponent
    # pair; the plan checks that object once, and an unshared copy of the
    # rows gives the same plan with every cell checked
    struct = q3.L.struct
    unshared = tuple(tuple(tuple(list(row)) for row in cells) for cells in struct)
    checked = []
    check = pure._checked_int
    monkeypatch.setattr(pure, "_checked_int", lambda x: checked.append(x) or check(x))
    plan = pure.flat_mul_plan(struct)
    rank, rows = len(struct), len({id(row) for cells in struct for row in cells})
    assert len(checked) == rank * rows < rank**3
    checked.clear()
    assert pure.flat_mul_plan(unshared) == plan
    assert len(checked) == rank**3


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
        check_product(compile_mul, struct, modulus, pairs)

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
            kernels.compile_flat_ring(struct, 2, 10)
        with pytest.raises(TypeError):
            compile_mul((((1,),),), bad)

    def test_source_holds_only_literals_and_locals(self, q3):
        ring = q3.L.flat_lift(3)
        source = pure.flat_mul_source(pure.flat_mul_plan(ring.struct), 3, ring.modulus)
        names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", source))
        assert names <= {"def", "mul", "return", "a", "b"} | {
            f"{x}{k}" for x in "abg" for k in range(9)
        }
        # the expanded p-th power: 10 monomials of degree 3 in a0, a1, a2
        power = ring.pth_power
        assert "expansion" in power.__code__.co_filename
        names = set(power.__code__.co_varnames) | set(power.__code__.co_names)
        assert names <= {"a"} | {f"{x}{k}" for x in "ag" for k in range(10)}

    def test_unit_rows_add_directly(self, q3):
        # O_L of q3_ramified: pi_L^0..pi_L^2 are basis vectors, so only
        # the cells landing on pi_L^3 and pi_L^4 are reduced before scaling
        source = pure.flat_mul_source(pure.flat_mul_plan(q3.L.struct), 3, q3.modulus)
        assert source.count(f") % {q3.modulus}\n") == 2


def mul_chain(ring, x):
    """x^p as p-1 chained products of the ring's compiled ``mul``."""
    out = x
    for _ in range(ring.p - 1):
        out = ring.mul(out, x)
    return out


def pow_form(power):
    """"expansion" or "chain", read from the compiled function's name."""
    return power.__code__.co_filename.split()[-1].rstrip(">")


POW_RINGS = [
    (name, level, extra)
    for name in SIX_TOWERS
    for level in ("K", "L")
    for extra in range(5)
]


def special_coords(ring):
    """Zero, one, p^(D-1) and modulus-1 in every coordinate, D the digits."""
    return [
        ring.zero_elem,
        ring.one_elem,
        (ring.p ** (ring.digits - 1),) * ring.flat_rank,
        (ring.modulus - 1,) * ring.flat_rank,
    ]


def polynomial_rows(low, modulus):
    """Structure rows of Z/modulus[x]/(x^r - sum_k low[k] x^k), r = len(low),
    on the basis 1, x, ..., x^(r-1): a commutative ring, as a power needs."""
    r = len(low)
    powers = [tuple(int(i == k) for i in range(r)) for k in range(r)]
    for _ in range(r - 1):
        top = powers[-1]
        shifted = (0,) + top[:-1]
        powers.append(tuple((c + top[-1] * f) % modulus for c, f in zip(shifted, low)))
    return tuple(tuple(powers[i + j] for j in range(r)) for i in range(r))


# (p, rank, form) either side of the bound: the expansion while
# C(rank+p-1, p) < 5/4 * rank^2; rank 7 at p = 7 has 1716 monomials
POW_FORMS = [
    (2, 1, "expansion"),
    (2, 8, "expansion"),
    (3, 3, "expansion"),
    (3, 4, "chain"),
    (5, 1, "expansion"),
    (5, 2, "chain"),
    (7, 1, "expansion"),
    (7, 2, "chain"),
    (7, 7, "chain"),
]


class TestCompiledPower:
    """The p-th power each ring compiles on first use against p-1 chained
    calls of its compiled product."""

    @pytest.mark.parametrize("name,level,extra", POW_RINGS)
    @PRODUCT_PROPERTY
    @given(data=st.data())
    def test_tower_rings_match_mul_chain(self, all_towers, name, level, extra, data):
        ring = ring_at(all_towers[name], level, extra)
        special = [0, 1, ring.p ** (ring.digits - 1), ring.modulus - 1]
        digit = st.sampled_from(special) | st.integers(0, ring.modulus - 1)
        drawn = [
            tuple(data.draw(digit) for _ in range(ring.flat_rank)) for _ in range(4)
        ]
        for x in special_coords(ring) + drawn:
            assert ring.pth_power(x) == mul_chain(ring, x)

    def test_tower_rings_expand(self, all_towers):
        # rank <= 4 at p = 2 and rank <= 3 at p = 3: every test tower's ring
        # has fewer monomials than 5/4 of a product's cells
        for name, level, extra in POW_RINGS:
            assert pow_form(ring_at(all_towers[name], level, extra).pth_power) == "expansion"

    @pytest.mark.parametrize("p,rank,form", POW_FORMS)
    @PRODUCT_PROPERTY
    @given(data=st.data())
    def test_polynomial_rows_match_mul_chain(self, p, rank, form, data):
        # rows of Z/p^D[x]/(f), f monic of degree rank with drawn coefficients;
        # the form is the one the timings chose at this rank and p
        digits = data.draw(st.integers(1, 12))
        modulus = p**digits
        special = [0, 1, p ** (digits - 1), modulus - 1]
        digit = st.sampled_from(special) | st.integers(0, modulus - 1)
        struct = polynomial_rows([data.draw(digit) for _ in range(rank)], modulus)
        mul = kernels.compile_flat_ring(struct, p, digits)
        power = kernels.compile_flat_pow(struct, modulus, p, mul)
        assert pow_form(power) == form
        for _ in range(4):
            x = tuple(data.draw(digit) for _ in range(rank))
            out = x
            for _ in range(p - 1):
                out = mul(out, x)
            assert power(x) == out

    def test_multinomial_off_by_one_fails(self, all_towers, monkeypatch):
        # mutant: every coefficient above one is one too large
        good = pure.multinomial
        monkeypatch.setattr(pure, "multinomial", lambda counts: good(counts) + (good(counts) > 1))
        rng = random.Random(0)
        with pytest.raises(AssertionError):
            for name, level, extra in POW_RINGS:
                ring = ring_at(all_towers[name], level, extra)
                power = kernels.compile_flat_pow(ring.struct, ring.modulus, ring.p, ring.mul)
                for _ in range(4):
                    x = tuple(rng.randrange(ring.modulus) for _ in range(ring.flat_rank))
                    assert power(x) == mul_chain(ring, x)

    def test_power_is_compiled_on_first_use(self):
        # a tower build compiles no power; the first ghost pass does
        tower = load("q3")
        # the pairs of both rings and every lift, by digit count
        rings = [ring for pair in tower.K._lifts.values() for ring in pair]
        assert all(ring._pth_power is None for ring in rings)
        x = tower.L.one_elem
        assert tower.L.pth_power(x) == x
        assert tower.L._pth_power is tower.L.pth_power


class TestCompiledGhostPass:
    """The ghost pass ``wittcore.ghost_sum`` compiles per shape; its values
    are compared with the loop it replaced in ``test_ghost``."""

    @staticmethod
    def check_names(source):
        names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", source))
        keywords = {
            "def", "ghost_pass", "pth_in", "pth_out", "columns", "if", "raise", "indivisible",
            "return",
        }
        # y<i>_<j>[_<k>] summand j of column i (coordinate k), t<k> the
        # ghost sum at coordinate k, s and o the S_i before and after
        # reduction to the working modulus
        local = re.compile(r"y\d_\d(_\d)?|t\d|s\d(_\d)?|o\d")
        assert all(n in keywords or local.fullmatch(n) for n in names)

    def test_source_holds_only_literals_and_locals(self, q3, quartic):
        ring = q3.L.flat_lift(3)
        identity = tuple(tuple(int(i == k) for k in range(3)) for i in range(3))
        source = pure.ghost_pass_source(3, identity, (3, 3, 3), 4, ring.modulus, q3.modulus)
        self.check_names(source)
        assert source.count("raise indivisible(") == 3 * 3  # levels 2-4, 3 coordinates
        # the trace rows of a tower over a ramified K: e_K = 2 rows on 4
        # coordinates
        lifted = quartic.L.flat_lift(3)
        rows = quartic.trace_rows(lifted.digits)
        source = pure.ghost_pass_source(2, rows, (1, 1, 1), 4, lifted.modulus, quartic.modulus)
        self.check_names(source)
        assert source.count("raise indivisible(") == 3 * 2  # levels 2-4, 2 coordinates
        # a ghost sum that both rows use is named once per level
        rows = ((2, 0, 5, 0), (3, 2, 0, 5))
        source = pure.ghost_pass_source(2, rows, (2, 1), 3, 2**12, 2**10)
        self.check_names(source)
        assert source.count("    t0 = ") == 3 and "t1" not in source  # levels 1-3

    @pytest.mark.parametrize("bad", [1.0, "1", True, None])
    def test_generator_accepts_only_integers(self, bad):
        good = (2, ((1, 0), (0, 1)), (2, 2), 3, 2**10, 2**8)
        for k in range(len(good)):
            args = list(good)
            args[k] = ((bad,),) if k == 1 else (bad,) if k == 2 else bad
            with pytest.raises(TypeError):
                pure.ghost_pass_source(*args)

    def test_fresh_tower_has_compiled_no_pass(self):
        kernels.compile_ghost_pass.cache_clear()
        load("q3")
        assert kernels.compile_ghost_pass.cache_info().misses == 0

    def test_same_shape_reuses_the_pass(self):
        tower = load("q3")
        kernels.compile_ghost_pass.cache_clear()
        one = tower.L.one_elem
        columns = [[one] * 3, [one] * 3]
        first = wittcore.ghost_sum(tower.L, columns, 3)
        other = [[tower.L.zero_elem] * 3, [one] * 3]
        assert wittcore.ghost_sum(tower.L, other, 3) != first
        assert wittcore.ghost_sum(tower.L, columns, 3) == first
        info = kernels.compile_ghost_pass.cache_info()
        assert (info.misses, info.hits) == (1, 2)
        # another shape, one more compile
        wittcore.ghost_sum(tower.L, columns[:1], 3)
        assert kernels.compile_ghost_pass.cache_info().misses == 2

    def test_rings_with_equal_moduli_share_the_pass(self, q2_sqrt2, q2_sqrt_minus2):
        """Two towers with the same p, rank and moduli compile a shape once,
        and the shared pass gives each ring its own sums."""
        kernels.compile_ghost_pass.cache_clear()
        rng = random.Random(3)
        for tower in (q2_sqrt2, q2_sqrt_minus2):
            columns = [[tower.random_L_elem(rng).data for _ in range(2)] for _ in range(2)]
            got = wittcore.ghost_sum(tower.L, columns, 3)
            assert got == ghost_sum_by_loops(tower.L, columns, 3)
        info = kernels.compile_ghost_pass.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def first_nonzero_level(p, ring, columns, levels, digits):
    """The reference for ``compile_ghost_zero``: the first component of the
    Witt sum of the columns (``ghost_sum_by_loops``) with a coordinate not
    0 modulo p^digits, or 0."""
    sums = ghost_sum_by_loops(ring, columns, levels)
    return next((l for l, s in enumerate(sums, 1) if any(c % p**digits for c in s)), 0)


class TestCompiledGhostZero:
    """The check of the trace audit: whether a Witt sum is zero modulo
    p^digits, decided on its ghost components."""

    def test_source_holds_only_literals_and_locals(self):
        source = pure.ghost_zero_source(3, 3, (3, 3, 3), 4, 16)
        names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", source))
        keywords = {"def", "ghost_zero", "pth", "columns", "if", "or", "return"}
        assert all(n in keywords or re.fullmatch(r"y\d_\d(_\d)?", n) for n in names)
        # one check per level, modulo 3^16 ... 3^19; nothing divided
        assert [source.count(f"% {3 ** (16 + l)}") for l in range(4)] == [3, 3, 3, 3]
        assert source.count("return") == 5 and "//" not in source

    @pytest.mark.parametrize("bad", [1.0, "1", True, None])
    def test_generator_accepts_only_integers(self, bad):
        good = (2, 2, (2, 2), 3, 5)
        for k in range(len(good)):
            args = list(good)
            args[k] = (bad,) if k == 2 else bad
            with pytest.raises(TypeError):
                pure.ghost_zero_source(*args)
        with pytest.raises(ValueError):
            pure.ghost_zero_source(2, 2, (2, 2), 3, 0)

    @pytest.mark.parametrize("name", ["q2_sqrt2", "q3", "quartic"])
    def test_first_nonzero_level_matches_the_witt_sum(self, all_towers, name):
        # the columns of x and -x sum to zero; a perturbation p^j of one
        # component makes the sum nonzero modulo p^digits from some level
        tower = all_towers[name]
        p, L, n, digits = tower.p, tower.L, 4, tower.N
        rng = random.Random(0)
        check = kernels.compile_ghost_zero(p, L.flat_rank, (2,) * n, n, digits)
        pth = L.flat_lift(n - 1).pth_power
        seen = set()
        for _ in range(6):
            x = wittcore.WittVec(L, tuple(tower.random_L_raw(rng) for _ in range(n)))
            y = (-x).components
            for k in range(n):
                for j in (0, digits - 1, digits, rng.randrange(digits)):
                    comps = list(x.components)
                    comps[k] = L.add(comps[k], L.from_int(p**j))
                    columns = [list(pair) for pair in zip(comps, y)]
                    want = first_nonzero_level(p, L, columns, n, digits)
                    assert check(pth, columns) == want
                    seen.add(want)
        assert seen == {0, 1, 2, 3, 4}

    def test_same_arguments_share_the_check(self):
        kernels.compile_ghost_zero.cache_clear()
        for name in ("q2_sqrt2", "q2_sqrt_minus2"):
            tower = load(name)
            sample = cohomlab.sample_trace_zero(tower, 3, random.Random(0))
            assert sample.provenance == "recursive-sampler"
        info = kernels.compile_ghost_zero.cache_info()
        assert (info.misses, info.hits) == (1, 1)


def mat_vec(matrix, a, modulus):
    """The reference for the compiled maps: a plain matrix-vector product."""
    return tuple(sum(c * x for c, x in zip(row, a)) % modulus for row in matrix)


def check_linear(build, matrix, modulus, vectors):
    """A map built from ``matrix`` against ``mat_vec``, byte for byte."""
    apply = build(matrix, modulus)
    for a in vectors:
        assert apply(a) == mat_vec(matrix, a, modulus)


def random_matrix(draw, rows, cols, modulus, zero_odds):
    """Each entry is zero with probability ``zero_odds`` percent."""
    return tuple(
        tuple(0 if draw(0, 99) < zero_odds else draw(0, modulus - 1) for _ in range(cols))
        for _ in range(rows)
    )


def compile_linear_source(source):
    namespace = {}
    exec(source, namespace)
    return namespace["apply"]


def drop_a_term(matrix, modulus):
    """Mutant generator: the source leaves out the first nonzero entry."""
    rows = [list(row) for row in matrix]
    for row in rows:
        m = next((m for m, c in enumerate(row) if c % modulus), None)
        if m is not None:
            row[m] = 0
            break
    return compile_linear_source(pure.flat_linear_source(rows, modulus))


def unreduced_outputs(matrix, modulus):
    """Mutant generator: the outputs are returned without their reduction."""
    source = pure.flat_linear_source(matrix, modulus)
    return compile_linear_source(source.replace(f") % {modulus}", ")"))


class TestCompiledLinear:
    """The sigma^i and trace maps each tower compiles from its matrices,
    against a plain matrix-vector product and the substitution path."""

    @pytest.mark.parametrize("name", SIX_TOWERS)
    @PRODUCT_PROPERTY
    @given(data=st.data())
    def test_tower_maps_match_reference(self, all_towers, name, data):
        tower = all_towers[name]
        L, modulus = tower.L, tower.modulus
        a = tuple(data.draw(st.integers(0, modulus - 1)) for _ in range(L.flat_rank))
        conjugates = conjugates_by_substitution(tower, a)
        for i in range(1, tower.p):
            got = tower.galois_maps[i](a)
            assert got == mat_vec(tower.galois_mats[i], a, modulus), i
            assert got == conjugates[i], i
        full = tuple(sum(col) % modulus for col in zip(*conjugates))
        rows = tower.trace_rows(tower.N_int)
        assert tower.trace_map(a) == mat_vec(rows, a, modulus) == full[: tower.e_K]
        assert not any(full[tower.e_K :])

    @pytest.mark.parametrize("zero_odds", [0, 50, 100])
    @pytest.mark.parametrize("shape", ["square", "e_K x rank"])
    @PRODUCT_PROPERTY
    @given(data=st.data())
    def test_random_matrices_match_mat_vec(self, zero_odds, shape, data):
        draw = lambda lo, hi: data.draw(st.integers(lo, hi))
        cols = draw(1, 4)
        rows = cols if shape == "square" else draw(1, cols)
        modulus = data.draw(st.sampled_from([2, 3, 2**24, 3**23, 5**30, 10**40 + 7]))
        matrix = random_matrix(draw, rows, cols, modulus, zero_odds)
        vectors = [tuple(draw(0, modulus - 1) for _ in range(cols)) for _ in range(4)]
        check_linear(kernels.compile_flat_linear, matrix, modulus, vectors)

    @pytest.mark.parametrize(
        "build", [drop_a_term, unreduced_outputs], ids=lambda f: f.__name__
    )
    def test_mutant_generators_fail(self, all_towers, build):
        rng = random.Random(0)
        draw = rng.randint
        with pytest.raises(AssertionError):
            for name in SIX_TOWERS:
                tower = all_towers[name]
                rank, modulus = tower.L.flat_rank, tower.modulus
                vectors = [tuple(draw(0, modulus - 1) for _ in range(rank)) for _ in range(4)]
                for matrix in tower.galois_mats[1:] + (tower.trace_rows(tower.N_int),):
                    check_linear(build, matrix, modulus, vectors)
            for cols in range(1, 5):
                modulus = 3**23
                matrix = random_matrix(draw, cols, cols, modulus, 0)
                vectors = [tuple(draw(0, modulus - 1) for _ in range(cols)) for _ in range(4)]
                check_linear(build, matrix, modulus, vectors)

    @pytest.mark.parametrize("bad", [1.0, "1", True, None])
    def test_generator_accepts_only_integers(self, bad):
        with pytest.raises(TypeError):
            kernels.compile_flat_linear(((1, 0), (bad, 1)), 2**10)
        with pytest.raises(TypeError):
            kernels.compile_flat_linear(((1,),), bad)

    def test_source_holds_only_literals_and_locals(self, q3):
        source = pure.flat_linear_source(q3.trace_rows(q3.N_int), q3.modulus)
        source += pure.flat_linear_source(q3.galois_mats[1], q3.modulus)
        names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", source))
        assert names <= {"def", "apply", "return", "a", "a0", "a1", "a2"}

    def test_constants_are_least_absolute_and_zeros_left_out(self):
        source = pure.flat_linear_source(((1, 0, 8), (0, 0, 0), (0, 6, 7)), 9)
        assert source.endswith("return ((a0 + -a2) % 9, 0, (-3 * a1 + -2 * a2) % 9,)\n")


SOLVE_PROPERTY = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def random_system(draw, p, digits, rows, cols):
    """A matrix modulo p^digits whose rows are zero one time in five, and
    whose entries are multiplied by p^0, p^1 or p^2, so that its Smith
    form has pivots v = 0 and v > 0 and, often, rows past its rank."""
    modulus = p**digits
    return tuple(
        (0,) * cols
        if draw(0, 4) == 0
        else tuple(draw(0, modulus - 1) * p ** draw(0, 2) % modulus for _ in range(cols))
        for _ in range(rows)
    )


def right_hand_sides(draw, matrix, p, digits):
    """One vector in the image of ``matrix``, the same vector moved by
    p^j at one coordinate, and a uniform vector: the last two are outside
    the image as often as not."""
    modulus, rows, cols = p**digits, len(matrix), len(matrix[0])
    inside = mat_vec(matrix, [draw(0, modulus - 1) for _ in range(cols)], modulus)
    moved = list(inside)
    moved[draw(0, rows - 1)] += p ** draw(0, digits - 1)
    uniform = tuple(draw(0, modulus - 1) for _ in range(rows))
    return inside, tuple(c % modulus for c in moved), uniform


def random_systems(seed, count):
    """``count`` systems (p, digits, matrix, right-hand sides) from one seed."""
    rng = random.Random(seed)
    draw = rng.randint
    for _ in range(count):
        p, digits = rng.choice((2, 3, 5, 7)), draw(1, 5)
        matrix = random_system(draw, p, digits, draw(1, 8), draw(1, 8))
        yield p, digits, matrix, right_hand_sides(draw, matrix, p, digits)


def mutant_solve(snf, edit=None, depth_shift=0):
    """``snf``'s solve compiled from ``smith_solve_source`` after ``edit``,
    raising what the form's own ``unsolvable`` raises, its depth shifted
    by ``depth_shift``."""
    source = pure.smith_solve_source(snf.pivots, snf.U, snf.V, snf.p, snf.modulus)
    unsolvable = snf.solve.__globals__["unsolvable"]

    def shifted(u):
        exc = unsolvable(u)
        return NoSolutionAtPrecision(exc.depth + depth_shift, exc.delta)

    namespace = {"unsolvable": shifted}
    exec(edit(source, snf.p) if edit else source, namespace)
    return namespace["solve"]


def pivot_test_one_digit_short(source, p):
    """Mutant: each pivot v > 0 tests u % p^(v-1)."""
    return re.sub(r"if (u\d+) % (\d+):", lambda m: f"if {m[1]} % {int(m[2]) // p}:", source)


def rows_past_the_rank_unchecked(source, p):
    """Mutant: the rows past the rank are not tested."""
    return re.sub(r"    if u\d+:\n        raise unsolvable\(u\d+\)\n", "", source)


def floored_division(source, p):
    """Mutant: no pivot test, so u // p^v floors where it should refuse."""
    return re.sub(r"    if u\d+ % \d+:\n        raise unsolvable\(u\d+\)\n", "", source)


class TestCompiledSmithSolve:
    """The solve each Smith form compiles (``SmithForm.solve``) against the
    interpreted ``linsolve``: the same particular and delta, or the same
    NoSolutionAtPrecision depth and delta."""

    @SOLVE_PROPERTY
    @given(data=st.data())
    def test_random_systems_match_linsolve(self, data):
        draw = lambda lo, hi: data.draw(st.integers(lo, hi))
        p = data.draw(st.sampled_from([2, 3, 5, 7]))
        digits = draw(1, 5)
        matrix = random_system(draw, p, digits, draw(1, 8), draw(1, 8))
        snf = smith_normal_form(matrix, p, digits)
        for rhs in right_hand_sides(draw, matrix, p, digits):
            got = cohomlab._solve_outcome(snf.solve, rhs)
            assert got == cohomlab._solve_outcome(linsolve, snf, rhs)

    def test_fixed_batch_reaches_every_branch(self):
        # the batch the mutants below run on: solvable systems, refusals by
        # a pivot test and by a row past the rank, with v = 0 and v > 0 pivots
        seen = set()
        for p, digits, matrix, rhss in random_systems(0, 300):
            snf = smith_normal_form(matrix, p, digits)
            seen |= {("v", min(v, 1)) for v in snf.pivots}
            for rhs in rhss:
                u = mat_vec(snf.U, rhs, snf.modulus)
                x = cohomlab._solve_outcome(snf.solve, rhs)
                assert x == cohomlab._solve_outcome(linsolve, snf, rhs)
                if x[0] is not None:
                    seen.add("solved")
                elif any(u[k] % p**v for k, v in enumerate(snf.pivots)):
                    seen.add("pivot test")
                else:
                    assert any(u[len(snf.pivots):])
                    seen.add("past the rank")
        assert seen == {("v", 0), ("v", 1), "solved", "pivot test", "past the rank"}

    @pytest.mark.parametrize(
        "edit, depth_shift",
        [
            (pivot_test_one_digit_short, 0),
            (rows_past_the_rank_unchecked, 0),
            (floored_division, 0),
            (None, 1),
        ],
        ids=["pivot test at p^(v-1)", "rows past the rank", "floored division", "depth + 1"],
    )
    def test_mutants_fail(self, edit, depth_shift):
        differs = 0
        for p, digits, matrix, rhss in random_systems(0, 300):
            snf = smith_normal_form(matrix, p, digits)
            mutant = mutant_solve(snf, edit, depth_shift)
            for rhs in rhss:
                got = cohomlab._solve_outcome(mutant, rhs)
                differs += got != cohomlab._solve_outcome(linsolve, snf, rhs)
        assert differs

    def test_unedited_mutant_matches(self):
        # the harness the mutants run in changes nothing by itself
        for p, digits, matrix, rhss in random_systems(0, 300):
            snf = smith_normal_form(matrix, p, digits)
            solve = mutant_solve(snf)
            for rhs in rhss:
                got = cohomlab._solve_outcome(solve, rhs)
                assert got == cohomlab._solve_outcome(snf.solve, rhs)

    def test_source_holds_only_literals_and_locals(self, q3):
        snf = q3.sigma_minus_one_snf(q3.N)
        source = pure.smith_solve_source(snf.pivots, snf.U, snf.V, snf.p, snf.modulus)
        names = set(re.findall(r"[A-Za-z_][A-Za-z_0-9]*", source))
        locals_ = {n for n in names if re.fullmatch(r"[cuz]\d+", n)}
        assert names - locals_ <= {"def", "solve", "c", "if", "raise", "unsolvable", "return"}

    def test_constants_are_least_absolute_and_lone_quotients_unreduced(self):
        # U = [[1, 8], [0, 1]], V = [[1, 7], [0, 1]], pivots (1,) modulo 9
        source = pure.smith_solve_source((1,), ((1, 8), (0, 1)), ((1, 7), (0, 1)), 3, 9)
        assert "    u0 = (c0 + -c1) % 9\n" in source
        assert "    if u0 % 3:\n        raise unsolvable(u0)\n" in source
        assert "    if u1:\n        raise unsolvable(u1)\n" in source
        assert source.endswith("    z0 = u0 // 3\n    return (z0, 0,), 1\n")

    @pytest.mark.parametrize("bad", [1.0, "1", True, None])
    def test_generator_accepts_only_integers(self, bad):
        with pytest.raises(TypeError):
            pure.smith_solve_source((1,), ((bad,),), ((1,),), 2, 8)
        with pytest.raises(TypeError):
            pure.smith_solve_source((bad,), ((1,),), ((1,),), 2, 8)
        with pytest.raises(TypeError):
            pure.smith_solve_source((1,), ((1,),), ((1,),), 2, bad)


class TestCompiledRedraw:
    """``compile_kernel_redraw`` inlines only checked ints; its draws are
    compared with the loop over ``_uniform`` in ``test_cohomlab``."""

    MATRIX = ((1, 0, 3), (0, 1, -5))

    def test_code_names_nothing_but_its_locals(self, q3):
        for redraw in (q3.trace_kernel_maps[1], kernels.compile_kernel_redraw(self.MATRIX, 2**10, 4)):
            code = redraw.__code__
            assert code.co_names == ()
            assert all(c is None or c is True or type(c) is int for c in code.co_consts)

    @pytest.mark.parametrize("bad", [1.0, "1", True, None])
    def test_generator_accepts_only_integers(self, bad):
        with pytest.raises(TypeError):
            kernels.compile_kernel_redraw(((1, 0, bad), (0, 1, 5)), 2**10, 4)
        with pytest.raises(TypeError):
            kernels.compile_kernel_redraw(self.MATRIX, bad, 4)
        with pytest.raises(TypeError):
            kernels.compile_kernel_redraw(self.MATRIX, 2**10, bad)

    @pytest.mark.parametrize("moduli", [(0, 4), (2**10, 0), (-8, 4), (2**10, -1)])
    def test_refuses_a_modulus_below_one(self, moduli):
        with pytest.raises(ValueError, match="modulus must be positive"):
            kernels.compile_kernel_redraw(self.MATRIX, *moduli)

    def test_residue_modulus_one_keys_every_draw_alike(self):
        redraw = kernels.compile_kernel_redraw(self.MATRIX, 2**10, 1)
        v, key, hits = redraw(random.Random(0).getrandbits, (7, 9), {(0, 0)}, 5)
        assert (key, hits) == ((0, 0), 5) and v[:2] == (7, 9)


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


# every generator refuses a modulus below 1 and a ragged or empty matrix
# before it writes a line of source: (call, error message)
RAGGED = ((1, 2), (3,))
GENERATOR_REFUSALS = {
    "flat_mul_source modulus 0": (
        lambda: pure.flat_mul_source([], 2, 0), "modulus must be positive, got 0"
    ),
    "flat_mul_source modulus -4": (
        lambda: pure.flat_mul_source([], 2, -4), "modulus must be positive, got -4"
    ),
    "flat_mul_plan short row": (
        lambda: pure.flat_mul_plan((((1, 0), (0, 1)), ((0, 1),))),
        r"structure row 1 has 1 cells, need 2",
    ),
    "flat_mul_plan short cell": (
        lambda: pure.flat_mul_plan((((1, 0), (0,)), ((0, 1), (1, 0)))),
        r"structure cell \(0, 1\) has 1 coordinates, need 2",
    ),
    "ghost_pass_source modulus 0": (
        lambda: pure.ghost_pass_source(2, ((1, 0), (0, 1)), (2,), 1, 0, 4),
        "modulus must be positive, got 0",
    ),
    "ghost_pass_source ragged rows": (
        lambda: pure.ghost_pass_source(2, RAGGED, (2,), 1, 4, 4),
        "a ghost pass needs at least one row, all of one length",
    ),
    "ghost_pass_source no rows": (
        lambda: pure.ghost_pass_source(2, (), (2,), 1, 4, 4),
        "a ghost pass needs at least one row, all of one length",
    ),
    "ghost_zero_source digits 0": (
        lambda: pure.ghost_zero_source(2, 2, (2,), 1, 0), "digits must be positive, got 0"
    ),
    "flat_linear_source modulus 0": (
        lambda: pure.flat_linear_source(((1, 0), (0, 1)), 0), "modulus must be positive, got 0"
    ),
    "flat_linear_source ragged": (
        lambda: pure.flat_linear_source(RAGGED, 4), "matrix row 1 has 1 entries, need 2"
    ),
    "flat_linear_source no columns": (
        lambda: pure.flat_linear_source(((),), 4), "a matrix needs at least one row and one column"
    ),
    "smith_solve_source modulus 0": (
        lambda: pure.smith_solve_source((0,), ((1,),), ((1,),), 2, 0),
        "modulus must be positive, got 0",
    ),
    "smith_solve_source ragged U": (
        lambda: pure.smith_solve_source((0,), RAGGED, ((1, 0), (0, 1)), 2, 4),
        "U and V must be square",
    ),
    "smith_solve_source ragged V": (
        lambda: pure.smith_solve_source((0,), ((1, 0), (0, 1)), RAGGED, 2, 4),
        "U and V must be square",
    ),
    "smith_solve_source no U": (
        lambda: pure.smith_solve_source((), (), ((1,),), 2, 4),
        "a Smith form needs at least one row and one column",
    ),
}


@pytest.mark.parametrize("case", sorted(GENERATOR_REFUSALS))
def test_generator_refusals(case):
    call, message = GENERATOR_REFUSALS[case]
    with pytest.raises(ValueError, match=message):
        call()
