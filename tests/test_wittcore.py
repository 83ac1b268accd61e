import json
import random

import pytest

from wittlab import cli, wittcore
from wittlab.exactpoly import MPoly
from wittlab.wittcore import (
    PFOLD_RANGE,
    IntegralityViolation,
    WittCtx,
    alternating_binom_constant,
    carry_value,
    ctx_for,
    dump_tables,
    fold_var,
    ghost_poly,
    pfold_decomposition,
    witt_sum,
    xvar,
    yvar,
)

from oracles import pfold_components_by_folding, polynomial_witt_sum, zmod


def flat_ints(ring, values) -> tuple:
    """Integers as flat coordinate tuples of a tower ring, reduced."""
    return tuple(map(ring.from_int, values))


def ghost_of_ints(p, comps):
    """Independent ghost map over plain integers."""
    out = []
    for l in range(1, len(comps) + 1):
        out.append(sum(p ** (i - 1) * comps[i - 1] ** (p ** (l - i)) for i in range(1, l + 1)))
    return out


def witt_sum_by_ghost(p, vectors):
    """Oracle: sum integer vectors through the ghost map and invert it.

    The inversion solves for z_l from the ghost identity one level at a
    time using exact integer division, touching none of the polynomial
    machinery.
    """
    n = len(vectors[0])
    targets = [0] * n
    for vec in vectors:
        for l, g in enumerate(ghost_of_ints(p, vec)):
            targets[l] += g
    z = []
    for l in range(1, n + 1):
        partial = sum(p ** (i - 1) * z[i - 1] ** (p ** (l - i)) for i in range(1, l))
        num = targets[l - 1] - partial
        q, r = divmod(num, p ** (l - 1))
        assert r == 0
        z.append(q)
    return z


class TestGhostPolys:
    def test_level_one(self):
        assert ghost_poly(2, 1) == MPoly.var(0)

    def test_p2_level2(self):
        assert ghost_poly(2, 2) == MPoly.var(0, 2) + 2 * MPoly.var(1)

    def test_p3_level3(self):
        expected = MPoly.var(0, 9) + 3 * MPoly.var(1, 3) + 9 * MPoly.var(2)
        assert ghost_poly(3, 3) == expected


class TestAdditionPolys:
    def test_phi1_every_p(self):
        for p in (2, 3, 5):
            assert ctx_for(p, 1).addition[0] == MPoly.var(xvar(1)) + MPoly.var(yvar(1))

    def test_phi2_p2(self):
        x1, y1 = MPoly.var(xvar(1)), MPoly.var(yvar(1))
        x2, y2 = MPoly.var(xvar(2)), MPoly.var(yvar(2))
        assert ctx_for(2, 2).addition[1] == x2 + y2 - x1 * y1

    def test_phi2_p3(self):
        x1, y1 = MPoly.var(xvar(1)), MPoly.var(yvar(1))
        x2, y2 = MPoly.var(xvar(2)), MPoly.var(yvar(2))
        assert ctx_for(3, 2).addition[1] == x2 + y2 - x1**2 * y1 - x1 * y1**2

    def test_ghost_identity_direct_substitution(self):
        # independent of the recursion that produced the tables
        for p, n in ((2, 3), (3, 2), (5, 2)):
            ctx_for(p, n).verify_ghost_identities()

    def test_out_of_range(self):
        # a context outside the symbolic budget exists (tower vectors need
        # no table); only its tables refuse
        for p, n in ((2, 6), (7, 1)):
            ctx = ctx_for(p, n)
            assert ctx.n == n and len(ctx.ghost) == n
            with pytest.raises(ValueError):
                ctx.addition
            with pytest.raises(ValueError):
                ctx.negation
        with pytest.raises(ValueError):
            ctx_for(2, 0)

    def test_tables_are_built_on_first_access(self):
        ctx = WittCtx(2, 3)
        assert "addition" not in vars(ctx) and "negation" not in vars(ctx)
        assert ctx.addition is ctx.addition
        assert "negation" not in vars(ctx)
        assert ctx.negation == ctx_for(2, 3).negation


class TestNegationPolys:
    def test_odd_p_is_componentwise(self):
        for p, n in ((3, 3), (5, 2)):
            ctx = ctx_for(p, n)
            for l in range(1, n + 1):
                assert ctx.negation[l - 1] == -MPoly.var(l - 1)

    def test_p2(self):
        ctx = ctx_for(2, 2)
        assert ctx.negation[0] == -MPoly.var(0)
        assert ctx.negation[1] == -MPoly.var(1) - MPoly.var(0, 2)


class TestWittArithmetic:
    """Sums over the integers go through the polynomial oracle; sums over
    Z/p^k, a rank-1 tower ring, through the package's ghost path."""

    def test_identity_element(self):
        rng = random.Random(0)
        for _ in range(20):
            v = tuple(rng.randrange(-9, 9) for _ in range(3))
            assert polynomial_witt_sum(2, [(0,) * 3, v]) == v

    def test_one_plus_one_p2(self):
        ctx = ctx_for(2, 2)
        w = polynomial_witt_sum(2, [(1, 0), (1, 0)])
        assert w == (2, -1)
        assert [g.eval(dict(enumerate(w))) for g in ctx.ghost] == [2, 2]

    def test_one_plus_one_mod8(self):
        ring = zmod(2, 3)
        ctx = ctx_for(2, 2)
        v = ctx.vec(ring, [1, 0])
        w = v + v
        assert w.components == ((2,), (7,))

    def test_inverse_law_mod16(self):
        rng = random.Random(5)
        ring = zmod(2, 4)
        ctx = ctx_for(2, 3)
        zero = ctx.vec(ring, [0] * 3)
        for _ in range(50):
            v = ctx.vec(ring, [rng.randrange(16) for _ in range(3)])
            assert (v + (-v)).components == zero.components

    def test_threefold_sum_p3_ghost_oracle(self):
        u = (1, 0)
        s = polynomial_witt_sum(3, [u, u, u])
        assert list(s) == witt_sum_by_ghost(3, [[1, 0]] * 3)
        assert s == (3, -8)
        ring = zmod(3, 16)
        over_mod = witt_sum([ctx_for(3, 2).vec(ring, u)] * 3)
        assert over_mod.components == flat_ints(ring, s)

    def test_random_sums_against_ghost_oracle(self):
        rng = random.Random(13)
        for p, n in ((2, 4), (3, 3), (5, 2)):
            ctx = ctx_for(p, n)
            ring = zmod(p, 16)
            for _ in range(25):
                rows = [[rng.randrange(-4, 5) for _ in range(n)] for _ in range(3)]
                want = witt_sum_by_ghost(p, rows)
                assert list(polynomial_witt_sum(p, rows)) == want
                got = witt_sum([ctx.vec(ring, row) for row in rows])
                assert got.components == flat_ints(ring, want)

    def test_naturality_of_reduction(self):
        rng = random.Random(17)
        for p, n in ((2, 4), (3, 3)):
            ring = zmod(p, 16)
            ctx = ctx_for(p, n)
            for _ in range(25):
                a = [rng.randrange(-99, 99) for _ in range(n)]
                b = [rng.randrange(-99, 99) for _ in range(n)]
                over_z = polynomial_witt_sum(p, [a, b])
                over_mod = ctx.vec(ring, a) + ctx.vec(ring, b)
                assert flat_ints(ring, over_z) == over_mod.components


class TestTruncation:
    def test_drops_tail(self):
        ring = zmod(2, 16)
        assert ctx_for(2, 2).vec(ring, [3, 4]).components[:1] == flat_ints(ring, [3])

    def test_is_additive(self):
        rng = random.Random(23)
        ring = zmod(3, 16)
        ctx = ctx_for(3, 3)
        for _ in range(30):
            a = ctx.vec(ring, [rng.randrange(-9, 9) for _ in range(3)])
            b = ctx.vec(ring, [rng.randrange(-9, 9) for _ in range(3)])
            for m in (1, 2):
                low = ctx_for(3, m)
                assert (a + b).components[:m] == (
                    low.vec(ring, a.components[:m]) + low.vec(ring, b.components[:m])
                ).components

    def test_surjective_by_zero_padding(self):
        ring = zmod(2, 16)
        a = ctx_for(2, 2).vec(ring, [5, 0])
        assert a.components[:1] == flat_ints(ring, [5])


class TestPFoldDecomposition:
    @pytest.mark.parametrize(
        "p, n", [(p, n) for p, nmax in PFOLD_RANGE.items() for n in range(1, nmax + 1)]
    )
    def test_components_match_folded_addition(self, p, n):
        # solved from the p-fold ghost identities, equal to the binary
        # addition polynomials folded p - 1 times
        assert pfold_decomposition(p, n).component_polys == pfold_components_by_folding(p, n)

    def test_first_carry_vanishes(self):
        for p in (2, 3, 5):
            assert pfold_decomposition(p, 2).carry_polys[0].is_zero()

    def test_carry2_p2(self):
        pf = pfold_decomposition(2, 2)
        expected = -(MPoly.var(fold_var(2, 1, 1)) * MPoly.var(fold_var(2, 2, 1)))
        assert pf.carry_polys[1] == expected

    def test_carry2_p2_symbolic_oracle(self):
        # (x^2 + y^2 - (x+y)^2) / 2, assembled without the fold machinery
        x = MPoly.var(fold_var(2, 1, 1))
        y = MPoly.var(fold_var(2, 2, 1))
        oracle = (x**2 + y**2 - (x + y) ** 2).exact_div_int(2)
        assert pfold_decomposition(2, 2).carry_polys[1] == oracle

    def test_degree_bounds_p2(self):
        pf = pfold_decomposition(2, 3)
        assert pf.carry_polys[2].min_monomial_degree() >= 2
        assert pf.residual_for_level(3).min_monomial_degree() >= 4

    def test_variable_support(self):
        for p, nmax in PFOLD_RANGE.items():
            pf = pfold_decomposition(p, nmax)
            for l in range(2, nmax + 1):
                allowed = {fold_var(p, i, j) for i in range(1, p + 1) for j in range(1, l)}
                assert pf.carry_polys[l - 1].variables() <= allowed

    def test_sign_convention_recorded(self):
        assert pfold_decomposition(2, 3).sign_convention == "minus"
        assert pfold_decomposition(2, 4).sign_convention == "minus"
        assert pfold_decomposition(3, 3).sign_convention == "minus"
        # with no middle bracket anywhere the convention is undetermined
        assert pfold_decomposition(5, 2).sign_convention == "degenerate"

    def test_residual_is_carry_with_column_below_zeroed(self):
        # the identity behind the numeric residual: h_l is carry_l with
        # the fold variables of column l-1 set to zero
        for p, nmax in PFOLD_RANGE.items():
            for n in range(2, nmax + 1):
                pf = pfold_decomposition(p, n)
                for l in range(2, n + 1):
                    # the fold space packs p*n variables into slots 0..p*n-1
                    assign = {v: MPoly.var(v) for v in range(p * n)}
                    for i in range(1, p + 1):
                        assign[fold_var(p, i, l - 1)] = MPoly.zero()
                    zeroed = pf.carry_polys[l - 1].eval(assign)
                    assert pf.residual_for_level(l) == zeroed, (p, n, l)

    def test_carry_constant(self):
        assert alternating_binom_constant(2) == -1
        assert alternating_binom_constant(3) == 0
        assert alternating_binom_constant(5) == 0

    def test_fold_consistency_random(self):
        rng = random.Random(29)
        for p, nmax in ((2, 3), (3, 3)):
            pf = pfold_decomposition(p, nmax)
            for _ in range(20):
                rows = [[rng.randrange(-5, 6) for _ in range(nmax)] for _ in range(p)]
                total = polynomial_witt_sum(p, rows)
                for l in range(1, nmax + 1):
                    assign = {
                        fold_var(p, i, j): rows[i - 1][j - 1]
                        for i in range(1, p + 1)
                        for j in range(1, nmax + 1)
                    }
                    f_val = pf.carry_polys[l - 1].eval(assign)
                    plain = sum(rows[i][l - 1] for i in range(p))
                    assert total[l - 1] == plain + f_val

    def test_numeric_carry_equals_symbolic(self):
        rng = random.Random(31)
        for p, nmax in ((2, 4), (3, 3)):
            pf = pfold_decomposition(p, nmax)
            ring = zmod(p, 16)
            for _ in range(20):
                rows = [
                    [rng.randrange(-5, 6) for _ in range(nmax - 1)] for _ in range(p)
                ]
                numeric = carry_value(nmax, [flat_ints(ring, r) for r in rows], ring)
                assign = {
                    fold_var(p, i, j): rows[i - 1][j - 1]
                    for i in range(1, p + 1)
                    for j in range(1, nmax)
                }
                assert (numeric,) == flat_ints(ring, [pf.carry_polys[nmax - 1].eval(assign)])


class TestDegreeAudit:
    """Each audit of ``PFoldDecomposition`` refuses a p-fold table that
    breaks its bound, and ``wittlab polys`` reports the refusal as a FAIL
    (exit 1) on one line.  The mutants add one term to the solved
    component polynomial at one level of the (p, n) = (2, 3) table."""

    x11, x12 = MPoly.var(fold_var(2, 1, 1)), MPoly.var(fold_var(2, 1, 2))

    @pytest.mark.parametrize(
        "level, term, what, found",
        [
            # a degree-2 carry at level 1, where the carry must be zero
            (1, x11 * MPoly.var(fold_var(2, 2, 1)), "first carry must vanish", (1, "x0*x1")),
            # a linear carry term, below degree p
            (2, x11, "carry degree", (2, 1)),
            # a carry term in column 2, which the level-2 carry must not read
            (2, x12**2, "carry support", (2, [0, 1, 2])),
            # degree p in column 1 passes the carry audits, but the level-2
            # residual may read no column, so it must be zero; the residual
            # audit names the table's length
            (2, x11**2, "residual", (3, "no sign convention passes")),
        ],
    )
    def test_mutant_refused(self, monkeypatch, capsys, level, term, what, found):
        solve = wittcore._solve_ghost

        def with_term(p, targets, kind):
            polys = solve(p, targets, kind)
            if kind == "p-fold sum":
                polys[level - 1] = polys[level - 1] + term
            return polys

        monkeypatch.setattr(wittcore, "_solve_ghost", with_term)
        pfold_decomposition.cache_clear()
        with pytest.raises(wittcore.DegreeAuditFailure) as refused:
            pfold_decomposition(2, 3)
        assert (refused.value.what, refused.value.level, refused.value.found) == (what, *found)
        code = cli.main(["polys", "--p", "2", "--n", "3"])
        out, err = capsys.readouterr()
        assert code == cli.EXIT_FAIL == 1
        assert err == f"polys: {what} audit failed at level {found[0]}: found {found[1]}\n"
        assert out == ""


TABLE_HASHES = {
    (2, 4): "69b9a0a424e65129b9186f86693ed6643c99e8cdaa3ef998a127c31f125d3541",
    (3, 3): "c44861ea094eb6e1b94de6f0576be026aa4af2940c3ccfa8537638ba9abe2eb0",
    (5, 2): "e5676212bca64791b736c8428905ad1ca8d65afae9497e199cc10d0b9fc3206d",
    (2, 5): "df631f4afda55e1268428f6f595479129169acab4891aea7a4a7ac3c429f7f32",
    (3, 4): "5c008e8159067644265375b56b690fd8155dbe33892a47eedacb6a2e9831b1fa",
    (5, 3): "c8622fab85758ac7a53b57ace21233acb278d5b8d124e375627e5be194edab41",
}


class TestSerialization:
    def test_dump_contains_known_poly(self):
        obj = dump_tables(2, 3)
        assert obj["binary"]["addition"][1] == ctx_for(2, 3).addition[1].to_obj()
        assert obj["pfold"]["sign_convention"] == "minus"

    def test_content_hash_stable(self):
        a = dump_tables(3, 2)
        b = dump_tables(3, 2)
        assert a["content_hash"] == b["content_hash"]

    def test_hash_distinguishes_tables(self):
        assert dump_tables(2, 2)["content_hash"] != dump_tables(2, 3)["content_hash"]

    def test_json_is_canonical(self):
        a = json.dumps(dump_tables(2, 2), sort_keys=True)
        b = json.dumps(dump_tables(2, 2), sort_keys=True)
        assert a == b

    @pytest.mark.parametrize("p, n", sorted(TABLE_HASHES))
    def test_content_hash_is_pinned(self, p, n):
        # the tables' bytes at the top of PFOLD_RANGE and of BINARY_RANGE,
        # the content hash that `wittlab polys` prints
        assert dump_tables(p, n)["content_hash"] == TABLE_HASHES[p, n]


def _corrupted(table: str, level: int) -> WittCtx:
    """A fresh length-3 context at p = 2 whose ``table`` ("addition" or
    "negation") is off by one at ``level``; the cached ``ctx_for`` is left alone."""
    ctx = WittCtx(2, 3)
    polys = list(getattr(ctx, table))
    polys[level - 1] = polys[level - 1] + MPoly.const(1)
    setattr(ctx, table, polys)
    return ctx


# refusals of the Witt layer: Witt vectors over one tower ring on a length
# or ring mismatch, levels out of range, and tables or targets that break
# the ghost identities: (call on q2_i, error, message)
WITT_REFUSALS = {
    "empty sum": (lambda t: witt_sum([]), ValueError, "a Witt sum needs at least one vector"),
    "lengths differ": (
        lambda t: witt_sum([ctx_for(2, 2).vec(t.L, [1, 2]), ctx_for(2, 3).vec(t.L, [1, 2, 3])]),
        ValueError,
        "operands must share length and ring",
    ),
    "rings differ": (
        lambda t: witt_sum([ctx_for(2, 2).vec(t.L, [1, 2]), ctx_for(2, 2).vec(t.K, [1, 2])]),
        ValueError,
        "operands must share length and ring",
    ),
    "too few components": (
        lambda t: ctx_for(2, 3).vec(t.L, [1, 2]), ValueError, "expected 3 components, got 2"
    ),
    "too many components": (
        lambda t: ctx_for(2, 2).vec(t.L, [1, 2, 3]), ValueError, "expected 2 components, got 3"
    ),
    "ghost level 0": (lambda t: ghost_poly(2, 0), ValueError, "level must be >= 1"),
    "residual level 1": (
        lambda t: pfold_decomposition(2, 3).residual_for_level(1),
        ValueError,
        "level 1 out of range",
    ),
    "residual past n": (
        lambda t: pfold_decomposition(2, 3).residual_for_level(4),
        ValueError,
        "level 4 out of range",
    ),
    "addition table corrupted": (
        lambda t: _corrupted("addition", 3).verify_ghost_identities(),
        IntegralityViolation,
        "ghost addition identity fails at level 3",
    ),
    "negation table corrupted": (
        lambda t: _corrupted("negation", 2).verify_ghost_identities(),
        IntegralityViolation,
        "ghost negation identity fails at level 2",
    ),
    "target no ghost image": (
        lambda t: wittcore._solve_ghost(2, [MPoly.var(0), MPoly.var(0)], "probe"),
        IntegralityViolation,
        "probe polynomial level 2: coefficient",
    ),
}


@pytest.mark.parametrize("case", sorted(WITT_REFUSALS))
def test_witt_refusals(q2_i, case):
    call, error, message = WITT_REFUSALS[case]
    with pytest.raises(error, match=message):
        call(q2_i)
