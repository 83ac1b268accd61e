import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittlab import cohomlab, wittcore
from wittlab.cohomlab import (
    KernelSample,
    SamplerExhausted,
    coboundary_sample,
    galois_vec,
    h1_order_enumeration_stable,
    h1_order_level1,
    level1_class_trivial,
    linsolve_matches_enumeration,
    sample_trace_zero,
    stable_witt_length,
    stable_witt_length_closed,
    step_bound,
    witt_class_trivial,
    witt_trace,
)
from wittlab.localfield import NoSolutionAtPrecision, PrecisionTooLow, build_tower
from wittlab.wittcore import BINARY_RANGE, PFOLD_RANGE, WittVec, ctx_for, fold_var


class TestWittTrace:
    def test_zero(self, q2_i):
        ctx = ctx_for(2, 2)
        z = ctx.zero_vec(q2_i.LR)
        out = witt_trace(q2_i, z)
        assert all(q2_i.is_zero_at_precision(c) for c in out.components)

    def test_coboundary_has_zero_trace(self, towers):
        for tower in towers.values():
            rng = random.Random(1)
            n = 2
            for _ in range(10):
                sample = coboundary_sample(tower, n, rng)
                assert all(
                    tower.is_zero_at_precision(c)
                    for c in sample.residual.components
                )

    def test_coboundary_audit_catches_a_wrong_negative(self, towers, monkeypatch):
        # the negative is off by one in its first component, so the first
        # component of sigma(y) - y has trace p, not zero
        negate = WittVec.__neg__

        def off_by_one(self):
            z = negate(self)
            return WittVec(z.ctx, z.ring, (z.components[0] + 1,) + z.components[1:])

        monkeypatch.setattr(WittVec, "__neg__", off_by_one)
        for tower in towers.values():
            with pytest.raises(AssertionError, match="coboundary sample"):
                coboundary_sample(tower, 2, random.Random(1))

    def test_level1_trace_of_i(self, q2_i):
        ctx = ctx_for(2, 1)
        vec = WittVec(ctx, q2_i.LR, (q2_i.pi_L - 1,))
        out = witt_trace(q2_i, vec)
        assert q2_i.is_zero_at_precision(out.components[0])

    def test_additive(self, q2_i, q3):
        for tower in (q2_i, q3):
            rng = random.Random(2)
            ctx = ctx_for(tower.p, 2)
            for _ in range(10):
                x = WittVec(
                    ctx, tower.LR, tuple(tower.random_L_elem(rng) for _ in range(2))
                )
                y = WittVec(
                    ctx, tower.LR, tuple(tower.random_L_elem(rng) for _ in range(2))
                )
                lhs = witt_trace(tower, x + y)
                rhs = witt_trace(tower, x) + witt_trace(tower, y)
                assert all(
                    tower.eq_at_precision(tower.embed_K(a), tower.embed_K(b))
                    for a, b in zip(lhs.components, rhs.components)
                )


class TestSampler:
    def test_level1_lies_in_kernel(self, q2_i):
        rng = random.Random(3)
        for _ in range(20):
            s = sample_trace_zero(q2_i, 1, rng)
            x1 = s.vec.components[0]
            assert q2_i.is_zero_at_precision(q2_i.trace(x1))

    def test_q2i_level2_forces_even_multiplier(self, q2_i):
        # a length-2 trace-zero vector over the Gaussian tower must have
        # v_L(x1) >= 2: odd kernel multiples fail level-2 solvability
        rng = random.Random(4)
        for _ in range(25):
            s = sample_trace_zero(q2_i, 2, rng)
            v = q2_i.vL(s.vec.components[0])
            assert v.at_least(2)

    def test_audit_always_passes(self, towers):
        for tower in towers.values():
            rng = random.Random(5)
            n = 3 if tower.p == 2 else 2
            for _ in range(5):
                s = sample_trace_zero(tower, n, rng)
                assert all(
                    tower.is_zero_at_precision(c) for c in s.residual.components
                )
                assert s.provenance == "recursive-sampler"


def sample_with_fresh_carries(tower, n, rng, retries=32):
    """The sampler's loop with every carry computed afresh: each attempt
    builds the conjugate rows and calls ``carry_value``, and kernel
    elements are summed from OElems over the basis derived from the
    Smith form.  The oracle for ``sample_trace_zero``."""
    basis = [tower.unflatten_L(k) for k in tower._trace_snf.kernel_basis()]

    def kernel_elem():
        acc = tower.LR.zero
        for k in basis:
            acc = acc + k * rng.randrange(tower.modulus)
        return acc

    particulars = [tower.LR.zero]
    comps = [kernel_elem()]
    level = 2
    budget = retries * n * 8
    fail_streak = 0
    while level <= n:
        rows = [[tower.galois(c, i) for c in comps[: level - 1]] for i in range(tower.p)]
        carry = wittcore.carry_value(tower.p, level, rows, tower.LR)
        try:
            part, _ = tower.solve_trace_eq(-tower.project_to_K(carry))
        except NoSolutionAtPrecision:
            budget -= 1
            fail_streak += 1
            if budget <= 0:
                raise SamplerExhausted(level, retries) from None
            cut = level - min(level - 1, 1 + fail_streak // retries)
            del comps[cut:]
            del particulars[cut:]
            comps[cut - 1] = particulars[cut - 1] + kernel_elem()
            level = cut + 1
            continue
        particulars.append(part)
        comps.append(part + kernel_elem())
        level += 1
        fail_streak = 0
    return comps


TOWER_PRIMES = {
    "q2_i": 2,
    "q2_sqrt2": 2,
    "q2_sqrt_minus2": 2,
    "q3": 3,
    "nested": 2,
    "quartic": 2,
}


@pytest.mark.parametrize(
    "name,n",
    [(name, n) for name, p in TOWER_PRIMES.items() for n in range(1, BINARY_RANGE[p] + 1)],
)
@pytest.mark.parametrize("retries", [32, 1])
def test_sampler_matches_fresh_carry_loop(all_towers, name, n, retries):
    """Same components and the same RNG stream; with one retry per level
    the cut deepens after every failure."""
    tower = all_towers[name]
    for seed in range(20):
        want_rng = random.Random(f"{name}:{n}:{seed}")
        got_rng = random.Random(f"{name}:{n}:{seed}")
        try:
            want = [c.data for c in sample_with_fresh_carries(tower, n, want_rng, retries)]
        except SamplerExhausted as exc:
            want = ("exhausted", exc.level)
        try:
            sample = sample_trace_zero(tower, n, got_rng, retries=retries)
            got = [c.data for c in sample.vec.components]
        except SamplerExhausted as exc:
            got = ("exhausted", exc.level)
        assert got == want, (name, n, retries, seed)
        assert got_rng.random() == want_rng.random()


def test_trace_kernel_basis_is_cached(all_towers):
    for tower in all_towers.values():
        basis = tower.trace_kernel_basis()
        assert basis is tower.trace_kernel_basis()
        derived = [tower.unflatten_L(k) for k in tower._trace_snf.kernel_basis()]
        assert [k.data for k in basis] == [k.data for k in derived]
        assert [k.data for k in basis] == list(tower.trace_kernel_flat)


def symbolic_residual(tower, comps, level):
    """The p-fold residual polynomial evaluated at the conjugate family
    over O_L; the oracle for ``cohomlab._residual``."""
    p = tower.p
    poly = wittcore.pfold_decomposition(p, PFOLD_RANGE[p]).residual_for_level(level)
    assign = {}
    for i in range(1, p + 1):
        for j in range(1, level - 1):
            assign[fold_var(p, i, j)] = tower.galois(comps[j - 1], i - 1)
    return poly.eval(assign, tower.LR)


def assert_residuals_match(tower, comps, residual):
    for level in range(2, len(comps) + 1):
        got = residual(tower, comps, level)
        assert got.data == symbolic_residual(tower, comps, level).data, level


def residual_components(tower, kind, draw_int):
    """Length-PFOLD_RANGE[p] components: a trace-zero sample from a drawn
    seed, or components of drawn flat coordinates."""
    n = PFOLD_RANGE[tower.p]
    if kind == "trace-zero":
        return sample_trace_zero(tower, n, random.Random(draw_int(0, 2**32))).vec.components
    top = tower.modulus - 1
    return tuple(
        tower.unflatten_L([draw_int(0, top) for _ in range(tower.L.flat_rank)])
        for _ in range(n)
    )


@pytest.mark.parametrize("kind", ["trace-zero", "random"])
@pytest.mark.parametrize("name", sorted(TOWER_PRIMES))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_residual_matches_symbolic(all_towers, name, kind, data):
    tower = all_towers[name]
    comps = residual_components(tower, kind, lambda lo, hi: data.draw(st.integers(lo, hi)))
    assert_residuals_match(tower, comps, cohomlab._residual)


def residual_zeroing_column_below(tower, comps, level):
    """Mutant: zeroes column l-2 instead of l-1."""
    rows = []
    for i in range(tower.p):
        row = [tower.galois(c, i) for c in comps[: level - 1]]
        if level >= 3:
            row[level - 3] = tower.LR.zero
        rows.append(row)
    return wittcore.carry_value(tower.p, level, rows, tower.LR)


def residual_keeping_column(tower, comps, level):
    """Mutant: leaves column l-1 in, so it returns the whole carry."""
    rows = [[tower.galois(c, i) for c in comps[: level - 1]] for i in range(tower.p)]
    return wittcore.carry_value(tower.p, level, rows, tower.LR)


@pytest.mark.parametrize("mutant", [residual_zeroing_column_below, residual_keeping_column])
@pytest.mark.parametrize("kind", ["trace-zero", "random"])
def test_residual_mutants_fail(all_towers, mutant, kind):
    rng = random.Random(0)
    for name in ("q2_i", "q3", "quartic"):
        comps = residual_components(all_towers[name], kind, rng.randint)
        with pytest.raises(AssertionError):
            assert_residuals_match(all_towers[name], comps, mutant)


def test_residual_invariant_builds_no_decomposition(q2_i, q3, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the symbolic decomposition was built")

    monkeypatch.setattr(wittcore, "pfold_decomposition", refuse)
    for tower in (q2_i, q3):
        report = cohomlab.verify_residual_invariant(tower, samples=10, seed=3)
        assert report.status == "PASS", report.failures[:2]


class TestClassDecisions:
    def test_zero_is_trivial(self, q2_i):
        verdict = level1_class_trivial(q2_i, q2_i.LR.zero)
        assert verdict.status == "trivial"

    def test_i_is_nontrivial(self, q2_i):
        verdict = level1_class_trivial(q2_i, q2_i.pi_L - 1)
        assert verdict.status == "nontrivial"
        assert verdict.obstruction_depth == 1

    def test_2i_is_trivial_with_witness(self, q2_i):
        c = (q2_i.pi_L - 1) * 2
        verdict = level1_class_trivial(q2_i, c)
        assert verdict.status == "trivial"
        got = q2_i.galois(verdict.witness) - verdict.witness
        assert q2_i.eq_at_precision(got, c)

    def test_witt_class_of_zero(self, q2_i):
        ctx = ctx_for(2, 2)
        z = ctx.zero_vec(q2_i.LR)
        sample = KernelSample(z, witt_trace(q2_i, z), "explicit", "0")
        assert witt_class_trivial(q2_i, sample).status == "trivial"

    def test_witt_class_of_coboundaries(self, q2_i, q3):
        for tower in (q2_i, q3):
            rng = random.Random(6)
            for k in range(8):
                sample = coboundary_sample(tower, 2, rng, seed_label=str(k))
                verdict = witt_class_trivial(tower, sample)
                assert verdict.status == "trivial"
                d = galois_vec(tower, verdict.witness) - verdict.witness
                assert all(
                    tower.eq_at_precision(a, b)
                    for a, b in zip(d.components, sample.vec.components)
                )

    def test_sampled_level2_classes_q2i(self, q2_i):
        # At the stable length the *first-component projection* of every
        # class dies; the length-2 class group itself is not zero (the
        # second-component embedding is injective since lifts of fixed
        # elements stay fixed), so uniform samples may land in either
        # class.  The search must find witnesses for the trivial ones
        # and stay agnostic (never "nontrivial") on the rest.
        rng = random.Random(7)
        statuses = set()
        for _ in range(8):
            s = sample_trace_zero(q2_i, 2, rng)
            verdict = witt_class_trivial(q2_i, s)
            assert verdict.status in ("trivial", "undetermined")
            statuses.add(verdict.status)
            assert level1_class_trivial(q2_i, s.vec.components[0]).status == "trivial"
        assert "trivial" in statuses


class TestH1Orders:
    def test_known_orders(self, q2_i, q2_sqrt2, q2_sqrt_minus2, q3):
        assert h1_order_level1(q2_i) == 2
        assert h1_order_level1(q2_sqrt2) == 2
        assert h1_order_level1(q2_sqrt_minus2) == 2
        assert h1_order_level1(q3) == 3

    def test_enumeration_agrees(self, towers):
        for tower in towers.values():
            assert h1_order_enumeration_stable(tower) == h1_order_level1(tower)

    def test_order_is_p_power(self, towers):
        for tower in towers.values():
            order = h1_order_level1(tower)
            while order % tower.p == 0:
                order //= tower.p
            assert order == 1

    def test_linsolve_matches_enumeration(self, q2_i):
        for digits in (2, 3):
            assert all(linsolve_matches_enumeration(q2_i, digits).values())


class TestStableLength:
    def test_examples(self):
        assert stable_witt_length(1, 2) == 2
        assert stable_witt_length(2, 2) == 3
        assert stable_witt_length(1, 3) == 2

    def test_closed_form_spot(self):
        for s in (1, 2, 3, 7, 9):
            for p in (2, 3, 5):
                assert stable_witt_length(s, p) == stable_witt_length_closed(s, p)

    def test_step_bound_examples(self):
        assert step_bound(2, 2, 1) == 1
        assert step_bound(2, 2, 2) == 2
        assert step_bound(1, 2, 1) == 1


class TestNonStrictRegime:
    """A nested tower with s <= e_K/(p-1): outside the strict-break
    label, which is exactly where the vanishing statement is new."""

    def test_classification(self, nested):
        assert nested.e_K == 2 and nested.e_L == 4
        assert nested.s == 1
        assert not nested.strict_break_regime()

    def test_orders_and_oracle(self, nested):
        assert h1_order_level1(nested) == 2
        assert h1_order_enumeration_stable(nested) == 2

    def test_main_theorem_holds(self, nested):
        rep = cohomlab.verify_main_theorem(nested, samples=30, seed=5)
        assert rep.status == "PASS", rep.failures[:2]
        assert rep.params["M"] == 2
        assert rep.observations["contrast"]["v_L"] <= nested.s - 1

    def test_step_bounds_hold(self, nested):
        rep = cohomlab.verify_step_bounds(nested, samples=20, seed=5, n=3)
        assert rep.status == "PASS", rep.failures[:2]

    def test_valuation_lemmas_hold(self, nested):
        assert cohomlab.verify_vktr(nested, samples=200, seed=5).status == "PASS"
        assert cohomlab.verify_vksub(nested, samples=200, seed=5).status == "PASS"


class TestDeepBreakTower:
    """The quartic step with the largest supported break (s = 4, so the
    stable length is 4 and the level-one group has order p^2)."""

    def test_classification(self, quartic):
        assert quartic.s == 4
        assert quartic.strict_break_regime()
        assert stable_witt_length(quartic.s, quartic.p) == 4

    def test_order_agrees_with_enumeration(self, quartic):
        assert h1_order_level1(quartic) == 4
        assert h1_order_enumeration_stable(quartic) == 4

    def test_main_theorem_at_length_four(self, quartic):
        rep = cohomlab.verify_main_theorem(quartic, samples=20, seed=5)
        assert rep.status == "PASS", rep.failures[:2]
        assert rep.params["M"] == 4


class TestVerifiers:
    @pytest.mark.parametrize("verifier", ["step_bounds", "residual_invariant"])
    def test_q3_beyond_the_tables(self, q3, verifier):
        # n = 5 is past BINARY_RANGE[3] and PFOLD_RANGE[3]; with samples=8
        # step_bounds draws two coboundaries, so it negates at n = 5
        report = cohomlab.VERIFIERS[verifier](q3, samples=8, seed=3, n=5)
        assert report.status == "PASS", report.failures[:2]
        assert report.params["n"] == 5

    def test_quintic_step_bounds_default_length(self):
        # the degree-5 subfield of Q5(zeta_25), pi = eta - 4 for the
        # Gaussian period eta: the default n = 4 is past BINARY_RANGE[5]
        # = 3, and samples=8 draws two coboundaries, negated at n = 4
        tower = build_tower(5, "auto", [505, 850, 525, 150, 20, 1])
        report = cohomlab.verify_step_bounds(tower, samples=8, seed=3)
        assert report.params["n"] == 4
        assert report.status == "PASS", report.failures[:2]

    def test_all_pass_smoke(self, q2_i):
        for lemma, fn in cohomlab.VERIFIERS.items():
            report = fn(q2_i, samples=10, seed=3)
            assert report.status == "PASS", (lemma, report.failures[:2])

    def test_carry_identity_sign(self, q2_i, q3):
        rep2 = cohomlab.verify_carry_identity(q2_i, samples=10, seed=3)
        assert rep2.sign_convention == "minus"
        assert rep2.observations["carry_constant"] == -1
        assert rep2.observations["c_term_degenerate"] is False
        rep3 = cohomlab.verify_carry_identity(q3, samples=10, seed=3)
        assert rep3.sign_convention == "minus"
        assert rep3.observations["carry_constant"] == 0
        assert rep3.observations["c_term_degenerate"] is True

    def test_main_includes_contrast_and_below_observation(self, q2_i):
        report = cohomlab.verify_main_theorem(q2_i, samples=10, seed=3)
        assert report.params["M"] == 2
        assert report.observations["h1_order_level1"] == 2
        assert report.observations["contrast"]["v_L"] <= q2_i.s - 1
        assert "min_v_L_x1_at_length_M_minus_1" in report.observations

    def test_report_json_is_deterministic(self, q2_i):
        a = cohomlab.verify_vksub(q2_i, samples=25, seed=9).to_json(
            include_runtime=False
        )
        b = cohomlab.verify_vksub(q2_i, samples=25, seed=9).to_json(
            include_runtime=False
        )
        assert a == b

    def test_coboundary_samples_respect_step_bounds(self, q2_sqrt2):
        report = cohomlab.verify_step_bounds(q2_sqrt2, samples=12, seed=5, n=3)
        assert report.status == "PASS"


class TestWittLengthRule:
    """Every verifier checks the Witt length it will run at before it
    draws anything, whoever calls it."""

    @pytest.fixture
    def no_draws(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a sample was drawn")

        for name in ("sample_trace_zero", "coboundary_sample"):
            monkeypatch.setattr(cohomlab, name, refuse)
        monkeypatch.setattr(cohomlab.random, "Random", refuse)

    def test_step_bounds_past_the_precision(self, q3, no_draws):
        # q3_ramified has p=3, s=1 and N=16; n=8 needs N >= 24
        with pytest.raises(PrecisionTooLow) as exc:
            cohomlab.verify_step_bounds(q3, samples=4, seed=1, n=8)
        assert str(exc.value) == (
            "--n 8 needs precision N >= 24 at p=3, s=1; the tower has N=16"
        )

    @pytest.mark.parametrize(
        "lemma, n",
        [
            ("vktr", 3),
            ("vksub", 3),
            ("carry_identity", 4),
            ("residual_invariant", 6),
            ("step_bounds", 0),
            ("main", 1),
            ("fixed_points", 7),
        ],
    )
    def test_every_verifier_refuses(self, q3, no_draws, lemma, n):
        problem = cohomlab.witt_length_problem(lemma, q3, n)
        assert problem and "\n" not in problem
        with pytest.raises(cohomlab.WittLengthOutOfRange, match=re.escape(problem)):
            cohomlab.VERIFIERS[lemma](q3, samples=1, seed=0, n=n)
