import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittlab import cohomlab, wittcore
from wittlab.kernels import compile_flat_linear
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
from wittlab.localfield import (
    NoSolutionAtPrecision,
    PrecisionTooLow,
    TraceNotRational,
    ValExtended,
    build_tower,
)
from wittlab.wittcore import (
    BINARY_RANGE,
    PFOLD_RANGE,
    WittVec,
    ctx_for,
    fold_var,
    polynomial_witt_sum,
)


class TestWittTrace:
    def test_zero(self, q2_i):
        ctx = ctx_for(2, 2)
        z = ctx.zero_vec(q2_i.L)
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
        vec = WittVec(ctx, q2_i.L, (q2_i.pi_L - 1,))
        out = witt_trace(q2_i, vec)
        assert q2_i.is_zero_at_precision(out.components[0])

    def test_additive(self, q2_i, q3):
        for tower in (q2_i, q3):
            rng = random.Random(2)
            ctx = ctx_for(tower.p, 2)
            for _ in range(10):
                x = WittVec(
                    ctx, tower.L, tuple(tower.random_L_elem(rng) for _ in range(2))
                )
                y = WittVec(
                    ctx, tower.L, tuple(tower.random_L_elem(rng) for _ in range(2))
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
    basis = [tower.L.unflatten(k) for k in tower._trace_snf.kernel_basis()]

    def kernel_elem():
        acc = tower.L.zero
        for k in basis:
            acc = acc + k * rng.randrange(tower.modulus)
        return acc

    particulars = [tower.L.zero]
    comps = [kernel_elem()]
    level = 2
    budget = retries * n * 8
    fail_streak = 0
    while level <= n:
        rows = [[tower.galois(c, i) for c in comps[: level - 1]] for i in range(tower.p)]
        carry = wittcore.carry_value(tower.p, level, rows, tower.L)
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


def polynomial_trace(tower, x):
    """Witt trace by the addition polynomials: the oracle for the flat
    ``witt_trace``."""
    conj = [galois_vec(tower, x, i) for i in range(tower.p)]
    return [tower.project_to_K(c).data for c in polynomial_witt_sum(conj).components]


@pytest.mark.parametrize(
    "name,n",
    [(name, n) for name, p in TOWER_PRIMES.items() for n in range(1, min(4, BINARY_RANGE[p]) + 1)],
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_witt_trace_matches_polynomials(all_towers, name, n, data):
    tower = all_towers[name]
    rank, top = tower.L.flat_rank, tower.modulus - 1
    coords = st.lists(st.integers(0, top), min_size=rank, max_size=rank)
    x = WittVec(
        ctx_for(tower.p, n),
        tower.L,
        tuple(tower.L.unflatten(data.draw(coords)) for _ in range(n)),
    )
    got = witt_trace(tower, x)
    assert got.ring is tower.K
    assert [c.data for c in got.components] == polynomial_trace(tower, x)


@pytest.mark.parametrize("name", sorted(TOWER_PRIMES))
def test_sampler_refuses_a_corrupted_sigma(all_towers, name, monkeypatch):
    """Every entry of sigma^1, in turn, off by one: the sampler's carry or
    its trace audit must raise at n = 2, 3.  (At n = 1 the sample is a
    true trace-kernel element whatever sigma is, so an entry acting only
    on coordinates the kernel pins to 0 modulo p^N is rightly passed.)"""
    tower = all_towers[name]
    rank, modulus = tower.L.flat_rank, tower.modulus
    maps = tower.galois_maps
    for r in range(rank):
        for m in range(rank):
            rows = [list(row) for row in tower.galois_mats[1]]
            rows[r][m] = (rows[r][m] + 1) % modulus
            # the tower applies sigma through the map compiled from its matrix
            bad = (maps[0], compile_flat_linear(rows, modulus)) + maps[2:]
            with monkeypatch.context() as patch:
                patch.setattr(tower, "galois_maps", bad)
                for n in (2, 3):
                    for seed in range(3):
                        with pytest.raises((TraceNotRational, AssertionError)):
                            sample_trace_zero(tower, n, random.Random(seed))


def test_trace_kernel_basis_is_cached(all_towers):
    for tower in all_towers.values():
        basis = tower.trace_kernel_basis()
        assert basis is tower.trace_kernel_basis()
        derived = [tower.L.unflatten(k) for k in tower._trace_snf.kernel_basis()]
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
    return poly.eval(assign, tower.L)


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
        tower.L.unflatten([draw_int(0, top) for _ in range(tower.L.flat_rank)])
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
            row[level - 3] = tower.L.zero
        rows.append(row)
    return wittcore.carry_value(tower.p, level, rows, tower.L)


def residual_keeping_column(tower, comps, level):
    """Mutant: leaves column l-1 in, so it returns the whole carry."""
    rows = [[tower.galois(c, i) for c in comps[: level - 1]] for i in range(tower.p)]
    return wittcore.carry_value(tower.p, level, rows, tower.L)


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
        verdict = level1_class_trivial(q2_i, q2_i.L.zero)
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
        z = ctx.zero_vec(q2_i.L)
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

    def test_vksub_deviation_reads_a_zero_valuation_as_zero(self, q2_i, monkeypatch):
        # a finite v_K of 0 is a deviation from 0, not from the cap
        # the verifier reads v_K from the ring's val_raw, on flat coordinates
        monkeypatch.setattr(q2_i.K, "val_raw", lambda a: 0)
        report = cohomlab.verify_vksub(q2_i, samples=3, seed=1)
        assert report.status == "FAIL"
        assert [f["v_K(diff)"] for f in report.failures] == [0, 0, 0]
        assert [f["expected"] for f in report.failures] == [4, 16, 8]
        assert report.margins["max_deviation"] == 16

    def test_coboundary_samples_respect_step_bounds(self, q2_sqrt2):
        report = cohomlab.verify_step_bounds(q2_sqrt2, samples=12, seed=5, n=3)
        assert report.status == "PASS"

    @pytest.mark.parametrize("name, n", [("q3", 4), ("q2_sqrt2", 5)])
    def test_carry_identity_past_the_pfold_tables(self, towers, name, n):
        # only the tower's precision bounds n; past PFOLD_RANGE the
        # symbolic sign is not known, so it is recorded as None
        assert n > PFOLD_RANGE[towers[name].p]
        report = cohomlab.verify_carry_identity(towers[name], samples=4, seed=3, n=n)
        assert report.status == "PASS", report.failures[:2]
        assert report.params["n"] == n
        assert report.sign_convention == "minus"
        assert report.observations["symbolic_sign_convention"] is None

    @pytest.mark.parametrize("name, n", [("q3", 2), ("q3", 3), ("q2_i", 4)])
    def test_carry_identity_within_the_tables_reads_the_symbolic_sign(
        self, towers, name, n
    ):
        tower = towers[name]
        want = wittcore.pfold_decomposition(tower.p, n).sign_convention
        report = cohomlab.verify_carry_identity(tower, samples=2, seed=3, n=n)
        assert report.observations["symbolic_sign_convention"] == want


# -- the field-lemma verifiers against their OElem forms ---------------------
#
# The verifiers vktr, vksub and fixed_points run on flat coordinate tuples.
# These are the bodies they had on OElem, WittVec and ValExtended, kept as
# their oracles: the reports must agree byte for byte.


def oracle_vktr(tower, samples, seed):
    p, s = tower.p, tower.s
    report = cohomlab._base_report(tower, "vktr", {"samples": samples, "seed": seed})
    checked = 0
    attempts = 0
    while checked < samples and attempts < 20 * samples:
        rng = random.Random(cohomlab._sample_seed(seed, "vktr", attempts))
        attempts += 1
        a = tower.random_L_elem(rng, spread_valuation=True)
        va = tower.vL(a)
        if not va.finite:
            continue
        bound = -(-(va.value + s * (p - 1)) // p)
        if bound > tower.val_cap_K - 2:
            continue
        vk = tower.vK(tower.trace(a))
        checked += 1
        ok = vk.at_least(bound)
        cohomlab._update_margin(report.margins, "trace_valuation_slack", vk.capped() - bound)
        if not ok:
            report.record_failure(
                {
                    "seed": cohomlab._sample_seed(seed, "vktr", attempts - 1),
                    "v_L(a)": va.value,
                    "v_K(tr(a))": vk.value,
                    "bound": bound,
                }
            )
    cohomlab._record_checked(report, checked, samples)
    return report


def oracle_vksub(tower, samples, seed):
    p, e_k = tower.p, tower.e_K
    report = cohomlab._base_report(tower, "vksub", {"samples": samples, "seed": seed})
    checked = 0
    attempts = 0
    worst = 0
    while checked < samples and attempts < 20 * samples:
        rng = random.Random(cohomlab._sample_seed(seed, "vksub", attempts))
        attempts += 1
        a = tower.random_L_elem(rng, spread_valuation=True)
        va = tower.vL(a)
        if not va.finite:
            continue
        expected = e_k + va.value
        if expected >= tower.val_cap_K - 1:
            continue
        vk = tower.vK(tower.trace(a**p) - tower.trace(a) ** p)
        checked += 1
        if not vk.finite or vk.value != expected:
            worst = max(worst, abs(vk.capped() - expected))
            report.record_failure(
                {
                    "seed": cohomlab._sample_seed(seed, "vksub", attempts - 1),
                    "v_L(a)": va.value,
                    "v_K(diff)": vk.value,
                    "expected": expected,
                }
            )
    report.margins["max_deviation"] = worst
    cohomlab._record_checked(report, checked, samples)
    return report


def oracle_fixed_points(tower, samples, seed):
    n = cohomlab.witt_length("fixed_points", tower, None)
    ctx = ctx_for(tower.p, n)
    report = cohomlab._base_report(
        tower, "fixed_points", {"samples": samples, "seed": seed, "n": n}
    )
    fixed_seen = 0
    for k in range(samples):
        label = cohomlab._sample_seed(seed, "fixed", k)
        rng = random.Random(label)
        kvec = WittVec(
            ctx, tower.L, tuple(tower.embed_K(tower.random_K_elem(rng)) for _ in range(n))
        )
        gk = galois_vec(tower, kvec)
        if not all(tower.eq_at_precision(a, b) for a, b in zip(gk.components, kvec.components)):
            report.record_failure({"seed": label, "what": "fixed vector moved"})
            continue
        fixed_seen += 1
        idx = rng.randrange(n)
        perturbed = list(kvec.components)
        perturbed[idx] = perturbed[idx] + tower.pi_L * tower.random_L_unit(rng)
        pvec = WittVec(ctx, tower.L, tuple(perturbed))
        gp = galois_vec(tower, pvec)
        if all(tower.eq_at_precision(a, b) for a, b in zip(gp.components, pvec.components)):
            report.record_failure({"seed": label, "what": "moved vector looks fixed"})
            continue
        if not all(tower.in_K_at_precision(c) for c in kvec.components):
            report.record_failure({"seed": label, "what": "fixed but not rational"})
        if n >= 2:
            low = kvec.truncate(n - 1)
            lifted = WittVec(ctx, tower.L, low.components + (tower.L.zero,))
            if lifted.truncate(n - 1).components != low.components:
                report.record_failure({"seed": label, "what": "truncation section"})
    report.observations["fixed_vectors_checked"] = fixed_seen
    return report


FIELD_ORACLES = {
    "vktr": (oracle_vktr, 40),
    "vksub": (oracle_vksub, 25),
    "fixed_points": (oracle_fixed_points, 10),
}
ALL_TOWER_NAMES = sorted(TOWER_PRIMES)


def check_field_lemma(tower, lemma, seeds):
    oracle, samples = FIELD_ORACLES[lemma]
    for seed in seeds:
        got = cohomlab.VERIFIERS[lemma](tower, samples=samples, seed=seed)
        want = oracle(tower, samples, seed)
        assert got.to_json(include_runtime=False) == want.to_json(include_runtime=False), seed


class TestFieldLemmaOracles:
    @pytest.mark.parametrize("lemma", sorted(FIELD_ORACLES))
    @pytest.mark.parametrize("name", ALL_TOWER_NAMES)
    def test_flat_verifier_matches_oracle(self, all_towers, name, lemma):
        check_field_lemma(all_towers[name], lemma, range(5))

    @pytest.mark.parametrize("lemma", ["vktr", "vksub"])
    def test_failing_reports_match_oracle(self, q2_i, lemma, monkeypatch):
        # a trace map that adds one to its first coordinate breaks both
        # lemmas, so the failure payloads are compared as well
        trace, modulus = q2_i.trace_map, q2_i.modulus

        def off_by_one(a):
            t = trace(a)
            return ((t[0] + 1) % modulus,) + t[1:]

        monkeypatch.setattr(q2_i, "trace_map", off_by_one)
        got = cohomlab.VERIFIERS[lemma](q2_i, samples=25, seed=4)
        assert got.status == "FAIL"
        assert got.to_json(include_runtime=False) == FIELD_ORACLES[lemma][0](
            q2_i, 25, 4
        ).to_json(include_runtime=False)

    def test_sigma_off_by_one_in_fixed_points_fails(self, all_towers, monkeypatch):
        # mutant: fixed_points applies a sigma with one entry off by one;
        # the oracle runs on the true sigma
        with pytest.raises(AssertionError):
            for name in ALL_TOWER_NAMES:
                tower = all_towers[name]
                rows = [list(row) for row in tower.galois_mats[1]]
                rows[0][0] = (rows[0][0] + 1) % tower.modulus
                maps = tower.galois_maps
                bad = (maps[0], compile_flat_linear(rows, tower.modulus)) + maps[2:]
                with monkeypatch.context() as patch:
                    patch.setattr(tower, "galois_maps", bad)
                    got = cohomlab.verify_fixed_points(tower, samples=5, seed=0)
                want = oracle_fixed_points(tower, 5, 0)
                assert got.to_json(include_runtime=False) == want.to_json(include_runtime=False)


class TestSampleStream:
    """Every sampled verifier draws its Witt vectors through one stream,
    ``_sampler_mix``: sample k from ``random.Random("seed:label:k")``."""

    def test_labels_and_coboundaries(self, q2_i):
        stream = cohomlab._sampler_mix(q2_i, 2, 4, 7, "x", coboundary_every=2)
        got = [(s.seed, s.provenance) for s in stream]
        assert got == [
            ("7:x:0", "recursive-sampler"),
            ("7:x:1", "coboundary"),
            ("7:x:2", "recursive-sampler"),
            ("7:x:3", "coboundary"),
        ]

    def test_is_lazy(self, q2_i, monkeypatch):
        drawn = []
        original = cohomlab.sample_trace_zero

        def counted(*args, **kwargs):
            drawn.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cohomlab, "sample_trace_zero", counted)
        stream = cohomlab._sampler_mix(q2_i, 2, 5, 1, "x")
        assert drawn == []
        next(stream)
        assert drawn == [1]

    @pytest.mark.parametrize(
        "lemma, labels",
        [
            ("carry_identity", ["carry"]),
            ("residual_invariant", ["residual"]),
            ("step_bounds", ["steps"]),
            ("main", ["main", "main-below"]),
        ],
    )
    def test_verifiers_draw_through_the_stream(self, q2_i, monkeypatch, lemma, labels):
        seen, streamed, drawn = [], [], []
        original = cohomlab._sampler_mix

        def recorded(tower, n, samples, seed, label, coboundary_every=0):
            seen.append(label)
            for sample in original(tower, n, samples, seed, label, coboundary_every):
                streamed.append(sample.seed)
                yield sample

        for name in ("sample_trace_zero", "coboundary_sample"):
            draw = getattr(cohomlab, name)
            monkeypatch.setattr(
                cohomlab, name, lambda *a, _draw=draw, **k: drawn.append(1) or _draw(*a, **k)
            )
        monkeypatch.setattr(cohomlab, "_sampler_mix", recorded)
        report = cohomlab.VERIFIERS[lemma](q2_i, samples=3, seed=4)
        assert report.status == "PASS", report.failures[:2]
        assert seen == labels
        # every sample drawn came out of the stream
        assert len(drawn) == len(streamed) > 0


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

    def test_defaults(self, q3):
        M = stable_witt_length(q3.s, q3.p)
        got = {lemma: cohomlab.witt_length(lemma, q3, None) for lemma in cohomlab.VERIFIERS}
        assert got == {
            "vktr": None,
            "vksub": None,
            "carry_identity": PFOLD_RANGE[3],
            "residual_invariant": PFOLD_RANGE[3],
            "step_bounds": 4,
            "main": M,
            "fixed_points": 3,
        }

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
            ("carry_identity", 6),
            ("residual_invariant", 6),
            ("step_bounds", 0),
            ("main", 1),
            ("fixed_points", 7),
        ],
    )
    def test_every_verifier_refuses(self, q3, no_draws, lemma, n):
        with pytest.raises(cohomlab.WittLengthOutOfRange) as refused:
            cohomlab.witt_length(lemma, q3, n)
        problem = str(refused.value)
        assert problem and "\n" not in problem
        with pytest.raises(cohomlab.WittLengthOutOfRange, match=re.escape(problem)):
            cohomlab.VERIFIERS[lemma](q3, samples=1, seed=0, n=n)
