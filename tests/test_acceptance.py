"""Acceptance suite: one test per release criterion, each printing a
single PASS/FAIL line.  Tolerances are pinned here; sampled checks use
fixed seeds and are exact (zero failures allowed).

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import pathlib
import random
import subprocess
import sys
import time
from contextlib import contextmanager

from wittlab import cohomlab, wittcore
from wittlab.wittcore import BINARY_RANGE, PFOLD_RANGE, ctx_for, pfold_decomposition

from oracles import (
    polynomial_witt_neg,
    polynomial_witt_sum,
    stable_witt_length_by_cascade,
    zmod,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent

SEED = 2026
GROUP_LAW_INSTANCES = 1000  # per law per ring, spread over the contexts
SAMPLES_VK = 1000  # criterion 4
SAMPLES_IDENTITY = 200  # criteria 5-7
LIMIT_SYMBOLIC_S = 120.0  # criterion 1
LIMIT_VK_PER_TOWER_S = 60.0  # criterion 4
LIMIT_MAIN_PER_TOWER_S = 120.0  # criterion 7


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:02d} {name}: PASS")


def test_criterion_01_symbolic_integrality(towers):
    with criterion(1, "symbolic integrality and ghost identities"):
        t0 = time.perf_counter()
        for p, nmax in BINARY_RANGE.items():
            for n in range(1, nmax + 1):
                ctx_for(p, n).verify_ghost_identities()  # construction certifies
        for p, nmax in PFOLD_RANGE.items():
            for n in range(1, nmax + 1):
                pfold_decomposition(p, n)  # integrality certified on extraction
        elapsed = time.perf_counter() - t0
        assert elapsed <= LIMIT_SYMBOLIC_S, f"symbolic generation took {elapsed:.1f}s"


def test_criterion_02_degree_audits():
    with criterion(2, "carry and residual degree bounds"):
        for p, nmax in PFOLD_RANGE.items():
            pf = pfold_decomposition(p, nmax)
            for l in range(1, nmax + 1):
                assert pf.carry_polys[l - 1].min_monomial_degree() >= p
            for l in range(2, nmax + 1):
                assert pf.residual_for_level(l).min_monomial_degree() >= p * p


class IntegerVec:
    """A Witt vector over the integers, summed and negated by the addition
    and negation polynomials (the oracle); the package's ``WittVec`` lives
    over tower rings only."""

    def __init__(self, p, components):
        self.p = p
        self.components = tuple(components)

    def __add__(self, other):
        return IntegerVec(self.p, polynomial_witt_sum(self.p, [self.components, other.components]))

    def __neg__(self):
        return IntegerVec(self.p, polynomial_witt_neg(self.p, self.components))


def test_criterion_03_group_laws():
    with criterion(3, "group-law property suite"):
        contexts = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4), (5, 2), (5, 3)]
        per_ctx = GROUP_LAW_INSTANCES // len(contexts)
        # "int" runs the polynomial oracle over Z, "mod" the package's
        # ghost path over Z/p^16 as a rank-1 tower ring
        for ring_kind in ("int", "mod"):
            counts = {"identity": 0, "inverse": 0, "commutative": 0, "associative": 0}
            for p, n in contexts:
                ctx = ctx_for(p, n)
                rng = random.Random(f"{SEED}:laws:{ring_kind}:{p}:{n}")
                span = 2 if (p, n) in ((3, 4), (5, 3)) else 9

                def vec(components):
                    if ring_kind == "int":
                        return IntegerVec(p, components)
                    return ctx.vec(zmod(p, 16), components)

                zero = vec([0] * n)

                def rand_vec():
                    return vec([rng.randrange(-span, span + 1) for _ in range(n)])

                for _ in range(per_ctx):
                    a, b, c = rand_vec(), rand_vec(), rand_vec()
                    assert (zero + a).components == a.components
                    counts["identity"] += 1
                    assert (a + (-a)).components == zero.components
                    counts["inverse"] += 1
                    assert (a + b).components == (b + a).components
                    counts["commutative"] += 1
                    assert ((a + b) + c).components == (a + (b + c)).components
                    counts["associative"] += 1
            assert all(v == GROUP_LAW_INSTANCES for v in counts.values())


def test_criterion_04_trace_valuation_lemmas(towers):
    with criterion(4, "trace valuation bound and exact subtraction valuation"):
        for name, tower in towers.items():
            t0 = time.perf_counter()
            rep_tr = cohomlab.verify_vktr(tower, samples=SAMPLES_VK, seed=SEED)
            rep_sub = cohomlab.verify_vksub(tower, samples=SAMPLES_VK, seed=SEED)
            elapsed = time.perf_counter() - t0
            assert rep_tr.status == "PASS", (name, rep_tr.failures[:2])
            assert rep_tr.params["checked"] >= SAMPLES_VK
            assert rep_sub.status == "PASS", (name, rep_sub.failures[:2])
            assert rep_sub.params["checked"] >= SAMPLES_VK
            assert rep_sub.margins["max_deviation"] == 0
            assert elapsed <= LIMIT_VK_PER_TOWER_S, f"{name}: {elapsed:.1f}s"


def test_criterion_05_carry_identity_and_residual(towers):
    with criterion(5, "carry identity (xp form) and residual invariant"):
        for name, tower in towers.items():
            n = PFOLD_RANGE[tower.p]
            rep_c = cohomlab.verify_carry_identity(
                tower, samples=SAMPLES_IDENTITY, seed=SEED, n=n
            )
            assert rep_c.status == "PASS", (name, rep_c.failures[:2])
            assert rep_c.sign_convention == "minus"
            if tower.p == 2:
                assert rep_c.observations["c_term_degenerate"] is False
            rep_r = cohomlab.verify_residual_invariant(
                tower, samples=SAMPLES_IDENTITY, seed=SEED, n=n
            )
            assert rep_r.status == "PASS", (name, rep_r.failures[:2])


def test_criterion_06_step_bounds(towers):
    with criterion(6, "valuation cascades on trace-zero samples"):
        for name, tower in towers.items():
            nmax = min(4, wittcore.BINARY_RANGE[tower.p])
            rep = cohomlab.verify_step_bounds(
                tower, samples=SAMPLES_IDENTITY, seed=SEED, n=nmax
            )
            assert rep.status == "PASS", (name, rep.failures[:2])
            assert all(v >= 0 for v in rep.margins.values())
            for n in range(2, nmax):
                rep_n = cohomlab.verify_step_bounds(tower, samples=60, seed=SEED, n=n)
                assert rep_n.status == "PASS", (name, n, rep_n.failures[:2])


def test_criterion_07_main_theorem(towers):
    with criterion(7, "main vanishing theorem at the stable length"):
        expected_m = {"q2_i": 2, "q2_sqrt2": 3, "q2_sqrt_minus2": 3, "q3": 2}
        for name, tower in towers.items():
            t0 = time.perf_counter()
            rep = cohomlab.verify_main_theorem(
                tower, samples=SAMPLES_IDENTITY, seed=SEED
            )
            elapsed = time.perf_counter() - t0
            assert rep.status == "PASS", (name, rep.failures[:2])
            assert rep.params["M"] == expected_m[name]
            assert elapsed <= LIMIT_MAIN_PER_TOWER_S, f"{name}: {elapsed:.1f}s"


def test_criterion_08_contrast(towers):
    with criterion(8, "nontrivial level-one class with small valuation"):
        for name, tower in towers.items():
            assert cohomlab.h1_order_level1(tower) > 1
            rep = cohomlab.verify_main_theorem(tower, samples=5, seed=SEED)
            contrast = rep.observations.get("contrast")
            assert contrast is not None, name
            assert contrast["v_L"] <= tower.s - 1


def test_criterion_09_oracle_equivalence(towers):
    with criterion(9, "elementary-divisor order and elimination match enumeration"):
        assert cohomlab.h1_order_level1(towers["q2_i"]) == 2
        assert cohomlab.h1_order_enumeration_stable(towers["q2_i"]) == 2
        assert cohomlab.h1_order_level1(towers["q2_sqrt2"]) == 2
        assert cohomlab.h1_order_enumeration_stable(towers["q2_sqrt2"]) == 2
        for name, tower in towers.items():
            for digits in (2, 3):
                result = cohomlab.linsolve_matches_enumeration(tower, digits)
                assert all(result.values()), (name, digits, result)


def test_criterion_10_stable_length_equivalence():
    with criterion(10, "stable length agrees with the cascade"):
        for p in (2, 3, 5, 7):
            for s in range(1, 101):
                assert cohomlab.stable_witt_length(
                    s, p
                ) == stable_witt_length_by_cascade(s, p), (s, p)


def test_criterion_11_suite_determinism(tmp_path):
    with criterion(11, "byte-identical aggregate reports under a fixed seed"):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(
            json.dumps(
                {
                    "towers": ["q2_i", "q2_sqrt2", "q2_sqrt_minus2", "q3_ramified"],
                    "lemmas": list(cohomlab.VERIFIERS),
                    "samples": 25,
                    "seed": SEED,
                }
            )
        )
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"aggregate_{tag}.json"
            res = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "wittlab.cli",
                    "suite",
                    "--manifest",
                    str(manifest),
                    "--out",
                    str(out),
                ],
                capture_output=True,
                text=True,
                cwd=str(ROOT),
            )
            assert res.returncode == 0, res.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        agg = json.loads(outs[0])
        assert agg["status"] == "PASS"
        assert len(agg["cells"]) == 28
