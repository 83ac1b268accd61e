"""Degree-p cyclic cohomology machinery on truncated Witt vectors.

For a cyclic group the first cohomology of a module is the trace
kernel modulo the image of (sigma - 1).  Here the module is the
additive group of length-n Witt vectors over the top ring of a tower,
so everything reduces to:

* a Witt-level trace (sum of the componentwise Galois conjugates),
* a recursive sampler of trace-zero vectors that solves one linear
  trace equation per component, with the right-hand side produced by
  the numeric carry of the conjugate family,
* coboundary solving, exact and decisive at level one, budget-bounded
  search above it,
* an order computation for the level-one cohomology group from the
  elementary divisors of (sigma - 1), stabilization-checked across two
  precisions and backed by a set-enumeration oracle.

The verify_* entry points package sampled evidence (exact equalities
and valuation inequalities, with margins and replayable seeds) into
structured reports.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterator, Sequence

from . import wittcore
from .localfield import (
    ExtensionTower,
    NoSolutionAtPrecision,
    OElem,
    PrecisionTooLow,
    ValExtended,
    linsolve,
    precision_policy,
    smith_normal_form,
)
from .wittcore import PFOLD_RANGE, WittVec, ctx_for


class SamplerExhausted(RuntimeError):
    """The trace-zero sampler ran out of retries at some level."""

    def __init__(self, level: int, retries: int):
        self.level = level
        self.retries = retries
        super().__init__(f"sampler exhausted {retries} retries at level {level}")


class NotStabilized(ArithmeticError):
    """An order computation disagreed between two precisions."""


class WittLengthOutOfRange(PrecisionTooLow):
    """A verifier was asked to run at a Witt length it cannot use on this
    tower; raised before anything is drawn."""


@dataclass
class KernelSample:
    """A trace-zero Witt vector with its audit residual and provenance."""

    vec: WittVec
    residual: WittVec
    provenance: str
    seed: str
    witness: WittVec | None = None


@dataclass
class ClassVerdict:
    """Outcome of a coboundary decision."""

    status: str  # "trivial" | "nontrivial" | "undetermined"
    witness: OElem | WittVec | None = None
    obstruction_depth: int | None = None
    delta: int = 0


@dataclass
class VerificationReport:
    lemma: str
    tower_hash: str
    params: dict
    status: str = "PASS"
    failures: list = field(default_factory=list)
    margins: dict = field(default_factory=dict)
    observations: dict = field(default_factory=dict)
    sign_convention: str | None = None
    precision: dict = field(default_factory=dict)
    runtime_ms: int | None = None

    def record_failure(self, payload: dict) -> None:
        self.failures.append(payload)
        self.status = "FAIL"

    def to_obj(self, include_runtime: bool = True) -> dict:
        obj = {
            "lemma": self.lemma,
            "tower_hash": self.tower_hash,
            "params": self.params,
            "status": self.status,
            "failures": self.failures,
            "margins": self.margins,
            "observations": self.observations,
            "sign_convention": self.sign_convention,
            "precision": self.precision,
        }
        if include_runtime:
            obj["runtime_ms"] = self.runtime_ms
        return obj

    def to_json(self, include_runtime: bool = True) -> str:
        return json.dumps(
            self.to_obj(include_runtime), sort_keys=True, separators=(",", ":")
        )


def _sample_seed(seed: int, lemma: str, index: int) -> str:
    return f"{seed}:{lemma}:{index}"


def _update_margin(margins: dict, key: str, value: int) -> None:
    if key not in margins or value < margins[key]:
        margins[key] = value


# ---------------------------------------------------------------------------
# Witt-level trace and samplers


def galois_vec(tower: ExtensionTower, x: WittVec, times: int = 1) -> WittVec:
    comps = tuple(tower.galois(c, times) for c in x.components)
    return WittVec(x.ctx, x.ring, comps)


def witt_trace(tower: ExtensionTower, x: WittVec) -> WittVec:
    """Witt sum of the Galois conjugates, projected into the fixed ring.

    The conjugates of each component are pushed, as flat coordinates,
    into a fresh ``GhostSum``, so the sampler's audit shares no state
    with the engine that produced the sample."""
    engine = wittcore.GhostSum(tower.p, x.ctx.n, tower.L)
    for c in x.components:
        engine.push(tower.conjugates_raw(c.data))
    projected = tuple(tower.project_to_K(c) for c in engine.sums())
    return WittVec(x.ctx, tower.K, projected)


def witt_diff_of_coboundary(tower: ExtensionTower, y: WittVec) -> WittVec:
    return galois_vec(tower, y) - y


def _trace_kernel_draw(tower: ExtensionTower, rng: random.Random, base) -> tuple:
    """``base`` plus sum of r_k * k over the tower's trace-kernel basis,
    with each r_k drawn uniformly modulo p^N_int, on flat coordinates."""
    modulus = tower.modulus
    acc = base
    for k in tower.trace_kernel_flat:
        r = rng.randrange(modulus)
        acc = [a + r * c for a, c in zip(acc, k)]
    return tower.L.reduce(acc)


def sample_trace_zero(
    tower: ExtensionTower,
    n: int,
    rng: random.Random,
    *,
    retries: int = 32,
    seed_label: str = "",
) -> KernelSample:
    """Draw a random length-n trace-zero Witt vector.

    Component 1 is a random trace-kernel element; component l solves
    tr(x_l) = -carry_l and gets a fresh kernel element added.  When the
    carry falls outside the trace image, the level l-1 kernel part is
    redrawn (bounded retries); the finished vector is audited.  The
    carries come from one ``GhostSum`` over the conjugate family, so a
    retry recomputes only the columns from the cut up.  Components,
    particular solutions and carries stay flat coordinate tuples until
    the finished vector is built.
    """
    ctx = ctx_for(tower.p, n)
    K, L = tower.K, tower.L
    engine = wittcore.GhostSum(tower.p, n, L)
    particulars: list[tuple] = [L.zero_elem]
    comps: list[tuple] = [_trace_kernel_draw(tower, rng, L.zero_elem)]
    level = 2
    budget = retries * n * 8
    fail_streak = 0
    while level <= n:
        # the engine holds columns 1..level-2; column level-1 is new
        engine.push(tower.conjugates_raw(comps[level - 2]))
        try:
            carry = tower.project_to_K_raw(engine.carry().data)
            rhs = OElem(K, tuple(-c % K.modulus for c in carry))
            part, _ = tower.solve_trace_eq(rhs)
        except NoSolutionAtPrecision:
            budget -= 1
            fail_streak += 1
            if budget <= 0:
                raise SamplerExhausted(level, retries) from None
            # redraw the kernel part one level down; solvability can be
            # pinned by deeper components, so the cut deepens every
            # ``retries`` consecutive failures, and everything above the
            # cut is rebuilt (its trace equations used the old carries)
            depth = min(level - 1, 1 + fail_streak // retries)
            cut = level - depth
            del comps[cut:]
            del particulars[cut:]
            comps[cut - 1] = _trace_kernel_draw(tower, rng, particulars[cut - 1])
            engine.truncate(cut - 1)
            level = cut + 1
            continue
        particulars.append(part.data)
        comps.append(_trace_kernel_draw(tower, rng, part.data))
        level += 1
        fail_streak = 0
    vec = WittVec(ctx, L, tuple(OElem(L, c) for c in comps))
    residual = _audited_trace(tower, vec, "a fresh sample")
    return KernelSample(vec, residual, "recursive-sampler", seed_label)


def coboundary_sample(
    tower: ExtensionTower, n: int, rng: random.Random, seed_label: str = ""
) -> KernelSample:
    """A trace-zero vector of the form sigma(y) - y, with its witness."""
    ctx = ctx_for(tower.p, n)
    y = WittVec(ctx, tower.L, tuple(tower.random_L_elem(rng) for _ in range(n)))
    vec = witt_diff_of_coboundary(tower, y)
    residual = _audited_trace(tower, vec, "a coboundary sample")
    return KernelSample(vec, residual, "coboundary", seed_label, witness=y)


def _audited_trace(tower: ExtensionTower, vec: WittVec, what: str) -> WittVec:
    """The Witt trace of a vector that must have trace zero at precision."""
    residual = witt_trace(tower, vec)
    for c in residual.components:
        if not tower.is_zero_at_precision(c):
            raise AssertionError(f"trace audit failed on {what}")
    return residual


# ---------------------------------------------------------------------------
# coboundary decisions


def level1_class_trivial(tower: ExtensionTower, x1: OElem) -> ClassVerdict:
    """Decide the class of a level-one trace-zero element.

    Solving happens at the advertised precision; an obstruction is
    certified only when it sits at depth at most N - delta, where delta
    is the elimination's pivot-valuation loss.
    """
    try:
        y, delta = tower.solve_sigma_minus_one(x1, digits=tower.N)
    except NoSolutionAtPrecision as exc:
        if exc.depth + exc.delta <= tower.N:
            return ClassVerdict(
                "nontrivial", obstruction_depth=exc.depth, delta=exc.delta
            )
        return ClassVerdict(
            "undetermined", obstruction_depth=exc.depth, delta=exc.delta
        )
    return ClassVerdict("trivial", witness=y, delta=delta)


def witt_class_trivial(
    tower: ExtensionTower, sample: KernelSample, budget: int = 256
) -> ClassVerdict:
    """Budget-bounded coboundary search at Witt length >= 1.

    Level one is linear; each higher level is linear once the lower
    components are pinned, but the lower solutions are only defined up
    to translates from the fixed ring, so those cosets are searched up
    to the budget.  Failure to find a witness is reported as
    undetermined, never as a nontriviality claim.
    """
    x = sample.vec
    n = x.ctx.n
    ctx = x.ctx
    counter = {"left": budget}

    def diff_component(y_comps: list[OElem], level: int) -> OElem:
        padded = tuple(y_comps) + (tower.L.zero,) * (n - len(y_comps))
        y = WittVec(ctx, tower.L, padded)
        return witt_diff_of_coboundary(tower, y).components[level - 1]

    def extend(y_comps: list[OElem], level: int) -> list[OElem] | None:
        if level > n:
            return y_comps
        rhs = x.components[level - 1] - diff_component(y_comps, level)
        if counter["left"] <= 0:
            return None
        counter["left"] -= 1
        try:
            y_l, _ = tower.solve_sigma_minus_one(rhs, digits=tower.N)
        except NoSolutionAtPrecision:
            return None
        if level == n:
            return y_comps + [y_l]
        for t in tower.enumerate_K_translates(max(1, budget // 8)):
            found = extend(y_comps + [y_l + tower.embed_K(t)], level + 1)
            if found is not None:
                return found
            if counter["left"] <= 0:
                return None
        return None

    found = extend([], 1)
    if found is None:
        return ClassVerdict("undetermined")
    y = WittVec(ctx, tower.L, tuple(found))
    d = witt_diff_of_coboundary(tower, y)
    for got, want in zip(d.components, x.components):
        if not tower.eq_at_precision(got, want):
            return ClassVerdict("undetermined")
    return ClassVerdict("trivial", witness=y)


# ---------------------------------------------------------------------------
# orders of the level-one cohomology group


def h1_order_level1(tower: ExtensionTower) -> int:
    """|ker tr / im(sigma-1)| on the top ring, from elementary divisors.

    The finite elementary divisors of (sigma - 1) are exactly the
    invariants of the quotient (the rational kernel is split off by the
    rank count), so the order is p to their sum.  Read from the tower's
    cached Smith forms at two precisions; disagreement raises NotStabilized.
    """
    rank = tower.L.flat_rank
    expected_zeros = tower.K.flat_rank
    runs = []
    for digits in (tower.N, tower.N + 2):
        finite = [v for v in tower.sigma_minus_one_snf(digits).pivots if v < digits - 1]
        if rank - len(finite) != expected_zeros:
            raise NotStabilized(
                f"rank defect {rank - len(finite)} != expected {expected_zeros}"
            )
        runs.append(finite)
    if runs[0] != runs[1]:
        raise NotStabilized(f"elementary divisors moved: {runs[0]} vs {runs[1]}")
    return tower.p ** sum(runs[0])


# the precisions the enumeration oracles run at
ENUMERATION_DIGITS = (2, 3)


def check_enumeration_domain(tower: ExtensionTower, digits: int) -> None:
    """Refuse (ValueError) to enumerate O_L modulo p^digits when it holds
    more than 65536 vectors."""
    exponent = digits * tower.L.flat_rank
    if tower.p**exponent > 65536:
        raise ValueError(f"enumeration domain p^{exponent} too large")


def enumerate_maps(tower: ExtensionTower, digits: int) -> dict[str, tuple]:
    """For the trace and for (sigma - 1) on O_L modulo p^digits: the
    reduced matrix, and its kernel and image as sets, from one
    enumeration of the whole module; refused (ValueError) by
    ``check_enumeration_domain`` first."""
    check_enumeration_domain(tower, digits)
    modulus = tower.p**digits
    maps = {
        name: ([[x % modulus for x in row] for row in mat], set(), set())
        for name, mat in (
            ("trace", tower.trace_mat),
            ("sigma_minus_one", tower.sigma_minus_one_mat),
        )
    }
    for vec in itertools.product(range(modulus), repeat=tower.L.flat_rank):
        for mat, kernel, image in maps.values():
            out = tuple(sum(map(operator.mul, row, vec)) % modulus for row in mat)
            image.add(out)
            if not any(out):
                kernel.add(vec)
    return maps


def h1_order_enumeration(
    tower: ExtensionTower, digits: int, maps: dict[str, tuple] | None = None
) -> int:
    """Set-enumeration oracle for the level-one order.

    Enumerates the whole module at the given precision (or reads
    ``maps``, the ``enumerate_maps`` result at these digits) and corrects
    the naive kernel/image quotient by the trace-image defect, which is
    the finite-precision artifact.
    """
    if maps is None:
        maps = enumerate_maps(tower, digits)
    _, trace_kernel, trace_image = maps["trace"]
    numerator = len(trace_kernel) * len(trace_image)
    denominator = len(maps["sigma_minus_one"][2]) * tower.p ** (digits * tower.K.flat_rank)
    if numerator % denominator:
        raise NotStabilized("enumeration counts are not an integer ratio")
    return numerator // denominator


def _subgroup_span(generators, rank: int, modulus: int) -> frozenset:
    """Closure of the generated subgroup of (Z/modulus)^rank."""
    zero = tuple([0] * rank)
    seen = {zero}
    stack = [zero]
    gens = [tuple(x % modulus for x in g) for g in generators]
    while stack:
        x = stack.pop()
        for g in gens:
            y = tuple((a + b) % modulus for a, b in zip(x, g))
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return frozenset(seen)


def linsolve_matches_enumeration(
    tower: ExtensionTower, digits: int, maps: dict[str, tuple] | None = None
) -> dict:
    """Check the elimination's kernel and image bases against full set
    enumeration (or ``maps``, the ``enumerate_maps`` result at these
    digits), for both the trace and (sigma - 1) matrices."""
    p = tower.p
    rank = tower.L.flat_rank
    modulus = p**digits
    results = {}
    if maps is None:
        maps = enumerate_maps(tower, digits)
    for name, (reduced, kernel_set, image_set) in maps.items():
        m = len(reduced)
        snf = smith_normal_form(reduced, p, digits)
        sol = linsolve(reduced, [0] * m, p, digits, snf=snf)
        kernel_span = _subgroup_span(sol.kernel, rank, modulus)
        image_span = _subgroup_span(snf.image_basis(reduced), m, modulus)
        results[f"{name}_kernel"] = kernel_span == kernel_set
        results[f"{name}_image"] = image_span == image_set
    return results


def h1_order_enumeration_stable(
    tower: ExtensionTower, maps_by_digits: dict[int, dict] | None = None
) -> int:
    """The enumeration order at each of ``ENUMERATION_DIGITS``, which must
    agree; ``maps_by_digits`` holds ``enumerate_maps`` results to reuse."""
    maps_by_digits = maps_by_digits or {}
    a, b = (
        h1_order_enumeration(tower, digits, maps_by_digits.get(digits))
        for digits in ENUMERATION_DIGITS
    )
    if a != b:
        raise NotStabilized(f"enumeration order moved: {a} vs {b}")
    return a


# ---------------------------------------------------------------------------
# the stable length


def stable_witt_length(break_s: int, p: int) -> int:
    """Least M whose partial geometric bound climbs past s - 1.

    Evaluates (s(p-1)/p) * sum_{k=0}^{M-2} p^-k > s - 1 in exact
    rational arithmetic.
    """
    if break_s < 1:
        raise ValueError("ramification break must be >= 1")
    target = Fraction(break_s - 1)
    M = 1
    while True:
        bound = Fraction(break_s * (p - 1), p) * sum(
            Fraction(1, p**k) for k in range(M - 1)
        )
        if bound > target:
            return M
        M += 1


def stable_witt_length_closed(break_s: int, p: int) -> int:
    """Equivalent closed form: least M with p^(M-1) > s."""
    M = 1
    while p ** (M - 1) <= break_s:
        M += 1
    return M


# ---------------------------------------------------------------------------
# verification suite


def _sampler_mix(
    tower: ExtensionTower,
    n: int,
    samples: int,
    seed: int,
    lemma: str,
    coboundary_every: int = 0,
) -> Iterator[KernelSample]:
    """The verifiers' one sample stream: sample k is drawn lazily from
    random.Random("seed:lemma:k"), a coboundary every coboundary_every-th."""
    for k in range(samples):
        label = _sample_seed(seed, lemma, k)
        rng = random.Random(label)
        if coboundary_every and k % coboundary_every == coboundary_every - 1:
            yield coboundary_sample(tower, n, rng, label)
        else:
            yield sample_trace_zero(tower, n, rng, seed_label=label)


def _base_report(
    tower: ExtensionTower, lemma: str, params: dict
) -> VerificationReport:
    return VerificationReport(
        lemma=lemma,
        tower_hash=tower.tower_hash,
        params={**params, "N": tower.N},
        precision={
            "N": tower.N,
            "N_internal": tower.N_int,
            "val_cap": tower.val_cap,
        },
    )


def witt_length(lemma: str, tower: ExtensionTower, n: int | None) -> int | None:
    """The Witt length ``lemma`` runs at on this tower: ``n``, or the
    lemma's default when n is None; out of range, WittLengthOutOfRange
    with one line that names the CLI's ``--n``.

    vktr and vksub read no Witt vector, so they take no length (None).
    Every other lemma follows one rule: 1 <= n, the tower's precision
    covers n (``precision_policy``), and for main n >= its stable length
    M, which is its default."""
    p = tower.p
    if lemma in ("vktr", "vksub"):
        if n is not None:
            raise WittLengthOutOfRange(f"--n: {lemma} takes no Witt length")
        return None
    M = stable_witt_length(tower.s, p)
    if n is None:
        # carry_identity and residual_invariant: the p-fold table length,
        # and past the tables 2, the p = 5 length and the shortest with a carry
        n = {"step_bounds": 4, "fixed_points": 3, "main": M}.get(lemma, PFOLD_RANGE.get(p, 2))
    if n < 1:
        raise WittLengthOutOfRange(f"--n {n} is not a Witt length; it must be at least 1")
    need = precision_policy(p, tower.e_K, tower.s, n)
    if need > tower.N:
        raise WittLengthOutOfRange(
            f"--n {n} needs precision N >= {need} at p={p}, s={tower.s}; "
            f"the tower has N={tower.N}"
        )
    # below the stable length the theorem claims nothing, so a small
    # valuation there is its sharpness, not a counterexample
    if lemma == "main" and n < M:
        raise WittLengthOutOfRange(
            f"--n {n} is below the stable Witt length M={M} the main theorem needs"
        )
    return n


def _record_checked(report: VerificationReport, checked: int, samples: int) -> None:
    """A sampled check that ran out of attempts before reaching the
    requested sample count decides nothing: PASS becomes UNDETERMINED."""
    report.params["checked"] = checked
    if checked < samples and report.status == "PASS":
        report.status = "UNDETERMINED"


def verify_vktr(
    tower: ExtensionTower, samples: int = 1000, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Trace valuation lower bound on the top ring, on flat coordinates."""
    witt_length("vktr", tower, n)
    p, s = tower.p, tower.s
    L, K, cap, cap_K = tower.L, tower.K, tower.val_cap, tower.val_cap_K
    report = _base_report(tower, "vktr", {"samples": samples, "seed": seed})
    checked = 0
    attempts = 0
    while checked < samples and attempts < 20 * samples:
        rng = random.Random(_sample_seed(seed, "vktr", attempts))
        attempts += 1
        a = tower.random_L_elem(rng, spread_valuation=True).data
        va = L.val_raw(a)
        if va is None or va >= cap:
            continue
        bound = -(-(va + s * (p - 1)) // p)
        if bound > cap_K - 2:
            continue  # not decidable with margin; redraw
        vk = ValExtended.at_cap(K.val_raw(tower._trace_raw(a)), cap_K)
        checked += 1
        ok = vk.at_least(bound)
        margin = vk.capped() - bound
        _update_margin(report.margins, "trace_valuation_slack", margin)
        if not ok:
            report.record_failure(
                {
                    "seed": _sample_seed(seed, "vktr", attempts - 1),
                    "v_L(a)": va,
                    "v_K(tr(a))": vk.value,
                    "bound": bound,
                }
            )
    _record_checked(report, checked, samples)
    return report


def verify_vksub(
    tower: ExtensionTower, samples: int = 1000, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Exact valuation of tr(a^p) - tr(a)^p, on flat coordinates."""
    witt_length("vksub", tower, n)
    p, e_k = tower.p, tower.e_K
    L, K, cap, cap_K = tower.L, tower.K, tower.val_cap, tower.val_cap_K
    report = _base_report(tower, "vksub", {"samples": samples, "seed": seed})
    checked = 0
    attempts = 0
    worst = 0
    while checked < samples and attempts < 20 * samples:
        rng = random.Random(_sample_seed(seed, "vksub", attempts))
        attempts += 1
        a = tower.random_L_elem(rng, spread_valuation=True).data
        va = L.val_raw(a)
        if va is None or va >= cap:
            continue
        expected = e_k + va
        if expected >= cap_K - 1:
            continue
        diff = K.sub(tower._trace_raw(L.pow(a, p)), K.pow(tower._trace_raw(a), p))
        vk = ValExtended.at_cap(K.val_raw(diff), cap_K)
        checked += 1
        if not vk.finite or vk.value != expected:
            worst = max(worst, abs(vk.capped() - expected))
            report.record_failure(
                {
                    "seed": _sample_seed(seed, "vksub", attempts - 1),
                    "v_L(a)": va,
                    "v_K(diff)": vk.value,
                    "expected": expected,
                }
            )
    report.margins["max_deviation"] = worst
    _record_checked(report, checked, samples)
    return report


def _residual(tower: ExtensionTower, comps: Sequence[OElem], level: int) -> OElem:
    """The p-fold residual at the conjugate family (in O_L): the level-l
    component of the Witt sum of the conjugate rows with columns l-1 and
    l set to zero, which is the carry with column l-1 set to zero."""
    rows = [
        [tower.galois(c, i) for c in comps[: level - 2]] + [tower.L.zero]
        for i in range(tower.p)
    ]
    return wittcore.carry_value(tower.p, level, rows, tower.L)


def verify_carry_identity(
    tower: ExtensionTower, samples: int = 200, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Division-free trace recursion for trace-zero vectors.

    Checks p*(-tr(x_l)) against the Frobenius bracket, the alternating
    binomial term (both signs tried, the exact one recorded), and p
    times the residual.
    """
    p = tower.p
    n = witt_length("carry_identity", tower, n)
    C = wittcore.alternating_binom_constant(p)
    report = _base_report(
        tower, "carry_identity", {"samples": samples, "seed": seed, "n": n}
    )
    sign_ok = {"minus": True, "plus": True}
    for sample in _sampler_mix(tower, n, samples, seed, "carry"):
        comps = sample.vec.components
        for level in range(2, n + 1):
            t_l = tower.trace(comps[level - 1])
            t_prev = tower.trace(comps[level - 2])
            t_pow = tower.trace(comps[level - 2] ** p)
            lhs = (-t_l) * p
            base = t_pow - t_prev**p
            h_val = tower.project_to_K(_residual(tower, comps, level))
            cterm = (t_prev**p) * (C * p)
            matched = False
            for sign, rhs in (
                ("minus", base - cterm + h_val * p),
                ("plus", base + cterm + h_val * p),
            ):
                if tower.eq_at_precision(lhs, rhs):
                    matched = True
                else:
                    sign_ok[sign] = False
            if not matched:
                report.record_failure({"seed": sample.seed, "level": level})
    if sign_ok["minus"]:
        report.sign_convention = "minus"
        report.observations["c_term_degenerate"] = C == 0
    elif sign_ok["plus"]:
        report.sign_convention = "plus"
    else:
        report.sign_convention = "neither"
        if not report.failures:
            report.record_failure({"what": "no consistent sign convention"})
    report.observations["carry_constant"] = C
    # the symbolic split exists only within the p-fold tables
    report.observations["symbolic_sign_convention"] = (
        wittcore.pfold_decomposition(p, n).sign_convention
        if n <= PFOLD_RANGE.get(p, 0)
        else None
    )
    return report


def verify_residual_invariant(
    tower: ExtensionTower, samples: int = 200, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Residual values are Galois-fixed with the cascaded valuation bound."""
    p = tower.p
    n = witt_length("residual_invariant", tower, n)
    report = _base_report(
        tower, "residual_invariant", {"samples": samples, "seed": seed, "n": n}
    )
    for sample in _sampler_mix(tower, n, samples, seed, "residual"):
        label = sample.seed
        comps = sample.vec.components
        for level in range(2, n + 1):
            h_raw = _residual(tower, comps, level)
            if not tower.eq_at_precision(tower.galois(h_raw), h_raw):
                report.record_failure(
                    {"seed": label, "level": level, "what": "not Galois-fixed"}
                )
                continue
            if not tower.in_K_at_precision(h_raw):
                report.record_failure(
                    {"seed": label, "level": level, "what": "not in fixed ring"}
                )
                continue
            if level == 2:
                if not tower.is_zero_at_precision(h_raw):
                    report.record_failure(
                        {"seed": label, "level": level, "what": "h0 nonzero"}
                    )
                continue
            vals = [tower.vL(comps[i]) for i in range(level - 2)]
            if not all(v.finite for v in vals):
                continue
            bound = p * min(v.value for v in vals)
            if bound > tower.val_cap_K - 1:
                continue
            vk = tower.vK(tower.project_to_K(h_raw))
            margin = vk.capped() - bound
            _update_margin(report.margins, "residual_valuation_slack", margin)
            if not vk.at_least(bound):
                report.record_failure(
                    {
                        "seed": label,
                        "level": level,
                        "what": "valuation bound",
                        "v_K(h)": vk.value,
                        "bound": bound,
                    }
                )
    return report


def step_bound(s: int, p: int, i: int) -> int:
    """Ceiling of the cascaded lower bound for the i-th component from
    the top (exact rational arithmetic)."""
    frac = Fraction(s * (p - 1), p) * sum(Fraction(1, p**k) for k in range(i))
    return -(-frac.numerator // frac.denominator)


def verify_step_bounds(
    tower: ExtensionTower, samples: int = 200, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Valuation cascade on trace-zero samples (coboundaries mixed in)."""
    p, s = tower.p, tower.s
    n = witt_length("step_bounds", tower, n)
    report = _base_report(
        tower, "step_bounds", {"samples": samples, "seed": seed, "n": n}
    )
    for sample in _sampler_mix(tower, n, samples, seed, "steps", coboundary_every=4):
        comps = sample.vec.components
        for i in range(1, n):
            bound = step_bound(s, p, i)
            v = tower.vL(comps[n - i - 1])
            margin = v.capped() - bound
            _update_margin(report.margins, f"component_{n - i}_slack", margin)
            if not v.at_least(bound):
                report.record_failure(
                    {
                        "seed": sample.seed,
                        "provenance": sample.provenance,
                        "component": n - i,
                        "v_L": v.value,
                        "bound": bound,
                    }
                )
    return report


def verify_main_theorem(
    tower: ExtensionTower, samples: int = 200, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """At the stable length, first components of trace-zero vectors have
    valuation >= s and trivial level-one class; plus the contrast check."""
    s = tower.s
    M = witt_length("main", tower, n)
    report = _base_report(tower, "main", {"samples": samples, "seed": seed, "M": M})
    for sample in _sampler_mix(tower, M, samples, seed, "main"):
        label = sample.seed
        x1 = sample.vec.components[0]
        v1 = tower.vL(x1)
        margin = v1.capped() - s
        _update_margin(report.margins, "first_component_slack", margin)
        if not v1.at_least(s):
            report.record_failure(
                {"seed": label, "what": "valuation", "v_L(x1)": v1.value, "s": s}
            )
            continue
        verdict = level1_class_trivial(tower, x1)
        if verdict.status != "trivial":
            report.record_failure(
                {
                    "seed": label,
                    "what": "class",
                    "verdict": verdict.status,
                    "depth": verdict.obstruction_depth,
                }
            )

    # contrast: some level-one trace-zero element must be nontrivial with
    # small valuation whenever the level-one cohomology is nonzero
    order = h1_order_level1(tower)
    report.observations["h1_order_level1"] = order
    if order > 1:
        contrast = None
        for idx, cand in enumerate(_contrast_candidates(tower, seed)):
            verdict = level1_class_trivial(tower, cand)
            if verdict.status == "nontrivial":
                v = tower.vL(cand)
                contrast = {
                    "candidate_index": idx,
                    "v_L": v.value,
                    "obstruction_depth": verdict.obstruction_depth,
                }
                if not (v.finite and v.value <= s - 1):
                    report.record_failure(
                        {"what": "contrast valuation", "v_L": v.value, "s": s}
                    )
                break
        if contrast is None:
            report.record_failure({"what": "no nontrivial level-one class found"})
        else:
            report.observations["contrast"] = contrast

    # observed (not asserted) behavior one length below the stable one
    if M >= 2:
        observed = None
        for sample in _sampler_mix(tower, M - 1, min(samples, 50), seed, "main-below"):
            value = tower.vL(sample.vec.components[0]).capped()
            observed = value if observed is None else min(observed, value)
        report.observations["min_v_L_x1_at_length_M_minus_1"] = observed
    return report


def _contrast_candidates(tower: ExtensionTower, seed: int):
    for k in tower.trace_kernel_basis():
        yield k
    for j in range(64):
        rng = random.Random(_sample_seed(seed, "contrast", j))
        yield OElem(tower.L, _trace_kernel_draw(tower, rng, tower.L.zero_elem))


def verify_fixed_points(
    tower: ExtensionTower, samples: int = 200, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Galois-fixed vectors are exactly those with fixed-ring components,
    and truncation of fixed-ring vectors is split by zero-padding.  The
    components are flat coordinate tuples until the truncation check."""
    p = tower.p
    n = witt_length("fixed_points", tower, n)
    ctx = ctx_for(p, n)
    L, e_K = tower.L, tower.K.flat_rank
    report = _base_report(
        tower, "fixed_points", {"samples": samples, "seed": seed, "n": n}
    )

    def fixed(comps) -> bool:
        return all(tower._zero_raw(L.sub(tower._galois_raw(c, 1), c)) for c in comps)

    fixed_seen = 0
    for k in range(samples):
        label = _sample_seed(seed, "fixed", k)
        rng = random.Random(label)
        kcomps = tuple(L.embed(tower.random_K_elem(rng).data) for _ in range(n))
        if not fixed(kcomps):
            report.record_failure({"seed": label, "what": "fixed vector moved"})
            continue
        fixed_seen += 1

        # perturb one component off the fixed ring; must not be fixed
        idx = rng.randrange(n)
        perturbed = list(kcomps)
        unit = tower.random_L_unit(rng).data
        perturbed[idx] = L.add(perturbed[idx], L.mul(L.pi_elem, unit))
        if fixed(perturbed):
            report.record_failure({"seed": label, "what": "moved vector looks fixed"})
            continue

        # any vector fixed at precision must have fixed-ring components;
        # of the two, only kcomps is fixed (the checks above decided both)
        if not all(tower._zero_raw(c[e_K:]) for c in kcomps):
            report.record_failure({"seed": label, "what": "fixed but not rational"})

        # truncation is split on fixed-ring vectors: append zero
        if n >= 2:
            kvec = WittVec(ctx, L, tuple(OElem(L, c) for c in kcomps))
            low = kvec.truncate(n - 1)
            lifted = WittVec(ctx, tower.L, low.components + (tower.L.zero,))
            if lifted.truncate(n - 1).components != low.components:
                report.record_failure({"seed": label, "what": "truncation section"})
    report.observations["fixed_vectors_checked"] = fixed_seen
    return report


VERIFIERS: dict[str, Callable] = {
    "vktr": verify_vktr,
    "vksub": verify_vksub,
    "carry_identity": verify_carry_identity,
    "residual_invariant": verify_residual_invariant,
    "step_bounds": verify_step_bounds,
    "main": verify_main_theorem,
    "fixed_points": verify_fixed_points,
}
