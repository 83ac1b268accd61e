"""Degree-p cyclic cohomology machinery on truncated Witt vectors.

For a cyclic group the first cohomology of a module is the trace
kernel modulo the image of (sigma - 1).  Here the module is the
additive group of length-n Witt vectors over the top ring of a tower,
so everything reduces to:

* a Witt-level trace (sum of the componentwise Galois conjugates),
* a recursive sampler of trace-zero vectors that solves one linear
  trace equation per component, with the right-hand side the carry of
  the Witt trace, taken on O_K from the ghost components (the ghost
  components of the conjugate family's Witt sum audit the result),
* coboundary solving at level one, exact and decisive up to the
  elimination's precision loss,
* an order computation for the level-one cohomology group from the
  elementary divisors of (sigma - 1), stabilization-checked across two
  precisions and backed by a set-enumeration oracle.

The verify_* entry points package sampled evidence (exact equalities
and valuation inequalities, with margins and replayable seeds) into
structured reports; each takes its Witt length and its report from
``_start``, and vktr and vksub read one attempt stream, ``_field_stream``.
"""

from __future__ import annotations

import itertools
import json
import operator
import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from . import kernels, wittcore
from .localfield import (
    ExtensionTower,
    NoSolutionAtPrecision,
    PrecisionTooLow,
    at_cap,
    check_printable,
    linsolve,
    precision_policy,
    smith_normal_form,
)
from .wittcore import PFOLD_RANGE, WittVec


# the trace-zero sampler's redraw cut deepens by one level every
# SAMPLER_RETRIES consecutive failed levels, and it gives up after
# SAMPLER_RETRIES * n * 8 failures in all; read at call time
SAMPLER_RETRIES = 32


class SamplerExhausted(RuntimeError):
    """The trace-zero sampler ran out of retries at some level."""

    def __init__(self, level: int, retries: int):
        self.level = level
        self.retries = retries
        super().__init__(f"sampler exhausted {retries} retries at level {level}")


class NotStabilized(ArithmeticError):
    """An order computation disagreed between two precisions."""


class OrderMismatch(ArithmeticError):
    """Exact counts of one cohomology order disagree: the tower's matrices
    or Smith forms are wrong, which is a defect, not a verdict."""


class WittLengthOutOfRange(PrecisionTooLow):
    """A verifier was asked to run at a Witt length it cannot use on this
    tower; raised before anything is drawn."""


@dataclass
class KernelSample:
    """A trace-zero Witt vector, audited when drawn, with its provenance."""

    vec: WittVec
    provenance: str
    seed: str


@dataclass
class ClassVerdict:
    """Outcome of a coboundary decision."""

    status: str  # "trivial" | "nontrivial" | "undetermined"
    witness: tuple | None = None  # y with sigma(y) - y = x_1, on flat coordinates
    obstruction_depth: int | None = None


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

    def undetermined(self, reason: str) -> None:
        """Work that decided nothing: a PASS becomes UNDETERMINED, a FAIL
        stays, and the first reason is kept as observations["undetermined"]."""
        self.observations.setdefault("undetermined", reason)
        if self.status == "PASS":
            self.status = "UNDETERMINED"

    def to_obj(self, include_runtime: bool = True) -> dict:
        """The report's fields; both serializations sort its keys."""
        obj = dict(vars(self))
        if not include_runtime:
            del obj["runtime_ms"]
        return obj

    def to_json(self, include_runtime: bool = True) -> str:
        return json.dumps(
            self.to_obj(include_runtime), sort_keys=True, separators=(",", ":")
        )


def _sample_rngs(seed: int, lemma: str, count: int) -> Iterator[tuple]:
    """Every sampled draw's source: (label, rng) for k < count, one generator
    reseeded as random.Random(label) is; draw sample k in full before k + 1."""
    rng = random.Random()
    for k in range(count):
        label = f"{seed}:{lemma}:{k}"
        rng.seed(label)
        yield label, rng


def _at_least(margins: dict, key: str, v: int | None, cap: int, bound: int) -> bool:
    """Decide v >= bound for a ring valuation ``v`` (``val_raw``) read at
    ``cap`` (``at_cap``), and keep the least margin, v - bound with an
    undecided v taken at the cap, as ``margins[key]``.  A bound past the
    cap is refused (PrecisionTooLow), even for a finite v.  False means
    an int v below the bound, so below the cap: a failure payload may
    carry v as given."""
    if bound > cap:
        raise PrecisionTooLow(f"assertion v >= {bound} exceeds the valuation cap {cap}")
    v = at_cap(v, cap)
    margin = (cap if v is None else v) - bound
    if key not in margins or margin < margins[key]:
        margins[key] = margin
    return v is None or v >= bound


# ---------------------------------------------------------------------------
# Witt-level trace and samplers


def witt_trace(tower: ExtensionTower, x: WittVec) -> WittVec:
    """Witt sum of the Galois conjugates, projected into the fixed ring.

    The conjugates of each component are the columns of one ``ghost_sum``
    pass, which keeps no state.  No verdict path calls it: the trace
    audit (``_audit_trace``) decides on the ghost components of the same
    sum without building it, and this is the audit's oracle, and
    ``wittcore.ghost_trace``'s, in the tests."""
    columns = [tower.conjugates_raw(c) for c in x.components]
    sums = wittcore.ghost_sum(tower.L, columns, len(columns))
    return WittVec(tower.K, tuple(map(tower.project_to_K_raw, sums)))


def sample_trace_zero(
    tower: ExtensionTower,
    n: int,
    rng: random.Random,
    *,
    seed_label: str = "",
) -> KernelSample:
    """Draw a random length-n trace-zero Witt vector.

    Component 1 is a random trace-kernel element; component l solves
    tr(x_l) = -carry_l and gets a fresh kernel element added.  When the
    carry falls outside the trace image, the level l-1 kernel part is
    redrawn (``SAMPLER_RETRIES``); the finished vector is audited.  Each
    carry is the top component of the Witt trace of (x_1, ..., x_{l-1}, 0),
    one ``wittcore.ghost_trace`` pass lifted by l-1 digits: a p-th-power
    chain per component on O_L and per partial sum on O_K, with no
    conjugate.  The audit (``_audit_trace``) raises the conjugates
    instead, so it shares no computation with the carries.  Components,
    particular solutions and carries are flat coordinate tuples throughout.

    Whether level l is solvable depends only on x_1..x_{l-1} modulo
    ``tower.trace_residue_modulus``, p^delta with delta the largest pivot
    of the trace's Smith form.  carry_l is an integral polynomial in the
    coordinates of x_1..x_{l-1}, the trace's rows and the rings' structure
    constants are integral, and the solve fails exactly when some entry
    of U*c is nonzero modulo its pivot's p^v, v <= delta.  (A zero row of
    the form needs every digit; the modulus is then p^N_int.)  A residue
    prefix that once failed is kept in ``tower.unsolvable_prefixes``, one
    dict from the keys of x_1..x_{l-2} to the set of x_{l-1}'s keys, and
    when it comes back the carry and the solve are skipped for the same
    failure branch.

    Every draw of a component, the first, the one after each solve and
    each redraw, is one call of the tower's compiled ``redraw`` (from
    ``tower.trace_kernel_maps``): the particular solution's coordinates
    followed by kernel coefficients r_k, each uniform modulo p^N_int as
    ``rng.randrange`` draws them, keyed by the component's residues.  It
    draws again, in the same call, while the key is in the memo and the
    failure it stands for would redraw at the same level (``limit``); the
    loop below accounts those failures and takes the one past the limit.
    Only a kept draw goes through ``combine`` to its component.  The memo
    never changes a draw: the RNG stream and the components are those of
    the loop without it.
    """
    K, L = tower.K, tower.L
    unsolvable = tower.unsolvable_prefixes
    combine, redraw = tower.trace_kernel_maps
    # particulars[i] is x_{i+1}'s particular solution, comps[i] is x_{i+1}
    # and keys[i] its residues; x_level is drawn next
    particulars: list[tuple] = [L.zero_elem]
    comps: list[tuple] = []
    keys: list[tuple] = []
    level = 1
    retries = SAMPLER_RETRIES
    budget = retries * n * 8
    fail_streak = 0
    while True:
        # ``redraw`` takes each memo hit whose failure would redraw x_level
        # again: always at level 1, else while the streak is below retries
        base = tuple(keys)
        bad = unsolvable.get(base, ()) if level < n else ()
        limit = budget - 1 if level == 1 else min(budget - 1, retries - 1 - fail_streak)
        v, key, hits = redraw(rng.getrandbits, particulars[-1], bad, limit)
        budget -= hits
        fail_streak += hits
        if key not in bad:
            comps.append(combine(v))
            if level >= n:
                break
            keys.append(key)
            carry = wittcore.ghost_trace(tower, comps, level + 1)[-1]
            try:
                part, _ = tower.solve_trace_eq(K.neg(carry))
            except NoSolutionAtPrecision:
                unsolvable.setdefault(base, set()).add(key)
            else:
                particulars.append(part)
                level += 1
                fail_streak = 0
                continue
        budget -= 1
        fail_streak += 1
        if budget <= 0:
            raise SamplerExhausted(level + 1, retries)
        # redraw the kernel part at or below x_level; solvability can be
        # pinned by deeper components, so the cut deepens every ``retries``
        # consecutive failures, and everything above the cut is rebuilt
        # (its trace equations used the old carries)
        level -= min(level, 1 + fail_streak // retries) - 1
        del comps[level - 1 :], keys[level - 1 :], particulars[level:]
    vec = WittVec(L, tuple(comps))
    _audit_trace(tower, vec, "a fresh sample")
    return KernelSample(vec, "recursive-sampler", seed_label)


def coboundary_sample(
    tower: ExtensionTower, n: int, rng: random.Random, seed_label: str = ""
) -> KernelSample:
    """A trace-zero vector of the form sigma(y) - y, y random (one
    ``random_L_raw`` per component), audited."""
    L = tower.L
    y = tuple(tower.random_L_raw(rng) for _ in range(n))
    vec = WittVec(L, tuple(map(tower.galois_maps[1], y))) - WittVec(L, y)
    _audit_trace(tower, vec, "a coboundary sample")
    return KernelSample(vec, "coboundary", seed_label)


def _audit_trace(tower: ExtensionTower, vec: WittVec, what: str) -> None:
    """Raise AssertionError unless ``vec`` has Witt trace zero at precision.

    The trace is the Witt sum S of the p conjugates of x = ``vec``, of
    length n, and it is zero at precision when every coordinate of S_1,
    ..., S_n is 0 modulo p^N.  That holds exactly when every ghost
    component G_l = sum_j sum_{i<=l} p^(i-1) (sigma^j x_i)^(p^(l-i)) of S
    is 0 modulo p^(N+l-1), l = 1..n:

    * if every S_i is, each term p^(i-1) S_i^(p^(l-i)) of
      G_l = w_l(S) has valuation at least (i-1) + N p^(l-i) >= N + l - 1;
    * conversely, by induction on l,
      p^(l-1) S_l = G_l - sum_{i<l} p^(i-1) S_i^(p^(l-i)).

    The conjugates are exact modulo p^N_int, so raised on O_L lifted by
    n-1 digits G_l is exact modulo p^(N_int+l-1), which covers
    p^(N+l-1).  The check (``kernels.compile_ghost_zero``) raises the
    conjugates' p-th-power chains and builds no S_i.  It reads the field
    through sigma only, never through the trace rows that the sampler's
    carries (``wittcore.ghost_trace``) use, so it shares no computation
    with them.
    """
    n, p = len(vec.components), tower.p
    columns = [tower.conjugates_raw(c) for c in vec.components]
    ghost_zero = kernels.compile_ghost_zero(p, tower.L.flat_rank, (p,) * n, n, tower.N)
    if ghost_zero(tower.L.flat_lift(n - 1).pth_power, columns):
        raise AssertionError(f"trace audit failed on {what}")


# ---------------------------------------------------------------------------
# coboundary decisions


def level1_class_trivial(tower: ExtensionTower, x1: tuple) -> ClassVerdict:
    """Decide the class of a level-one trace-zero element, given on O_L
    flat coordinates; a trivial class has its witness y, sigma(y) - y =
    x1, on the same coordinates.

    Solving happens at the advertised precision; an obstruction is
    certified only when it sits at depth at most N - delta, where delta
    is the elimination's pivot-valuation loss.
    """
    try:
        y, _ = tower.solve_sigma_minus_one(x1, digits=tower.N)
    except NoSolutionAtPrecision as exc:
        certified = exc.depth + exc.delta <= tower.N
        return ClassVerdict(
            "nontrivial" if certified else "undetermined", obstruction_depth=exc.depth
        )
    return ClassVerdict("trivial", witness=y)


# ---------------------------------------------------------------------------
# orders of the level-one cohomology group


def trace_index_closed_form(p: int, s: int) -> int:
    """[O_K : tr O_L] for a totally ramified degree-p step with break s and
    residue field F_p: tr O_L = pi_K^floor(d/p) O_K, d = (s+1)(p-1) the
    exponent of the different (Serre, Local Fields, III section 3)."""
    return p ** ((p - 1) * (s + 1) // p)


def level1_counts(tower: ExtensionTower) -> dict[str, int]:
    """The order of H^1(G, O_L) counted three ways, not compared:

    * ``elementary-divisor``: |ker tr / im(sigma - 1)|, from the finite
      elementary divisors of (sigma - 1) (``_sigma_minus_one_order``);
    * ``trace-cokernel``: |H^0-hat(G, O_L)| = [O_K : tr O_L], p to the sum
      of the pivots of the tower's Smith form of the trace, which must be
      e_K finite ones (OrderMismatch otherwise).  O_L tensor Q_p is free
      over Q_p[G] (normal basis), so the Herbrand quotient is 1 and this
      order equals |H^1|;
    * ``closed-form``: ``trace_index_closed_form(p, s)``.
    """
    pivots = tower._trace_snf.pivots
    if len(pivots) != tower.e_K:
        raise OrderMismatch(f"the trace has {len(pivots)} finite pivots, not e_K = {tower.e_K}")
    return {
        "elementary-divisor": _sigma_minus_one_order(tower),
        "trace-cokernel": tower.p ** sum(pivots),
        "closed-form": trace_index_closed_form(tower.p, tower.s),
    }


def h1_order_level1(tower: ExtensionTower) -> int:
    """|H^1(G, O_L)|, once the three ``level1_counts`` agree; OrderMismatch
    otherwise."""
    counts = level1_counts(tower)
    if len(set(counts.values())) != 1:
        raise OrderMismatch(
            "level-one orders disagree: " + ", ".join(f"{k}={v}" for k, v in counts.items())
        )
    return counts["elementary-divisor"]


def _sigma_minus_one_order(tower: ExtensionTower) -> int:
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
            ("trace", tower.trace_rows(tower.N_int)),
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
    """Check the elimination against full set enumeration (or ``maps``,
    the ``enumerate_maps`` result at these digits), for both the trace
    and (sigma - 1) matrices: its kernel and image bases span the
    enumerated sets, and ``linsolve`` on every right-hand side b modulo
    p^digits raises NoSolutionAtPrecision exactly when b is outside the
    enumerated image, and otherwise returns an x with A*x = b.  The form's
    compiled ``snf.solve`` must return the same particular and delta, or
    raise at the same depth and delta; ``*_solve`` holds both checks."""
    p = tower.p
    rank = tower.L.flat_rank
    modulus = p**digits
    results = {}
    if maps is None:
        maps = enumerate_maps(tower, digits)
    for name, (reduced, kernel_set, image_set) in maps.items():
        m = len(reduced)
        snf = smith_normal_form(reduced, p, digits)
        kernel_span = _subgroup_span(snf.kernel_basis(), rank, modulus)
        image_span = _subgroup_span(snf.image_basis(reduced), m, modulus)
        results[f"{name}_kernel"] = kernel_span == kernel_set
        results[f"{name}_image"] = image_span == image_set
        solved = True
        for b in itertools.product(range(modulus), repeat=m):
            outcome = _solve_outcome(linsolve, snf, b)
            solved &= outcome == _solve_outcome(snf.solve, b)
            x = outcome[0]
            if x is None:
                solved &= b not in image_set
                continue
            solved &= all(
                sum(map(operator.mul, row, x)) % modulus == c for row, c in zip(reduced, b)
            )
        results[f"{name}_solve"] = solved
    return results


def _solve_outcome(solve, *args) -> tuple:
    """``solve(*args)``: (particular, delta), or (None, depth, delta) when it
    raises NoSolutionAtPrecision, so that two solves compare with ``==``."""
    try:
        return solve(*args)
    except NoSolutionAtPrecision as exc:
        return None, exc.depth, exc.delta


def h1_order_enumeration_stable(
    tower: ExtensionTower, maps_by_digits: dict[int, dict] | None = None
) -> int:
    """Set-enumeration oracle for the level-one order, which must agree at
    each of ``ENUMERATION_DIGITS``: the naive kernel/image quotient of the
    enumerated module (or of ``maps_by_digits``, ``enumerate_maps``
    results to reuse), corrected by the trace-image defect, the
    finite-precision artifact."""
    orders = []
    for digits in ENUMERATION_DIGITS:
        maps = (maps_by_digits or {}).get(digits) or enumerate_maps(tower, digits)
        _, trace_kernel, trace_image = maps["trace"]
        numerator = len(trace_kernel) * len(trace_image)
        denominator = len(maps["sigma_minus_one"][2]) * tower.p ** (digits * tower.K.flat_rank)
        if numerator % denominator:
            raise NotStabilized("enumeration counts are not an integer ratio")
        orders.append(numerator // denominator)
    a, b = orders
    if a != b:
        raise NotStabilized(f"enumeration order moved: {a} vs {b}")
    return a


# ---------------------------------------------------------------------------
# the stable length


def stable_witt_length(break_s: int, p: int) -> int:
    """Least M with p^(M-1) > s: the cascade over M - 1 components passes s - 1."""
    if break_s < 1:
        raise ValueError("ramification break must be >= 1")
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
    report: VerificationReport,
    coboundary_every: int = 0,
    checks: bool = True,
) -> Iterator[KernelSample]:
    """The Witt lemmas' sample stream: sample k is drawn lazily from
    ``_sample_rngs``, a coboundary every coboundary_every-th.  A sampler
    that runs out of retries ends the stream and leaves ``report``
    undetermined, and the samples already yielded keep what they recorded;
    if they are ``checks``, their count is ``report.params["checked"]``."""
    for k, (label, rng) in enumerate(_sample_rngs(seed, lemma, samples)):
        if coboundary_every and k % coboundary_every == coboundary_every - 1:
            yield coboundary_sample(tower, n, rng, label)
            continue
        try:
            sample = sample_trace_zero(tower, n, rng, seed_label=label)
        except SamplerExhausted as exc:
            if checks:
                report.params["checked"] = k
            report.undetermined(str(exc))
            return
        yield sample


def witt_length(lemma: str, tower: ExtensionTower, n: int | None) -> int | None:
    """The Witt length ``lemma`` runs at on this tower: ``n``, or the
    lemma's default when n is None; out of range, WittLengthOutOfRange
    with one line that names the CLI's ``--n``.

    vktr and vksub read no Witt vector, so they take no length (None).
    Every other lemma follows one rule: 1 <= n, the tower's precision
    covers n (``precision_policy``), and for main n >= its stable length
    M, which is its default.  carry_identity (levels 2..n) and step_bounds
    (components 1..n-1) need n >= 2, and residual_invariant (levels 3..n;
    the level-2 residual is zero) n >= 3: else nothing is checked.  The
    other defaults: carry_identity 4 at p = 2, 3 at p = 3 and 2 past it,
    residual_invariant the larger of that and 3, step_bounds 4 and
    fixed_points 3."""
    p = tower.p
    if lemma in ("vktr", "vksub"):
        if n is not None:
            raise WittLengthOutOfRange(f"--n: {lemma} takes no Witt length")
        return None
    M = stable_witt_length(tower.s, p)
    least = {"carry_identity": 2, "residual_invariant": 3, "step_bounds": 2}.get(lemma, 1)
    if n is None:
        carry = {2: 4, 3: 3}.get(p, 2)
        n = {
            "carry_identity": carry, "residual_invariant": max(carry, 3),
            "step_bounds": 4, "fixed_points": 3, "main": M,
        }[lemma]
    if n < 1:
        raise WittLengthOutOfRange(f"--n {n} is not a Witt length; it must be at least 1")
    if n < least:
        raise WittLengthOutOfRange(f"--n {n}: {lemma} checks nothing below n = {least}")
    need = precision_policy(p, tower.e_K, tower.s, n)
    if need > tower.N:
        raise WittLengthOutOfRange(
            f"--n {n} needs precision N >= {need} at p={p}, s={tower.s}; "
            f"the tower has N={tower.N}"
        )
    try:  # the Witt passes at length n run on rings lifted by n - 1 digits
        check_printable(p, tower.N_int + n - 1)
    except PrecisionTooLow as exc:
        raise WittLengthOutOfRange(f"--n {n}: {exc}") from None
    # below the stable length the theorem claims nothing, so a small
    # valuation there is its sharpness, not a counterexample
    if lemma == "main" and n < M:
        raise WittLengthOutOfRange(
            f"--n {n} is below the stable Witt length M={M} the main theorem needs"
        )
    return n


def _start(
    tower: ExtensionTower, lemma: str, samples: int, seed: int, n: int | None
) -> tuple[int | None, VerificationReport]:
    """Every verifier's first step, before it draws: its Witt length
    (``witt_length``), a refusal of samples < 1 (a PASS would check
    nothing), and its report.  Its params hold the length as ``n`` for
    every lemma that takes one, and for main its stable length as ``M``,
    with ``n`` only where main runs at another length."""
    n = witt_length(lemma, tower, n)
    if samples < 1:
        raise ValueError(f"{lemma}: samples must be at least 1, got {samples}")
    params = {"samples": samples, "seed": seed, "N": tower.N}
    if lemma == "main":
        params["M"] = stable_witt_length(tower.s, tower.p)
    if n not in (None, params.get("M")):
        params["n"] = n
    precision = {"N": tower.N, "N_internal": tower.N_int, "val_cap": tower.val_cap}
    return n, VerificationReport(lemma, tower.tower_hash, params, precision=precision)


def _field_stream(
    tower: ExtensionTower, report: VerificationReport, check: Callable, *extra
) -> Iterator[tuple]:
    """vktr's and vksub's attempts: attempt k < 20*samples calls ``check`` on
    sample k of ``_sample_rngs``, pi_L's powers, the caps and ``extra``, read
    at call time, and yields (label, drawn) for each draw it decides (not
    None).  After ``samples`` of them, or the last attempt, their count is
    ``report.params["checked"]``; fewer leave the report UNDETERMINED."""
    samples, cap, cap_K = report.params["samples"], tower.val_cap, tower.val_cap_K
    pows = tower.pi_L_powers(max(1, cap // 3))
    checked = 0
    for label, rng in _sample_rngs(report.params["seed"], report.lemma, 20 * samples):
        drawn = check(rng.getrandbits, pows, cap, cap_K, *extra)
        if drawn is not None:
            checked += 1
            yield label, drawn
            if checked == samples:
                break
    report.params["checked"] = checked
    if checked < samples:
        report.undetermined(f"checked {checked} of {samples} samples")


def verify_vktr(
    tower: ExtensionTower, samples: int = 1000, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Trace valuation lower bound on the top ring: each draw of
    ``_field_stream`` through the tower's ``field_checks``, its bound
    checked at ``val_cap_K`` by ``_at_least``."""
    _, report = _start(tower, "vktr", samples, seed, n)
    cap_K = tower.val_cap_K
    for label, (va, vk, bound) in _field_stream(tower, report, tower.field_checks[0], tower.s):
        if not _at_least(report.margins, "trace_valuation_slack", vk, cap_K, bound):
            report.record_failure(
                {"seed": label, "v_L(a)": va, "v_K(tr(a))": vk, "bound": bound}
            )
    return report


def verify_vksub(
    tower: ExtensionTower, samples: int = 1000, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Exact valuation of tr(a^p) - tr(a)^p, drawn and computed as vktr's
    bound is; v_K is an int, or None at or past the cap (``at_cap``)."""
    _, report = _start(tower, "vksub", samples, seed, n)
    cap_K = tower.val_cap_K
    worst = 0
    for label, (va, vk, expected) in _field_stream(tower, report, tower.field_checks[1]):
        vk = at_cap(vk, cap_K)
        if vk != expected:
            worst = max(worst, abs((cap_K if vk is None else vk) - expected))
            report.record_failure(
                {"seed": label, "v_L(a)": va, "v_K(diff)": vk, "expected": expected}
            )
    report.margins["max_deviation"] = worst
    return report


def _residual(tower: ExtensionTower, columns: Sequence[tuple], level: int) -> tuple:
    """The p-fold residual at level l on the conjugate columns (``columns[j]``
    holds the conjugates of x_{j+1}): the carry with column l-1 zero, as one
    ``ghost_sum`` pass over the first l-2 columns, on O_L flat coordinates.
    At level 2 that is a sum over no columns, zero by definition, and no
    pass runs."""
    if level == 2:
        return tower.L.zero_elem
    return wittcore.ghost_sum(tower.L, columns[: level - 2], level)[-1]


def verify_carry_identity(
    tower: ExtensionTower, samples: int = 200, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Division-free trace recursion for trace-zero vectors.

    Checks p*(-tr(x_l)) against the Frobenius bracket, the alternating
    binomial term under each of ``wittcore.SIGNS``, and p times the
    residual, on flat coordinates (traces and conjugates once each).  A
    level where no sign holds is a failure; the signs that hold at every
    level are kept, and the first of them in ``SIGNS`` is the recorded
    convention ("neither" when none is).
    """
    p, L, K = tower.p, tower.L, tower.K
    n, report = _start(tower, "carry_identity", samples, seed, n)
    C = wittcore.alternating_binom_constant(p)
    kept = {name for name, _ in wittcore.SIGNS}
    for sample in _sampler_mix(tower, n, samples, seed, "carry", report):
        comps = sample.vec.components
        columns = [tower.conjugates_raw(c) for c in comps[: n - 2]]
        traces = [tower.trace_map(c) for c in comps]
        for level in range(2, n + 1):
            t_pow = tower.trace_map(L.pth_power(comps[level - 2]))
            t_prev_p = K.pth_power(traces[level - 2])
            h = tower.project_to_K_raw(_residual(tower, columns, level))
            # p*(-tr(x_l)) - (bracket + p*h), and the binomial term under each sign
            rest = [
                -p * t - (b - c) - p * u
                for t, b, c, u in zip(traces[level - 1], t_pow, t_prev_p, h)
            ]
            cterm = [C * p * c for c in t_prev_p]
            held = {name for name, op in wittcore.SIGNS if tower._zero_raw(map(op, rest, cterm))}
            if not held:
                report.record_failure({"seed": sample.seed, "level": level})
            kept &= held
    report.sign_convention = next((name for name, _ in wittcore.SIGNS if name in kept), "neither")
    if report.sign_convention == "minus":
        report.observations["c_term_degenerate"] = C == 0
    elif not kept and not report.failures:
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
    """Residual values at levels 3..n are Galois-fixed with the cascaded
    valuation bound, on flat coordinates (conjugates and valuations once per
    component); the level-2 residual is zero by definition."""
    p, K, L, e = tower.p, tower.K, tower.L, tower.K.flat_rank
    cap, cap_K = tower.val_cap, tower.val_cap_K
    n, report = _start(tower, "residual_invariant", samples, seed, n)
    for sample in _sampler_mix(tower, n, samples, seed, "residual", report):
        label = sample.seed
        comps = sample.vec.components[: n - 2]
        columns = [tower.conjugates_raw(c) for c in comps]
        vals = [at_cap(L.val_raw(c), cap) for c in comps]
        for level in range(3, n + 1):
            h = _residual(tower, columns, level)
            if not tower._fixed_raw(h):
                report.record_failure({"seed": label, "level": level, "what": "not Galois-fixed"})
                continue
            if not tower._zero_raw(h[e:]):
                report.record_failure({"seed": label, "level": level, "what": "not in fixed ring"})
                continue
            # v_L of x_1..x_{l-2}, each decided below the cap
            if None in vals[: level - 2]:
                continue
            bound = p * min(vals[: level - 2])
            if bound > cap_K - 1:
                continue
            vk = K.val_raw(h[:e])
            if not _at_least(report.margins, "residual_valuation_slack", vk, cap_K, bound):
                report.record_failure(
                    {
                        "seed": label,
                        "level": level,
                        "what": "valuation bound",
                        "v_K(h)": vk,
                        "bound": bound,
                    }
                )
    if "residual_valuation_slack" not in report.margins:
        report.undetermined(f"no valuation bound fell below val_cap_K - 1 = {cap_K - 1}")
    return report


def step_bound(s: int, p: int, i: int) -> int:
    """The cascaded lower bound for the i-th component from the top,
    ceil(s(1 - p^-i)) = s - floor(s / p^i)."""
    return s - s // p**i


def verify_step_bounds(
    tower: ExtensionTower, samples: int = 200, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Valuation cascade on trace-zero samples (coboundaries mixed in)."""
    p, s, L, cap = tower.p, tower.s, tower.L, tower.val_cap
    n, report = _start(tower, "step_bounds", samples, seed, n)
    for sample in _sampler_mix(tower, n, samples, seed, "steps", report, coboundary_every=4):
        comps = sample.vec.components
        for i in range(1, n):
            bound = step_bound(s, p, i)
            v = L.val_raw(comps[n - i - 1])
            if not _at_least(report.margins, f"component_{n - i}_slack", v, cap, bound):
                report.record_failure(
                    {
                        "seed": sample.seed,
                        "provenance": sample.provenance,
                        "component": n - i,
                        "v_L": v,
                        "bound": bound,
                    }
                )
    return report


def verify_main_theorem(
    tower: ExtensionTower, samples: int = 200, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """At the stable length M, or the given n >= M, first components of
    trace-zero vectors have valuation >= s and trivial level-one class;
    plus the contrast check, and an observation at length M - 1."""
    s, L, cap = tower.s, tower.L, tower.val_cap
    n, report = _start(tower, "main", samples, seed, n)
    for sample in _sampler_mix(tower, n, samples, seed, "main", report):
        label = sample.seed
        x1 = sample.vec.components[0]
        v1 = L.val_raw(x1)
        if not _at_least(report.margins, "first_component_slack", v1, cap, s):
            report.record_failure(
                {"seed": label, "what": "valuation", "v_L(x1)": v1, "s": s}
            )
            continue
        verdict = level1_class_trivial(tower, x1)
        if verdict.status == "undetermined":
            report.undetermined(
                f"{label}: class obstruction at depth {verdict.obstruction_depth} "
                f"not certified at N={tower.N}"
            )
        elif verdict.status != "trivial":
            report.record_failure(
                {
                    "seed": label,
                    "what": "class",
                    "verdict": verdict.status,
                    "depth": verdict.obstruction_depth,
                }
            )

    # contrast: ker tr is free on the basis trace_kernel_flat, so when the
    # level-one cohomology is nonzero some basis vector is nontrivial, and
    # it must have small valuation
    try:
        order = h1_order_level1(tower)
    except NotStabilized as exc:
        report.undetermined(str(exc))
        order = None
    report.observations["h1_order_level1"] = order
    if order is not None and order > 1:
        contrast, undecided = None, 0
        for idx, cand in enumerate(tower.trace_kernel_flat):
            verdict = level1_class_trivial(tower, cand)
            undecided += verdict.status == "undetermined"
            if verdict.status == "nontrivial":
                v = at_cap(L.val_raw(cand), cap)
                contrast = {
                    "candidate_index": idx,
                    "v_L": v,
                    "obstruction_depth": verdict.obstruction_depth,
                }
                if v is None or v > s - 1:
                    report.record_failure({"what": "contrast valuation", "v_L": v, "s": s})
                break
        if contrast is None and undecided:
            report.undetermined(f"no contrast: {undecided} basis classes undetermined")
        elif contrast is None:
            report.record_failure({"what": "no nontrivial level-one class found"})
        else:
            report.observations["contrast"] = contrast

    # observed (not asserted) behavior one length below the stable M >= 2
    observed = None
    below, M = min(samples, 50), report.params["M"]
    for sample in _sampler_mix(tower, M - 1, below, seed, "main-below", report, checks=False):
        v = at_cap(L.val_raw(sample.vec.components[0]), cap)
        value = cap if v is None else v
        observed = value if observed is None else min(observed, value)
    report.observations["min_v_L_x1_at_length_M_minus_1"] = observed
    return report


# the failure each outcome of a tower's compiled fixed-points check records
FIXED_FAILURES = (None, "fixed vector moved", "moved vector looks fixed")


def verify_fixed_points(
    tower: ExtensionTower, samples: int = 200, seed: int = 0, n: int | None = None
) -> VerificationReport:
    """Galois-fixed vectors are exactly those with fixed-ring components: a
    vector of O_K components is fixed, and one with a component moved off
    O_K is not, each sample one call of the tower's ``field_checks``."""
    n, report = _start(tower, "fixed_points", samples, seed, n)
    check = tower.field_checks[2]
    fixed_seen = 0
    for label, rng in _sample_rngs(seed, "fixed", samples):
        outcome = check(rng.getrandbits, n)
        fixed_seen += outcome != 1
        if outcome:
            report.record_failure({"seed": label, "what": FIXED_FAILURES[outcome]})
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
