import functools
import hashlib
import json
import random
import re
import types

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittlab import cli, cohomlab, kernels, wittcore
from wittlab.kernels import compile_flat_linear
from wittlab.cohomlab import (
    SamplerExhausted,
    coboundary_sample,
    h1_order_enumeration_stable,
    h1_order_level1,
    level1_class_trivial,
    linsolve_matches_enumeration,
    sample_trace_zero,
    stable_witt_length,
    step_bound,
    witt_trace,
)
from wittlab import localfield
from wittlab.cli import TOWER_DIR
from wittlab.localfield import (
    NoSolutionAtPrecision,
    PrecisionTooLow,
    TraceNotRational,
    precision_policy,
)
from wittlab.wittcore import (
    BINARY_RANGE,
    PFOLD_RANGE,
    WittVec,
    ctx_for,
    fold_var,
)

from conftest import EIGHT_TOWERS, PRIMES, RAMIFIED_BASE_TOWERS, SIX_TOWERS, load
from oracles import (
    _update_margin,
    carry_identity_by_elements,
    kernel_elem_by_loop,
    eq_at_precision,
    flat_witt_sum,
    int_elem,
    is_zero_at_precision,
    main_by_elements,
    project_to_K,
    randrange_K_elem,
    randrange_L_elem,
    randrange_L_unit,
    residual_invariant_by_elements,
    stable_witt_length_by_cascade,
    step_bound_by_cascade,
    step_bounds_by_elements,
    unflatten,
    vK_by_coordinates,
    vL_by_coordinates,
    wrong_in_last,
    zero_by_coordinates,
)


class TestWittTrace:
    def test_zero(self, q2_i):
        ctx = ctx_for(2, 2)
        z = ctx.vec(q2_i.L, [0] * 2)
        out = witt_trace(q2_i, z)
        assert all(zero_by_coordinates(q2_i, c) for c in out.components)

    def test_coboundary_has_zero_trace(self, towers):
        for tower in towers.values():
            rng = random.Random(1)
            n = 2
            for _ in range(10):
                sample = coboundary_sample(tower, n, rng)
                assert all(
                    zero_by_coordinates(tower, c)
                    for c in witt_trace(tower, sample.vec).components
                )

    def test_coboundary_audit_catches_a_wrong_negative(self, towers, monkeypatch):
        # the negative is off by one in its first component, so the first
        # component of sigma(y) - y has trace p, not zero
        negate = WittVec.__neg__

        def off_by_one(self):
            z = negate(self)
            first = z.ring.add(z.components[0], z.ring.one_elem)
            return WittVec(z.ring, (first,) + z.components[1:])

        monkeypatch.setattr(WittVec, "__neg__", off_by_one)
        for tower in towers.values():
            with pytest.raises(AssertionError, match="coboundary sample"):
                coboundary_sample(tower, 2, random.Random(1))

    def test_level1_trace_of_i(self, q2_i):
        vec = WittVec(q2_i.L, ((q2_i.pi_L - 1).data,))
        out = witt_trace(q2_i, vec)
        assert zero_by_coordinates(q2_i, out.components[0])

    def test_additive(self, q2_i, q3):
        for tower in (q2_i, q3):
            rng = random.Random(2)
            for _ in range(10):
                x = WittVec(tower.L, tuple(tower.random_L_elem(rng).data for _ in range(2)))
                y = WittVec(tower.L, tuple(tower.random_L_elem(rng).data for _ in range(2)))
                lhs = witt_trace(tower, x + y)
                rhs = witt_trace(tower, x) + witt_trace(tower, y)
                assert all(
                    zero_by_coordinates(tower, tower.K.sub(a, b))
                    for a, b in zip(lhs.components, rhs.components)
                )


class TestSampler:
    def test_level1_lies_in_kernel(self, q2_i):
        rng = random.Random(3)
        for _ in range(20):
            s = sample_trace_zero(q2_i, 1, rng)
            x1 = unflatten(q2_i.L, s.vec.components[0])
            assert is_zero_at_precision(q2_i, q2_i.trace(x1))

    def test_q2i_level2_forces_even_multiplier(self, q2_i):
        # a length-2 trace-zero vector over the Gaussian tower must have
        # v_L(x1) >= 2: odd kernel multiples fail level-2 solvability
        rng = random.Random(4)
        for _ in range(25):
            s = sample_trace_zero(q2_i, 2, rng)
            v = q2_i.vL(unflatten(q2_i.L, s.vec.components[0]))
            assert v is None or v >= 2

    def test_audit_always_passes(self, towers):
        for tower in towers.values():
            rng = random.Random(5)
            n = 3 if tower.p == 2 else 2
            for _ in range(5):
                s = sample_trace_zero(tower, n, rng)
                assert all(
                    zero_by_coordinates(tower, c) for c in witt_trace(tower, s.vec).components
                )
                assert s.provenance == "recursive-sampler"


def sample_with_fresh_carries(tower, n, rng, retries=32, cuts=None):
    """The sampler's loop with every carry computed afresh: each attempt
    builds the conjugate rows and calls ``carry_value``, and kernel
    elements are summed from OElems over the basis derived from the
    Smith form.  The oracle for ``sample_trace_zero``.  ``cuts``, if
    given, receives (level, depth) for each failure."""
    basis = [unflatten(tower.L, k) for k in tower._trace_snf.kernel_basis()]

    def kernel_elem():
        acc = int_elem(tower.L, 0)
        for k in basis:
            acc = acc + k * rng.randrange(tower.modulus)
        return acc

    particulars = [int_elem(tower.L, 0)]
    comps = [kernel_elem()]
    level = 2
    budget = retries * n * 8
    fail_streak = 0
    while level <= n:
        rows = [[tower.galois(c, i).data for c in comps[: level - 1]] for i in range(tower.p)]
        carry = unflatten(tower.L, wittcore.carry_value(tower.p, level, rows, tower.L))
        try:
            part, _ = tower.solve_trace_eq((-project_to_K(tower, carry)).data)
            part = unflatten(tower.L, part)
        except NoSolutionAtPrecision:
            budget -= 1
            fail_streak += 1
            if budget <= 0:
                raise SamplerExhausted(level, retries) from None
            depth = min(level - 1, 1 + fail_streak // retries)
            if cuts is not None:
                cuts.append((level, depth))
            cut = level - depth
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


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
def test_sampler_builds_elements_only_for_the_finished_vector(all_towers, name, monkeypatch):
    """Solves, carries and retries run on flat coordinates, and so do the
    finished vector and its audited trace, whose components are tuples: a
    sample builds no OElem at all, however many attempts it takes.  Every
    draw, the first, one after each solve and one after each memo hit, is
    made by the tower's compiled ``redraw``, which draws again in the same
    call for a memo hit, and only a kept component goes through
    ``combine``: one per kept component, none per memo hit.  The carries
    take no conjugate, and only the audit conjugates the finished
    vector's n components."""
    tower = all_towers[name]
    built, draws, combined, conjugated = [], [], [], []
    solves, solved, memo_hits = [], [], []
    init, conjugates = localfield.OElem.__init__, tower.conjugates_raw
    sample_trace_zero(tower, 3, random.Random(-1))  # compiles the maps, lifts the ring
    combine, redraw = tower.trace_kernel_maps

    def counted(self, level, data):
        built.append(level)
        init(self, level, data)

    solve = tower.solve_trace_eq

    def recorded(c):
        assert type(c) is tuple
        solves.append(1)
        x, delta = solve(c)
        assert type(x) is tuple
        solved.append(1)
        return x, delta

    def counted_redraw(getrandbits, particular, bad, limit):
        v, key, hits = redraw(getrandbits, particular, bad, limit)
        draws.append(hits + 1)
        memo_hits.append(hits + (key in bad))
        return v, key, hits

    n = 3
    monkeypatch.setattr(localfield.OElem, "__init__", counted)
    monkeypatch.setattr(tower, "solve_trace_eq", recorded)
    monkeypatch.setattr(tower, "unsolvable_prefixes", {})
    monkeypatch.setattr(
        tower, "_trace_kernel_maps", (lambda v: combined.append(1) or combine(v), counted_redraw)
    )
    monkeypatch.setattr(tower, "conjugates_raw", lambda a: conjugated.append(1) or conjugates(a))
    hits = 0
    for seed in range(8):
        for counts in (built, draws, combined, conjugated, solves, solved, memo_hits):
            counts.clear()
        sample_trace_zero(tower, n, random.Random(seed))
        assert built == []
        # every draw is of the kernel coefficients: the first, one after
        # each solve, solved or not, and one redraw after each memo hit
        assert sum(draws) == 1 + len(solves) + sum(memo_hits)
        assert len(solved) >= n - 1
        # one combine per kept component, none per memo hit
        assert len(combined) == sum(draws) - sum(memo_hits) == 1 + len(solves)
        # the audit's n, and none for the carries
        assert len(conjugated) == n
        hits += sum(draws) - len(draws)  # redrawn inside a call
    assert hits > 0


@pytest.mark.parametrize("name", ["q2_i", "q3"])
def test_witt_lemmas_build_no_elements(towers, name, monkeypatch):
    """carry_identity, residual_invariant and main carry Witt components as
    flat coordinate tuples from the sampler to the verdict.  Run a second
    time (the first builds the lifted rings, whose ``zero`` and ``one``
    are elements, and the Smith forms), they construct no OElem."""
    tower = towers[name]
    lemmas = ("carry_identity", "residual_invariant", "main")
    for lemma in lemmas:
        cohomlab.VERIFIERS[lemma](tower, samples=6, seed=5)
    built = []
    init = localfield.OElem.__init__

    def counted(self, level, data):
        built.append(level)
        init(self, level, data)

    monkeypatch.setattr(localfield.OElem, "__init__", counted)
    for lemma in lemmas:
        report = cohomlab.VERIFIERS[lemma](tower, samples=6, seed=5)
        assert report.status == "PASS", (lemma, report.failures[:2])
    assert built == []


@pytest.mark.parametrize("name", ["q2_i", "q3"])
def test_field_lemmas_build_no_wrappers(towers, name, monkeypatch):
    """vktr, vksub and fixed_points draw coordinate tuples and read
    valuations as ints.  Run a second time (the first compiles the p-th
    powers and grows the table of powers of pi_L), they construct no
    OElem."""
    tower = towers[name]
    lemmas = ("vktr", "vksub", "fixed_points")
    for lemma in lemmas:
        cohomlab.VERIFIERS[lemma](tower, samples=30, seed=5)
    built = []
    init = localfield.OElem.__init__

    def counted(self, *args, **kwargs):
        built.append(type(self).__name__)
        init(self, *args, **kwargs)

    monkeypatch.setattr(localfield.OElem, "__init__", counted)
    # the counter sees a wrapper built on purpose
    tower.random_L_elem(random.Random(0))
    assert built == ["OElem"]
    built.clear()
    for lemma in lemmas:
        report = cohomlab.VERIFIERS[lemma](tower, samples=30, seed=5)
        assert report.status == "PASS", (lemma, report.failures[:2])
    assert built == []


def trace_eq_solvable(tower, comps) -> bool:
    """Whether tr(x) = -carry is solvable after the prefix ``comps`` (flat
    O_L coordinates of x_1..x_{l-1}), by the oracle path: OElem
    conjugates, ``carry_value`` and the trace solve."""
    level = len(comps) + 1
    elems = [unflatten(tower.L, c) for c in comps]
    rows = [[tower.galois(c, i).data for c in elems] for i in range(tower.p)]
    carry = unflatten(tower.L, wittcore.carry_value(tower.p, level, rows, tower.L))
    try:
        tower.solve_trace_eq((-project_to_K(tower, carry)).data)
    except NoSolutionAtPrecision:
        return False
    return True


def fresh_carry_rng(name, n, seed):
    return random.Random(f"{name}:{n}:{seed}")


def fresh_carry_mismatches(tower, name, n, retries, seeds=range(20)):
    """Seeds on which ``sample_trace_zero``, run at ``cohomlab.SAMPLER_RETRIES``,
    and ``sample_with_fresh_carries``, run at ``retries``, differ in their
    components or in the state they leave the RNG in."""
    bad = []
    for seed in seeds:
        want_rng = fresh_carry_rng(name, n, seed)
        got_rng = fresh_carry_rng(name, n, seed)
        try:
            want = [c.data for c in sample_with_fresh_carries(tower, n, want_rng, retries)]
        except SamplerExhausted as exc:
            want = ("exhausted", exc.level)
        try:
            got = list(sample_trace_zero(tower, n, got_rng).vec.components)
        except SamplerExhausted as exc:
            got = ("exhausted", exc.level)
        if got != want or got_rng.random() != want_rng.random():
            bad.append(seed)
    return bad


FRESH_CARRY_CASES = [
    (name, n) for name in SIX_TOWERS for n in range(1, BINARY_RANGE[PRIMES[name]] + 1)
]


@pytest.mark.parametrize("name,n", FRESH_CARRY_CASES)
@pytest.mark.parametrize("retries", [32, 3, 1])
def test_sampler_matches_fresh_carry_loop(all_towers, name, n, retries, monkeypatch):
    """Same components and the same RNG stream; with one retry per level
    the cut deepens after every failure.  The sampler runs twice, from an
    empty memo of unsolvable prefixes and then from the memo the first
    run left, and every prefix in it fails the oracle's full solve."""
    tower = all_towers[name]
    memo = {}
    monkeypatch.setattr(tower, "unsolvable_prefixes", memo)
    monkeypatch.setattr(cohomlab, "SAMPLER_RETRIES", retries)
    for run in ("cold", "warm"):
        assert fresh_carry_mismatches(tower, name, n, retries) == [], (name, n, retries, run)
    assert not any(trace_eq_solvable(tower, prefix) for prefix in remembered(memo))


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
def test_longer_samples_leave_the_last_component_alone(all_towers, name, monkeypatch):
    """A tower's memo holds the prefixes of every length its samples
    reached.  The last component of a shorter sample has no equation
    after it, so it is drawn once, whatever the memo holds after the
    prefix below it: from the longest length down, each length matches
    the fresh-carry loop on a memo that the longer ones warmed."""
    tower = all_towers[name]
    monkeypatch.setattr(tower, "unsolvable_prefixes", {})
    for n in range(min(4, BINARY_RANGE[PRIMES[name]]), 0, -1):
        assert fresh_carry_mismatches(tower, name, n, 32, seeds=range(10)) == [], (name, n)


def remembered(memo):
    """The prefixes of residue keys that the memo, a dict from a prefix to
    the set of keys that fail after it, holds."""
    return [(*base, key) for base, keys in memo.items() for key in keys]


@pytest.mark.parametrize("name,n,seed,level", [("q3", 3, 0, 3), ("q3", 4, 8, 2)])
def test_sampler_exhausts_where_the_fresh_carry_loop_does(
    all_towers, name, n, seed, level, monkeypatch
):
    """With one retry per level the budget runs out: at level 3, and at
    level 2, where every failure redraws x_1 and the warm memo's hits run
    inside ``redraw`` up to its limit.  Both runs raise at the oracle's
    level, having drawn what the oracle drew."""
    tower = all_towers[name]
    monkeypatch.setattr(tower, "unsolvable_prefixes", {})
    monkeypatch.setattr(cohomlab, "SAMPLER_RETRIES", 1)
    want_rng = fresh_carry_rng(name, n, seed)
    with pytest.raises(SamplerExhausted) as want:
        sample_with_fresh_carries(tower, n, want_rng, 1)
    assert want.value.level == level
    for run in ("cold", "warm"):
        got_rng = fresh_carry_rng(name, n, seed)
        with pytest.raises(SamplerExhausted) as got:
            sample_trace_zero(tower, n, got_rng)
        assert got.value.level == level, run
        assert got_rng.getstate() == want_rng.getstate(), run


def test_fresh_carry_cases_cut_deeper_above_level_two(all_towers):
    """With three retries per level, some case that
    ``test_sampler_matches_fresh_carry_loop`` compares fails ``retries``
    times in a row at a level of 3 or more, so the cut leaves depth 1
    there: the comparison covers a redraw below depth 1, not only the
    redraws at level 2, where the depth stays 1."""
    for name, n in FRESH_CARRY_CASES:
        for seed in range(20):
            cuts = []
            try:
                sample_with_fresh_carries(
                    all_towers[name], n, fresh_carry_rng(name, n, seed), 3, cuts
                )
            except SamplerExhausted:
                pass
            if any(level >= 3 and depth >= 2 for level, depth in cuts):
                return
    pytest.fail("no compared case cuts below depth 1")


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
def test_unsolvable_prefix_keys_are_residues(all_towers, name):
    """Solvability of the level-l trace equation does not change when any
    coordinate of x_1..x_{l-1} moves by a multiple of p^delta, delta the
    largest pivot of the trace's Smith form: the memo's key is sound.
    The prefixes are arbitrary, not only trace-zero ones."""
    tower = all_towers[name]
    pivots = tower._trace_snf.pivots
    assert len(pivots) == tower.K.flat_rank  # no zero row: delta digits decide
    step = tower.trace_residue_modulus
    assert step == tower.p ** max(pivots)
    rng = random.Random(f"residues:{name}")
    rank, modulus = tower.L.flat_rank, tower.modulus
    outcomes = []
    for level in (2, 3, 4):
        for _ in range(100):
            comps = [
                tuple(rng.randrange(modulus) for _ in range(rank)) for _ in range(level - 1)
            ]
            moved = [
                tuple((c + step * rng.randrange(modulus)) % modulus for c in x) for x in comps
            ]
            solvable = trace_eq_solvable(tower, comps)
            assert trace_eq_solvable(tower, moved) == solvable, (name, level, comps)
            outcomes.append(solvable)
    assert True in outcomes and False in outcomes


def test_residue_modulus_one_digit_short_fails(all_towers, monkeypatch):
    """Mutant: prefixes are remembered modulo p^(delta-1), so a solvable
    prefix can share a key with one that failed; the sampler must part
    from the fresh-carry loop on some tower."""
    parted = []
    for name in sorted(SIX_TOWERS):
        tower = all_towers[name]
        with monkeypatch.context() as patch:
            # the maps compile again, at the short modulus, on first use
            patch.setattr(tower, "trace_residue_modulus", tower.trace_residue_modulus // tower.p)
            patch.setattr(tower, "_trace_kernel_maps", None)
            patch.setattr(tower, "unsolvable_prefixes", {})
            if fresh_carry_mismatches(tower, name, 3, 32, seeds=range(5)):
                parted.append(name)
    assert parted


def test_residue_without_the_particular_fails(all_towers, monkeypatch):
    """Mutant: the compiled redraw keys a draw without its identity block,
    so every component drawn over a particular solution, right after its
    solve or redrawn, has the residues of its kernel part alone, and the
    memo is asked about, and told, the wrong prefix.  The sampler must
    part from the fresh-carry loop on some tower: in its components or its
    RNG stream, or in a remembered prefix that the oracle's full solve
    finds solvable."""
    parted = []
    for name in sorted(SIX_TOWERS):
        tower = all_towers[name]
        with monkeypatch.context() as patch:
            combine, _ = tower.trace_kernel_maps
            rank = tower.L.flat_rank
            matrix = [[0] * rank + row[rank:] for row in kernel_matrix(tower)]
            redraw = kernels.compile_kernel_redraw(
                matrix, tower.modulus, tower.trace_residue_modulus
            )
            patch.setattr(tower, "_trace_kernel_maps", (combine, redraw))
            memo = {}
            patch.setattr(tower, "unsolvable_prefixes", memo)
            mismatched = fresh_carry_mismatches(tower, name, 3, 32, seeds=range(5))
            if mismatched or any(trace_eq_solvable(tower, key) for key in remembered(memo)):
                parted.append(name)
    assert parted


def kernel_matrix(tower):
    """[I | K]: a particular solution's coordinates followed by coefficients
    of ``trace_kernel_flat``, as rows of the component."""
    rank = tower.L.flat_rank
    return [
        [int(r == m) for m in range(rank)] + [k[r] for k in tower.trace_kernel_flat]
        for r in range(rank)
    ]


def redraw_by_loop(rng, tower, particular, bad, limit):
    """The sampler's draws before they were compiled: ``_uniform``'s
    coefficients after the particular's coordinates, keyed by the
    ``residues`` map, [I | K] modulo ``trace_residue_modulus``, drawn
    again while the key is in ``bad`` and fewer than ``limit`` were."""
    residues = compile_flat_linear(kernel_matrix(tower), tower.trace_residue_modulus)
    count, hits = len(tower.trace_kernel_flat), 0
    while True:
        v = (*particular, *localfield._uniform(rng, tower.modulus, count))
        key = residues(v)
        if key not in bad or hits >= limit:
            return v, key, hits
        hits += 1


def every_tower_file():
    return sorted(path.stem for path in TOWER_DIR.glob("*.json"))


@pytest.mark.parametrize("name", every_tower_file())
def test_redraw_with_no_bad_key_is_one_uniform_draw(name):
    """With ``bad`` empty, ``redraw`` returns the particular's coordinates,
    ``_uniform``'s coefficients and the ``residues`` key, and leaves the
    generator where ``_uniform`` does, on every tower file."""
    tower = localfield.load_tower(TOWER_DIR / f"{name}.json")
    _, redraw = tower.trace_kernel_maps
    rng = random.Random(f"redraw:{name}")
    for particular in (tower.L.zero_elem, tower.random_L_raw(rng), tower.random_L_raw(rng)):
        for seed in range(3):
            want, got = random.Random(seed), random.Random(seed)
            v, key, hits = redraw(got.getrandbits, particular, set(), 10)
            assert (v, key, hits) == redraw_by_loop(want, tower, particular, set(), 10)
            assert hits == 0 and v[: len(particular)] == particular
            assert got.getstate() == want.getstate(), (name, seed)


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
@pytest.mark.parametrize("limit", [0, 1, 3, 40])
def test_redraw_stops_where_the_loop_does(all_towers, name, limit):
    """A ``bad`` that holds the keys of a stream's first three draws, and a
    limit below, at and past their number (on q2_i they are every key a
    draw over the particular can have, so the limit ends the loop):
    ``redraw`` returns the draw, key and hit count of the loop over
    ``_uniform`` and ``residues``, and leaves the generator in the same
    state."""
    tower = all_towers[name]
    _, redraw = tower.trace_kernel_maps
    particular = tower.random_L_raw(random.Random(name))
    for seed in range(4):
        source = random.Random(seed)
        bad = {redraw_by_loop(source, tower, particular, (), 0)[1] for _ in range(3)}
        want, got = random.Random(seed), random.Random(seed)
        expected = redraw_by_loop(want, tower, particular, bad, limit)
        assert redraw(got.getrandbits, particular, bad, limit) == expected, (name, seed)
        assert got.getstate() == want.getstate(), (name, seed)
        # the stream's first three draws are rejected, up to the limit
        assert expected[2] == limit if limit <= 3 else expected[2] >= 3


def polynomial_trace(tower, x):
    """Witt trace by the addition polynomials: the oracle for the flat
    ``witt_trace``."""
    conj = [[tower.galois(unflatten(tower.L, c), i).data for c in x.components] for i in range(tower.p)]
    return [tower.project_to_K_raw(c) for c in flat_witt_sum(tower.L, conj)]


@pytest.mark.parametrize(
    "name,n",
    [
        (name, n)
        for name in SIX_TOWERS
        for n in range(1, min(4, BINARY_RANGE[PRIMES[name]]) + 1)
    ],
)
@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_witt_trace_matches_polynomials(all_towers, name, n, data):
    tower = all_towers[name]
    rank, top = tower.L.flat_rank, tower.modulus - 1
    coords = st.tuples(*[st.integers(0, top)] * rank)
    x = WittVec(tower.L, tuple(data.draw(coords) for _ in range(n)))
    got = witt_trace(tower, x)
    assert got.ring is tower.K
    assert list(got.components) == polynomial_trace(tower, x)


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
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
                # prefixes that fail under a corrupted sigma must not stay
                # in the tower's memo once sigma is restored
                patch.setattr(tower, "unsolvable_prefixes", {})
                for n in (2, 3):
                    for seed in range(3):
                        with pytest.raises((TraceNotRational, AssertionError)):
                            sample_trace_zero(tower, n, random.Random(seed))


# the eight test towers and item 25's four (all but the rank-20 Kummer step)
AUDIT_TOWERS = (*EIGHT_TOWERS, *RAMIFIED_BASE_TOWERS[:4])


def audit_passes(tower, vec) -> bool:
    try:
        cohomlab._audit_trace(tower, vec, "a test vector")
    except AssertionError as exc:
        assert str(exc) == "trace audit failed on a test vector"
        return False
    return True


def audit_cases(tower):
    """Length-n vectors for every n <= 4 the tower's precision covers:
    two samples, a coboundary, and each of them with +1, +p^(N-1), +p^N
    and +pi_L^k, k from e_L(N-2) to e_L*N, in each component in turn (at
    valuation e_L*N - 1 and below the trace may stop being zero)."""
    L, p, N, e = tower.L, tower.p, tower.N, tower.L.flat_rank
    steps = [L.from_int(1), L.from_int(p ** (N - 1)), L.from_int(p**N)]
    steps += [L.pow(L.pi_elem, k) for k in range(e * (N - 2), e * N + 1)]
    rng = random.Random(0)
    for n in range(1, 5):
        if precision_policy(p, tower.e_K, tower.s, n) > N:
            continue
        base = [sample_trace_zero(tower, n, rng).vec for _ in range(2)]
        base.append(coboundary_sample(tower, n, rng).vec)
        for vec in base:
            yield vec
            for k in range(n):
                for step in steps:
                    comps = list(vec.components)
                    comps[k] = L.add(comps[k], step)
                    yield WittVec(L, tuple(comps))


@pytest.fixture(scope="module")
def audit_oracle(eight_towers, ramified_base_towers):
    """``audit_oracle(name)``: the tower, its ``audit_cases`` and, for
    each, whether every component of its ``witt_trace`` is zero at
    precision; built once per tower, with the package unpatched."""
    towers = {**eight_towers, **ramified_base_towers}

    @functools.cache
    def oracle(name):
        tower = towers[name]
        cases = list(audit_cases(tower))
        zero = [
            all(zero_by_coordinates(tower, c) for c in witt_trace(tower, vec).components)
            for vec in cases
        ]
        return tower, cases, zero

    return oracle


@pytest.mark.parametrize("name", AUDIT_TOWERS)
def test_audit_decides_as_the_witt_trace(audit_oracle, name):
    tower, cases, zero = audit_oracle(name)
    assert [audit_passes(tower, vec) for vec in cases] == zero
    assert True in zero and False in zero


@pytest.mark.parametrize("name", AUDIT_TOWERS)
def test_audit_a_digit_short_disagrees(audit_oracle, name, monkeypatch):
    """Mutant: level l is checked modulo p^(N+l-2), one digit short."""
    tower, cases, zero = audit_oracle(name)
    compile_check = kernels.compile_ghost_zero
    monkeypatch.setattr(
        kernels,
        "compile_ghost_zero",
        lambda p, rank, widths, levels, digits: compile_check(p, rank, widths, levels, digits - 1),
    )
    assert [audit_passes(tower, vec) for vec in cases] != zero


@pytest.mark.parametrize("name", AUDIT_TOWERS)
def test_audit_reads_no_trace_rows(audit_oracle, name, monkeypatch):
    """The audit decides with ``wittcore.ghost_trace`` and the tower's
    trace rows unusable: it reads the field only through sigma."""
    tower, cases, zero = audit_oracle(name)

    def unusable(*args):
        raise RuntimeError("the audit read the trace")

    monkeypatch.setattr(wittcore, "ghost_trace", unusable)
    monkeypatch.setattr(tower, "trace_rows", unusable)
    assert [audit_passes(tower, vec) for vec in cases] == zero


def test_trace_kernel_basis_is_cached(all_towers):
    for tower in all_towers.values():
        basis = tower.trace_kernel_flat
        derived = [unflatten(tower.L, k) for k in tower._trace_snf.kernel_basis()]
        assert list(basis) == [k.data for k in derived]
        # each vector is reduced and lies in the trace kernel
        assert all(tower.L.reduce(k) == k for k in basis)
        assert all(tower._zero_raw(tower.trace_map(k)) for k in basis)


@pytest.mark.parametrize("name", EIGHT_TOWERS)
def test_kernel_elem_matches_the_loop(eight_towers, name):
    """``combine`` of a particular's coordinates and kernel coefficients is
    the loop over the kernel basis."""
    tower = eight_towers[name]
    combine, _ = tower.trace_kernel_maps
    rng, count = random.Random(34), len(tower.trace_kernel_flat)
    for base in (tower.L.zero_elem, tower.random_L_raw(rng), tower.random_L_raw(rng)):
        for _ in range(5):
            coeffs = [rng.randrange(tower.modulus) for _ in range(count)]
            assert combine((*base, *coeffs)) == kernel_elem_by_loop(tower, base, coeffs)


@pytest.mark.parametrize("name", EIGHT_TOWERS)
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_residues_are_the_component_modulo_p_delta(eight_towers, name, data):
    """A memo key is its component modulo ``trace_residue_modulus``."""
    tower = eight_towers[name]
    combine, redraw = tower.trace_kernel_maps
    particular = data.draw(st.tuples(*[st.integers(0, tower.modulus - 1)] * tower.L.flat_rank))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    v, key, _ = redraw(rng.getrandbits, particular, (), 0)
    m = tower.trace_residue_modulus
    assert key == tuple(c % m for c in combine(v))


def test_witt_lemmas_run_no_empty_ghost_pass(towers, monkeypatch):
    """h_2 is zero by definition, so the level-2 residual compiles and runs
    no pass over no columns; every other residual and carry still runs."""
    shapes, widths = [], []
    compile_pass, ghost_sum = kernels.compile_ghost_pass, wittcore.ghost_sum

    def compiled(p, rows, shape, *rest):
        shapes.append(shape)
        return compile_pass(p, rows, shape, *rest)

    def summed(p, ring, columns, levels):
        widths.append(len(columns))
        return ghost_sum(p, ring, columns, levels)

    monkeypatch.setattr(kernels, "compile_ghost_pass", compiled)
    monkeypatch.setattr(wittcore, "ghost_sum", summed)
    for tower in (towers["q2_i"], towers["q3"]):
        for verify in (cohomlab.verify_carry_identity, cohomlab.verify_residual_invariant):
            assert verify(tower, samples=3).status == "PASS"
    assert shapes and () not in shapes
    assert widths and 0 not in widths


def symbolic_residual(tower, comps, level):
    """The p-fold residual polynomial evaluated at the conjugate family of
    flat components, wrapped in OElems, as O_L coordinates (the zero
    residual at level 2 evaluates to the int 0); the oracle for
    ``cohomlab._residual``."""
    p = tower.p
    poly = wittcore.pfold_decomposition(p, PFOLD_RANGE[p]).residual_for_level(level)
    assign = {}
    for i in range(1, p + 1):
        for j in range(1, level - 1):
            assign[fold_var(p, i, j)] = tower.galois(unflatten(tower.L, comps[j - 1]), i - 1)
    return (poly.eval(assign) + int_elem(tower.L, 0)).data


def assert_residuals_match(tower, comps, residual):
    """``residual(tower, columns, level)``, on the flat conjugate columns
    of ``comps``, against the symbolic residual at every level."""
    columns = [tower.conjugates_raw(c) for c in comps]
    for level in range(2, len(comps) + 1):
        got = residual(tower, columns, level)
        assert got == symbolic_residual(tower, comps, level), level


def residual_components(tower, kind, draw_int):
    """Length-PFOLD_RANGE[p] components: a trace-zero sample from a drawn
    seed, or components of drawn flat coordinates."""
    n = PFOLD_RANGE[tower.p]
    if kind == "trace-zero":
        return sample_trace_zero(tower, n, random.Random(draw_int(0, 2**32))).vec.components
    top = tower.modulus - 1
    return tuple(tuple(draw_int(0, top) for _ in range(tower.L.flat_rank)) for _ in range(n))


@pytest.mark.parametrize("kind", ["trace-zero", "random"])
@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_residual_matches_symbolic(all_towers, name, kind, data):
    tower = all_towers[name]
    comps = residual_components(tower, kind, lambda lo, hi: data.draw(st.integers(lo, hi)))
    assert_residuals_match(tower, comps, cohomlab._residual)


def conjugate_rows(tower, columns):
    """Row i holds sigma^i of each component."""
    return [[col[i] for col in columns] for i in range(tower.p)]


def residual_zeroing_column_below(tower, columns, level):
    """Mutant: zeroes column l-2 instead of l-1."""
    rows = conjugate_rows(tower, columns[: level - 1])
    if level >= 3:
        for row in rows:
            row[level - 3] = tower.L.zero_elem
    return wittcore.carry_value(tower.p, level, rows, tower.L)


def residual_keeping_column(tower, columns, level):
    """Mutant: leaves column l-1 in, so it returns the whole carry."""
    rows = conjugate_rows(tower, columns[: level - 1])
    return wittcore.carry_value(tower.p, level, rows, tower.L)


def residual_slice_one_long(tower, columns, level):
    """Mutant: the flat pass over ``columns[:level-1]``, one column more
    than the residual's l-2."""
    return wittcore.ghost_sum(tower.p, tower.L, columns[: level - 1], level)[-1]


@pytest.mark.parametrize(
    "mutant", [residual_zeroing_column_below, residual_keeping_column, residual_slice_one_long]
)
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
        verdict = level1_class_trivial(q2_i, q2_i.L.zero_elem)
        assert verdict.status == "trivial"

    def test_i_is_nontrivial(self, q2_i):
        verdict = level1_class_trivial(q2_i, (q2_i.pi_L - 1).data)
        assert verdict.status == "nontrivial"
        assert verdict.obstruction_depth == 1

    def test_2i_is_trivial_with_witness(self, q2_i):
        c = (q2_i.pi_L - 1) * 2
        verdict = level1_class_trivial(q2_i, c.data)
        assert verdict.status == "trivial"
        assert type(verdict.witness) is tuple
        y = unflatten(q2_i.L, verdict.witness)
        got = q2_i.galois(y) - y
        assert eq_at_precision(q2_i, got, c)

    def test_obstruction_past_the_precision_is_undetermined(self, q2_i, q3):
        # x = p^(N-1) has trace p^N, zero at precision; its obstruction
        # sits at depth N, deeper than N - delta, so nothing is certified
        for tower in (q2_i, q3):
            x = int_elem(tower.L, tower.p ** (tower.N - 1))
            assert is_zero_at_precision(tower, tower.trace(x))
            verdict = level1_class_trivial(tower, x.data)
            assert verdict.status == "undetermined"
            assert verdict.obstruction_depth == tower.N

    def test_sampled_level2_classes_q2i(self, q2_i):
        # At the stable length the *first-component projection* of every
        # class dies: the first component of each length-2 sample has a
        # trivial level-one class.
        rng = random.Random(7)
        for _ in range(8):
            s = sample_trace_zero(q2_i, 2, rng)
            assert level1_class_trivial(q2_i, s.vec.components[0]).status == "trivial"


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
            result = linsolve_matches_enumeration(q2_i, digits)
            assert {"trace_solve", "sigma_minus_one_solve"} <= result.keys()
            assert all(result.values())

    # |H^1(G, O_L)| on the eight towers, by elementary divisors of sigma - 1,
    # by the trace's cokernel (the Herbrand quotient is 1) and in closed form
    LEVEL1_ORDERS = {
        "q2_i": 2, "q2_sqrt2": 2, "q2_sqrt_minus2": 2, "q3": 3,
        "nested": 2, "quartic": 4, "septic": 7, "quintic": 5,
    }

    @pytest.mark.parametrize("name", sorted(LEVEL1_ORDERS))
    def test_three_level1_counts_agree(self, eight_towers, name):
        tower = eight_towers[name]
        order = self.LEVEL1_ORDERS[name]
        assert cohomlab.level1_counts(tower) == {
            "elementary-divisor": order,
            "trace-cokernel": order,
            "closed-form": order,
        }
        assert h1_order_level1(tower) == order

    def test_closed_form_s_off_by_one_fails(self, eight_towers, monkeypatch):
        # mutant: the different's exponent from s + 1; on towers where the
        # floor hides it the counts still agree, so at least one must raise
        monkeypatch.setattr(
            cohomlab, "trace_index_closed_form", lambda p, s: p ** ((p - 1) * (s + 2) // p)
        )
        raised = []
        for name, tower in eight_towers.items():
            try:
                h1_order_level1(tower)
            except cohomlab.OrderMismatch as exc:
                assert "closed-form=" in str(exc)
                raised.append(name)
        assert raised

    def test_trace_pivots_at_wrong_digits_fail(self, eight_towers, monkeypatch):
        # mutant: the trace's Smith form read at as many digits as its
        # largest pivot, which then counts as zero
        for name, tower in eight_towers.items():
            digits = max(tower._trace_snf.pivots)
            short = localfield.smith_normal_form(tower.trace_rows(tower.N_int), tower.p, digits)
            with monkeypatch.context() as patch:
                patch.setattr(tower, "_trace_snf", short)
                with pytest.raises(cohomlab.OrderMismatch, match="finite pivots"):
                    h1_order_level1(tower)

    @pytest.mark.parametrize("mutant", ["off_by_one", "always_raises"])
    def test_linsolve_mutants_fail_the_oracle(self, q2_i, q3, monkeypatch, mutant):
        solve = cohomlab.linsolve

        def off_by_one(snf, rhs):
            # the last coordinate: sigma fixes the first basis vector, 1
            x, delta = solve(snf, rhs)
            return x[:-1] + ((x[-1] + 1) % snf.modulus,), delta

        def always_raises(snf, rhs):
            raise NoSolutionAtPrecision(1)

        monkeypatch.setattr(
            cohomlab, "linsolve", {"off_by_one": off_by_one, "always_raises": always_raises}[mutant]
        )
        for tower in (q2_i, q3):
            result = linsolve_matches_enumeration(tower, 2)
            assert not (result["trace_solve"] and result["sigma_minus_one_solve"])
            # the kernel and image checks do not read linsolve
            assert all(v for k, v in result.items() if not k.endswith("_solve"))


    def test_a_wrong_compiled_solve_fails_the_oracle(self, q2_i, monkeypatch):
        # the compiled solve off by one in a coordinate sigma moves, linsolve intact
        compile_solve = localfield.kernels.compile_smith_solve
        monkeypatch.setattr(
            localfield.kernels,
            "compile_smith_solve",
            lambda *args: wrong_in_last(compile_solve(*args)),
        )
        result = linsolve_matches_enumeration(q2_i, 2)
        assert not result["trace_solve"] and not result["sigma_minus_one_solve"]
        assert all(v for k, v in result.items() if not k.endswith("_solve"))


class TestStableLength:
    def test_examples(self):
        assert stable_witt_length(1, 2) == 2
        assert stable_witt_length(2, 2) == 3
        assert stable_witt_length(1, 3) == 2

    def test_closed_form_spot(self):
        for s in (1, 2, 3, 7, 9):
            for p in (2, 3, 5):
                assert stable_witt_length(s, p) == stable_witt_length_by_cascade(s, p)

    def test_closed_forms_match_cascade(self):
        # s - s // p^i and the least M with p^(M-1) > s against the
        # cascade's exact rational sum
        for p in (2, 3, 5, 7, 11, 13):
            for s in range(1, 201):
                assert stable_witt_length(s, p) == stable_witt_length_by_cascade(s, p), (s, p)
                for i in range(13):
                    assert step_bound(s, p, i) == step_bound_by_cascade(s, p, i), (s, p, i)

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
        tower = load("quintic")
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

    @pytest.mark.parametrize("name", sorted(path.stem for path in TOWER_DIR.glob("*.json")))
    def test_trace_kernel_basis_decides_the_contrast(self, name):
        # ker tr is free on trace_kernel_flat, so H^1(G, O_L) != 0 exactly
        # when some basis vector lies outside im(sigma - 1); main's contrast
        # reads the basis alone, and on every named tower the first vector
        # certified nontrivial has valuation at most s - 1
        tower = load(name)
        assert h1_order_level1(tower) > 1
        first = next(
            x for x in tower.trace_kernel_flat
            if level1_class_trivial(tower, x).status == "nontrivial"
        )
        v = localfield.at_cap(tower.L.val_raw(first), tower.val_cap)
        assert v is not None and v <= tower.s - 1

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
# These are the bodies they had on OElem, WittVec and ``ValExtended``
# (now in ``oracles``), kept as their oracles: the reports must agree byte
# for byte.  The oracles draw with plain ``rng.randrange`` and take
# valuations and zero tests one coordinate at a time (``oracles``), so they
# share neither the getrandbits draws nor the one-gcd valuations with the
# verifiers.


def oracle_vktr(tower, samples, seed):
    p, s = tower.p, tower.s
    report = cohomlab._base_report(tower, "vktr", {"samples": samples, "seed": seed})
    checked = 0
    attempts = 0
    while checked < samples and attempts < 20 * samples:
        rng = random.Random(f"{seed}:vktr:{attempts}")
        attempts += 1
        a = randrange_L_elem(tower, rng, spread_valuation=True)
        va = vL_by_coordinates(tower, a)
        if not va.finite:
            continue
        bound = -(-(va.value + s * (p - 1)) // p)
        if bound > tower.val_cap_K - 2:
            continue
        vk = vK_by_coordinates(tower, tower.trace(a))
        checked += 1
        ok = vk.at_least(bound)
        _update_margin(report.margins, "trace_valuation_slack", vk.capped() - bound)
        if not ok:
            report.record_failure(
                {
                    "seed": f"{seed}:vktr:{attempts - 1}",
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
        rng = random.Random(f"{seed}:vksub:{attempts}")
        attempts += 1
        a = randrange_L_elem(tower, rng, spread_valuation=True)
        va = vL_by_coordinates(tower, a)
        if not va.finite:
            continue
        expected = e_k + va.value
        if expected >= tower.val_cap_K - 1:
            continue
        vk = vK_by_coordinates(tower, tower.trace(a**p) - tower.trace(a) ** p)
        checked += 1
        if not vk.finite or vk.value != expected:
            worst = max(worst, abs(vk.capped() - expected))
            report.record_failure(
                {
                    "seed": f"{seed}:vksub:{attempts - 1}",
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
    report = cohomlab._base_report(
        tower, "fixed_points", {"samples": samples, "seed": seed, "n": n}
    )

    def equal(a, b):
        return zero_by_coordinates(tower, (a - b).data)

    fixed_seen = 0
    for k in range(samples):
        label = f"{seed}:fixed:{k}"
        rng = random.Random(label)
        kcomps = [tower.embed_K(randrange_K_elem(tower, rng)) for _ in range(n)]
        if not all(equal(tower.galois(c), c) for c in kcomps):
            report.record_failure({"seed": label, "what": "fixed vector moved"})
            continue
        fixed_seen += 1
        idx = rng.randrange(n)
        perturbed = list(kcomps)
        perturbed[idx] = perturbed[idx] + tower.pi_L * randrange_L_unit(tower, rng)
        if all(equal(tower.galois(c), c) for c in perturbed):
            report.record_failure({"seed": label, "what": "moved vector looks fixed"})
            continue
        e = tower.K.flat_rank
        if not all(zero_by_coordinates(tower, c.data[e:]) for c in kcomps):
            report.record_failure({"seed": label, "what": "fixed but not rational"})
        if n >= 2:
            low = tuple(c.data for c in kcomps[: n - 1])
            lifted = WittVec(tower.L, low + (tower.L.zero_elem,))
            if lifted.components[: n - 1] != low:
                report.record_failure({"seed": label, "what": "truncation section"})
    report.observations["fixed_vectors_checked"] = fixed_seen
    return report


def field_paths(tower, lemma, samples, seed) -> set:
    """The branches vktr or vksub takes on its draw stream, decided with
    the oracles' element arithmetic and valuations: "skip" (a bound or
    expected value too close to the cap), "at_cap" (a checked v_K at or
    past the cap) and "exhausted" (fewer than ``samples`` checks in
    20*samples attempts)."""
    p, cap_K = tower.p, tower.val_cap_K
    paths, checked = set(), 0
    for _, a, va in cohomlab._field_draws(tower, samples, seed, lemma):
        a = unflatten(tower.L, a)
        if lemma == "vktr":
            skip = -(-(va + tower.s * (p - 1)) // p) > cap_K - 2
            value = tower.trace(a)
        else:
            skip = tower.e_K + va >= cap_K - 1
            value = tower.trace(a**p) - tower.trace(a) ** p
        if skip:
            paths.add("skip")
            continue
        checked += 1
        if not vK_by_coordinates(tower, value).finite:
            paths.add("at_cap")
        if checked == samples:
            break
    if checked < samples:
        paths.add("exhausted")
    return paths


FIELD_ORACLES = {
    "vktr": (oracle_vktr, 40),
    "vksub": (oracle_vksub, 25),
    "fixed_points": (oracle_fixed_points, 10),
}


def check_field_lemma(tower, lemma, seeds):
    oracle, samples = FIELD_ORACLES[lemma]
    for seed in seeds:
        got = cohomlab.VERIFIERS[lemma](tower, samples=samples, seed=seed)
        want = oracle(tower, samples, seed)
        assert got.to_json(include_runtime=False) == want.to_json(include_runtime=False), seed


# sha256 of the field-lemma reports (40 samples, runtime left out) on the
# p = 5 and p = 7 towers, whose moduli 5^18 and 7^17 are 42 and 48 bits
# wide, so each coordinate draw spans two 32-bit words: neither the suite
# aggregate (statuses and margins) nor the benchmark's digests (p <= 3)
# pin those draws' reports
FIELD_REPORT_SHA256 = {
    ("septic", "vktr", 3): "89e9d0ced47769953ecb011b2b61836946c61c7a35681ab1446560968d8ee338",
    ("septic", "vktr", 11): "4840cc0afb8403b4aee66874c9ab85fa5e38cf4039cc42a2fa8da498f521b209",
    ("septic", "vksub", 3): "f26ce16cfa406cc1fe5a38500ca7dc4fe54e8095b410b19be1d86919ddced089",
    ("septic", "vksub", 11): "5457ab4021c63a645b5795d0598a2d85af8f4dcdc0e24e02bfbb276005a2925a",
    ("septic", "fixed_points", 3): "2f2b893a138ba7b22fe4ae0cde39d9b6914f7b35ddd10b4e4e9ace26756019aa",
    ("septic", "fixed_points", 11): "09bdf28bea0037e4f9666a693b9e32af30f04d7095c9dccf61dc42a3c49348ad",
    ("quintic", "vktr", 3): "05ec612124d7eb9742a5bcc0079b66adf6cdf4ad254d161ee5a477290f922abb",
    ("quintic", "vktr", 11): "1a92fc4f4061384d6b427a0aa93e718a2472a38680586600f814e2be55302f63",
    ("quintic", "vksub", 3): "b05c72467c6965cc347c2d8566838c757527d97be4c4067f59cb408b3fd73919",
    ("quintic", "vksub", 11): "a1f31ed65f7ddc6c218e1d078bac244431364f645800c3a7d5aec9b4700cad0c",
    ("quintic", "fixed_points", 3): "6b26a2e94c8546f0f39bc43d4c140fef9f4ff788775c11f3540a9414b6a65ee3",
    ("quintic", "fixed_points", 11): "453140f42ee17c9be7a774414277c34a9f459c190f39d72ccc3e79cd28c2f197",
}


class TestFieldLemmaOracles:
    @pytest.mark.parametrize("lemma", sorted(FIELD_ORACLES))
    @pytest.mark.parametrize("name", sorted(SIX_TOWERS))
    def test_flat_verifier_matches_oracle(self, all_towers, name, lemma):
        check_field_lemma(all_towers[name], lemma, range(5))

    @pytest.mark.parametrize("name, lemma, seed", sorted(FIELD_REPORT_SHA256))
    def test_reports_pinned_where_a_draw_spans_two_words(self, eight_towers, name, lemma, seed):
        report = cohomlab.VERIFIERS[lemma](eight_towers[name], samples=40, seed=seed)
        blob = report.to_json(include_runtime=False).encode()
        assert hashlib.sha256(blob).hexdigest() == FIELD_REPORT_SHA256[name, lemma, seed]

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

    # (lemma, val_cap, val_cap_K, samples, the branches the caps make fire);
    # val_cap None keeps the tower's.  A val_cap of 150 spreads the draws'
    # pi_L powers up to 49, and a val_cap_K of 39 lies past the working
    # precision on both towers, so there tr(a^p) - tr(a)^p can vanish.
    CAP_CASES = [
        ("vktr", None, 6, 40, {"skip", "at_cap"}),
        ("vktr", 150, 3, 10, {"skip", "exhausted"}),
        ("vktr", None, 2, 10, {"skip", "exhausted"}),
        ("vksub", 150, 39, 40, {"skip", "at_cap"}),
        ("vksub", None, 2, 10, {"skip", "exhausted"}),
    ]

    @pytest.mark.parametrize("lemma, val_cap, val_cap_K, samples, paths", CAP_CASES)
    @pytest.mark.parametrize("name", ["q2_i", "q3"])
    def test_cap_branches_match_oracle(
        self, towers, name, lemma, val_cap, val_cap_K, samples, paths, monkeypatch
    ):
        tower = towers[name]
        if val_cap is not None:
            monkeypatch.setattr(tower, "val_cap", val_cap)
        monkeypatch.setattr(tower, "val_cap_K", val_cap_K)
        for seed in range(2):
            assert paths <= set(field_paths(tower, lemma, samples, seed)), seed
            got = cohomlab.VERIFIERS[lemma](tower, samples=samples, seed=seed)
            want = FIELD_ORACLES[lemma][0](tower, samples, seed)
            assert got.to_json(include_runtime=False) == want.to_json(include_runtime=False)
            assert (got.status == "UNDETERMINED") == ("exhausted" in paths)
            if lemma == "vksub" and "at_cap" in paths:
                # tr(a^p) - tr(a)^p vanishes at working precision: FAIL, None
                assert any(f["v_K(diff)"] is None for f in got.failures)
            if got.params["checked"] == 0:
                assert "trace_valuation_slack" not in got.margins

    @pytest.mark.parametrize("lemma", ["vktr", "vksub"])
    @pytest.mark.parametrize("name", ["q2_i", "q3"])
    def test_values_past_the_cap_match_oracle(self, towers, name, lemma, monkeypatch):
        # a trace scaled by p^12 with val_cap_K 12: every checked v_K lies
        # at or past the cap but inside the working precision, so it reads
        # as None by the cap rule alone; vktr PASSes on the cap's margin and
        # vksub FAILs with None in every payload
        tower = towers[name]
        trace, p, modulus = tower.trace_map, tower.p, tower.modulus
        monkeypatch.setattr(
            tower, "trace_map", lambda a: tuple(c * p**12 % modulus for c in trace(a))
        )
        monkeypatch.setattr(tower, "val_cap_K", 12)
        assert "at_cap" in field_paths(tower, lemma, 20, 3)
        got = cohomlab.VERIFIERS[lemma](tower, samples=20, seed=3)
        want = FIELD_ORACLES[lemma][0](tower, 20, 3)
        assert got.to_json(include_runtime=False) == want.to_json(include_runtime=False)
        if lemma == "vksub":
            assert got.status == "FAIL"
            assert {f["v_K(diff)"] for f in got.failures} == {None}
        else:
            assert got.status == "PASS"

    def test_sigma_off_by_one_in_fixed_points_fails(self, all_towers, monkeypatch):
        # mutant: fixed_points applies a sigma with one entry off by one;
        # the oracle runs on the true sigma
        with pytest.raises(AssertionError):
            for name in sorted(SIX_TOWERS):
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


# -- the Witt lemmas against their OElem forms -------------------------------
#
# carry_identity and residual_invariant run on flat conjugate columns; the
# bodies they had on OElem components, with the residual through
# ``carry_value`` on rows with an explicit zero column, are their oracles
# in ``oracles``.

WITT_LEMMA_ORACLES = {
    "carry_identity": carry_identity_by_elements,
    "residual_invariant": residual_invariant_by_elements,
}


class TestWittLemmaOracles:
    @pytest.mark.parametrize("lemma", sorted(WITT_LEMMA_ORACLES))
    @pytest.mark.parametrize("name", sorted(SIX_TOWERS))
    def test_flat_verifier_matches_oracle(self, all_towers, name, lemma):
        # n = PFOLD_RANGE[p] + 1 is past the symbolic tables; on the nested
        # towers it is past the precision too, and both refuse it alike
        tower = all_towers[name]
        for n in (2, 3, PFOLD_RANGE[tower.p] + 1):
            for seed in range(3):
                try:
                    want = WITT_LEMMA_ORACLES[lemma](tower, samples=3, seed=seed, n=n)
                except cohomlab.WittLengthOutOfRange as exc:
                    with pytest.raises(cohomlab.WittLengthOutOfRange, match=re.escape(str(exc))):
                        cohomlab.VERIFIERS[lemma](tower, samples=3, seed=seed, n=n)
                    continue
                got = cohomlab.VERIFIERS[lemma](tower, samples=3, seed=seed, n=n)
                assert got.to_json(include_runtime=False) == want.to_json(
                    include_runtime=False
                ), (n, seed)

    @pytest.mark.parametrize("name", ["q2_i", "q3"])
    def test_undecided_valuation_skips_match_oracle(self, all_towers, name, monkeypatch):
        # every sample's x_1 is zero, so v_L(x_1) is undecided at the cap
        # and every level from 3 on is skipped: no margin is written, and a
        # cell that bounded no valuation is UNDETERMINED, not PASS
        tower, mix = all_towers[name], cohomlab._sampler_mix

        def zero_first(*args, **kwargs):
            for sample in mix(*args, **kwargs):
                comps = (tower.L.zero_elem,) + sample.vec.components[1:]
                yield cohomlab.KernelSample(WittVec(tower.L, comps), "zero", sample.seed)

        monkeypatch.setattr(cohomlab, "_sampler_mix", zero_first)
        n = PFOLD_RANGE[tower.p]
        got = cohomlab.verify_residual_invariant(tower, samples=4, seed=2, n=n)
        assert got.status == "UNDETERMINED" and got.margins == {}
        want = residual_invariant_by_elements(tower, samples=4, seed=2, n=n)
        assert got.to_json(include_runtime=False) == want.to_json(include_runtime=False)

    def test_residual_bounded_past_the_cap_is_undetermined(self, septic):
        # septic at n = 3: every bound 7 v_L(x_1) >= 14 lies past
        # val_cap_K - 1 = 10, so each sample checks fixedness alone and
        # the cell decides no valuation
        got = cohomlab.verify_residual_invariant(septic, samples=4, seed=2026, n=3)
        assert (got.status, got.failures, got.margins) == ("UNDETERMINED", [], {})
        want = residual_invariant_by_elements(septic, samples=4, seed=2026, n=3)
        assert got.to_json(include_runtime=False) == want.to_json(include_runtime=False)

    @pytest.mark.parametrize("name", ["q2_i", "q3"])
    def test_failing_carry_reports_match_oracle(self, all_towers, name, monkeypatch):
        # an alternating binomial constant off by one breaks both signs
        # wherever tr(x_{l-1}) is nonzero, so the failure payloads and the
        # "neither" convention are compared as well
        tower = all_towers[name]
        C = wittcore.alternating_binom_constant(tower.p)
        monkeypatch.setattr(wittcore, "alternating_binom_constant", lambda p: C + 1)
        n = PFOLD_RANGE[tower.p]
        got = cohomlab.verify_carry_identity(tower, samples=6, seed=2, n=n)
        assert got.status == "FAIL"
        want = carry_identity_by_elements(tower, samples=6, seed=2, n=n)
        assert got.to_json(include_runtime=False) == want.to_json(include_runtime=False)

    @pytest.mark.parametrize("name", ["q2_i", "q3"])
    def test_failing_residual_reports_match_oracle(self, all_towers, name, monkeypatch):
        # samples drawn under the true sigma, checked under a sigma with one
        # entry off by one: the residuals move off the fixed ring, and the
        # failure payloads are compared as well
        tower = all_towers[name]
        n = PFOLD_RANGE[tower.p]
        drawn = list(cohomlab._sampler_mix(tower, n, 6, 2, "residual"))
        rows = [list(row) for row in tower.galois_mats[1]]
        rows[0][1] = (rows[0][1] + 1) % tower.modulus
        maps = tower.galois_maps
        monkeypatch.setattr(cohomlab, "_sampler_mix", lambda *args, **kwargs: iter(drawn))
        monkeypatch.setattr(
            tower, "galois_maps", (maps[0], compile_flat_linear(rows, tower.modulus)) + maps[2:]
        )
        got = cohomlab.verify_residual_invariant(tower, samples=6, seed=2, n=n)
        assert got.status == "FAIL"
        want = residual_invariant_by_elements(tower, samples=6, seed=2, n=n)
        assert got.to_json(include_runtime=False) == want.to_json(include_runtime=False)


# -- step_bounds and main against their OElem forms --------------------------
#
# step_bounds and main check their bounds through ``cohomlab._at_least``
# on integer valuations; their bodies on OElem components, with every
# valuation a ``ValExtended`` from the per-coordinate loop, are the
# oracles in ``oracles``.  Each patch below is read at call time by both
# sides and makes a failure branch fire.

CAP_LEMMA_ORACLES = {
    "step_bounds": (step_bounds_by_elements, 8),
    "main": (main_by_elements, 6),
}


def check_cap_lemma(tower, lemma, seed):
    oracle, samples = CAP_LEMMA_ORACLES[lemma]
    got = cohomlab.VERIFIERS[lemma](tower, samples=samples, seed=seed)
    want = oracle(tower, samples=samples, seed=seed)
    assert got.to_json(include_runtime=False) == want.to_json(include_runtime=False), seed
    return got


def failures_by_what(report) -> set:
    return {f.get("what", "valuation") for f in report.failures}


class TestCapLemmaOracles:
    @pytest.mark.parametrize("lemma", sorted(CAP_LEMMA_ORACLES))
    @pytest.mark.parametrize("name", sorted(SIX_TOWERS))
    def test_flat_verifier_matches_oracle(self, all_towers, name, lemma):
        for seed in range(2):
            assert check_cap_lemma(all_towers[name], lemma, seed).status == "PASS"

    @pytest.mark.parametrize("name", sorted(SIX_TOWERS))
    def test_step_bounds_past_the_samples_match_oracle(self, all_towers, name, monkeypatch):
        # every cascaded bound two above the true one: each tower has a
        # component margin of at most one, so the valuation branch fires
        bound = cohomlab.step_bound
        monkeypatch.setattr(cohomlab, "step_bound", lambda s, p, i: bound(s, p, i) + 2)
        for seed in range(2):
            got = check_cap_lemma(all_towers[name], "step_bounds", seed)
            assert got.status == "FAIL" and failures_by_what(got) == {"valuation"}

    @pytest.mark.parametrize("name", sorted(SIX_TOWERS))
    def test_main_low_first_component_matches_oracle(self, all_towers, name, monkeypatch):
        # every other main sample has x_1 replaced by 1, of valuation 0 < s
        tower, mix = all_towers[name], cohomlab._sampler_mix

        def units_first(*args, **kwargs):
            for k, sample in enumerate(mix(*args, **kwargs)):
                if args[4] == "main" and k % 2:
                    comps = (tower.L.one_elem,) + sample.vec.components[1:]
                    sample = cohomlab.KernelSample(WittVec(tower.L, comps), "unit", sample.seed)
                yield sample

        monkeypatch.setattr(cohomlab, "_sampler_mix", units_first)
        for seed in range(2):
            got = check_cap_lemma(tower, "main", seed)
            assert got.status == "FAIL" and failures_by_what(got) == {"valuation"}
            assert got.margins["first_component_slack"] == -tower.s

    @pytest.mark.parametrize("name", sorted(SIX_TOWERS))
    def test_main_class_and_contrast_failures_match_oracle(
        self, all_towers, name, monkeypatch
    ):
        # every class nontrivial: the class branch, and the contrast valuation
        # branch, since the first basis vector is zero at precision (v_L None)
        tower = all_towers[name]
        nontrivial = cohomlab.ClassVerdict("nontrivial", obstruction_depth=1)
        monkeypatch.setattr(cohomlab, "level1_class_trivial", lambda tower, x: nontrivial)
        got = check_cap_lemma(tower, "main", 0)
        assert failures_by_what(got) == {"class", "contrast valuation"}
        assert got.observations["contrast"]["candidate_index"] == 0
        assert got.observations["contrast"]["v_L"] is None
        # every class trivial: no contrast is found
        trivial = cohomlab.ClassVerdict("trivial")
        monkeypatch.setattr(cohomlab, "level1_class_trivial", lambda tower, x: trivial)
        got = check_cap_lemma(tower, "main", 1)
        assert failures_by_what(got) == {"no nontrivial level-one class found"}


class TestCapRule:
    """``localfield.at_cap`` and ``cohomlab._at_least``, the one rule for a
    valuation at the cap: at or past it a valuation is "at least cap",
    its margin is taken at the cap, and a bound past the cap is refused."""

    def test_at_cap(self):
        assert localfield.at_cap(3, 48) == 3
        assert localfield.at_cap(47, 48) == 47
        assert localfield.at_cap(48, 48) is None
        assert localfield.at_cap(60, 48) is None
        assert localfield.at_cap(None, 48) is None

    def test_finite(self):
        margins = {}
        assert cohomlab._at_least(margins, "k", 3, 48, 3)
        assert margins == {"k": 0}
        assert not cohomlab._at_least(margins, "k", 3, 48, 4)
        assert margins == {"k": -1}

    def test_none_meets_every_bound_up_to_the_cap(self):
        for v in (None, 48, 60):
            for bound in (0, 40, 48):
                margins = {}
                assert cohomlab._at_least(margins, "k", v, 48, bound)
                assert margins == {"k": 48 - bound}

    def test_refuses_beyond_cap_even_when_finite(self):
        for v in (3, None):
            margins = {}
            with pytest.raises(PrecisionTooLow, match="v >= 50 exceeds the valuation cap 48"):
                cohomlab._at_least(margins, "k", v, 48, 50)
            assert margins == {}

    def test_least_margin_is_kept(self):
        margins = {"other": -9}
        for v, bound in ((10, 4), (None, 40), (7, 4), (20, 4)):
            cohomlab._at_least(margins, "k", v, 48, bound)
        assert margins == {"other": -9, "k": 3}

    def test_no_key_without_a_check(self, q2_i, monkeypatch):
        # a vktr run whose every draw is skipped writes no margin
        monkeypatch.setattr(q2_i, "val_cap_K", 2)
        report = cohomlab.verify_vktr(q2_i, samples=5, seed=0)
        assert report.params["checked"] == 0
        assert report.margins == {}


class TestSampleStream:
    """Every sampled draw comes from one stream, ``_sample_rngs``: sample k
    from a generator in the state of ``random.Random("seed:label:k")``.
    The Witt lemmas read it through ``_sampler_mix``, vktr and vksub
    through ``_field_draws``, and fixed_points directly."""

    def test_each_sample_starts_from_its_label(self):
        # sample k draws k % 4 values, none at k = 0, 4, 8, a Gaussian among
        # them: nothing sample k leaves in the generator reaches sample k + 1
        for k, (label, rng) in enumerate(cohomlab._sample_rngs(5, "x", 10)):
            assert label == f"5:x:{k}"
            assert rng.getstate() == random.Random(label).getstate()
            draws = (rng.random, lambda: rng.gauss(0, 1), lambda: rng.getrandbits(200))
            for j in range(k % 4):
                draws[j % 3]()

    def test_builds_its_generator_on_first_draw(self, monkeypatch):
        made, real = [], random.Random
        monkeypatch.setattr(cohomlab.random, "Random", lambda *a: made.append(1) or real(*a))
        stream = cohomlab._sample_rngs(0, "x", 3)
        assert made == []
        assert [label for label, _ in stream] == ["0:x:0", "0:x:1", "0:x:2"]
        assert made == [1]

    @pytest.mark.parametrize(
        "lemma, streams",
        [
            ("vktr", ["vktr"]),
            ("vksub", ["vksub"]),
            ("fixed_points", ["fixed"]),
            ("carry_identity", ["carry"]),
            ("residual_invariant", ["residual"]),
            ("step_bounds", ["steps"]),
            ("main", ["main", "main-below"]),
        ],
    )
    def test_every_draw_comes_from_the_stream(self, q2_i, monkeypatch, lemma, streams):
        seen, made, real, original = [], [], random.Random, cohomlab._sample_rngs

        def recorded(seed, name, count):
            labels = []
            seen.append((name, labels))
            for label, rng in original(seed, name, count):
                labels.append(label)
                yield label, rng

        monkeypatch.setattr(cohomlab, "_sample_rngs", recorded)
        monkeypatch.setattr(cohomlab.random, "Random", lambda *a: made.append(1) or real(*a))
        cohomlab.VERIFIERS[lemma](q2_i, samples=3, seed=4)
        assert [name for name, _ in seen] == streams
        for name, labels in seen:
            assert labels == [f"4:{name}:{k}" for k in range(len(labels))] and labels
        # one generator per stream, and none built anywhere else
        assert len(made) == len(seen)

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
    """Every verifier checks the Witt length it will run at, and its
    sample count, before it draws anything, whoever calls it."""

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
            ("carry_identity", 1),
            ("residual_invariant", 1),
            ("residual_invariant", 2),
            ("step_bounds", 0),
            ("step_bounds", 1),
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

    @pytest.mark.parametrize("samples", [0, -1])
    @pytest.mark.parametrize("lemma", list(cohomlab.VERIFIERS))
    def test_every_verifier_refuses_no_samples(self, q2_i, no_draws, lemma, samples):
        # with no sample drawn, six verifiers would PASS having checked nothing
        with pytest.raises(ValueError) as refused:
            cohomlab.VERIFIERS[lemma](q2_i, samples=samples, seed=1)
        assert str(refused.value) == f"{lemma}: samples must be at least 1, got {samples}"


def _order_with_pivots(pivots):
    """``_sigma_minus_one_order`` on q2_i whose Smith forms of sigma - 1 have
    ``pivots(tower, digits)`` as their pivots."""
    tower = load("q2_i")
    tower.sigma_minus_one_snf = lambda digits: types.SimpleNamespace(pivots=pivots(tower, digits))
    return cohomlab._sigma_minus_one_order(tower)


# refusals no tower reaches: (call, error, message)
REFUSALS = {
    "no finite pivot": (
        lambda: _order_with_pivots(lambda t, d: [d] * t.L.flat_rank),
        cohomlab.NotStabilized,
        r"rank defect 2 != expected 1",
    ),
    "pivots move": (
        lambda: _order_with_pivots(lambda t, d: [d - t.N, d]),
        cohomlab.NotStabilized,
        r"elementary divisors moved: \[0\] vs \[2\]",
    ),
    "break 0": (
        lambda: stable_witt_length(0, 2), ValueError, "ramification break must be >= 1"
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_refusals(case):
    call, error, message = REFUSALS[case]
    with pytest.raises(error, match=message):
        call()


def _always_fixed(self, a):
    return True


# verdict branches no unpatched tower reaches, each forced through
# ``cli.main``: (lemma, tower, patches as (object, name, value), exit code,
# status, sign convention, the failures' "what", their keys)
VERDICT_BRANCHES = {
    "residual not in fixed ring": (
        "residual_invariant",
        "q3_ramified",
        [
            (cohomlab, "_residual", lambda tower, columns, level: tower.L.pi_elem),
            (localfield.ExtensionTower, "_fixed_raw", _always_fixed),
        ],
        cli.EXIT_FAIL,
        "FAIL",
        None,
        "not in fixed ring",
        {"seed", "level", "what"},
    ),
    "residual valuation bound": (
        "residual_invariant",
        "q2_i",
        [(cohomlab, "_residual", lambda tower, columns, level: tower.L.one_elem)],
        cli.EXIT_FAIL,
        "FAIL",
        None,
        "valuation bound",
        {"seed", "level", "what", "v_K(h)", "bound"},
    ),
    "moved vector looks fixed": (
        "fixed_points",
        "q2_i",
        [(localfield.ExtensionTower, "_fixed_raw", _always_fixed)],
        cli.EXIT_FAIL,
        "FAIL",
        None,
        "moved vector looks fixed",
        {"seed", "what"},
    ),
    "carry sign plus": (
        "carry_identity",
        "q2_i",
        [(wittcore, "alternating_binom_constant", lambda p: 1)],
        cli.EXIT_PASS,
        "PASS",
        "plus",
        None,
        None,
    ),
    "carry sign neither": (
        "carry_identity",
        "q3_ramified",
        [(wittcore, "alternating_binom_constant", lambda p: 1)],
        cli.EXIT_FAIL,
        "FAIL",
        "neither",
        None,
        {"seed", "level"},
    ),
}


@pytest.mark.parametrize("case", sorted(VERDICT_BRANCHES))
def test_verdict_branches(case, tmp_path, monkeypatch, capsys):
    lemma, tower, patches, code, status, sign, what, keys = VERDICT_BRANCHES[case]
    for target, name, value in patches:
        monkeypatch.setattr(target, name, value)
    out = tmp_path / "report.json"
    argv = ["verify", "--lemma", lemma, "--tower", tower, "--samples", "4", "--out", str(out)]
    assert cli.main(argv) == code
    assert not capsys.readouterr().err
    report = json.loads(out.read_text())
    assert (report["status"], report["sign_convention"]) == (status, sign)
    if keys is None:
        assert not report["failures"]
    else:
        assert report["failures"]
        assert all(set(f) == keys and f.get("what") == what for f in report["failures"])
