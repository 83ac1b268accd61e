"""Ghost-coordinate Witt sums and negatives over tower rings against the
addition and negation polynomials, which stay in the repository as their
oracle."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittlab import cohomlab, wittcore
from wittlab.exactpoly import ModRing, MPoly
from wittlab.localfield import FlatRing
from wittlab.wittcore import (
    BINARY_RANGE,
    GhostSum,
    IntegralityViolation,
    WittVec,
    carry_value,
    ctx_for,
    polynomial_witt_neg,
    polynomial_witt_sum,
    witt_sum,
)

# the four builtin towers and the two nested towers of conftest.py
TOWER_PRIMES = {
    "q2_i": 2,
    "q2_sqrt2": 2,
    "q2_sqrt_minus2": 2,
    "q3": 3,
    "nested": 2,
    "quartic": 2,
}
CASES = [
    (name, n)
    for name, p in TOWER_PRIMES.items()
    for n in range(1, min(4, BINARY_RANGE[p]) + 1)
]
PROPERTY = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def draw_vectors(data, tower, n, count, top_zero=False):
    """``count`` length-n vectors over O_L with drawn flat coordinates."""
    rank, modulus = tower.L.flat_rank, tower.modulus
    coords = st.lists(st.integers(0, modulus - 1), min_size=rank, max_size=rank)
    ctx = ctx_for(tower.p, n)
    vecs = []
    for _ in range(count):
        comps = [tower.L.unflatten(data.draw(coords)) for _ in range(n)]
        if top_zero:
            comps[-1] = tower.L.zero
        vecs.append(WittVec(ctx, tower.L, tuple(comps)))
    return vecs


def datas(vec):
    return [c.data for c in vec.components]


@pytest.mark.parametrize("name,n", CASES)
@PROPERTY
@given(data=st.data())
def test_pfold_sum_matches_polynomials(all_towers, name, n, data):
    tower = all_towers[name]
    vecs = draw_vectors(data, tower, n, tower.p)
    assert datas(witt_sum(vecs)) == datas(polynomial_witt_sum(vecs))


@pytest.mark.parametrize("name,n", CASES)
@PROPERTY
@given(data=st.data())
def test_binary_add_matches_polynomials(all_towers, name, n, data):
    tower = all_towers[name]
    a, b = draw_vectors(data, tower, n, 2)
    assert datas(a + b) == datas(polynomial_witt_sum([a, b]))


@pytest.mark.parametrize("name,n", CASES)
@PROPERTY
@given(data=st.data())
def test_carry_value_matches_polynomials(all_towers, name, n, data):
    tower = all_towers[name]
    vecs = draw_vectors(data, tower, n, tower.p, top_zero=True)
    rows = [v.components[: n - 1] for v in vecs]
    got = carry_value(tower.p, n, rows, tower.L)
    assert got.data == polynomial_witt_sum(vecs).components[n - 1].data


# every length the negation tables cover, so n = 5 at p = 2
NEG_CASES = [
    (name, n) for name, p in TOWER_PRIMES.items() for n in range(1, BINARY_RANGE[p] + 1)
]


@pytest.mark.parametrize("name,n", NEG_CASES)
@PROPERTY
@given(data=st.data())
def test_negation_matches_polynomials(all_towers, name, n, data):
    tower = all_towers[name]
    (y,) = draw_vectors(data, tower, n, 1)
    assert datas(-y) == datas(polynomial_witt_neg(y))


class CarrySignFlipped(GhostSum):
    """Mutant: the carry enters the negative with the wrong sign."""

    def carry(self):
        return self.ring.neg(super().carry())


class OneRowPushed(GhostSum):
    """Mutant: the negative pushes its column as [y_j] only."""

    def push(self, column):
        super().push(column[:1])


@pytest.mark.parametrize("mutant", [CarrySignFlipped, OneRowPushed])
def test_negation_mutants_fail(all_towers, mutant, monkeypatch):
    # at odd p the negative is componentwise and the carry vanishes, so
    # the p = 2 towers are the ones that catch these
    rng = random.Random(0)
    cases = []
    for name, n in NEG_CASES:
        tower = all_towers[name]
        ctx = ctx_for(tower.p, n)
        for _ in range(5):
            comps = [
                tower.L.unflatten([rng.randrange(tower.modulus) for _ in range(tower.L.flat_rank)])
                for _ in range(n)
            ]
            y = WittVec(ctx, tower.L, tuple(comps))
            cases.append((y, datas(polynomial_witt_neg(y))))
    monkeypatch.setattr(wittcore, "GhostSum", mutant)
    assert any(datas(-y) != want for y, want in cases)


def test_tower_sums_evaluate_no_polynomial(q3, monkeypatch):
    ctx = ctx_for(3, 4)
    vec = WittVec(ctx, q3.L, (q3.pi_L + 1, q3.pi_L, q3.L.one, q3.pi_L * 2))
    want = polynomial_witt_sum([vec, vec, vec])
    want_neg = polynomial_witt_neg(vec)

    def refuse(*args, **kwargs):
        raise AssertionError("polynomial evaluation on a tower ring")

    monkeypatch.setattr(MPoly, "eval", refuse)
    assert witt_sum([vec, vec, vec]).components == want.components
    assert (-vec).components == want_neg.components


def test_verifiers_evaluate_no_polynomial_on_tower_rings(q2_i, q3, monkeypatch):
    """Every verifier, step_bounds with coboundary samples among them,
    PASSes while MPoly.eval refuses tower rings; the symbolic p-fold
    decomposition that carry_identity builds still evaluates."""
    original_eval = MPoly.eval

    def guarded(self, assignment, ring=None):
        if isinstance(ring, FlatRing):
            raise AssertionError("polynomial evaluation on a tower ring")
        return original_eval(self, assignment, ring)

    drawn = []
    original_sample = cohomlab.coboundary_sample

    def counted(*args, **kwargs):
        drawn.append(1)
        return original_sample(*args, **kwargs)

    monkeypatch.setattr(MPoly, "eval", guarded)
    monkeypatch.setattr(cohomlab, "coboundary_sample", counted)
    for tower in (q2_i, q3):
        for lemma, fn in cohomlab.VERIFIERS.items():
            report = fn(tower, samples=8, seed=3)
            assert report.status == "PASS", (lemma, report.failures[:2])
    # every fourth step_bounds sample is a coboundary sigma(y) - y
    assert len(drawn) == 2 * 2


def test_rings_without_lift_keep_the_polynomial_path():
    ring = ModRing(2**10)
    assert not hasattr(ring, "flat_lift")
    ctx = ctx_for(2, 2)
    a, b = ctx.vec(ring, [1, 0]), ctx.vec(ring, [1, 0])
    assert (a + b).components == (ring.from_int(2), ring.from_int(-1))


def test_lift_reduces_to_the_working_ring(all_towers):
    for tower in all_towers.values():
        for ring in (tower.K, tower.L):
            for extra in (1, 3):
                lifted = ring.flat_lift(extra)
                assert lifted.modulus == tower.modulus * tower.p**extra
                reduced = tuple(
                    tuple(tuple(c % tower.modulus for c in cell) for cell in row)
                    for row in lifted.struct
                )
                assert reduced == ring.struct


def test_non_divisible_ghost_numerator_raises(q2_i, monkeypatch):
    """A product that is off by one leaves w_2 - S_1^2 odd."""
    lifted = q2_i.L.flat_lift(1)  # the ring a length-2 sum runs in
    good = lifted.mul

    def off_by_one(a, b):
        out = good(a, b)
        return ((out[0] + 1) % lifted.modulus,) + out[1:]

    vec = ctx_for(2, 2).vec(q2_i.L, [1, 0])
    monkeypatch.setattr(lifted, "mul", off_by_one)
    with pytest.raises(IntegralityViolation):
        wittcore.witt_sum([vec, vec])


def polynomial_carry(tower, columns):
    """Top component of the sum of the p rows with one more column, zero,
    by the addition polynomials."""
    ctx = ctx_for(tower.p, len(columns) + 1)
    vecs = [
        WittVec(ctx, tower.L, tuple(col[r] for col in columns) + (tower.L.zero,))
        for r in range(tower.p)
    ]
    return polynomial_witt_sum(vecs).components[-1]


def check_push_truncate(tower, draw, engine_type=GhostSum):
    """Pushes, carries and truncations as the sampler's retries make them:
    after each push the engine goes on (so the next push follows a
    carry at its level), redraws the last column, or cuts two or three
    columns deep.  Every carry and the final sum are compared with the
    addition polynomials.  ``draw(lo, hi)`` gives an integer in
    [lo, hi]."""
    p, modulus, rank = tower.p, tower.modulus, tower.L.flat_rank
    n = draw(2, min(4, BINARY_RANGE[p]))

    def column():
        return [
            tower.L.unflatten([draw(0, modulus - 1) for _ in range(rank)])
            for _ in range(p)
        ]

    engine = engine_type(p, n, tower.L)
    columns = []
    for _ in range(draw(1, 12)):
        if len(columns) < n:
            columns.append(column())
            engine.push([c.data for c in columns[-1]])
        if len(columns) < n:
            assert engine.carry() == polynomial_carry(tower, columns).data
        move = draw(0, 4)
        depth = 0 if move < 3 else (1 if move == 3 else draw(2, 3))
        if depth:
            cut = max(0, len(columns) - depth)
            engine.truncate(cut)
            del columns[cut:]
        assert len(engine) == len(columns)
    while len(columns) < n:
        columns.append(column())
        engine.push([c.data for c in columns[-1]])
    ctx = ctx_for(p, n)
    vecs = [
        WittVec(ctx, tower.L, tuple(col[r] for col in columns)) for r in range(p)
    ]
    want = polynomial_witt_sum(vecs).components
    assert engine.sums() == tuple(c.data for c in want)


@pytest.mark.parametrize("name", sorted(TOWER_PRIMES))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_engine_push_truncate_matches_polynomials(all_towers, name, data):
    check_push_truncate(
        all_towers[name], lambda lo, hi: data.draw(st.integers(lo, hi))
    )


class StaleTruncate(GhostSum):
    """Mutant: a column pushed after a truncate reuses the contributions
    that the dropped column had computed for the levels above it."""

    def truncate(self, k):
        self._dropped = self._columns[k:]
        super().truncate(k)

    def push(self, column):
        super().push(column)
        if getattr(self, "_dropped", None):
            self._columns[-1].net = self._dropped.pop(0).net


class NumeratorKeptPastTruncate(GhostSum):
    """Mutant: a truncate keeps the numerators of the levels above the
    cut, summed over columns it dropped."""

    def truncate(self, k):
        kept = list(self._numerators)
        super().truncate(k)
        self._numerators = kept


class LiftOneShort(GhostSum):
    """Mutant: the summands are lifted by n-2 digits, one too few."""

    def __init__(self, p, n, ring):
        super().__init__(p, n, ring)
        self._lifted = ring.flat_lift(n - 2)


@pytest.mark.parametrize("mutant", [StaleTruncate, NumeratorKeptPastTruncate, LiftOneShort])
def test_engine_mutants_fail(all_towers, mutant):
    rng = random.Random(0)
    # a wrong carry may also leave a later ghost numerator indivisible
    with pytest.raises((AssertionError, IntegralityViolation)):
        for name in ("q2_i", "q2_sqrt2", "quartic"):
            for _ in range(10):
                check_push_truncate(all_towers[name], rng.randint, mutant)


def test_carry_then_push_sums_the_level_once(all_towers, monkeypatch):
    """The push after a carry reuses the carry's numerator: one ``_lower``
    call per level, and the same sums as an engine that never carried."""
    calls = []
    original = GhostSum._lower

    def counted(self, level):
        calls.append(level)
        return original(self, level)

    monkeypatch.setattr(GhostSum, "_lower", counted)
    rng = random.Random(3)
    for name in ("q2_sqrt2", "q3", "quartic"):
        tower = all_towers[name]
        n = 3
        columns = [
            [tower.random_L_elem(rng).data for _ in range(tower.p)] for _ in range(n)
        ]
        plain = GhostSum(tower.p, n, tower.L)
        for col in columns:
            plain.push(col)
        engine = GhostSum(tower.p, n, tower.L)
        engine.push(columns[0])
        for level, col in enumerate(columns[1:], start=1):
            calls.clear()
            engine.carry()
            engine.push(col)
            assert calls == [level]
        assert engine.sums() == plain.sums()


def test_repush_after_a_cut_sums_the_level_once(q2_sqrt2, monkeypatch):
    """A carry, a cut of that column and its re-push, as the sampler
    makes on a rejection: the re-push reuses the numerator of the kept
    columns, and the sums match an engine that never cut."""
    calls = []
    original = GhostSum._lower
    monkeypatch.setattr(
        GhostSum, "_lower", lambda self, level: calls.append(level) or original(self, level)
    )
    rng = random.Random(5)
    column = lambda: [q2_sqrt2.random_L_elem(rng).data for _ in range(2)]
    first, dropped, redrawn = column(), column(), column()
    engine = GhostSum(2, 3, q2_sqrt2.L)
    engine.push(first)
    engine.push(dropped)
    engine.carry()
    engine.truncate(1)
    calls.clear()
    engine.push(redrawn)
    assert calls == []
    engine.carry()
    assert calls == [2]
    plain = GhostSum(2, 3, q2_sqrt2.L)
    plain.push(first)
    plain.push(redrawn)
    assert engine.carry() == plain.carry()
    assert engine.sums() == plain.sums()


def test_engine_refuses_out_of_range_columns(q2_i):
    engine = GhostSum(2, 2, q2_i.L)
    one = q2_i.L.one_elem
    with pytest.raises(ValueError):
        engine.truncate(1)
    engine.push([one, one])
    engine.push([one, one])
    with pytest.raises(ValueError):
        engine.push([one, one])
    with pytest.raises(ValueError):
        engine.carry()


@pytest.mark.parametrize("name", sorted(TOWER_PRIMES))
def test_carry_and_sums_are_the_polynomial_values_as_tuples(all_towers, name):
    """``carry`` and ``sums`` return reduced flat coordinate tuples, the
    ``.data`` of the elements the addition polynomials give."""
    tower = all_towers[name]
    p, rng = tower.p, random.Random(11)
    n = min(3, BINARY_RANGE[p])
    columns = [[tower.random_L_elem(rng) for _ in range(p)] for _ in range(n)]
    engine = GhostSum(p, n, tower.L)
    for j, col in enumerate(columns):
        carry = engine.carry()
        assert isinstance(carry, tuple)
        assert carry == polynomial_carry(tower, columns[:j]).data
        engine.push([c.data for c in col])
    sums = engine.sums()
    assert isinstance(sums, tuple) and all(isinstance(s, tuple) for s in sums)
    ctx = ctx_for(p, n)
    vecs = [WittVec(ctx, tower.L, tuple(col[r] for col in columns)) for r in range(p)]
    assert sums == tuple(c.data for c in polynomial_witt_sum(vecs).components)
