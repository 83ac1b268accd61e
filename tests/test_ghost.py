"""Ghost-coordinate Witt sums and negatives over tower rings against the
addition and negation polynomials, which stay in the repository as their
oracle."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittlab import cohomlab, wittcore
from wittlab.exactpoly import ModRing, MPoly
from wittlab.localfield import LevelRing
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
        comps = [tower.unflatten_L(data.draw(coords)) for _ in range(n)]
        if top_zero:
            comps[-1] = tower.LR.zero
        vecs.append(WittVec(ctx, tower.LR, tuple(comps)))
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
    got = carry_value(tower.p, n, rows, tower.LR)
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
        return -super().carry()


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
                tower.unflatten_L([rng.randrange(tower.modulus) for _ in range(tower.L.flat_rank)])
                for _ in range(n)
            ]
            y = WittVec(ctx, tower.LR, tuple(comps))
            cases.append((y, datas(polynomial_witt_neg(y))))
    monkeypatch.setattr(wittcore, "GhostSum", mutant)
    assert any(datas(-y) != want for y, want in cases)


def test_tower_sums_evaluate_no_polynomial(q3, monkeypatch):
    ctx = ctx_for(3, 4)
    vec = WittVec(ctx, q3.LR, (q3.pi_L + 1, q3.pi_L, q3.LR.one, q3.pi_L * 2))
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
        if isinstance(ring, LevelRing):
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
        for ring in (tower.KR, tower.LR):
            for extra in (1, 3):
                lifted = ring.flat_lift(extra)
                assert lifted.modulus == tower.modulus * tower.p**extra
                reduced = tuple(
                    tuple(tuple(c % tower.modulus for c in cell) for cell in row)
                    for row in lifted.struct
                )
                assert reduced == ring.level.struct


def test_non_divisible_ghost_numerator_raises(q2_i, monkeypatch):
    """A product that is off by one leaves w_2 - S_1^2 odd."""
    lifted = q2_i.LR.flat_lift(1)  # the ring a length-2 sum runs in
    good = lifted.mul

    def off_by_one(a, b):
        out = good(a, b)
        return ((out[0] + 1) % lifted.modulus,) + out[1:]

    vec = ctx_for(2, 2).vec(q2_i.LR, [1, 0])
    monkeypatch.setattr(lifted, "mul", off_by_one)
    with pytest.raises(IntegralityViolation):
        wittcore.witt_sum([vec, vec])


def polynomial_carry(tower, columns):
    """Top component of the sum of the p rows with one more column, zero,
    by the addition polynomials."""
    ctx = ctx_for(tower.p, len(columns) + 1)
    vecs = [
        WittVec(ctx, tower.LR, tuple(col[r] for col in columns) + (tower.LR.zero,))
        for r in range(tower.p)
    ]
    return polynomial_witt_sum(vecs).components[-1]


def check_push_truncate(tower, draw, engine_type=GhostSum):
    """Pushes, carries and truncations as the sampler's retries make them:
    after each push the engine goes on, redraws the last column, or cuts
    two or three columns deep.  Every carry and the final sum are
    compared with the addition polynomials.  ``draw(lo, hi)`` gives an
    integer in [lo, hi]."""
    p, modulus, rank = tower.p, tower.modulus, tower.L.flat_rank
    n = draw(2, min(4, BINARY_RANGE[p]))

    def column():
        return [
            tower.unflatten_L([draw(0, modulus - 1) for _ in range(rank)])
            for _ in range(p)
        ]

    engine = engine_type(p, n, tower.LR)
    columns = []
    for _ in range(draw(1, 12)):
        if len(columns) < n:
            columns.append(column())
            engine.push(columns[-1])
        if len(columns) < n:
            assert engine.carry().data == polynomial_carry(tower, columns).data
        move = draw(0, 4)
        depth = 0 if move < 3 else (1 if move == 3 else draw(2, 3))
        cut = max(0, len(columns) - depth)
        engine.truncate(cut)
        del columns[cut:]
        assert len(engine) == cut
    while len(columns) < n:
        columns.append(column())
        engine.push(columns[-1])
    ctx = ctx_for(p, n)
    vecs = [
        WittVec(ctx, tower.LR, tuple(col[r] for col in columns)) for r in range(p)
    ]
    want = polynomial_witt_sum(vecs).components
    assert [s.data for s in engine.sums()] == [c.data for c in want]


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


class LiftOneShort(GhostSum):
    """Mutant: the summands are lifted by n-2 digits, one too few."""

    def __init__(self, p, n, ring):
        super().__init__(p, n, ring)
        self._lifted = ring.flat_lift(n - 2)


@pytest.mark.parametrize("mutant", [StaleTruncate, LiftOneShort])
def test_engine_mutants_fail(all_towers, mutant):
    rng = random.Random(0)
    # a wrong carry may also leave a later ghost numerator indivisible
    with pytest.raises((AssertionError, IntegralityViolation)):
        for name in ("q2_i", "q2_sqrt2", "quartic"):
            for _ in range(10):
                check_push_truncate(all_towers[name], rng.randint, mutant)


def test_engine_refuses_out_of_range_columns(q2_i):
    engine = GhostSum(2, 2, q2_i.LR)
    with pytest.raises(ValueError):
        engine.truncate(1)
    engine.push([q2_i.LR.one, q2_i.LR.one])
    engine.push([q2_i.LR.one, q2_i.LR.one])
    with pytest.raises(ValueError):
        engine.push([q2_i.LR.one, q2_i.LR.one])
    with pytest.raises(ValueError):
        engine.carry()
