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
    IntegralityViolation,
    WittVec,
    carry_value,
    ctx_for,
    ghost_sum,
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


def carry_sign_flipped(p, ring, columns, levels):
    """Mutant: the carry enters the negative with the wrong sign."""
    out = ghost_sum(p, ring, columns, levels)
    if levels > len(columns):
        out = out[:-1] + (ring.neg(out[-1]),)
    return out


def one_row_pushed(p, ring, columns, levels):
    """Mutant: the negative passes each column as [y_j] only."""
    return ghost_sum(p, ring, [col[:1] for col in columns], levels)


@pytest.mark.parametrize(
    "mutant", [carry_sign_flipped, one_row_pushed], ids=["CarrySignFlipped", "OneRowPushed"]
)
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
    monkeypatch.setattr(wittcore, "ghost_sum", mutant)
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


def check_ghost_sum(tower, draw):
    """At a drawn length n, ``ghost_sum`` with ``levels = len(columns)``
    gives the sum's components, and on the first n-1 columns with one
    level more it gives them with a zero top column, whose component is
    the carry; both are compared with the addition polynomials.
    ``draw(lo, hi)`` gives an integer in [lo, hi]."""
    p, modulus, rank = tower.p, tower.modulus, tower.L.flat_rank
    n = draw(1, min(4, BINARY_RANGE[p]))
    columns = [
        [tower.L.unflatten([draw(0, modulus - 1) for _ in range(rank)]) for _ in range(p)]
        for _ in range(n)
    ]
    ctx = ctx_for(p, n)

    def polynomial(cols):
        vecs = [WittVec(ctx, tower.L, tuple(col[r] for col in cols)) for r in range(p)]
        return tuple(c.data for c in polynomial_witt_sum(vecs).components)

    flat = [[c.data for c in col] for col in columns]
    assert ghost_sum(p, tower.L, flat, n) == polynomial(columns)
    carried = polynomial(columns[:-1] + [[tower.L.zero] * p])
    assert ghost_sum(p, tower.L, flat[:-1], n) == carried


@pytest.mark.parametrize("name", sorted(TOWER_PRIMES))
@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_engine_push_truncate_matches_polynomials(all_towers, name, data):
    """The sums and the carry of ``ghost_sum`` at random lengths."""
    check_ghost_sum(all_towers[name], lambda lo, hi: data.draw(st.integers(lo, hi)))


def lift_one_short(monkeypatch):
    """Mutant: the summands are lifted by levels-2 digits, one too few."""
    lift = FlatRing.flat_lift
    monkeypatch.setattr(FlatRing, "flat_lift", lambda ring, extra: lift(ring, extra - 1))


def s_power_skipped(monkeypatch):
    """Mutant: a pass skips S_1's p-th power at level 2, so S_1 enters
    that level's numerator unraised and every later level one power
    short."""
    divide, power = wittcore._divide_exact, wittcore._pth_power
    state = {}

    def recorded(coords, q, modulus):
        out = divide(coords, q, modulus)
        if q == 1:  # the level-1 division, which gives S_1
            state["s1"] = out
        return out

    def skipping(x, p, mul):
        if x is state.get("s1"):
            state["s1"] = None
            return x
        return power(x, p, mul)

    monkeypatch.setattr(wittcore, "_divide_exact", recorded)
    monkeypatch.setattr(wittcore, "_pth_power", skipping)


@pytest.mark.parametrize(
    "mutant", [lift_one_short, s_power_skipped], ids=["LiftOneShort", "SPowerSkipped"]
)
def test_engine_mutants_fail(all_towers, mutant, monkeypatch):
    rng = random.Random(0)
    mutant(monkeypatch)
    # a wrong component may also leave a later ghost numerator indivisible
    with pytest.raises((AssertionError, IntegralityViolation)):
        for name in ("q2_i", "q2_sqrt2", "quartic"):
            for _ in range(10):
                check_ghost_sum(all_towers[name], rng.randint)


@pytest.mark.parametrize("name", sorted(TOWER_PRIMES))
def test_each_lower_column_is_raised_once_per_level(all_towers, name, monkeypatch):
    """At level l a pass raises the summands and S_i of each of the l-1
    columns below it to the p-th power once, and nothing else."""
    tower = all_towers[name]
    p, rng = tower.p, random.Random(7)
    calls = []
    power = wittcore._pth_power
    monkeypatch.setattr(
        wittcore, "_pth_power", lambda x, p, mul: calls.append(x) or power(x, p, mul)
    )
    for width in (1, 2, 3):
        columns = [[tower.random_L_elem(rng).data for _ in range(p)] for _ in range(width)]
        for levels in (width, width + 1):
            calls.clear()
            ghost_sum(p, tower.L, columns, levels)
            assert len(calls) == (p + 1) * levels * (levels - 1) // 2


def test_engine_refuses_out_of_range_columns(q2_i):
    one = q2_i.L.one_elem
    column = [one, one]
    for columns, levels in (
        ([column, column], 1),
        ([column, column], 4),
        ([], 0),
        ([column, []], 2),
        ([[]], 2),
    ):
        with pytest.raises(ValueError):
            ghost_sum(2, q2_i.L, columns, levels)


@pytest.mark.parametrize("name", sorted(TOWER_PRIMES))
def test_carry_and_sums_are_the_polynomial_values_as_tuples(all_towers, name):
    """Carries and sums come back as reduced flat coordinate tuples, the
    ``.data`` of the elements the addition polynomials give."""
    tower = all_towers[name]
    p, rng = tower.p, random.Random(11)
    n = min(3, BINARY_RANGE[p])
    columns = [[tower.random_L_elem(rng) for _ in range(p)] for _ in range(n)]
    flat = [[c.data for c in col] for col in columns]
    for j in range(n):
        carry = ghost_sum(p, tower.L, flat[:j], j + 1)[-1]
        assert isinstance(carry, tuple)
        assert carry == polynomial_carry(tower, columns[:j]).data
    sums = ghost_sum(p, tower.L, flat, n)
    assert isinstance(sums, tuple) and all(isinstance(s, tuple) for s in sums)
    ctx = ctx_for(p, n)
    vecs = [WittVec(ctx, tower.L, tuple(col[r] for col in columns)) for r in range(p)]
    assert sums == tuple(c.data for c in polynomial_witt_sum(vecs).components)
