"""Ghost-coordinate Witt sums and negatives over tower rings against the
addition and negation polynomials, which stay in ``oracles`` as their
oracle."""

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittlab import _kernels_py as pure
from wittlab import cohomlab, kernels, localfield, wittcore
from wittlab.exactpoly import MPoly
from wittlab.localfield import FlatRing, OElem
from wittlab.wittcore import (
    BINARY_RANGE,
    IntegralityViolation,
    WittVec,
    carry_value,
    ctx_for,
    ghost_sum,
    ghost_trace,
    witt_sum,
)

from conftest import EIGHT_TOWERS, PRIMES, SIX_TOWERS
from oracles import (
    flat_witt_neg,
    flat_witt_sum,
    ghost_sum_by_loops,
    negative_by_columns,
    zmod,
)

CASES = [
    (name, n)
    for name in SIX_TOWERS
    for n in range(1, min(4, BINARY_RANGE[PRIMES[name]]) + 1)
]
PROPERTY = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def draw_vectors(data, tower, n, count, top_zero=False):
    """``count`` length-n vectors over O_L with drawn flat coordinates."""
    rank, modulus = tower.L.flat_rank, tower.modulus
    coords = st.tuples(*[st.integers(0, modulus - 1)] * rank)
    vecs = []
    for _ in range(count):
        comps = [data.draw(coords) for _ in range(n)]
        if top_zero:
            comps[-1] = tower.L.zero_elem
        vecs.append(WittVec(tower.L, tuple(comps)))
    return vecs


def oracle_sum(vecs):
    """The Witt sum of vectors over one tower ring by the addition
    polynomials, as flat coordinate tuples."""
    return flat_witt_sum(vecs[0].ring, [v.components for v in vecs])


def oracle_neg(y):
    """The negative of ``y`` by the negation polynomials."""
    return flat_witt_neg(y.ring, y.components)


@pytest.mark.parametrize("name,n", CASES)
@PROPERTY
@given(data=st.data())
def test_pfold_sum_matches_polynomials(all_towers, name, n, data):
    tower = all_towers[name]
    vecs = draw_vectors(data, tower, n, tower.p)
    assert witt_sum(vecs).components == oracle_sum(vecs)


@pytest.mark.parametrize("name,n", CASES)
@PROPERTY
@given(data=st.data())
def test_binary_add_matches_polynomials(all_towers, name, n, data):
    tower = all_towers[name]
    a, b = draw_vectors(data, tower, n, 2)
    assert (a + b).components == oracle_sum([a, b])


@pytest.mark.parametrize("name,n", CASES)
@PROPERTY
@given(data=st.data())
def test_carry_value_matches_polynomials(all_towers, name, n, data):
    tower = all_towers[name]
    vecs = draw_vectors(data, tower, n, tower.p, top_zero=True)
    rows = [v.components[: n - 1] for v in vecs]
    got = carry_value(n, rows, tower.L)
    assert got == oracle_sum(vecs)[n - 1]


# every length the negation tables cover, so n = 5 at p = 2
NEG_CASES = [
    (name, n) for name in SIX_TOWERS for n in range(1, BINARY_RANGE[PRIMES[name]] + 1)
]


@pytest.mark.parametrize("name,n", NEG_CASES)
@PROPERTY
@given(data=st.data())
def test_negation_matches_polynomials(all_towers, name, n, data):
    tower = all_towers[name]
    (y,) = draw_vectors(data, tower, n, 1)
    assert (-y).components == oracle_neg(y)


# past the negation tables, where no polynomial oracle reaches: the
# column-by-column negative is the oracle there
LONG_NEG_CASES = [
    ("q2_i", 6), ("q2_i", 7), ("q2_sqrt2", 6), ("q2_sqrt2", 7), ("q3", 5), ("q3", 6)
]


@pytest.mark.parametrize("name,n", LONG_NEG_CASES)
@PROPERTY
@given(data=st.data())
def test_long_negation_matches_columns(all_towers, name, n, data):
    tower = all_towers[name]
    (y,) = draw_vectors(data, tower, n, 1)
    z = -y
    assert z.components == negative_by_columns(y)
    assert (y + z).components == (tower.L.zero_elem,) * n


def test_negation_is_one_pass(all_towers, monkeypatch):
    """-y on a length-n vector makes one ghost pass, in the ring lifted by
    n - 1 digits, where solving column by column makes n - 1."""
    passes, lifts = [], []
    compile_pass = kernels.compile_ghost_pass

    def counted(*args):
        ghost_pass = compile_pass(*args)
        return lambda *inputs: passes.append(1) or ghost_pass(*inputs)

    lift = FlatRing.flat_lift
    monkeypatch.setattr(kernels, "compile_ghost_pass", counted)
    monkeypatch.setattr(FlatRing, "flat_lift", lambda ring, d: lifts.append(d) or lift(ring, d))
    rng = random.Random(2)
    for name, n in NEG_CASES + LONG_NEG_CASES:
        tower = all_towers[name]
        y = WittVec(tower.L, tuple(tower.random_L_raw(rng) for _ in range(n)))
        passes.clear()
        lifts.clear()
        -y
        assert (len(passes), lifts) == (1, [n - 1])


def plus_identity(monkeypatch):
    """Mutant: the negative's rows are the identity, not minus it."""
    rows = wittcore._unit_rows
    monkeypatch.setattr(wittcore, "_unit_rows", lambda rank, sign: rows(rank, 1))


def diagonal_entry_flipped(monkeypatch):
    """Mutant: the last diagonal entry of the negative's rows is +1."""
    rows = wittcore._unit_rows

    def flipped(rank, sign):
        good = rows(rank, sign)
        return good if sign == 1 else good[:-1] + (good[-1][:-1] + (1,),)

    monkeypatch.setattr(wittcore, "_unit_rows", flipped)


@pytest.mark.parametrize(
    "mutant", [plus_identity, diagonal_entry_flipped], ids=["PlusIdentity", "DiagonalFlipped"]
)
def test_negation_mutants_fail(all_towers, mutant, monkeypatch, fresh_passes):
    # the p = 2 towers, where the negative has carries
    rng = random.Random(0)
    cases = []
    for name, n in NEG_CASES:
        tower = all_towers[name]
        if tower.p != 2:
            continue
        for _ in range(5):
            comps = [
                tuple(rng.randrange(tower.modulus) for _ in range(tower.L.flat_rank))
                for _ in range(n)
            ]
            y = WittVec(tower.L, tuple(comps))
            cases.append((y, oracle_neg(y)))
    mutant(monkeypatch)
    assert any((-y).components != want for y, want in cases)


def test_tower_sums_evaluate_no_polynomial(q3, monkeypatch):
    vec = ctx_for(3, 4).vec(q3.L, [q3.pi_L + 1, q3.pi_L, q3.L.one_elem, q3.pi_L * 2])
    want = flat_witt_sum(q3.L, [vec.components] * 3)
    want_neg = flat_witt_neg(q3.L, vec.components)

    def refuse(*args, **kwargs):
        raise AssertionError("polynomial evaluation on a tower ring")

    monkeypatch.setattr(MPoly, "eval", refuse)
    assert witt_sum([vec, vec, vec]).components == want
    assert (-vec).components == want_neg


def test_verifiers_evaluate_no_polynomial_on_tower_rings(q2_i, q3, monkeypatch):
    """Every verifier, step_bounds with coboundary samples among them,
    PASSes while MPoly.eval refuses tower rings; the symbolic p-fold
    decomposition that carry_identity builds still evaluates."""
    original_eval = MPoly.eval

    def guarded(self, assignment):
        if any(isinstance(value, OElem) for value in assignment.values()):
            raise AssertionError("polynomial evaluation on a tower ring")
        return original_eval(self, assignment)

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


def test_rings_without_lift_are_refused():
    """Witt vectors live over tower rings only: the integers, at which the
    polynomial oracle evaluates, are refused in one line."""
    with pytest.raises(ValueError, match="flat_lift") as refused:
        ctx_for(2, 2).vec(int, [(1,), (0,)])
    assert "\n" not in str(refused.value)


# Z/p^k as a rank-1 tower ring, at every length the tables cover
ZMOD_CASES = [(p, n) for p in (2, 3, 5) for n in range(1, BINARY_RANGE[p] + 1)]


@pytest.mark.parametrize("p,n", ZMOD_CASES)
@PROPERTY
@given(data=st.data())
def test_rank_one_rings_match_polynomials(p, n, data):
    """Over Z/p^16, ``+``, ``-``, ``witt_sum`` of p vectors and
    ``carry_value`` run the package's ghost path; each equals the
    polynomial oracle, with 0, 1, p^15 and p^16 - 1 among the drawn
    components."""
    ring = zmod(p, 16)
    ctx = ctx_for(p, n)
    digit = st.sampled_from([0, 1, p**15, ring.modulus - 1]) | st.integers(0, ring.modulus - 1)
    vecs = [ctx.vec(ring, data.draw(st.lists(digit, min_size=n, max_size=n))) for _ in range(p)]
    a, b = vecs[:2]
    assert (a + b).components == oracle_sum([a, b])
    assert (-b).components == oracle_neg(b)
    minus_b = flat_witt_neg(ring, b.components)
    assert (a - b).components == flat_witt_sum(ring, [a.components, minus_b])
    assert witt_sum(vecs).components == oracle_sum(vecs)
    rows = [v.components[: n - 1] for v in vecs]
    carried = flat_witt_sum(ring, [row + (ring.zero_elem,) for row in rows])
    assert carry_value(n, rows, ring) == carried[-1]


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
    check_non_divisible_numerator_raises(q2_i, monkeypatch)


def check_non_divisible_numerator_raises(q2_i, monkeypatch):
    """A square that is off by one leaves w_2 - S_1^2 odd."""
    lifted = q2_i.L.flat_lift(1)  # the ring a length-2 sum runs in
    good = lifted.pth_power

    def off_by_one(a):
        out = good(a)
        return ((out[0] + 1) % lifted.modulus,) + out[1:]

    vec = ctx_for(2, 2).vec(q2_i.L, [1, 0])
    monkeypatch.setattr(lifted, "_pth_power", off_by_one)
    with pytest.raises(IntegralityViolation):
        wittcore.witt_sum([vec, vec])


def polynomial_carry(tower, columns):
    """Top component of the sum of the p rows with one more column, zero,
    by the addition polynomials."""
    rows = [tuple(col[r] for col in columns) + (tower.L.zero_elem,) for r in range(tower.p)]
    return flat_witt_sum(tower.L, rows)[-1]


def check_ghost_sum(tower, draw):
    """At a drawn length n, ``ghost_sum`` with ``levels = len(columns)``
    gives the sum's components, and on the first n-1 columns with one
    level more it gives them with a zero top column, whose component is
    the carry; both are compared with the addition polynomials.
    ``draw(lo, hi)`` gives an integer in [lo, hi]."""
    p, modulus, rank = tower.p, tower.modulus, tower.L.flat_rank
    n = draw(1, min(4, BINARY_RANGE[p]))
    columns = [
        [tuple(draw(0, modulus - 1) for _ in range(rank)) for _ in range(p)] for _ in range(n)
    ]

    def polynomial(cols):
        return flat_witt_sum(tower.L, list(zip(*cols)))

    assert ghost_sum(tower.L, columns, n) == polynomial(columns)
    carried = polynomial(columns[:-1] + [[tower.L.zero_elem] * p])
    assert ghost_sum(tower.L, columns[:-1], n) == carried


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
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


def wrap_pth_power(monkeypatch, wrap):
    """Every ring's ``pth_power`` reads as ``wrap(power)``, ``power`` the
    one the ring compiles."""
    compiled = vars(FlatRing)["pth_power"]
    monkeypatch.setattr(
        FlatRing, "pth_power", property(lambda ring: wrap(compiled.__get__(ring, FlatRing)))
    )


def mutate_pass_source(monkeypatch, mutate):
    """Mutant helper: every ghost pass compiles from ``mutate(source)``.
    Use it with the ``fresh_passes`` fixture, so that no pass compiled
    before it runs, or while it runs, outlives the test."""
    source = pure.ghost_pass_source
    monkeypatch.setattr(pure, "ghost_pass_source", lambda *args: mutate(source(*args)))


def s_power_skipped(monkeypatch):
    """Mutant: a pass skips S_1's p-th power at level 2, so S_1 enters
    that level's numerator unraised and every later level one power
    short."""
    mutate_pass_source(monkeypatch, lambda source: source.replace("    s0 = pth_out(s0)\n", "", 1))


def remainder_unchecked(monkeypatch):
    """Mutant: the generated division drops its remainder check, so a
    numerator that p^(l-1) does not divide is floored."""

    def unchecked(source):
        lines = source.splitlines(keepends=True)
        return "".join(line for line in lines if not line.lstrip().startswith(("if ", "raise ")))

    mutate_pass_source(monkeypatch, unchecked)


@pytest.fixture
def fresh_passes():
    """No compiled ghost pass is cached when the test starts or after it
    ends, so a pass compiled from a mutated source dies with the test."""
    kernels.compile_ghost_pass.cache_clear()
    yield
    kernels.compile_ghost_pass.cache_clear()


@pytest.mark.parametrize(
    "mutant", [lift_one_short, s_power_skipped], ids=["LiftOneShort", "SPowerSkipped"]
)
def test_engine_mutants_fail(all_towers, mutant, monkeypatch, fresh_passes):
    rng = random.Random(0)
    mutant(monkeypatch)
    # a wrong component may also leave a later ghost numerator indivisible
    with pytest.raises((AssertionError, IntegralityViolation)):
        for name in ("q2_i", "q2_sqrt2", "quartic"):
            for _ in range(10):
                check_ghost_sum(all_towers[name], rng.randint)


def test_indivisible_message_matches_loops(q2_i, monkeypatch):
    """The compiled pass and the loop it replaced name the same numerator
    coordinate and divisor."""
    lifted = q2_i.L.flat_lift(1)
    good = lifted.pth_power
    monkeypatch.setattr(lifted, "_pth_power", lambda a: (good(a)[0] + 1,) + good(a)[1:])
    one, zero = q2_i.L.one_elem, q2_i.L.zero_elem
    columns = [[one, one], [zero, zero]]
    with pytest.raises(IntegralityViolation) as looped:
        ghost_sum_by_loops(q2_i.L, columns, 2)
    with pytest.raises(IntegralityViolation, match=f"^{looped.value}$"):
        ghost_sum(q2_i.L, columns, 2)


def test_unchecked_division_is_caught(q2_i, monkeypatch, fresh_passes):
    remainder_unchecked(monkeypatch)
    with pytest.raises(pytest.fail.Exception):
        check_non_divisible_numerator_raises(q2_i, monkeypatch)


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
@pytest.mark.parametrize("level", ["K", "L"])
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_compiled_pass_matches_loops(all_towers, name, level, data):
    """The compiled pass against the loop it replaced, on 0-4 columns of
    1..p+1 summands each and len(columns)..len(columns)+2 levels, with
    0, 1, p^(D-1) and modulus-1 among the drawn digits (D the digits)."""
    tower = all_towers[name]
    p = tower.p
    ring = tower.K if level == "K" else tower.L
    special = [0, 1, p ** (ring.digits - 1), ring.modulus - 1]
    digit = st.sampled_from(special) | st.integers(0, ring.modulus - 1)
    element = st.tuples(*[digit] * ring.flat_rank)
    widths = data.draw(st.lists(st.integers(1, p + 1), max_size=4))
    columns = [data.draw(st.lists(element, min_size=w, max_size=w)) for w in widths]
    levels = data.draw(st.integers(max(1, len(columns)), len(columns) + 2))
    assert ghost_sum(ring, columns, levels) == ghost_sum_by_loops(ring, columns, levels)
    # the same shape with every summand one of the special digits throughout
    uniform = [
        [(special[(i + j) % 4],) * ring.flat_rank for j in range(w)]
        for i, w in enumerate(widths)
    ]
    assert ghost_sum(ring, uniform, levels) == ghost_sum_by_loops(ring, uniform, levels)


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
def test_each_lower_column_is_raised_once_per_level(all_towers, name, monkeypatch):
    """At level l a pass raises the summands and S_i of each of the l-1
    columns below it to the p-th power once, and nothing else: a column
    above those given is zero and has no summands to raise."""
    tower = all_towers[name]
    p, rng = tower.p, random.Random(7)
    calls = []
    wrap_pth_power(monkeypatch, lambda power: lambda x: calls.append(x) or power(x))
    for width in (0, 1, 2, 3):
        columns = [[tower.random_L_elem(rng).data for _ in range(p)] for _ in range(width)]
        for levels in range(max(1, width), width + 3):
            calls.clear()
            ghost_sum(tower.L, columns, levels)
            summands = p * sum(min(l, width) for l in range(levels))
            assert len(calls) == summands + levels * (levels - 1) // 2


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
def test_implicit_zero_columns_match_explicit(all_towers, name):
    """Columns above those given count as zero: the pass equals the same
    pass with those columns given as zeros."""
    tower = all_towers[name]
    p, rng, zero = tower.p, random.Random(5), tower.L.zero_elem
    for width in (0, 1, 2, 3):
        columns = [[tower.random_L_elem(rng).data for _ in range(p)] for _ in range(width)]
        for levels in range(max(1, width), width + 3):
            explicit = columns + [[zero] * p] * (levels - width)
            assert ghost_sum(tower.L, columns, levels) == ghost_sum(tower.L, explicit, levels)


def test_engine_refuses_out_of_range_columns(q2_i):
    one = q2_i.L.one_elem
    column = [one, one]
    for columns, levels in (
        ([column, column], 1),
        ([column, column, column], 2),
        ([column], 0),
        ([], 0),
        ([], -1),
        ([column, []], 2),
        ([[]], 2),
    ):
        with pytest.raises(ValueError):
            ghost_sum(q2_i.L, columns, levels)


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
def test_carry_and_sums_are_the_polynomial_values_as_tuples(all_towers, name):
    """Carries and sums come back as reduced flat coordinate tuples, the
    values the addition polynomials give."""
    tower = all_towers[name]
    p, rng = tower.p, random.Random(11)
    n = min(3, BINARY_RANGE[p])
    columns = [[tower.random_L_elem(rng).data for _ in range(p)] for _ in range(n)]
    for j in range(n):
        carry = ghost_sum(tower.L, columns[:j], j + 1)[-1]
        assert isinstance(carry, tuple)
        assert carry == polynomial_carry(tower, columns[:j])
    sums = ghost_sum(tower.L, columns, n)
    assert isinstance(sums, tuple) and all(isinstance(s, tuple) for s in sums)
    assert sums == flat_witt_sum(tower.L, list(zip(*columns)))


# ---------------------------------------------------------------------------
# the Witt trace from the ghost components, against the conjugates' Witt sum

def trace_by_conjugates(tower, components, levels):
    """Components 1..levels of the Witt trace as ``cohomlab.witt_trace``
    computes it: the Witt sum of the p conjugates of each component, one
    ``ghost_sum`` pass, reduced to O_K."""
    columns = [tower.conjugates_raw(c) for c in components]
    return tuple(map(tower.project_to_K_raw, ghost_sum(tower.L, columns, levels)))


@pytest.mark.parametrize("name", EIGHT_TOWERS)
@settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(data=st.data())
def test_ghost_trace_matches_conjugate_sum(eight_towers, name, data):
    """On k = 1..3 drawn components, with 0, 1, p^(N_int-1) and
    modulus-1 among the drawn digits, at k..k+2 levels: the top one is
    the sampler's carry into level k+1."""
    tower = eight_towers[name]
    special = [0, 1, tower.p ** (tower.N_int - 1), tower.modulus - 1]
    digit = st.sampled_from(special) | st.integers(0, tower.modulus - 1)
    element = st.tuples(*[digit] * tower.L.flat_rank)
    k = data.draw(st.integers(1, 3))
    components = [data.draw(element) for _ in range(k)]
    levels = data.draw(st.integers(k, k + 2))
    assert ghost_trace(tower, components, levels) == trace_by_conjugates(tower, components, levels)


def check_ghost_traces(towers, seed=0):
    """``ghost_trace`` against the conjugates' Witt sum on every tower,
    random components, k = 1..3 and k+1..k+2 levels."""
    rng = random.Random(seed)
    for tower in towers.values():
        for k in (1, 2, 3):
            components = [tower.random_L_raw(rng) for _ in range(k)]
            for levels in (k + 1, k + 2):
                want = trace_by_conjugates(tower, components, levels)
                assert ghost_trace(tower, components, levels) == want


def test_ghost_trace_with_shared_row_coordinates():
    """Over K = Q2(sqrt(2)) with E_L = x^2 + (2 + pi_K)x + pi_K, Tr(pi_L) =
    -(2 + pi_K) has both O_K coordinates nonzero, so both trace rows use
    the pi_L coordinates and the pass names their ghost sums once."""
    tower = localfield.build_tower(
        2, "auto", [[0, 1], [2, 1], [1]], e_k_coeffs=[-2, 0, 1], witt_length_hint=3
    )
    lifted = tower.K.flat_lift(2)
    rows = tower.trace_rows(lifted.digits)
    source = pure.ghost_pass_source(2, rows, (1, 1), 3, lifted.modulus, tower.modulus)
    assert "    t2 = " in source and "    t3 = " in source
    check_ghost_traces({"shared": tower}, seed=4)


def rows_at_working_digits(monkeypatch, towers):
    """Mutant: the trace rows at N_int digits, used in the lifted ring.
    An entry then differs from the lifted one by a multiple of p^N_int,
    and the pi_L coefficients of x^(p^m) are mostly divisible by p^m, so
    the error often cancels in the division; on nested it shows."""
    for tower in towers.values():
        rows = tower.trace_rows(tower.N_int)
        monkeypatch.setattr(tower, "trace_rows", lambda digits, rows=rows: rows)


def sums_raised_on_top_ring(monkeypatch, towers):
    """Mutant: the partial sums S_i are raised with O_L's ``pth_power``
    (a sum's pass raises both with the same power, so only traces change)."""
    mutate_pass_source(monkeypatch, lambda source: source.replace("= pth_out(", "= pth_in("))


def sums_raised_unlifted(monkeypatch, towers):
    """Mutant: O_K is not lifted, so the S_i, the rows and the numerators
    run at N_int digits while the components are lifted."""
    for tower in towers.values():
        monkeypatch.setattr(tower.K, "flat_lift", lambda extra, K=tower.K: K)


@pytest.mark.parametrize(
    "mutant",
    [rows_at_working_digits, sums_raised_on_top_ring, sums_raised_unlifted],
    ids=["RowsAtWorkingDigits", "SumsRaisedOnTopRing", "SumsRaisedUnlifted"],
)
def test_ghost_trace_mutants_fail(eight_towers, mutant, monkeypatch, fresh_passes):
    check_ghost_traces(eight_towers)
    mutant(monkeypatch, eight_towers)
    kernels.compile_ghost_pass.cache_clear()  # the passes checked above
    # a rank-e_K sum handed to O_L's power does not unpack
    with pytest.raises((AssertionError, IntegralityViolation, ValueError)):
        check_ghost_traces(eight_towers)


def check_planted_remainder_raises(tower, monkeypatch):
    """S_1^p off by one leaves the level-2 numerator with a remainder
    modulo p: every trace of O_L into Q_p is divisible by p, so the
    remainder is planted on the O_K side."""
    lifted = tower.K.flat_lift(1)  # the ring a length-2 trace raises S_1 in
    good = lifted.pth_power
    monkeypatch.setattr(
        lifted, "_pth_power", lambda a: ((good(a)[0] + 1) % lifted.modulus,) + good(a)[1:]
    )
    with pytest.raises(IntegralityViolation, match="not divisible by"):
        ghost_trace(tower, [tower.L.one_elem], 2)


def test_ghost_trace_planted_remainder_raises(q2_i, q3, monkeypatch):
    for tower in (q2_i, q3):
        check_planted_remainder_raises(tower, monkeypatch)


def test_floored_trace_division_is_caught(q2_i, monkeypatch, fresh_passes):
    """Mutant: the generated division drops its remainder check."""

    def unchecked(source):
        lines = source.splitlines(keepends=True)
        return "".join(line for line in lines if not line.lstrip().startswith(("if ", "raise ")))

    mutate_pass_source(monkeypatch, unchecked)
    with pytest.raises(pytest.fail.Exception):
        check_planted_remainder_raises(q2_i, monkeypatch)


@pytest.mark.parametrize("name", sorted(SIX_TOWERS))
def test_ghost_trace_raises_each_component_once_per_level(all_towers, name, monkeypatch):
    """At level l the pass raises each of the components below it once on
    O_L and each S_i once on O_K: one chain per component, where the
    conjugates' Witt sum raises p."""
    tower = all_towers[name]
    rng = random.Random(3)
    calls = {"O_K": 0, "O_L": 0}

    def wrap(power):
        def counted(x):
            calls["O_K" if len(x) == tower.K.flat_rank else "O_L"] += 1
            return power(x)

        return counted

    wrap_pth_power(monkeypatch, wrap)
    for k in (1, 2, 3):
        components = [tower.random_L_raw(rng) for _ in range(k)]
        for levels in range(k, k + 3):
            calls.update(O_K=0, O_L=0)
            ghost_trace(tower, components, levels)
            assert calls["O_L"] == sum(min(l, k) for l in range(levels))
            assert calls["O_K"] == levels * (levels - 1) // 2


def test_ghost_trace_refuses_out_of_range_components(q2_i):
    one = q2_i.L.one_elem
    for components, levels in (([one, one], 1), ([one], 0), ([], 0)):
        with pytest.raises(ValueError):
            ghost_trace(q2_i, components, levels)
