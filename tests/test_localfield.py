import collections
import hashlib
import itertools
import json
import math
import random
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittlab import _kernels_py, cohomlab, kernels, localfield
from wittlab.cli import TOWER_DIR
from wittlab.kernels import compile_flat_linear, compile_flat_val
from wittlab.localfield import (
    NoSolutionAtPrecision,
    NotEisenstein,
    NotNormal,
    PrecisionTooLow,
    TraceNotRational,
    _vp_int,
    build_tower,
    linsolve,
    smith_normal_form,
)

from conftest import EIGHT_TOWERS, RAMIFIED_BASE_TOWERS, SIX_TOWERS, description, load
from oracles import (
    DigitSearchTower,
    ValExtended,
    conjugates_by_substitution,
    eq_at_precision,
    fixed_by_substitution,
    in_K_at_precision,
    int_elem,
    is_zero_at_precision,
    pi_K,
    pi_conjugates_by_substitution,
    randrange_K_elem,
    randrange_L_elem,
    randrange_L_unit,
    struct_by_cells,
    tower_by_digit_search,
    tower_with_sigma_power,
    trace_rows_off_by_one,
    unflatten,
    val_by_coordinates,
    vL_by_coordinates,
    vp_int_by_division,
    wrong_in_last,
    zero_by_coordinates,
)


# (tower, k): the towers with another generator sigma^k, k = 2..p-1
GENERATOR_POWERS = [("q3", 2), ("quintic", 2), ("quintic", 3), ("quintic", 4)]

# tower_hash is the sha256 of the description, so these move only when
# a description or its parse does: one per file in towers/
TOWER_HASHES = {
    "q2_i": "84be0c6f340b5624cc80c0b142d6d1933f41ebd3bfb2fa2c4fac0953b7d36920",
    "q2_sqrt2": "99666e11867af9ed32377b9b782c7731af08129972a477fcc578139ffb987c3c",
    "q2_sqrt_minus2": "5b9f056eee283e72a579e19c6e0862544368a0f5fb22c1096eb80da3d0c33515",
    "q3_ramified": "e9154c16953468de13efd5bca663ec9d5467e1093ee9bd37aea3f71f82a84dc6",
    "nested": "f290003d4ff2a612411e48dcd76b32fcf738afdd82ac364b96a5b1ae128b971c",
    "quartic": "6908a6ec6d5798aa0dabe8ec253c86d32bcc929e70dcb5f60fc2c362f06efc1f",
    "septic": "7a57f9ee4b4417402d0587386b7c5c76772ff94e514e63392b5d9f9cbffd72bf",
    "quintic": "62c70fdadcff7c4974087059f75b1a531d9c2dbe2f2cd434864e251aa71a7a88",
    "q3z3_kummer": "2e3a2de5ebbb25b798d45177db51a7249b96ed94d59fd918611549fac2adf502",
    "q3z9_over_z3": "0d7a40e55bb164af40372e862872f95bc5eaf5d8472575a9bb4c6d5e723c9723",
    "q2z8_over_i": "86b12cc63655f5c0f8cf0e31f650068303361fab187f41a661d3200376dc4f0e",
    "q2z16_over_z8": "aa56babe2e8655a3e19f7559976fab73db384be5f3554da9ceeac0a1e71972a2",
    "q5z5_kummer": "409eb850de6354a820aee98d7d785a43ee554bc409bc2315861a45e8d02bab76",
    "q7z7_kummer": "7b618635f3d4f2d903c20d5cdd29c449f24922bb6ab7ed92f4d317db8fff3d63",
    "cubic": "f843ea74d59bfd7dda83ff150b67268a4aa7a427af49fd609a5261895676e87f",
    "rank8": "e63bff29449b659ad9581f1fcaba77ae013a353141c1c4afd8aa35f391206cd2",
}

# sha256 of the compact JSON of [K.struct, L.struct, galois_mats], one per
# file in towers/, as built when every structure cell made its own row
STRUCT_DIGESTS = {
    "cubic": "590027a4a750db49c96715f3ac966f923a2c46588f498e80a0b48cf79a21dc4a",
    "nested": "29b68bb517b289c3ce8927c4e8305a2fc957580b31cf312f5b893118187369d2",
    "q2_i": "d57422bfa27a06b3f7894367c8457eb58af993531eb1a1c4b19539e8aca8fe42",
    "q2_sqrt2": "672b9686ae2e623b9116dc4ba5f6ee58a8b2872ef7c0a0aa0b0a04f901d3bc23",
    "q2_sqrt_minus2": "21123c5ab0e41c1299d85da1a8ce14d46586dc6a2c83b2c428709dcd43e7a7c8",
    "q2z16_over_z8": "71c044b4a7bc8607505b9f810d306f22f6d6013fb4a9e48d83a2f673e3526be6",
    "q2z8_over_i": "b4b9374123389490557db269657b27078efb9b61ee08dd0e3f797fa19ec94501",
    "q3_ramified": "bc1937e2f9c4eb2de30713c813a64d1678349d5ce16970d1d60c85c4753f9e95",
    "q3z3_kummer": "0a33aeab877abbb8c9ddc30af09232e0664a7309191497dd8ceb5f662b914ac6",
    "q3z9_over_z3": "f6f74907dd121d74efa638656431a19b7972b81fce604c27c30d55fff2102464",
    "q5z5_kummer": "77e3b306ce395286a24b4f27cef40689a8c69da099020c43506dab5faa790809",
    "q7z7_kummer": "647bda653f3b6ab4aa0c1ab702452c305ee56c4105d9760fe3a15c487713f9f8",
    "quartic": "37ce54b003c8189df4264f5c8121f42b4aa285eb81d5e06a2447d0792d17c72b",
    "quintic": "6f1768465fc3feb1cdef3a06ffb1a6e6d20ee74c76076c3048e5e277578a5d4d",
    "rank8": "2d5e57b63f94f4284cab6398fa19077889b6c76f371096c48295ca2721d50c64",
    "septic": "d8bc0b1f48e2a128cef30c450e3c0c246ec95cae613d2e62806a938071d3438e",
}


@pytest.mark.parametrize("name", sorted(STRUCT_DIGESTS))
def test_structure_rows_are_built_once_per_exponent_pair(name):
    # cell (i, j)*(ii, jj) is the row of pi_K^(i+ii)*pi_L^(j+jj): one row
    # object per exponent pair, equal to the cell-by-cell build, and the
    # rows and sigma's matrices as pinned
    tower = localfield.load_tower(TOWER_DIR / f"{name}.json")
    struct = tower.L.struct
    assert len({id(row) for cells in struct for row in cells}) == (
        (2 * tower.e_K - 1) * (2 * tower.p - 1)
    )
    assert struct == struct_by_cells(tower)
    blob = json.dumps([tower.K.struct, struct, tower.galois_mats], separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == STRUCT_DIGESTS[name]


class TestValExtended:
    """The object form of the cap rule, which the OElem oracles use."""

    def test_finite(self):
        v = ValExtended(3, 48)
        assert v.finite and v.value == 3
        assert v.at_least(3) and not v.at_least(4)

    def test_at_cap(self):
        v = ValExtended(None, 48)
        assert not v.finite
        assert v.at_least(48)
        with pytest.raises(PrecisionTooLow):
            v.at_least(49)

    def test_capped(self):
        assert ValExtended(3, 48).capped() == 3
        assert ValExtended(None, 48).capped() == 48

    def test_refuses_beyond_cap_even_when_finite(self):
        with pytest.raises(PrecisionTooLow):
            ValExtended(3, 48).at_least(50)


class TestTowerConstruction:
    def test_rejects_non_eisenstein(self):
        with pytest.raises(NotEisenstein):
            build_tower(2, 24, [1, 0, 1])  # unit constant term
        with pytest.raises(NotEisenstein):
            build_tower(2, 24, [4, 0, 1])  # constant valuation 2
        with pytest.raises(NotEisenstein):
            build_tower(2, 24, [-2, 0, 2])  # not monic

    @pytest.mark.parametrize("lead", [[1, 0], ["1", "0"], [1]])
    def test_leading_one_as_o_k_coordinates(self, lead):
        # nested.json's leading coefficient [1] written with e_K = 2
        # coordinates is the same element 1: the same tower, but the
        # description hashes the lists as given
        obj = description("nested")
        tower = localfield.tower_from_obj({**obj, "E_L": [*obj["E_L"][:-1], lead]})
        nested = load("nested")
        assert tower.L.struct == nested.L.struct and tower.galois_mats == nested.galois_mats
        assert (tower.tower_hash == nested.tower_hash) == (lead == [1])

    @pytest.mark.parametrize("lead", [[1, 0, 0], [0, 1], [1, 1], [], [0]])
    def test_leading_coefficient_other_than_one(self, lead):
        obj = description("nested")
        with pytest.raises(NotEisenstein, match="leading coefficient must be 1"):
            localfield.tower_from_obj({**obj, "E_L": [*obj["E_L"][:-1], lead]})

    def test_leading_one_has_at_most_e_k_coordinates(self):
        # over Q_2, e_K = 1: [1] is the element 1, [1, 0] is not an element
        build_tower(2, 24, [2, -2, [1]])
        with pytest.raises(NotEisenstein, match="got \\[1, 0\\]"):
            build_tower(2, 24, [2, -2, [1, 0]])

    def test_rejects_non_normal_cubic(self):
        # x^3 - 3 is Eisenstein at 3 but its splitting field is not cyclic
        with pytest.raises(NotNormal):
            build_tower(3, 16, [-3, 0, 0, 1])

    def test_rejects_low_precision(self):
        with pytest.raises(PrecisionTooLow):
            build_tower(2, 6, [-2, 0, 1], witt_length_hint=4)

    def test_auto_precision_counts_e_k_without_the_leading_one(self):
        # K = Q2(2^(1/3)), L = K(sqrt(pi_K)): e_K = 3, s = 6, so the policy
        # at Witt length 4 needs N = 18; counting E_K's leading 1 as a
        # fourth coefficient picked N = 17, which the tower then refused
        tower = load("cubic")
        assert tower.e_K == 3 and tower.N == 18 and tower.s == 6

    def test_tower_hashes_are_pinned(self):
        # a change to how a description is read must not move any hash,
        # and a new file in towers/ needs its hash here
        paths = TOWER_DIR.glob("*.json")
        got = {path.stem: localfield.load_tower(path).tower_hash for path in paths}
        assert got == TOWER_HASHES

    @pytest.mark.parametrize("name", [*SIX_TOWERS, "x_plus_2"])
    def test_pi_k_is_a_root_of_e_k(self, all_towers, name):
        # K = Q_2 presented by E_K = x + 2 has pi_K = -2, not p
        if name == "x_plus_2":
            tower = build_tower(2, 24, [2, -2, 1], [2, 1])
        else:
            tower = all_towers[name]
        e_k = tower.description["E_K"] or [str(-tower.p), "1"]
        pk = pi_K(tower)
        at_pi_K = sum(pk**i * int(c) for i, c in enumerate(e_k))
        assert is_zero_at_precision(tower, at_pi_K)

    def test_breaks(self, q2_i, q2_sqrt2, q2_sqrt_minus2, q3):
        assert q2_sqrt2.s == 2
        assert q2_i.s == 1
        assert q2_sqrt_minus2.s == 2
        assert q3.s == 1

    def test_break_regime_labels(self, q2_i, q2_sqrt2, q3):
        assert q2_sqrt2.strict_break_regime()
        assert q3.strict_break_regime()
        assert not q2_i.strict_break_regime()  # s == e_K/(p-1) exactly

    def test_auto_precision(self):
        tower = build_tower(2, "auto", [-2, 0, 1])
        assert tower.val_cap >= 2 * 4 * (tower.s + tower.e_L) + 8

    @pytest.mark.parametrize("path", sorted(TOWER_DIR.glob("*.json")), ids=lambda p: p.stem)
    def test_break_from_the_different(self, path):
        # the build reads s from dv = v_L(E_L'(pi_L)) alone (Hilbert's
        # formula), so dv = (s + 1)(p - 1) holds by construction; sigma,
        # built after it, is the independent route and must give the same
        # s, and dv and s lie in the ranges that made the build's other
        # checks redundant
        tower = localfield.load_tower(path)
        p, e_k, L = tower.p, tower.e_K, tower.L
        assert tower.dv == (tower.s + 1) * (p - 1)
        assert p <= tower.dv <= p * e_k + p - 1
        assert L.val_raw(L.sub(tower.galois_maps[1](L.pi_elem), L.pi_elem)) == tower.s + 1
        assert tower.s * (p - 1) <= p * e_k

    def test_nested_tower(self):
        # K = Q2(sqrt(2)), L = K(2^(1/4))
        tower = build_tower(
            2, "auto", [[0, -1], [0, 0], [1]], e_k_coeffs=[-2, 0, 1], witt_length_hint=2
        )
        assert tower.e_K == 2 and tower.e_L == 4
        assert tower.s == 4
        assert tower.vL(tower.embed_K(pi_K(tower))) == 2
        rng = random.Random(1)
        a = tower.random_L_elem(rng)
        tower.trace(a)  # lands in O_K without complaint


class TestGaloisAction:
    def test_fixes_embedded_base(self, q2_i):
        for k in (1, 5, -3):
            a = int_elem(q2_i.L, k)
            assert q2_i.galois(a) == a

    def test_q2i_conjugate(self, q2_i):
        got = q2_i.galois(q2_i.pi_L)
        want = 2 - q2_i.pi_L
        assert eq_at_precision(q2_i, got, want)

    def test_order_p_on_random_elements(self, towers):
        for tower in towers.values():
            rng = random.Random(42)
            for _ in range(100):
                a = tower.random_L_elem(rng)
                b = a
                for _ in range(tower.p):
                    b = tower.galois(b)
                assert eq_at_precision(tower, a, b)

    def test_times_is_read_modulo_p(self, towers):
        rng = random.Random(5)
        for tower in towers.values():
            a = tower.random_L_elem(rng)
            conjugates = tower.conjugates_raw(a.data)
            for i in range(-1, 2 * tower.p + 1):
                assert tower.galois(a, i).data == conjugates[i % tower.p], i

    def test_is_ring_homomorphism(self, q3):
        rng = random.Random(9)
        for _ in range(50):
            a, b = q3.random_L_elem(rng), q3.random_L_elem(rng)
            assert q3.galois(a + b) == q3.galois(a) + q3.galois(b)
            assert q3.galois(a * b) == q3.galois(a) * q3.galois(b)

    def test_fixed_set_is_base(self, q2_i, q3):
        rng = random.Random(15)
        for tower in (q2_i, q3):
            for _ in range(100):
                a = tower.random_L_elem(rng)
                if eq_at_precision(tower, tower.galois(a), a):
                    assert in_K_at_precision(tower, a)

    def test_choice_independence(self, eight_towers):
        for name, k in GENERATOR_POWERS:
            tower = eight_towers[name]
            other = tower_with_sigma_power(tower, k)
            p = tower.p
            # the generator sigma^k: sigma^(k*i) at every i
            conj = tuple(tower.pi_conjugates[k * i % p] for i in range(p))
            assert other.pi_conjugates == conj, (name, k)
            assert other.s == tower.s
            # the trace, a sum over the group, is the same matrix
            assert conjugate_sum(other) == conjugate_sum(tower)

    def test_choice_independent_verdicts(self, eight_towers):
        # solvability of (sigma-1)y = c does not depend on the generator
        for name, k in GENERATOR_POWERS:
            tower = eight_towers[name]
            other = tower_with_sigma_power(tower, k)
            rng = random.Random(78)
            fixed_set = [
                [rng.randrange(tower.p**10) for _ in range(tower.L.flat_rank)]
                for _ in range(20)
            ]
            for coords in fixed_set:
                verdicts = []
                for t in (tower, other):
                    try:
                        t.solve_sigma_minus_one(t.L.reduce(coords), digits=t.N)
                        verdicts.append("trivial")
                    except NoSolutionAtPrecision:
                        verdicts.append("nontrivial")
                assert verdicts[0] == verdicts[1], (name, k)


class TestValuation:
    def test_uniformizer(self, towers):
        for tower in towers.values():
            assert tower.vL(tower.pi_L) == 1

    def test_p_is_totally_ramified(self, towers):
        for tower in towers.values():
            assert tower.vL(int_elem(tower.L, tower.p)) == tower.e_L

    def test_unit_i(self, q2_i):
        assert q2_i.vL(q2_i.pi_L - 1) == 0

    def test_valuation_laws(self, q2_sqrt2, q3):
        rng = random.Random(21)
        for tower in (q2_sqrt2, q3):
            for _ in range(100):
                a = randrange_L_elem(tower, rng, spread_valuation=True)
                b = randrange_L_elem(tower, rng, spread_valuation=True)
                va, vb, vab = tower.vL(a), tower.vL(b), tower.vL(a * b)
                vsum = tower.vL(a + b)
                if va is not None and vb is not None:
                    if va + vb < tower.val_cap:
                        assert vab == va + vb
                    if va != vb:
                        assert vsum == min(va, vb)
                    else:
                        assert vsum is None or vsum >= va

    def test_base_valuation_scaling(self, towers):
        rng = random.Random(33)
        for tower in towers.values():
            for _ in range(50):
                c = randrange_K_elem(tower, rng)
                vk = tower.vK(c)
                vl = tower.vL(tower.embed_K(c))
                if vk is not None:
                    assert vl == tower.p * vk
                else:
                    assert vl is None

    @pytest.mark.parametrize("name", EIGHT_TOWERS)
    def test_vL_embeds_an_O_K_element(self, eight_towers, name):
        """``vL`` given an O_K element embeds it first: v_L(a) = p*v_K(a),
        and both read None at their caps."""
        tower, rng = eight_towers[name], random.Random(17)
        elements = [pi_K(tower) ** k for k in range(4)] + [int_elem(tower.K, tower.p)]
        elements += [randrange_K_elem(tower, rng) for _ in range(20)] + [int_elem(tower.K, 0)]
        for a in elements:
            vk = tower.vK(a)
            assert tower.vL(a) == (None if vk is None else tower.p * vk)


class TestTrace:
    def test_trace_of_one(self, towers):
        for tower in towers.values():
            assert tower.trace(int_elem(tower.L, 1)) == int_elem(tower.K, tower.p)

    def test_q2i_values(self, q2_i):
        i_elem = q2_i.pi_L - 1
        assert is_zero_at_precision(q2_i, q2_i.trace(i_elem))
        tr_pi = q2_i.trace(q2_i.pi_L)
        assert eq_at_precision(q2_i, tr_pi, int_elem(q2_i.K, 2))

    def test_q2sqrt2_formula(self, q2_sqrt2):
        rng = random.Random(4)
        for _ in range(50):
            a = rng.randrange(2**20)
            b = rng.randrange(2**20)
            elem = unflatten(q2_sqrt2.L, (a, b))
            want = int_elem(q2_sqrt2.K, 2 * a)
            assert eq_at_precision(q2_sqrt2, q2_sqrt2.trace(elem), want)

    def test_additive_and_base_linear(self, q3):
        rng = random.Random(6)
        for _ in range(50):
            a, b = q3.random_L_elem(rng), q3.random_L_elem(rng)
            c = randrange_K_elem(q3, rng)
            lhs = q3.trace(a + b)
            assert eq_at_precision(q3, lhs, q3.trace(a) + q3.trace(b))
            lhs2 = q3.trace(q3.embed_K(c) * a)
            assert eq_at_precision(q3, lhs2, c * q3.trace(a))

    def test_matrix_agrees_with_direct_evaluation(self, towers):
        for tower in towers.values():
            rank = tower.L.flat_rank
            for m in range(rank):
                coords = [0] * rank
                coords[m] = 1
                basis = unflatten(tower.L, coords)
                direct = tower.trace(basis).data
                column = [row[m] for row in tower.trace_rows(tower.N_int)]
                got = [x % tower.modulus for x in column]
                for g, d in zip(got, direct):
                    assert (g - d) % tower.p**tower.N == 0
                smo_col = [
                    tower.sigma_minus_one_mat[r][m] % tower.modulus
                    for r in range(rank)
                ]
                diff = (tower.galois(basis) - basis).data
                assert smo_col == [x % tower.modulus for x in diff]


def solve(matrix, rhs, p, digits):
    """``linsolve`` on a fresh Smith form: (particular, delta, kernel)."""
    snf = smith_normal_form(matrix, p, digits)
    particular, delta = linsolve(snf, rhs)
    return particular, delta, snf.kernel_basis()


class TestLinSolve:
    def test_identity(self):
        particular, delta, kernel = solve([[1, 0], [0, 1]], [3, 5], 2, 3)
        assert particular == (3, 5)
        assert kernel == []
        assert delta == 0

    def test_two_y_four_mod8(self):
        particular, delta, kernel = solve([[2]], [4], 2, 3)
        assert particular[0] % 8 in (2, 6)
        spanned = {0}
        for k in kernel:
            spanned |= {(x + k[0]) % 8 for x in spanned}
        assert spanned == {0, 4}
        assert delta == 1

    def test_two_y_one_mod8(self):
        with pytest.raises(NoSolutionAtPrecision) as info:
            solve([[2]], [1], 2, 3)
        assert info.value.depth == 1

    @pytest.mark.parametrize("rhs", [[1], [1, 2, 3]])
    def test_refuses_a_right_hand_side_of_the_wrong_length(self, rhs):
        snf = smith_normal_form([[1, 0], [0, 1]], 2, 3)
        with pytest.raises(ValueError, match="right-hand side has"):
            linsolve(snf, rhs)

    def test_smith_diagonalizes(self):
        rng = random.Random(8)
        for _ in range(100):
            m = rng.randrange(1, 4)
            n = rng.randrange(1, 4)
            digits = 5
            mod = 2**digits
            A = [[rng.randrange(mod) for _ in range(n)] for _ in range(m)]
            snf = smith_normal_form(A, 2, digits)
            # U*A*V == diag(2^v)
            UA = [
                [sum(snf.U[i][k] * A[k][j] for k in range(m)) % mod for j in range(n)]
                for i in range(m)
            ]
            UAV = [
                [sum(UA[i][k] * snf.V[k][j] for k in range(n)) % mod for j in range(n)]
                for i in range(m)
            ]
            for i in range(m):
                for j in range(n):
                    want = 2 ** snf.pivots[i] if i == j and i < len(snf.pivots) else 0
                    assert UAV[i][j] == want % mod
            # the image basis is the first rank columns of A*V
            AV = [
                [sum(A[i][k] * snf.V[k][j] for k in range(n)) % mod for j in range(n)]
                for i in range(m)
            ]
            basis = snf.image_basis(A)
            assert basis == [[AV[i][k] for i in range(m)] for k in range(len(snf.pivots))]

    def test_random_systems_roundtrip(self):
        rng = random.Random(10)
        for _ in range(200):
            n = rng.randrange(1, 4)
            digits = 4
            mod = 3**digits
            A = [[rng.randrange(mod) for _ in range(n)] for _ in range(n)]
            x = [rng.randrange(mod) for _ in range(n)]
            c = [sum(A[i][j] * x[j] for j in range(n)) % mod for i in range(n)]
            particular, _, _ = solve(A, c, 3, digits)
            assert all(0 <= y < mod for y in particular)
            got = [
                sum(A[i][j] * particular[j] for j in range(n)) % mod
                for i in range(n)
            ]
            assert got == c

    def test_kernel_and_image_complete_on_random_matrices(self):
        import itertools as it

        rng = random.Random(12)
        digits, mod = 3, 8
        for _ in range(60):
            m = rng.randrange(1, 3)
            n = rng.randrange(1, 3)
            A = [[rng.randrange(mod) for _ in range(n)] for _ in range(m)]
            kernel_set, image_set = set(), set()
            for vec in it.product(range(mod), repeat=n):
                out = tuple(
                    sum(A[i][j] * vec[j] for j in range(n)) % mod for i in range(m)
                )
                image_set.add(out)
                if all(c == 0 for c in out):
                    kernel_set.add(vec)
            snf = smith_normal_form(A, 2, digits)
            particular, _ = linsolve(snf, [0] * m)
            assert particular == (0,) * n

            def span(gens, rank):
                zero = tuple([0] * rank)
                seen, stack = {zero}, [zero]
                while stack:
                    x = stack.pop()
                    for g in gens:
                        y = tuple((a + b) % mod for a, b in zip(x, g))
                        if y not in seen:
                            seen.add(y)
                            stack.append(y)
                return seen

            assert span(snf.kernel_basis(), n) == kernel_set
            assert span(snf.image_basis(A), m) == image_set

    def test_degenerate_matrices(self):
        particular, _, kernel = solve([[0, 0], [0, 0]], [0, 0], 2, 3)
        assert particular == (0, 0)
        assert len(kernel) == 2
        with pytest.raises(NoSolutionAtPrecision):
            solve([[0]], [1], 2, 3)
        wide = smith_normal_form([[2, 4, 6]], 2, 4)
        assert wide.pivots == [1]


class TestSolvers:
    def test_trace_eq_solvable(self, q2_i):
        c = int_elem(q2_i.K, 2)
        x, delta = q2_i.solve_trace_eq(c.data)
        assert eq_at_precision(q2_i, q2_i.trace(unflatten(q2_i.L, x)), c)
        assert q2_i.trace_kernel_flat  # nontrivial trace kernel

    def test_trace_eq_obstruction(self, q2_i):
        # enumeration oracle first: the trace image modulo 4 misses 1
        image = set()
        for a, b in itertools.product(range(4), repeat=2):
            elem = unflatten(q2_i.L, (a, b))
            image.add(q2_i.trace(elem).data[0] % 4)
        assert 1 not in image
        with pytest.raises(NoSolutionAtPrecision):
            q2_i.solve_trace_eq(q2_i.K.from_int(1))

    def test_trace_kernel_contains_i(self, q2_i):
        kernel = q2_i.trace_kernel_flat
        i_elem = q2_i.pi_L - 1
        # i generates the kernel: some basis combination hits it mod 2^N
        spanned_first = set()
        for k in kernel:
            spanned_first.add(tuple(x % 4 for x in k))
        closure = {(0, 0)}
        changed = True
        while changed:
            changed = False
            for g in spanned_first:
                for x0 in list(closure):
                    y = ((x0[0] + g[0]) % 4, (x0[1] + g[1]) % 4)
                    if y not in closure:
                        closure.add(y)
                        changed = True
        i_flat = tuple(x % 4 for x in i_elem.data)
        assert i_flat in closure

    def test_sigma_minus_one_zero(self, q2_i):
        y, _ = q2_i.solve_sigma_minus_one(q2_i.L.zero_elem, q2_i.N_int)
        y = unflatten(q2_i.L, y)
        assert is_zero_at_precision(q2_i, q2_i.galois(y) - y)

    def test_sigma_minus_one_solvable(self, q2_i):
        i_elem = q2_i.pi_L - 1
        c = i_elem * 2
        y, delta = q2_i.solve_sigma_minus_one(c.data, q2_i.N_int)
        y = unflatten(q2_i.L, y)
        assert eq_at_precision(q2_i, q2_i.galois(y) - y, c)

    @pytest.mark.parametrize("name", SIX_TOWERS)
    def test_solutions_are_tuples_that_solve(self, all_towers, name):
        # right-hand sides in each image: tr(a) and sigma(a) - a
        tower = all_towers[name]
        L, rng = tower.L, random.Random(21)
        for _ in range(10):
            a = tower.random_L_elem(rng).data
            c = tower.trace_map(a)
            x, _ = tower.solve_trace_eq(c)
            assert isinstance(x, tuple) and L.reduce(x) == x
            assert tower.trace_map(x) == c
            d = L.sub(tower.galois_maps[1](a), a)
            for digits in (tower.N, tower.N_int):
                y, _ = tower.solve_sigma_minus_one(d, digits)
                assert isinstance(y, tuple) and L.reduce(y) == y
                residual = L.sub(L.sub(tower.galois_maps[1](y), y), d)
                assert not any(r % tower.p**digits for r in residual)

    def test_sigma_minus_one_obstruction(self, q2_i):
        # enumeration oracle: the image of (sigma - 1) modulo 4
        image = set()
        for a, b in itertools.product(range(4), repeat=2):
            elem = unflatten(q2_i.L, (a, b))
            diff = q2_i.galois(elem) - elem
            image.add(tuple(x % 4 for x in diff.data))
        i_flat = tuple(x % 4 for x in (q2_i.pi_L - 1).data)
        assert i_flat not in image
        with pytest.raises(NoSolutionAtPrecision):
            q2_i.solve_sigma_minus_one((q2_i.pi_L - 1).data, q2_i.N_int)


class TestCompiledSolves:
    """The tower's forms solve through their compiled ``SmithForm.solve``."""

    @pytest.mark.parametrize("name", EIGHT_TOWERS)
    def test_tower_forms_match_linsolve(self, eight_towers, name):
        tower = eight_towers[name]
        L, rng = tower.L, random.Random(33)
        forms = [(tower._trace_snf, tower.trace_map)]
        for digits in (tower.N, tower.N + 2, tower.N_int):
            forms.append((tower.sigma_minus_one_snf(digits), lambda a: L.sub(tower.galois_maps[1](a), a)))
        for snf, image in forms:
            for _ in range(6):
                inside = image(tower.random_L_raw(rng))
                moved = inside[:-1] + ((inside[-1] + tower.p) % snf.modulus,)
                uniform = tuple(rng.randrange(snf.modulus) for _ in range(len(snf.U)))
                for rhs in (inside, moved, uniform):
                    got = cohomlab._solve_outcome(snf.solve, rhs)
                    assert got == cohomlab._solve_outcome(linsolve, snf, rhs)

    def test_nothing_compiles_at_tower_build(self, q3, monkeypatch):
        def refuse(*args):
            raise AssertionError("compiled at tower build")

        monkeypatch.setattr(localfield.kernels, "compile_smith_solve", refuse)
        tower = localfield.tower_from_obj(q3.description)
        assert tower._trace_snf._solve is None and tower._trace_kernel_maps is None
        assert tower._smo_snf == {}
        monkeypatch.undo()
        tower.solve_trace_eq(tower.trace_map(tower.L.one_elem))
        solve = tower._trace_snf._solve
        assert solve is not None
        tower.solve_trace_eq(tower.K.zero_elem)
        assert tower._trace_snf._solve is solve

    def test_tower_solvers_refuse_a_right_hand_side_of_the_wrong_length(self, q2_i):
        with pytest.raises(ValueError, match=r"^right-hand side has 2 entries, the system 1 rows$"):
            q2_i.solve_trace_eq((0, 0))
        with pytest.raises(ValueError, match=r"^right-hand side has 1 entries, the system 2 rows$"):
            q2_i.solve_sigma_minus_one((0,), q2_i.N)

    @pytest.mark.parametrize("name", EIGHT_TOWERS)
    def test_a_wrong_sigma_minus_one_solve_is_caught(self, eight_towers, name, monkeypatch):
        tower = eight_towers[name]
        c = tower.L.sub(tower.galois_maps[1](tower.L.pi_elem), tower.L.pi_elem)
        for digits in (tower.N, tower.N_int):
            snf = tower.sigma_minus_one_snf(digits)
            tower.solve_sigma_minus_one(c, digits)
            monkeypatch.setattr(snf, "_solve", wrong_in_last(snf.solve))
            with pytest.raises(TraceNotRational, match="^solver postcondition failed$"):
                tower.solve_sigma_minus_one(c, digits)


# -- Galois and trace matrices against the substitution path ---------------

PROPERTY = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def draw_L(data, tower):
    rank, modulus = tower.L.flat_rank, tower.modulus
    coords = data.draw(st.lists(st.integers(0, modulus - 1), min_size=rank, max_size=rank))
    return tower.L.reduce(coords)


def substitution_trace_sum(tower, a):
    """sum_i sigma^i(a) in O_L, every conjugate by substitution."""
    acc = tower.L.zero_elem
    for conj in conjugates_by_substitution(tower, a):
        acc = tower.L.add(acc, conj)
    return acc


def conjugate_sum(tower):
    """sum_i ``galois_mats[i]``, reduced: the trace as the sum over the
    group, on O_L coordinates."""
    mod = tower.modulus
    return tuple(tuple(sum(col) % mod for col in zip(*rows)) for rows in zip(*tower.galois_mats))


def check_against_substitution(tower, a):
    conjugates = conjugates_by_substitution(tower, a)
    assert tower.conjugates_raw(a) == conjugates
    full = substitution_trace_sum(tower, a)
    assert tower.trace_map(a) == tower.L.coeff(full, 0)
    assert not any(full[tower.K.flat_rank :])


# the eight towers and the five over a ramified base
PINNED_TOWERS = [*EIGHT_TOWERS, *RAMIFIED_BASE_TOWERS]


@pytest.fixture(scope="session")
def pinned_towers(eight_towers, ramified_base_towers):
    return {**eight_towers, **ramified_base_towers}


@pytest.mark.parametrize("name", PINNED_TOWERS)
@PROPERTY
@given(data=st.data())
def test_matrices_match_substitution(pinned_towers, name, data):
    tower = pinned_towers[name]
    assert tower.pi_conjugates == pi_conjugates_by_substitution(tower)
    check_against_substitution(tower, draw_L(data, tower))


@pytest.mark.parametrize("name", SIX_TOWERS)
def test_derived_matrices_match_oracle_columns(all_towers, name):
    tower = all_towers[name]
    L, rank = tower.L, tower.L.flat_rank
    for m in range(rank):
        basis = tuple(int(r == m) for r in range(rank))
        trace_col = list(L.coeff(substitution_trace_sum(tower, basis), 0))
        smo_col = list(L.sub(conjugates_by_substitution(tower, basis)[1], basis))
        assert [row[m] for row in tower.trace_rows(tower.N_int)] == trace_col
        assert [row[m] for row in tower.sigma_minus_one_mat] == smo_col


def corrupted(table, r, m, modulus):
    rows = [list(row) for row in table]
    rows[r][m] = (rows[r][m] + 1) % modulus
    return tuple(tuple(row) for row in rows)


@pytest.mark.parametrize("name", ["q2_sqrt2", "q3", "quartic"])
def test_corrupted_matrix_entry_is_caught(all_towers, name, monkeypatch):
    # one entry off by one, in any sigma^i or in the trace, compiled as the
    # tower compiles its maps, must fail the comparison with the
    # substitution path on ordinary draws
    tower = all_towers[name]
    rank, modulus = tower.L.flat_rank, tower.modulus
    rows = tower.trace_rows(tower.N_int)
    rng = random.Random(3)
    draws = [tower.random_L_elem(rng).data for _ in range(10)]
    mutants = []
    for r, m in ((0, 0), (rank - 1, rank // 2)):
        for i in range(1, tower.p):
            maps = list(tower.galois_maps)
            maps[i] = compile_flat_linear(corrupted(tower.galois_mats[i], r, m, modulus), modulus)
            mutants.append(("galois_maps", tuple(maps)))
        bad_trace = corrupted(rows, r % len(rows), m, modulus)
        mutants.append(("trace_map", compile_flat_linear(bad_trace, modulus)))
    for attr, bad in mutants:
        with monkeypatch.context() as patch:
            patch.setattr(tower, attr, bad)
            with pytest.raises(AssertionError):
                for a in draws:
                    check_against_substitution(tower, a)


@pytest.mark.parametrize("name", ["nested", "quartic"])
@PROPERTY
@given(data=st.data())
def test_coeff_slices_roundtrip(all_towers, name, data):
    tower = all_towers[name]
    L, modulus = tower.L, tower.modulus
    digit = st.integers(0, modulus - 1)
    a = tuple(data.draw(digit) for _ in range(L.flat_rank))
    # the O_K coefficients of the powers of pi_L reassemble the element
    coeffs = [unflatten(tower.K, L.coeff(a, j)) for j in range(tower.p)]
    assert all(len(c.data) == tower.e_K for c in coeffs)
    assert unflatten(L, sum((c.data for c in coeffs), ())).data == a
    # unflatten reduces to the working precision
    shifted = [c + modulus * data.draw(st.integers(-3, 3)) for c in a]
    assert unflatten(tower.L, shifted).data == a


# -- sigma by Newton's method ---------------------------------------------------

def mat_mul(a, b, modulus):
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % modulus for col in zip(*b)) for row in a
    )


def reduced_set(points, modulus):
    return {tuple(c % modulus for c in x) for x in points}


def exactness_failures(tower) -> list:
    """The exactness checks on sigma and the trace, modulo p^N_int, that a
    root of E_L exact only to its last digits fails: the names of those
    that fail."""
    L, G, mod = tower.L, tower.galois_mats[1], tower.modulus
    rank = L.flat_rank
    failures = []
    power = G
    for _ in range(tower.p - 1):
        power = mat_mul(power, G, mod)
    if power != tuple(tuple(int(r == m) for m in range(rank)) for r in range(rank)):
        failures.append("sigma^p")
    columns = list(zip(*G))
    if any(
        tower.galois_maps[1](L.struct[a][b]) != L.mul(columns[a], columns[b])
        for a in range(rank)
        for b in range(rank)
    ):
        failures.append("multiplicative")
    # the rows from Newton's identities, with no sigma, above zero rows
    rows = tower.trace_rows(tower.N_int)
    if conjugate_sum(tower) != rows + ((0,) * rank,) * (rank - len(rows)):
        failures.append("trace")
    return failures


@pytest.mark.parametrize("name", PINNED_TOWERS)
def test_sigma_and_trace_are_exact(pinned_towers, name):
    # sigma^p = 1 failed at p^N_int on q2_sqrt2, q3, septic and quintic
    # with the digit-searched root, and the trace on q2_i and quintic
    assert exactness_failures(pinned_towers[name]) == []


def matrix_digest(mat) -> str:
    return hashlib.sha256(json.dumps(mat, separators=(",", ":")).encode()).hexdigest()


# sha256 of galois_mats and of trace_rows(N_int), as compact JSON: both
# sources of the field maps, byte for byte those of the substitution path
MATRIX_DIGESTS = {
    "q2_i": ("9588105751eac780b2388c7dbaa9bfa84f863e1aa3c9b92283436120938cd60a",
             "4fed734ca99dd1dacc399c5b317f13ba28c8f8f66b7c07ecc3a6b61ef90bd16e"),
    "q2_sqrt2": ("a93c1f70430c16e6a6ec8f84d896e39ec7fdca1f48d60e9bcb56ac82c785a811",
                 "75273ac17054d9569884ac48ff9b17db6fa1c1d2d11d07fbe72cbe7bbf6df493"),
    # x^2 + 2 and x^2 - 2 have the same sigma(pi_L) = -pi_L and trace
    "q2_sqrt_minus2": ("a93c1f70430c16e6a6ec8f84d896e39ec7fdca1f48d60e9bcb56ac82c785a811",
                       "75273ac17054d9569884ac48ff9b17db6fa1c1d2d11d07fbe72cbe7bbf6df493"),
    "q3": ("88641cf6e0c00c483a738d76a46184d1e00e0b14a8be065ae591f7efc4dd06d7",
           "0a0ddda2dc707c02d69afa558b3f98f0e40c57c10554c27724e964295460cddb"),
    "nested": ("77538eae98ab154688a13e6d74661f12b5e921fb562ac06de3dba74f97c7b294",
               "a963ceb60f35c28658714fbff99d2e260cd5c37ad9cad4cb217db426ae3ebf33"),
    "quartic": ("57d75b6b8fb6d7ad6dda5ac458ef8603d12e8c5ca95a5f0caa09d522b2135e6e",
                "f54744c121348ddc2ea8e3aeda2d73c84d27900040be94b6560b56cfa9924734"),
    "septic": ("d2c74db13d48b4a66ce332fd456e75b32377f73292fe0a5437a378ccb5f876fa",
               "0e8532945dedaceaa7c89b1e33a0fbb34a03d611b908ecb90381e148c855223d"),
    "quintic": ("260cbee637c997eed11efb3020914d338ee3198a95e180171f08454253bfdba9",
                "9ef6cd57264d707513615619fc7acc1ac850aeb9c6a1ecbe767ffb0b9691a8f3"),
    "q3z3_kummer": ("0fded070c80aab3c10c795efe99ba7c34f184175326e991bfb8a65367b17b792",
                    "de0a8d53666611dce1efe695a5484bea03be04034e9fbf06266118f1dbc918ec"),
    "q3z9_over_z3": ("89c745036cdd1a33208efd4419f458a135546863fe1a2594bf977454c4e31cee",
                     "34b2abde719cbc6fea8f844935f89fd64dc24d8799c65ce4f6a194e7685e15ba"),
    "q2z8_over_i": ("789723ed00de41d081b3c29c7f8f1cf1c0e280c5045fa4a7d91ee169c7a7d751",
                    "206742d7af0890e0f0047e4e9d231c1ec044ddbe241cde9d0879f51dc9267955"),
    "q2z16_over_z8": ("5c5ee57da707f64bb09d940fe6340101bc651845820cb122d6cfbc245cfd9da8",
                      "b73644dd49b475401c22c5ddbb5a7fccbbbfa3c1698128f101ea7a7b2136d368"),
    "q5z5_kummer": ("4cf7c20ae8c2fba466a9c8436d3c1d158c836f0e3190652a2b2a65a87adc4839",
                    "a59516a31c512bc87ba0e6fdc8696a732275256202ebde9c2407a54bfb61c6c4"),
}


@pytest.mark.parametrize("name", PINNED_TOWERS)
def test_matrices_are_pinned(pinned_towers, name):
    tower = pinned_towers[name]
    got = (matrix_digest(tower.galois_mats), matrix_digest(tower.trace_rows(tower.N_int)))
    assert got == MATRIX_DIGESTS[name]


@pytest.mark.parametrize("name, solves", [("q2_sqrt_minus2", 1), ("q5z5_kummer", 1), ("q2_i", 6)])
def test_newton_stops_at_its_first_zero_step(pinned_towers, name, solves, monkeypatch):
    """A zero Newton step means E_L(x) = 0 in the lifted ring, so the build
    solves no step after it: one solve where the start pi_L + pi_L^(s+1)
    is already the root, six of the cap of eight on q2_i.  The root is
    the one the fixture holds."""
    solved = []
    solve = localfield.linsolve
    monkeypatch.setattr(localfield, "linsolve", lambda *args: solved.append(1) or solve(*args))
    tower = localfield.tower_from_obj(pinned_towers[name].description)
    assert len(solved) == solves
    assert tower.sigma_root == pinned_towers[name].sigma_root


def test_builds_and_verifiers_construct_no_element(pinned_towers, monkeypatch):
    """Building a tower and running the seven verifiers construct no
    OElem: the rings work on coordinate tuples, and OElem is left to the
    element facade (pi_L, embed_K, galois, trace, random_L_elem).  The
    fixtures were built before the patch, so each tower is rebuilt
    under it from its description."""

    def refuse(*args):
        raise AssertionError("an OElem was constructed")

    monkeypatch.setattr(localfield.OElem, "__init__", refuse)
    rebuilt = {
        name: localfield.tower_from_obj(tower.description) for name, tower in pinned_towers.items()
    }
    for name in ("q2_i", "quartic"):
        for lemma, verify in cohomlab.VERIFIERS.items():
            report = verify(rebuilt[name], samples=3, seed=0)
            assert report.status == "PASS", (name, lemma, report.failures[:2])


@pytest.mark.parametrize("name", EIGHT_TOWERS)
def test_trace_rationality_check(eight_towers, name, monkeypatch):
    """The trace is checked once, at build: the trace from E_L's power
    sums with its first or its last entry off by one is refused."""
    description = eight_towers[name].description
    msg = "the sum of sigma^i is not the trace from E_L's power sums"
    for entry in ((0, 0), (-1, -1)):
        with monkeypatch.context() as patch:
            trace_rows_off_by_one(patch, *entry)
            with pytest.raises(TraceNotRational, match=f"^{re.escape(msg)}$"):
                localfield.tower_from_obj(description)


@pytest.mark.parametrize("name", EIGHT_TOWERS)
def test_sigma_power_builds_with_the_same_trace(eight_towers, name):
    # sum_i sigma^(k*i) = sum_i sigma^i for k prime to p, so the build
    # check passes; at p = 2 the only generator is sigma, reached as sigma^3
    tower = eight_towers[name]
    other = tower_with_sigma_power(tower, tower.p - 1 if tower.p > 2 else 3)
    assert other.trace_rows(other.N_int) == tower.trace_rows(tower.N_int)
    assert other._trace_snf.pivots == tower._trace_snf.pivots
    assert conjugate_sum(other) == conjugate_sum(tower)


class DigitSearchRoot(localfield.ExtensionTower):
    """The digit-search root with the package's build check."""

    _sigma_root = DigitSearchTower._sigma_root


def test_digit_search_root_is_refused(eight_towers):
    # that root is exact only to N_int - 2 digits, so the sum of sigma^i
    # misses the trace from E_L's power sums modulo p^N_int; on x^2 + 2
    # the search finds -pi_L, the exact root
    refused = []
    for name, tower in eight_towers.items():
        try:
            DigitSearchRoot(
                list(tower.K.ecoeffs), [list(c) for c in tower.L.ecoeffs], tower.description
            )
        except TraceNotRational:
            refused.append(name)
    assert refused == [n for n in EIGHT_TOWERS if n != "q2_sqrt_minus2"]


@pytest.mark.parametrize("name", EIGHT_TOWERS)
@pytest.mark.parametrize("extra", [8, 20])
def test_trace_rows_past_the_working_digits(eight_towers, name, extra):
    """At N_int + 8 and N_int + 20 digits the rows reduce to those at
    N_int, and they give tr(1) = p: no sigma is needed past N_int."""
    tower = eight_towers[name]
    rows = tower.trace_rows(tower.N_int + extra)
    assert all(0 <= c < tower.modulus * tower.p**extra for row in rows for c in row)
    reduced = tuple(tuple(c % tower.modulus for c in row) for row in rows)
    assert reduced == tower.trace_rows(tower.N_int)
    assert tuple(row[0] for row in rows) == (tower.p,) + (0,) * (tower.K.flat_rank - 1)


@pytest.mark.parametrize("name", EIGHT_TOWERS)
def test_tower_rebuilt_from_its_rings_is_the_same(eight_towers, name):
    # the rings keep the integer Eisenstein coefficients they were built
    # from; reduced modulo p^N_int, the rebuilt rings' lifts carried another
    # E_L, and Newton's sigma on q3 moved in its last digit
    tower = eight_towers[name]
    rebuilt = localfield.ExtensionTower(
        list(tower.K.ecoeffs), [list(c) for c in tower.L.ecoeffs], tower.description
    )
    assert rebuilt.galois_mats == tower.galois_mats
    assert rebuilt.trace_rows(rebuilt.N_int) == tower.trace_rows(tower.N_int)


@pytest.mark.parametrize("name", EIGHT_TOWERS)
def test_roots_match_digit_search(eight_towers, name):
    tower = eight_towers[name]
    oracle = tower_by_digit_search(tower)
    mod = tower.p ** (tower.N_int - 2)
    assert reduced_set(tower.pi_conjugates, mod) == reduced_set(oracle.pi_conjugates, mod)
    assert len(reduced_set(tower.pi_conjugates, mod)) == tower.p
    assert (tower.dv, tower.s) == (oracle.dv, oracle.s)


@pytest.mark.parametrize("name", EIGHT_TOWERS)
def test_sigma_powers_have_leading_digit_i(eight_towers, name):
    # sigma^i(pi_L) = pi_L + i*pi_L^(s+1) modulo pi_L^(s+2): the generator
    # is the root with leading digit 1
    tower = eight_towers[name]
    L, s = tower.L, tower.s
    lead = L.pow(L.pi_elem, s + 1)
    for i, conj in enumerate(tower.pi_conjugates):
        v = L.val_raw(L.sub(L.sub(conj, L.pi_elem), L.scale_int(lead, i)))
        assert v is None or v >= s + 2, (name, i)


def small_eisenstein() -> list:
    """(p, the non-leading coefficients of E_L over Q_p) for 108 small
    Eisenstein polynomials at p = 2, 3 and 5: every quadratic is Galois,
    and most cubics and quintics are not."""
    polys = [(2, [a0, a1]) for a1 in (0, 2, -2, 4) for a0 in (2, -2, 6, 10, -6)]
    polys += [
        (3, [a0, a1, a2])
        for a1, a2 in itertools.product((0, 3, -3, 6), repeat=2)
        for a0 in (3, -3, 6)
    ]
    polys += [
        (5, [a0, a1, 0, a3, a4])
        for a0, a1, a3, a4 in itertools.product((5, -5), (0, 5, -5), (0, 5), (0, 5, -5))
    ]
    # the quintic tower's E_L(x + c): the same field, other coefficients
    quintic = description("quintic")["E_L"]
    for c in (0, 5, -5, 10):
        polys.append((5, [
            sum(a * math.comb(j, i) * c ** (j - i) for j, a in enumerate(quintic) if j >= i)
            for i in range(5)
        ]))
    return polys


def test_decisions_match_digit_search():
    # both build or both refuse with NotNormal; where both build, the same
    # break and the same group {sigma^i} to N_int - 2 digits
    counts = collections.Counter()
    for p, e_l in small_eisenstein():
        built = []
        for cls in (localfield.ExtensionTower, DigitSearchTower):
            try:
                built.append(cls([-p], e_l, {"p": p, "N": 6}))
            except NotNormal as exc:
                built.append(exc)
        newton, search = built
        assert isinstance(newton, NotNormal) == isinstance(search, NotNormal), (p, e_l)
        if isinstance(newton, NotNormal):
            counts["refused past the dv checks" if "Newton" in str(newton) else "refused"] += 1
            continue
        mod = p ** (newton.N_int - 2)
        assert newton.s == search.s, (p, e_l)
        assert reduced_set(newton.pi_conjugates, mod) == reduced_set(search.pi_conjugates, mod)
        same = reduced_set([newton.sigma_root], mod) == reduced_set([search.sigma_root], mod)
        counts["built" if same else "built, another generator"] += 1
    assert counts == {
        "built": 23,
        "built, another generator": 7,
        "refused": 71,
        "refused past the dv checks": 7,
    }


# not q2_sqrt_minus2: on x^2 + 2 the start pi_L + pi_L^3 = -pi_L is the root
@pytest.mark.parametrize("name", [n for n in EIGHT_TOWERS if n != "q2_sqrt_minus2"])
def test_wrong_derivative_in_newton_fails(eight_towers, name, monkeypatch):
    # E_L' with its constant coefficient off by one in Newton's steps (the
    # lifted ring; the derivative valuation at pi_L is read in the working
    # ring and stays right): the steps no longer converge, and either the
    # build refuses, by its order checks or by its comparison of the sum of
    # sigma^i with the trace, or the exactness checks fail
    tower = eight_towers[name]
    true_deriv = localfield._eval_deriv

    def off_by_one(R, x):
        d = true_deriv(R, x)
        return R.add(d, R.one_elem) if R.digits > tower.N_int else d

    monkeypatch.setattr(localfield, "_eval_deriv", off_by_one)
    try:
        mutant = localfield.tower_from_obj(tower.description)
    except (NotNormal, TraceNotRational):
        return
    assert exactness_failures(mutant)


def test_newton_division_without_solution_is_not_normal(monkeypatch):
    def unsolvable(snf, rhs):
        raise NoSolutionAtPrecision(1)

    monkeypatch.setattr(localfield, "linsolve", unsolvable)
    with pytest.raises(NotNormal, match="Newton step"):
        load("q3")


# -- the flat ring ------------------------------------------------------------

# sha256 of the JSON of the structure rows of O_K and O_L: at N_int, and
# lifted by one and by three base digits (``flat_lift``)
RANK_ONE = "ae973b0501aa804743d67badc7de3645e565b60a1aa115316bb493a205c13843"
SQRT2 = "493dcdd24ba4fa7825c666cd5031752a8c8a0325ba139c82b859b1e7d44be4be"
STRUCTURE_ROWS_SHA256 = {
    "q2_i": {
        "K": (RANK_ONE,) * 3,
        "L": (
            "435ab88f994baa18972d2b18dc29ed4402eec4d8181268d29ae59015ad163b94",
            "85ee12b84942186216fb30b53ab8c943ae7f424177629bd3497cef3e5ebe8932",
            "55f87972d0fcbcda88627fb43291b582b724b03d4cacb92ea7c0a081f73ccc06",
        ),
    },
    "q2_sqrt2": {"K": (RANK_ONE,) * 3, "L": (SQRT2,) * 3},
    "q2_sqrt_minus2": {
        "K": (RANK_ONE,) * 3,
        "L": (
            "a9703988d127f7389eb29a3d103285db0c0763ec9a6be8f88b6eeb52d53a2714",
            "d83bfe076e01b2f5b6483a42825e6a73054a43d957422d6405eef4b2d651771f",
            "68c1c1b445f9b3a1dcc84dffdb013e29bc32e4a0bac186f9b6a42147751cdca5",
        ),
    },
    "q3": {
        "K": (RANK_ONE,) * 3,
        "L": (
            "397551694372a8192b67500e7b2f3b754a6ccdbf1e3418500ce5afe3bd05a0e4",
            "c53e54ee312d0f5d05488a59e50182703460878ddb2725cce6e9199e294b4d86",
            "1144c2f84d30cbebf6522a94af7281ca74364d07c22d3e1eceb657ba195a6328",
        ),
    },
    "nested": {
        "K": (SQRT2,) * 3,
        "L": (
            "c923351219167ac89a2709e89ef46632f9042b279487f6dd0fc32ca98dd10a91",
            "ecc048c0f1ff200d86fd6b5a754684de5a2fa2a397d1672a9c820764277f928a",
            "e776b6865681216b7b1f5fdd7c16b4f6b2cb4090e84546953c1e8664b2fa3d28",
        ),
    },
    "quartic": {
        "K": (SQRT2,) * 3,
        "L": ("65eb474296eb76f1bc54e60bde0a1b28d2c7cd36cb678126fc68413b4b30e6df",) * 3,
    },
}


def rows_sha256(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


class TestFlatRing:
    @pytest.mark.parametrize("name", SIX_TOWERS)
    def test_structure_rows_pinned(self, all_towers, name):
        tower = all_towers[name]
        for key, ring in (("K", tower.K), ("L", tower.L)):
            got = (
                rows_sha256(ring.struct),
                rows_sha256(ring.flat_lift(1).struct),
                rows_sha256(ring.flat_lift(3).struct),
            )
            assert got == STRUCTURE_ROWS_SHA256[name][key], key

    @pytest.mark.parametrize("name", SIX_TOWERS)
    def test_basis_valuations(self, all_towers, name):
        tower = all_towers[name]
        p, e = tower.p, tower.e_K
        for j in range(p):
            for i in range(e):
                elem = tower.embed_K(pi_K(tower) ** i) * tower.pi_L**j
                r = j * e + i
                assert elem.data == tuple(int(m == r) for m in range(p * e))
                assert tower.vL(elem) == i * p + j
                assert tower.L.weights[r] == i * p + j
            assert tower.vK(pi_K(tower) ** j) == j

    @pytest.mark.parametrize("name", SIX_TOWERS)
    def test_pow_matches_repeated_products(self, all_towers, name):
        # square and multiply from the base itself, with no leading product
        # by one: k = 0 gives one, k = 1 the base, and every k the k-1 products
        tower, rng = all_towers[name], random.Random(9)
        for ring in (tower.K, tower.L):
            a = tuple(rng.randrange(ring.modulus) for _ in range(ring.flat_rank))
            want = ring.one_elem
            for k in range(2 * tower.p + 2):
                assert ring.pow(a, k) == want, k
                want = ring.mul(want, a)

    def test_coefficients_are_slices(self, nested):
        rng = random.Random(5)
        for _ in range(20):
            a = nested.random_L_elem(rng)
            coeffs = [unflatten(nested.K, nested.L.coeff(a.data, j)) for j in range(2)]
            rebuilt = nested.embed_K(coeffs[0]) + nested.embed_K(coeffs[1]) * nested.pi_L
            assert rebuilt == a

    def test_long_e_l_coefficient_is_rejected(self):
        with pytest.raises(NotEisenstein):
            build_tower(2, "auto", [[0, 1, 0], [0, 1], [1]], e_k_coeffs=[-2, 0, 1])

    @pytest.mark.parametrize("name", SIX_TOWERS)
    def test_one_ring_object_per_level(self, all_towers, name):
        """Elements, Witt vectors and the Witt trace point to tower.K and
        tower.L themselves, a Witt vector's components being flat
        coordinate tuples of its ring; LR is a second name for L."""
        tower = all_towers[name]
        sample = cohomlab.sample_trace_zero(tower, 2, random.Random(3))
        assert sample.vec.ring is tower.L
        assert all(tower.L.reduce(c) == c for c in sample.vec.components)
        trace = cohomlab.witt_trace(tower, sample.vec)
        assert trace.ring is tower.K
        assert all(type(c) is tuple and len(c) == tower.K.flat_rank for c in trace.components)
        assert tower.LR is tower.L
        for ring in (tower.K, tower.L):
            assert ring.from_int(1) == ring.one_elem and type(ring.one_elem) is tuple
            assert ring.from_int(-1) == ring.reduce((-1,) + ring.zero_elem[1:])

    @pytest.mark.parametrize("name", SIX_TOWERS)
    def test_flat_lift_is_built_once_per_digit_count(self, all_towers, name):
        tower = all_towers[name]
        for ring in (tower.K, tower.L):
            lifted = ring.flat_lift(2)
            assert ring.flat_lift(2) is lifted
            assert lifted.digits == ring.digits + 2 and lifted.name == ring.name
            # a lifted ring lifts again from the unreduced coefficients
            assert lifted.flat_lift(1).struct == ring.flat_lift(3).struct

    def test_both_rings_share_one_build_per_digit_count(self, monkeypatch):
        """O_K, O_L and every lift share one pair per digit count: lifting
        both rings builds the pair once, a lift of a lift is the same
        ring, and the trace rows at the working digits build nothing."""
        tower = load("q3")
        built = []
        build = localfield.build_rings
        monkeypatch.setattr(
            localfield, "build_rings", lambda *args: built.append(args[3]) or build(*args)
        )
        tower.trace_rows(tower.N_int)
        for ring in (tower.K, tower.L):
            assert ring.flat_lift(0) is ring
        assert built == []
        # past the lift that sigma's Newton steps ran in
        K, L = tower.K.flat_lift(9), tower.L.flat_lift(9)
        assert built == [tower.N_int + 9]
        assert (K.name, L.name) == ("O_K", "O_L") and K.digits == L.digits == tower.N_int + 9
        for ring in (tower.K, tower.L):
            lifted = ring.flat_lift(8)
            assert lifted.flat_lift(1) is ring.flat_lift(9)
            assert lifted.flat_lift(0) is lifted
        assert built == [tower.N_int + 9, tower.N_int + 8]

    def test_build_computes_one_smith_form(self, monkeypatch):
        """The tower's own matrices get one Smith form at build time, the
        trace's at N_int; sigma - 1 gets one per digit count, on first use.
        The Newton divisions that lift sigma(pi_L) run in the lifted ring,
        at more digits than N_int, which is how they are told apart: one
        per step of one lift, at p = 3 as at p = 2, up to the first zero
        step, the sixth here, within the cap of eight steps."""
        calls = []
        original = localfield.smith_normal_form

        def counted(matrix, p, digits):
            calls.append((digits, matrix))
            return original(matrix, p, digits)

        monkeypatch.setattr(localfield, "smith_normal_form", counted)
        for name in ("q2_sqrt2", "q3"):
            calls.clear()
            tower = load(name)
            R = tower.L.flat_lift(-(-tower.dv // tower.e_L) + 1)
            assert R.digits > tower.N_int
            cap = (R.digits * R.flat_rank).bit_length() + 1
            assert sum(digits == R.digits for digits, _ in calls) == 6 < cap == 8
            rows = tower.trace_rows(tower.N_int)
            assert [c for c in calls if c[0] != R.digits] == [(tower.N_int, rows)]
            calls.clear()
            for digits in (tower.N, tower.N + 2, tower.N_int):
                snf = tower.sigma_minus_one_snf(digits)
                assert tower.sigma_minus_one_snf(digits) is snf
            assert [digits for digits, _ in calls] == [tower.N, tower.N + 2, tower.N_int]


# -- zero at precision ----------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7]),
    vmax=st.integers(1, 40),
    unit=st.integers(-(10**6), 10**6),
    shift=st.integers(0, 60),
)
def test_vp_int_matches_repeated_division(p, vmax, unit, shift):
    # negative inputs, and multiples of p^k far past p^vmax (unreduced)
    x = unit * p**shift
    assert _vp_int(x, p, vmax) == vp_int_by_division(x, p, vmax)


def scaled_coords(draw_int, tower, ring):
    """Flat coordinates of ``ring``, each drawn at random and scaled by one
    of 1, p^(N-1), p^N (the cap), p^(digits-1) (the ring's last digit) and
    p^digits, reduced modulo p^digits."""
    p, N, digits = tower.p, tower.N, ring.digits
    scales = (1, p ** (N - 1), p**N, p ** (digits - 1), p**digits)
    return tuple(
        (draw_int(0, ring.modulus - 1) * scales[draw_int(0, len(scales) - 1)]) % ring.modulus
        for _ in range(ring.flat_rank)
    )


def check_zero_tests(tower, draw_int):
    """``is_zero_at_precision``, and ``_zero_raw`` on the pi_L coefficients
    beyond degree 0 (the "in O_K" test of the verifiers), against their
    valuation definitions, on an O_L and an O_K element."""
    a = unflatten(tower.L, scaled_coords(draw_int, tower, tower.L))
    b = unflatten(tower.K, scaled_coords(draw_int, tower, tower.K))
    assert is_zero_at_precision(tower, a) == (tower.vL(a) is None)
    assert is_zero_at_precision(tower, b) == (tower.vK(b) is None)
    in_K = all(
        tower.vK(unflatten(tower.K, tower.L.coeff(a.data, j))) is None
        for j in range(1, tower.p)
    )
    assert tower._zero_raw(a.data[tower.K.flat_rank :]) == in_K


@pytest.mark.parametrize("name", SIX_TOWERS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_zero_at_precision_matches_valuation(all_towers, name, data):
    check_zero_tests(all_towers[name], lambda lo, hi: data.draw(st.integers(lo, hi)))


@pytest.mark.parametrize("name", SIX_TOWERS)
def test_zero_test_one_digit_short_fails(all_towers, name, monkeypatch):
    """Mutant: coordinates are tested modulo p^(N-1)."""
    tower = all_towers[name]
    monkeypatch.setattr(tower, "prec_modulus", tower.p ** (tower.N - 1))
    rng = random.Random(0)
    with pytest.raises(AssertionError):
        for _ in range(200):
            check_zero_tests(tower, rng.randint)


# -- one gcd and getrandbits against the per-coordinate loops ---------------


def edge_elements(tower, ring):
    """Coordinate tuples of ``ring`` at the edges a one-gcd test must
    decide: zero, and one or two coordinates a unit times 1, p^(N-1), p^N
    (at the cap) or p^(digits-1) (the ring's last digit), the rest zero.
    Two coordinates of one valuation are told apart by their weights."""
    p, rank = tower.p, ring.flat_rank
    supports = [*itertools.combinations(range(rank), 1), *itertools.combinations(range(rank), 2)]
    yield ring.zero_elem
    for k in (0, tower.N - 1, tower.N, ring.digits - 1):
        for support in supports:
            for unit in (1, p + 1, -1):
                yield ring.reduce(tuple(unit * p**k * (m in support) for m in range(rank)))


# the digits the rings are lifted by: the working rings and flat_lift(1..3)
LIFTS = range(4)


def check_one_gcd_primitives(tower, a_L, a_K, extra=0):
    """``val_raw`` on O_L and O_K lifted by ``extra`` digits, and on the
    working rings ``_zero_raw`` on both and ``_fixed_raw`` on O_L and on an
    element of O_K plus ``a_L`` times p^N, against their per-coordinate
    oracles."""
    L, K = tower.L.flat_lift(extra), tower.K.flat_lift(extra)
    for ring, a in ((L, a_L), (K, a_K)):
        assert ring.val_raw(a) == val_by_coordinates(ring, a), (ring.name, ring.digits, a)
        if not extra:
            assert tower._zero_raw(a) == zero_by_coordinates(tower, a), (ring.name, a)
    if not extra:
        near_K = L.add(L.embed(a_K), L.scale_int(a_L, tower.prec_modulus))
        for a in (a_L, near_K):
            assert tower._fixed_raw(a) == fixed_by_substitution(tower, a), a


def check_one_gcd_edges(tower):
    for extra in LIFTS:
        L, K = tower.L.flat_lift(extra), tower.K.flat_lift(extra)
        # O_K has no more coordinates than O_L, so its edges are cycled
        K_edges = itertools.cycle(edge_elements(tower, K))
        for a_L, a_K in zip(edge_elements(tower, L), K_edges):
            check_one_gcd_primitives(tower, a_L, a_K, extra)


def check_one_gcd_draws(tower, draw_int):
    for extra in LIFTS:
        L, K = tower.L.flat_lift(extra), tower.K.flat_lift(extra)
        a_L, a_K = scaled_coords(draw_int, tower, L), scaled_coords(draw_int, tower, K)
        check_one_gcd_primitives(tower, a_L, a_K, extra)


@pytest.mark.parametrize("name", SIX_TOWERS)
def test_one_gcd_primitives_at_the_edges(all_towers, name):
    check_one_gcd_edges(all_towers[name])


@pytest.mark.parametrize("name", SIX_TOWERS)
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_one_gcd_primitives_match_coordinate_loops(all_towers, name, data):
    check_one_gcd_draws(all_towers[name], lambda lo, hi: data.draw(st.integers(lo, hi)))


def test_lifts_compile_their_valuation_on_first_call(q3, monkeypatch):
    # every ring compiles its product when built and its valuation on first
    # call: the working rings' during the build (the O_L Eisenstein check and
    # sigma's Newton step read them), a lift's when it is first read
    compile_ring, compile_val = kernels.compile_flat_ring, kernels.compile_flat_val
    products, valued = [], []

    def counting_ring(struct, p, digits):
        products.append(digits)
        return compile_ring(struct, p, digits)

    def counting_val(p, digits, by_weight):
        valued.append(digits)
        return compile_val(p, digits, by_weight)

    monkeypatch.setattr(kernels, "compile_flat_ring", counting_ring)
    monkeypatch.setattr(kernels, "compile_flat_val", counting_val)
    tower = localfield.tower_from_obj(q3.description)
    assert valued == [tower.N_int] * 2
    for ring in (tower.K, tower.L):
        for extra in LIFTS[1:]:
            lift, before = ring.flat_lift(extra), len(valued)
            a = lift.scale_int(lift.pi_elem, tower.p)
            for _ in range(2):
                assert lift.val_raw(a) == val_by_coordinates(lift, a) == lift.flat_rank + 1
            assert valued[before:] == [lift.digits], (ring.name, extra)
    built = sorted(digits for digits, pair in tower.K._lifts.items() for _ in pair)
    assert sorted(products) == built


def draw_moduli(all_towers):
    return [1, 2, 5, 2**30 + 7] + sorted({t.modulus for t in all_towers.values()})


def check_draws_replay_randrange(modulus, seed):
    """``_uniform`` leaves the values and the generator state of as many
    ``randrange`` calls, in both of its forms, for many draws and for one."""
    want, got = random.Random(seed), random.Random(seed)
    expected = [want.randrange(modulus) for _ in range(7)] + [want.randrange(0, modulus)]
    drawn = localfield._uniform(got, modulus, 7) + localfield._uniform(got, modulus, 1)
    assert drawn == expected, modulus
    assert got.getstate() == want.getstate(), modulus


@pytest.mark.parametrize("seed", range(4))
def test_draws_replay_randrange(all_towers, seed):
    for modulus in draw_moduli(all_towers):
        check_draws_replay_randrange(modulus, seed)
    # a count of zero draws nothing
    rng = random.Random(seed)
    state = rng.getstate()
    assert localfield._uniform(rng, 5, 0) == [] and rng.getstate() == state


def check_tower_draws_replay(tower, patch):
    """The tower's compiled field checks (``field_checks``) draw as the
    per-coordinate randrange loops do, values and generator state: vktr
    and vksub an O_L element times a power of pi_L, with the shift range
    of the tower's own cap, of a cap of 150 and of a cap of 2, where it is
    1 and v_L often reaches the cap, and the v_L of that product (vktr
    also the v_K of its trace);
    fixed three O_K elements, an index below 3 and a unit.  So do
    ``random_L_raw`` and ``random_L_elem``."""
    vktr, vksub, fixed = tower.field_checks

    def run(check, rng, *args):
        try:
            return check(rng.getrandbits, *args)
        except IndexError:  # a shift drawn past its range has no power
            raise AssertionError("a shift past the table of pi_L powers") from None

    for val_cap in (tower.val_cap, 150, 2):
        pows = tower.pi_L_powers(max(1, val_cap // 3))
        patch.setattr(tower, "val_cap", val_cap)
        for seed in range(10):
            want = random.Random(seed)
            a = randrange_L_elem(tower, want, spread_valuation=True)
            va = vL_by_coordinates(tower, a)
            vk = val_by_coordinates(tower.K, tower.trace(a).data)
            # a cap_K far past every valuation skips no bound
            for check, args, expected in (
                (vktr, (val_cap, 10**6, tower.s), (va.value, vk)),
                (vksub, (val_cap, 10**6), (va.value,)),
            ):
                direct = random.Random(seed)
                drawn = run(check, direct, pows, *args)
                got = None if drawn is None else drawn[: len(expected)]
                assert got == (expected if va.finite else None), (val_cap, seed)
                assert direct.getstate() == want.getstate(), (val_cap, seed)
        for seed in range(10):
            want, direct, methods = (random.Random(seed) for _ in range(3))
            for _ in range(3):
                randrange_K_elem(tower, want)
            want.randrange(3)
            randrange_L_unit(tower, want)
            assert run(fixed, direct, 3) == 0, seed
            assert direct.getstate() == want.getstate(), seed
            want = random.Random(seed)
            expected = tuple(randrange_L_elem(tower, want).data for _ in range(2))
            drawn = (tower.random_L_raw(methods), tower.random_L_elem(methods).data)
            assert drawn == expected, seed
            assert methods.getstate() == want.getstate(), seed


def test_tower_draws_replay_randrange(eight_towers, monkeypatch):
    """On every tower, septic included, whose modulus 7^17 needs two 32-bit
    words per getrandbits call."""
    assert eight_towers["septic"].modulus.bit_length() > 32
    for name, tower in eight_towers.items():
        with monkeypatch.context() as patch:
            check_tower_draws_replay(tower, patch)


def below_bit_short(rng, n):
    # the "obvious" fix for power-of-two n: one bit fewer, another stream
    k = (n - 1).bit_length()
    r = rng.getrandbits(k)
    while r >= n:
        r = rng.getrandbits(k)
    return r


def uniform_bit_short(rng, modulus, count):
    return [below_bit_short(rng, modulus) for _ in range(count)]


class BelowBitShort:
    # one bit short only on a one-value draw (a shift, an index)
    def __init__(self, towers, patch):
        uniform = localfield._uniform

        def one_draw_bit_short(rng, modulus, count):
            if count == 1:
                return [below_bit_short(rng, modulus)]
            return uniform(rng, modulus, count)

        patch.setattr(localfield, "_uniform", one_draw_bit_short)


class UniformBitShort:
    def __init__(self, towers, patch):
        patch.setattr(localfield, "_uniform", uniform_bit_short)


class ValIndexOrder:
    # the valuation generated with the coordinates in index order, not by
    # weight: the same on O_K and on O_L over Q_p, where the two orders agree
    def __init__(self, towers, patch):
        for tower in towers.values():
            for extra in LIFTS:
                for ring in (tower.K.flat_lift(extra), tower.L.flat_lift(extra)):
                    by_index = tuple(enumerate(ring.weights))
                    val_raw = compile_flat_val(ring.p, ring.digits, by_index)
                    patch.setattr(ring, "val_raw", val_raw)


def uniform_lines_bit_short(names, modulus):
    # below_bit_short's draw in the generated source: (m - 1).bit_length() bits
    if isinstance(modulus, str):
        bits = f"({modulus} - 1).bit_length()"
    else:
        bits = (modulus - 1).bit_length()
    lines = []
    for x in names:
        draw = f"{x} = getrandbits({bits})"
        lines += [f"    {draw}", f"    while {x} >= {modulus}:", f"        {draw}"]
    return lines


class CompiledDraws:
    # the towers' field checks generated again from ``lines`` and compiled
    # on next use
    def __init__(self, towers, patch):
        patch.setattr(_kernels_py, "uniform_lines", self.lines)
        for tower in towers.values():
            patch.setattr(tower, "_field_checks", None)


class DrawAcceptsModulus(CompiledDraws):
    # rejects only a draw above the modulus: `>` where `>=` belongs
    @staticmethod
    def lines(names, modulus, uniform_lines=_kernels_py.uniform_lines):
        return [line.replace(" >= ", " > ") for line in uniform_lines(names, modulus)]


class DrawBitShort(CompiledDraws):
    lines = staticmethod(uniform_lines_bit_short)


class FieldValIndexOrder:
    # the field checks' v_L generated with the coordinates in index order:
    # wrong on O_L over a ramified K, where index and weight orders differ
    def __init__(self, towers, patch):
        for tower in towers.values():
            patch.setattr(tower.L, "by_weight", tuple(enumerate(tower.L.weights)))
            patch.setattr(tower, "_field_checks", None)


class ZeroOneDigitShort:
    def __init__(self, towers, patch):
        for tower in towers.values():
            m = tower.prec_modulus // tower.p
            patch.setattr(tower, "_zero_raw", lambda coords, m=m: math.gcd(m, *coords) == m)


@pytest.mark.parametrize(
    "mutant",
    [
        BelowBitShort,
        UniformBitShort,
        ValIndexOrder,
        FieldValIndexOrder,
        ZeroOneDigitShort,
        DrawAcceptsModulus,
        DrawBitShort,
    ],
)
def test_one_call_primitive_mutants_fail(all_towers, mutant, monkeypatch):
    moduli = draw_moduli(all_towers)
    rng = random.Random(0)
    with monkeypatch.context() as patch:
        mutant(all_towers, patch)
        with pytest.raises(AssertionError):
            for modulus in moduli:
                check_draws_replay_randrange(modulus, 0)
            for tower in all_towers.values():
                check_tower_draws_replay(tower, patch)
                check_one_gcd_edges(tower)
                for _ in range(50):
                    check_one_gcd_draws(tower, rng.randint)


# the tower's refusals of a request it cannot answer at precision, or of
# an element of the wrong level: (call on q2_i, error, message)
TOWER_REFUSALS = {
    "embed_K of an O_L element": (
        lambda t: t.embed_K(t.pi_L), ValueError, "embed_K expects an O_K element"
    ),
    "trace of an O_K element": (
        lambda t: t.trace(pi_K(t)), ValueError, "trace expects an O_L element"
    ),
    "vK of an O_L element": (lambda t: t.vK(t.pi_L), ValueError, "vK expects an O_K element"),
    "OElem levels differ": (
        lambda t: t.pi_L + pi_K(t), ValueError, "operands live at different tower levels"
    ),
    "OElem with a float": (
        lambda t: t.pi_L - 0.5, TypeError, "cannot combine OElem with float"
    ),
    "OElem negative power": (
        lambda t: t.pi_L ** -1, ValueError, "negative power of an integral element"
    ),
    "sigma - 1 below N": (
        lambda t: t.solve_sigma_minus_one(t.L.zero_elem, t.N - 1),
        PrecisionTooLow,
        "cannot solve below the advertised precision",
    ),
    "project pi_L": (
        lambda t: t.project_to_K_raw(t.L.pi_elem),
        TraceNotRational,
        "element does not lie in O_K at precision",
    ),
}


@pytest.mark.parametrize("case", sorted(TOWER_REFUSALS))
def test_tower_refusals(q2_i, case):
    call, error, message = TOWER_REFUSALS[case]
    with pytest.raises(error, match=message):
        call(q2_i)
