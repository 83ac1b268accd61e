import pytest

from wittlab import localfield
from wittlab.cli import TOWER_DIR

TOWER_FILES = {
    "q2_i": "q2_i.json",
    "q2_sqrt2": "q2_sqrt2.json",
    "q2_sqrt_minus2": "q2_sqrt_minus2.json",
    "q3": "q3_ramified.json",
}


@pytest.fixture(scope="session")
def towers():
    return {
        name: localfield.load_tower(str(TOWER_DIR / fname))
        for name, fname in TOWER_FILES.items()
    }


@pytest.fixture(scope="session")
def q2_i(towers):
    return towers["q2_i"]


@pytest.fixture(scope="session")
def q2_sqrt2(towers):
    return towers["q2_sqrt2"]


@pytest.fixture(scope="session")
def q2_sqrt_minus2(towers):
    return towers["q2_sqrt_minus2"]


@pytest.fixture(scope="session")
def q3(towers):
    return towers["q3"]


@pytest.fixture(scope="session")
def nested():
    """Nested tower with s <= e_K/(p-1), over K = Q2(sqrt(2))."""
    return localfield.build_tower(
        2,
        "auto",
        [[0, 1], [0, 1], [1]],  # x^2 + pi_K*x + pi_K over O_K
        e_k_coeffs=[-2, 0, 1],  # K = Q2(sqrt(2))
        witt_length_hint=3,
    )


@pytest.fixture(scope="session")
def quartic():
    """Nested quartic tower with the largest supported break, s = 4."""
    return localfield.build_tower(
        2,
        "auto",
        [[0, -1], [0, 0], [1]],  # x^2 - pi_K over O_K
        e_k_coeffs=[-2, 0, 1],
        witt_length_hint=4,
    )


@pytest.fixture(scope="session")
def all_towers(towers, nested, quartic):
    """The four builtin towers and the two nested ones, by name."""
    return {**towers, "nested": nested, "quartic": quartic}


@pytest.fixture(scope="session")
def septic():
    """CI's p = 7 tower: the degree-7 subfield of Q7(zeta_49), shifted to
    be Eisenstein."""
    return localfield.build_tower(
        7, "auto", ["-156256387", "74760231", "-15270458", "1725976",
                    "-116571", "4704", "-105", "1"]
    )


@pytest.fixture(scope="session")
def quintic():
    """The degree-5 subfield of Q5(zeta_25), pi = eta - 4 for the
    Gaussian period eta."""
    return localfield.build_tower(5, "auto", [505, 850, 525, 150, 20, 1])


@pytest.fixture(scope="session")
def eight_towers(all_towers, septic, quintic):
    """The six towers of ``all_towers``, CI's septic tower and the
    quintic one, by name."""
    return {**all_towers, "septic": septic, "quintic": quintic}


# ROADMAP item 25's towers (odd p over a ramified base, the largest
# break, a rank-8 2-power step) and the p = 5 Kummer step of item 27,
# K = Q5(zeta_5), L = K(pi_K^(1/5)), of rank 20
RAMIFIED_BASE_TOWERS = {
    "q3z3_kummer": {"p": 3, "N": "auto", "E_K": [3, 3, 1], "E_L": [[0, -1], [0], [0], [1]]},
    "q3z9_over_z3": {"p": 3, "N": "auto", "E_K": [3, 3, 1], "E_L": [[0, -1], [3], [3], [1]]},
    "q2z8_over_i": {"p": 2, "N": "auto", "E_K": [2, 2, 1], "E_L": [[0, -1], [2], [1]]},
    "q2z16_over_z8": {"p": 2, "N": "auto", "E_K": [2, 4, 6, 4, 1], "E_L": [[0, -1], [2], [1]]},
    "q5z5_kummer": {
        "p": 5, "N": "auto", "E_K": [5, 10, 10, 5, 1],
        "E_L": [[0, -1], [0], [0], [0], [0], [1]],
    },
}


@pytest.fixture(scope="session")
def ramified_base_towers():
    """Item 25's four towers and the rank-20 Kummer step, by name."""
    return {name: localfield.tower_from_obj(obj) for name, obj in RAMIFIED_BASE_TOWERS.items()}
