import json

import pytest

from wittlab import localfield
from wittlab.cli import TOWER_DIR

# the default suite's four towers, the fixture q3 being q3_ramified
FOUR_TOWERS = ("q2_i", "q2_sqrt2", "q2_sqrt_minus2", "q3")
# with the two nested towers over K = Q2(sqrt(2))
SIX_TOWERS = (*FOUR_TOWERS, "nested", "quartic")
# with the p = 7 tower and the p = 5 one
EIGHT_TOWERS = (*SIX_TOWERS, "septic", "quintic")
# ROADMAP item 25's towers (odd p over a ramified base, the largest
# break, a rank-8 2-power step) and the p = 5 Kummer step of item 27,
# K = Q5(zeta_5), L = K(pi_K^(1/5)), of rank 20
RAMIFIED_BASE_TOWERS = (
    "q3z3_kummer", "q3z9_over_z3", "q2z8_over_i", "q2z16_over_z8", "q5z5_kummer"
)


def _path(name: str):
    return TOWER_DIR / f"{'q3_ramified' if name == 'q3' else name}.json"


def description(name: str) -> dict:
    """The JSON description of the named tower."""
    return json.loads(_path(name).read_text(encoding="utf-8"))


def load(name: str) -> localfield.ExtensionTower:
    """A fresh build of the named tower."""
    return localfield.load_tower(_path(name))


# p of each of the six, read from its description
PRIMES = {name: description(name)["p"] for name in SIX_TOWERS}


@pytest.fixture(scope="session")
def towers():
    return {name: load(name) for name in FOUR_TOWERS}


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
    return load("nested")


@pytest.fixture(scope="session")
def quartic():
    """Nested quartic tower with the largest supported break, s = 4."""
    return load("quartic")


@pytest.fixture(scope="session")
def all_towers(towers, nested, quartic):
    """The four builtin towers and the two nested ones, by name."""
    return {**towers, "nested": nested, "quartic": quartic}


@pytest.fixture(scope="session")
def septic():
    """The p = 7 tower: the degree-7 subfield of Q7(zeta_49), shifted to
    be Eisenstein."""
    return load("septic")


@pytest.fixture(scope="session")
def quintic():
    """The degree-5 subfield of Q5(zeta_25), pi = eta - 4 for the
    Gaussian period eta."""
    return load("quintic")


@pytest.fixture(scope="session")
def eight_towers(all_towers, septic, quintic):
    """The six towers of ``all_towers``, the septic tower and the
    quintic one, by name."""
    return {**all_towers, "septic": septic, "quintic": quintic}


@pytest.fixture(scope="session")
def ramified_base_towers():
    """Item 25's four towers and the rank-20 Kummer step, by name."""
    return {name: load(name) for name in RAMIFIED_BASE_TOWERS}
