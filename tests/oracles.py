"""Slow reference forms of the ring primitives that run on one C-level
call each: ``FlatRing.val_raw`` and ``ExtensionTower._zero_raw`` (one
gcd) and the draws of ``localfield._uniform``/``_below`` (getrandbits).
These are the per-coordinate loops and the plain ``rng.randrange`` calls
they replaced; the test modules compare the fast forms against them, and
the field-lemma oracles in ``test_cohomlab`` draw and take valuations
through them only."""

from wittlab.localfield import OElem, ValExtended


def vp_int_by_division(x, p, vmax):
    """The repeated-division p-adic valuation of an integer; None means
    v_p(x) >= vmax (zero at working precision)."""
    if x == 0:
        return None
    v = 0
    while x % p == 0:
        x //= p
        v += 1
        if v >= vmax:
            return None
    return v


def val_by_coordinates(ring, a):
    """v_p(c_r)*e + w(r) minimized over the coordinates, one valuation per
    coordinate; None when every coordinate is 0 modulo p^digits."""
    best = None
    for c, w in zip(a, ring.weights):
        v = vp_int_by_division(c, ring.p, ring.digits)
        if v is not None and (best is None or v * ring.ram_index + w < best):
            best = v * ring.ram_index + w
    return best


def zero_by_coordinates(tower, coords):
    """Every coordinate is 0 modulo p^N, one remainder per coordinate."""
    m = tower.p**tower.N
    return not any(c % m for c in coords)


def fixed_by_substitution(tower, a):
    """sigma(a) = a at precision, with sigma(a) by substitution."""
    L = tower.L
    return zero_by_coordinates(tower, L.sub(tower._galois_by_substitution(a, 1), a))


def vL_by_coordinates(tower, a: OElem) -> ValExtended:
    return ValExtended.at_cap(val_by_coordinates(tower.L, a.data), tower.val_cap)


def vK_by_coordinates(tower, a: OElem) -> ValExtended:
    return ValExtended.at_cap(val_by_coordinates(tower.K, a.data), tower.val_cap_K)


def randrange_K_elem(tower, rng) -> OElem:
    return tower.K.unflatten([rng.randrange(tower.modulus) for _ in range(tower.K.flat_rank)])


def randrange_L_elem(tower, rng, spread_valuation=False) -> OElem:
    """``ExtensionTower.random_L_elem`` drawn with one ``rng.randrange``
    per coordinate, and the pi_L power by ``OElem.__pow__``."""
    a = tower.L.unflatten([rng.randrange(tower.modulus) for _ in range(tower.L.flat_rank)])
    if spread_valuation:
        a = a * tower.pi_L ** rng.randrange(0, max(1, tower.val_cap // 3))
    return a


def randrange_L_unit(tower, rng) -> OElem:
    while True:
        a = randrange_L_elem(tower, rng)
        if val_by_coordinates(tower.L, a.data) == 0:
            return a
