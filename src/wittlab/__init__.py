"""wittlab: truncated Witt-vector arithmetic, totally ramified p-adic
towers, and degree-p cyclic Galois cohomology checks, all in exact
arithmetic with honest precision accounting."""

from .exactpoly import MPoly, Monomial, NotDivisible
from .kernels import BACKEND
from .localfield import (
    ExtensionTower,
    OElem,
    build_tower,
    load_tower,
)
from .wittcore import WittCtx, WittVec, ghost_poly, pfold_decomposition

__version__ = "0.1.0"

__all__ = [
    "BACKEND",
    "ExtensionTower",
    "MPoly",
    "Monomial",
    "NotDivisible",
    "OElem",
    "WittCtx",
    "WittVec",
    "build_tower",
    "ghost_poly",
    "load_tower",
    "pfold_decomposition",
    "__version__",
]
