"""The hot arithmetic kernels, as the rest of the package calls them.

The implementations live in ``_kernels_py``. Callers go through this
module (``kernels.sparse_mul(...)``), so each kernel can be wrapped, for
timing or tracing, in one place.

The rings of a tower do not multiply through a kernel call: each one
holds a product that ``compile_flat_ring`` generated from its structure
rows when the ring was built, and a valuation (``compile_flat_val``, from
its weights) and x -> x^p (``compile_flat_pow``) generated on first use;
``flat_mul`` is the product's reference, and the per-coordinate
valuation loop in ``tests/oracles.py`` the valuation's.  A tower's
element draws are straight-line code that ``compile_tower_draws``
generates on first use, making exactly the ``getrandbits`` calls of
``localfield._uniform``, their reference, rejection loop included, and
so does the sampler's redraw of a kernel component (``compile_kernel_redraw``).
Likewise sigma^i and the trace run through functions that
``compile_flat_linear`` generated, when the tower was built, from their
one source each: sigma^i's matrices from the powers of sigma(pi_L), the
trace's rows from E_L's power sums, compared once at build.  A plain
matrix-vector product in the tests is their reference, and substitution
into an element's coefficients the oracle of sigma^i.  Witt sums, negatives and the Witt
trace run one pass, which ``compile_ghost_pass`` generates on first use
for each shape, moduli and rows (the identity, minus it, or the field
trace) and caches for every ring that shares them; the tests' loops and
the Witt sum of the Galois conjugates are its references.  The trace
audit builds no Witt trace: ``compile_ghost_zero``, generated and cached
the same way, returns the first level whose ghost component of the
conjugates' Witt sum is not 0 modulo p^(N+l-1), from the conjugates'
p-th-power chains alone, and the conjugates' Witt trace is its
reference.  A Smith form
that is solved against on every sample (the trace's, and sigma - 1's at
each digit count) compiles its solve with ``compile_smith_solve`` on
first use, and ``localfield.linsolve``, which interprets U and V on
every call, stays the solve of the forms used once and is its
reference.
"""

from ._kernels_py import (
    compile_flat_linear,
    compile_flat_pow,
    compile_flat_ring,
    compile_flat_val,
    compile_ghost_pass,
    compile_ghost_zero,
    compile_kernel_redraw,
    compile_smith_solve,
    compile_tower_draws,
    flat_mul,
    monomial_key_mul,
    sparse_add,
    sparse_mul,
    sparse_neg,
    sparse_pow,
    sparse_scale,
    zmod_poly_mulmod,
    zmod_vec_add,
    zmod_vec_sub,
)

BACKEND = "python"
