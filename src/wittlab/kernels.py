"""The hot arithmetic kernels, as the rest of the package calls them.

The implementations live in ``_kernels_py``. Callers go through this
module (``kernels.sparse_mul(...)``), so each kernel can be wrapped, for
timing or tracing, in one place.

The rings of a tower do not multiply through a kernel call: each one
holds a product that ``compile_flat_mul`` generated from its structure
rows when the ring was built (and x -> x^p from ``compile_flat_pow``, on
first use); ``flat_mul`` is the product's reference.  Likewise sigma^i and the
trace run through functions that ``compile_flat_linear`` generated from
their matrices when the tower was built; a plain matrix-vector product
in the tests is their reference.  Witt sums, negatives and the Witt
trace run one pass, which ``compile_ghost_pass`` generates on first use
for each shape, moduli and rows (the identity, minus it, or the field
trace) and caches for every ring that shares them; the tests' loops and
the Witt sum of the Galois conjugates are its references.  A Smith form
that is solved against on every sample (the trace's, and sigma - 1's at
each digit count) compiles its solve with ``compile_smith_solve`` on
first use, and ``localfield.linsolve``, which interprets U and V on
every call, stays the solve of the forms used once and is its
reference.
"""

from ._kernels_py import (
    compile_flat_linear,
    compile_flat_mul,
    compile_flat_pow,
    compile_ghost_pass,
    compile_smith_solve,
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
