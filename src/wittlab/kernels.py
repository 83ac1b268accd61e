"""The hot arithmetic kernels, as the rest of the package calls them.

Callers go through this module (``kernels.sparse_mul(...)``), so each
kernel can be wrapped, for timing or tracing, in one place.  The
implementations live in ``_kernels_py``, whose docstring says what each
kernel generates and which reference the tests compare it with.
"""

from ._kernels_py import (
    compile_field_checks,
    compile_flat_linear,
    compile_flat_pow,
    compile_flat_ring,
    compile_flat_val,
    compile_ghost_pass,
    compile_ghost_zero,
    compile_kernel_redraw,
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
