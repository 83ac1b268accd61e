"""The hot arithmetic kernels, as the rest of the package calls them.

The implementations live in ``_kernels_py``. Callers go through this
module (``kernels.flat_mul(...)``), so each kernel can be wrapped, for
timing or tracing, in one place.
"""

from ._kernels_py import (
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
