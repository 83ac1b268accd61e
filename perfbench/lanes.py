"""Kernel lanes side by side: the pure-Python kernels against the compiled
extension, on inputs sized like the real runs (the comparison that
benchmarks/bench_kernels.py makes).

The compiled lane is measured only when ``wittlab._kernels`` imports; the
pure lane always is.
"""

from __future__ import annotations

import random
import statistics
import time

REPEATS = 5


def cases(wittlab):
    """(name, kernel, args, calls per timing) for each kernel input."""
    wc = wittlab.wittcore
    phi3 = wc.ctx_for(3, 3).addition[2].terms
    phi4 = wc.ctx_for(3, 4).addition[3].terms
    out = [
        ("sparse_mul_phi4_phi3", "sparse_mul", (phi4, phi3), 1),
        ("sparse_pow_phi3_cubed", "sparse_pow", (phi3, 3), 1),
    ]
    rng = random.Random(0)
    for name, mod, d in (("zmod_poly_mulmod_d2_machine", 2**24, 2), ("zmod_poly_mulmod_d3_bigint", 3**45, 3)):
        rows = tuple(tuple(rng.randrange(mod) for _ in range(d)) for _ in range(d - 1))
        a = tuple(rng.randrange(mod) for _ in range(d))
        b = tuple(rng.randrange(mod) for _ in range(d))
        out.append((name, "zmod_poly_mulmod", (a, b, rows, mod), 4000))
    rank, mod = 3, 3**23
    struct = tuple(
        tuple(tuple(rng.randrange(mod) for _ in range(rank)) for _ in range(rank))
        for _ in range(rank)
    )
    a = tuple(rng.randrange(mod) for _ in range(rank))
    b = tuple(rng.randrange(mod) for _ in range(rank))
    out.append(("flat_mul_rank3", "flat_mul", (a, b, struct, mod), 4000))
    return out


def _per_call_us(fn, args, calls: int) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times) * 1e6


def compare(wittlab) -> dict:
    """Per-call microseconds on each lane, and whether the lanes agree."""
    from wittlab import _kernels_py as pure

    try:
        from wittlab import _kernels as compiled
    except ImportError:
        compiled = None
    rows = {}
    for name, kernel, args, calls in cases(wittlab):
        row = {"python_us": _per_call_us(getattr(pure, kernel), args, calls)}
        if compiled is not None:
            row["cython_us"] = _per_call_us(getattr(compiled, kernel), args, calls)
            row["agree"] = getattr(pure, kernel)(*args) == getattr(compiled, kernel)(*args)
        rows[name] = row
    return {"compiled_lane": compiled is not None, "cases": rows}
