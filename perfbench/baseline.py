#!/usr/bin/env python3
"""Per-call costs on q2_sqrt2 and q3_ramified, set beside ROADMAP's
Baseline table: O_L multiply, field trace, Witt add (n=3), Witt trace
(n=3) and one trace-zero sample (n=3).

Each operation runs on fixed random inputs, first untraced (median over
repeats of a timed loop) and then once more under the tracer, whose
per-call mean for the same layer is printed beside it; the difference is
what tracing the calls below that layer costs.

    python3 perfbench/baseline.py
"""

from __future__ import annotations

import itertools
import random
import statistics
import sys
import time
from pathlib import Path

import workloads as wl
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5

# ROADMAP "Baseline": per-call times in seconds for q2_sqrt2, q3_ramified
ROADMAP = {
    "O_L multiply": (10.8e-6, 18.3e-6),
    "field trace": (34e-6, 125e-6),
    "Witt add (n=3)": (0.30e-3, 1.51e-3),
    "Witt trace (n=3)": (0.4e-3, 3.7e-3),
    "trace-zero sample (n=3)": (14.3e-3, 8.1e-3),
}


def operations(wittlab, tower):
    """(row, layer, callable, calls per loop) on fixed inputs."""
    rng = random.Random(0)
    ctx = wittlab.wittcore.ctx_for(tower.p, 3)
    a, b = tower.random_L_elem(rng), tower.random_L_elem(rng)
    x = ctx.vec(tower.LR, [tower.random_L_elem(rng) for _ in range(3)])
    y = ctx.vec(tower.LR, [tower.random_L_elem(rng) for _ in range(3)])
    cl = wittlab.cohomlab
    # every loop of 20 calls draws the same 20 samples, traced or not
    sample_seeds = itertools.cycle(range(20))
    return [
        ("O_L multiply", "localfield.ring_mul", lambda: a * b, 2000),
        ("field trace", "localfield.trace", lambda: tower.trace(a), 500),
        ("Witt add (n=3)", "wittcore.witt_add", lambda: x + y, 50),
        ("Witt trace (n=3)", "cohomlab.witt_trace", lambda: cl.witt_trace(tower, x), 20),
        ("trace-zero sample (n=3)", "cohomlab.sampler", lambda: cl.sample_trace_zero(tower, 3, random.Random(next(sample_seeds))), 20),
    ]


def untraced_per_call(fn, calls: int) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        for _ in range(calls):
            fn()
        times.append((time.perf_counter() - t0) / calls)
    return statistics.median(times)


def traced_per_call(wittlab, fn, layer: str, calls: int) -> float:
    tracer = Tracer(wittlab)
    tracer.install()
    try:
        for _ in range(calls):
            fn()
    finally:
        tracer.uninstall()
    st = tracer.layer(layer)
    return st.total_s / st.calls


def fmt(seconds: float) -> str:
    return f"{seconds * 1e6:.1f} µs" if seconds < 1e-3 else f"{seconds * 1e3:.2f} ms"


def main() -> int:
    try:
        wittlab = wl.load_wittlab(ROOT)
    except ImportError as exc:
        print(f"baseline: cannot import wittlab: {exc}", file=sys.stderr)
        return 2
    towers = wl.build_towers(wittlab, ("q2_sqrt2", "q3_ramified"))
    rows = {}
    for col, name in enumerate(towers):
        for row, layer, fn, calls in operations(wittlab, towers[name]):
            plain = untraced_per_call(fn, calls)
            traced = traced_per_call(wittlab, fn, layer, calls)
            rows.setdefault(row, []).append((ROADMAP[row][col], plain, traced))
    print(f"backend={wittlab.BACKEND}")
    print("| Layer | q2_sqrt2 ROADMAP | untraced | traced | q3_ramified ROADMAP | untraced | traced |")
    print("|---|---|---|---|---|---|---|")
    for row, cells in rows.items():
        print(f"| {row} | " + " | ".join(" | ".join(fmt(v) for v in cell) for cell in cells) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
