"""Workloads: the towers, the request mixes and the pinned verdict digests.

A request is one verifier call ``VERIFIERS[lemma](tower, samples=k,
seed=s, n=n)``.  A workload's request list is a sequence of blocks; each
block holds every request type of the workload once, in an order and with
verifier seeds drawn from the workload seed.  Blocks are drawn one after
another from one generator, so the first blocks of a list do not depend on
how long the list is, and digests.json pins the reports of each block of
that fixed prefix at the default seed.

Why each workload exists, and what it should and should not move, is in
README.md next to this file.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

# Tower descriptions, passed to ``wittlab.build_tower``.  The four builtin
# towers match ``towers/*.json``; ``quartic`` and ``nested`` are the two
# nested towers of tests/test_cohomlab.py.
TOWERS = {
    "q2_i": dict(p=2, N=24, e_l=[2, -2, 1], e_k=None, hint=4, seed=2026),
    "q2_sqrt2": dict(p=2, N=24, e_l=[-2, 0, 1], e_k=None, hint=4, seed=2026),
    "q2_sqrt_minus2": dict(p=2, N=24, e_l=[2, 0, 1], e_k=None, hint=4, seed=2026),
    "q3_ramified": dict(p=3, N=16, e_l=[3, 0, -3, 1], e_k=None, hint=4, seed=2026),
    # E_K = x^2 - 2, E_L = x^2 - pi_K: s = 4, stable Witt length 4
    "quartic": dict(p=2, N="auto", e_l=[[0, -1], [0, 0], [1]], e_k=[-2, 0, 1], hint=4, seed=0),
    # E_K = x^2 - 2, E_L = x^2 + pi_K x + pi_K: s = 1
    "nested": dict(p=2, N="auto", e_l=[[0, 1], [0, 1], [1]], e_k=[-2, 0, 1], hint=3, seed=0),
}

DEFAULT_SEED = 1
MIN_REQUESTS = 100  # leaves ten requests beyond the 90th percentile

REFERENCE_LOOP = 100_000
REFERENCE_S = 0.010  # the reference loop's time on the reference machine


@dataclass(frozen=True)
class RequestType:
    tower: str
    lemma: str
    n: int | None
    samples: int


@dataclass(frozen=True)
class Request:
    tower: str
    lemma: str
    n: int | None
    samples: int
    seed: int


@dataclass(frozen=True)
class Workload:
    name: str
    towers: tuple
    ctx: tuple  # (p, n) pairs passed to wittcore.ctx_for during set-up
    pfold: tuple  # (p, n) pairs passed to wittcore.pfold_decomposition
    block: tuple  # RequestType, each once per block
    block_s: float  # nominal seconds per block on the reference machine

    def min_blocks(self) -> int:
        return math.ceil(MIN_REQUESTS / len(self.block))

    def requests(self, seed: int, seconds: float) -> list[Request]:
        """The request list for a seed, sized to take about ``seconds``."""
        rng = random.Random(f"{self.name}:{seed}")
        blocks = max(self.min_blocks(), round(seconds / self.block_s))
        out = []
        for _ in range(blocks):
            order = list(self.block)
            rng.shuffle(order)
            for t in order:
                out.append(Request(t.tower, t.lemma, t.n, t.samples, rng.randrange(2**31)))
        return out


def _types(towers, specs):
    return tuple(RequestType(t, lemma, n, k) for t in towers for lemma, n, k in specs)


# How many times the sampler retries a sampled check varies widely with
# the seed, so each mix puts its median and 90th percentile among
# many-sample requests (README.md, "Workloads").
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="witt-p3",
            towers=("q3_ramified",),
            ctx=tuple((3, n) for n in range(1, 5)),
            pfold=((3, 3),),
            block=_types(
                ("q3_ramified",),
                [("carry_identity", 3, 6), ("residual_invariant", 3, 6)] * 3
                + [("step_bounds", 4, 1)] * 2
                + [("carry_identity", 3, 40), ("residual_invariant", 3, 40)],
            ),
            block_s=2.75,
        ),
        Workload(
            name="sampler-p2",
            towers=("q2_sqrt2", "q2_sqrt_minus2", "quartic"),
            ctx=tuple((2, n) for n in range(1, 5)),
            pfold=((2, 4),),
            block=_types(
                ("q2_sqrt2", "q2_sqrt_minus2"),
                [("main", None, 16)] * 3 + [("step_bounds", 4, 1), ("carry_identity", 4, 1)],
            )
            + _types(("quartic",), [("main", None, 1)]),
            block_s=2.2,
        ),
        Workload(
            name="field-lemmas",
            towers=("q2_i", "q2_sqrt2", "q2_sqrt_minus2", "q3_ramified", "nested"),
            ctx=tuple((p, n) for p in (2, 3) for n in range(1, 4)),
            pfold=(),
            block=_types(
                ("q2_i", "q2_sqrt2", "q2_sqrt_minus2", "q3_ramified", "nested"),
                [("vktr", None, 400), ("vksub", None, 200), ("fixed_points", None, 100)],
            ),
            block_s=0.8,
        ),
    )
}


def load_wittlab(root: Path):
    """Import wittlab from the checkout's ``src``; it is not installed."""
    src = root / "src"
    if not (src / "wittlab" / "__init__.py").is_file():
        raise ImportError(f"no wittlab sources under {src}")
    sys.path.insert(0, str(src))
    import wittlab
    import wittlab.cli  # also imports cohomlab, which the package does not

    return wittlab


def build_towers(wittlab, names) -> dict:
    out = {}
    for name in names:
        d = TOWERS[name]
        out[name] = wittlab.build_tower(
            d["p"], d["N"], d["e_l"], d["e_k"], witt_length_hint=d["hint"], seed=d["seed"]
        )
    return out


def build_tables(wittlab, workload: Workload) -> None:
    for p, n in workload.ctx:
        wittlab.wittcore.ctx_for(p, n)
    for p, n in workload.pfold:
        wittlab.wittcore.pfold_decomposition(p, n)


def reference_s() -> float:
    """Time of a fixed pure-Python loop that runs no wittlab code.

    Timed next to the work it follows how fast the machine is at that
    moment; README.md ("Steadiness") says why the benchmark scales its
    times by it.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i % 7
    return time.perf_counter() - t0


def machine_scale(reference_times) -> float:
    """Factor that turns raw seconds into reference-machine seconds."""
    return REFERENCE_S / statistics.median(reference_times)


def cold_setup(root: Path, workload: Workload) -> dict:
    """Import, towers and tables, timed; meant for a fresh process."""
    t0 = time.perf_counter()
    wittlab = load_wittlab(root)
    t1 = time.perf_counter()
    build_towers(wittlab, workload.towers)
    t2 = time.perf_counter()
    build_tables(wittlab, workload)
    t3 = time.perf_counter()
    return {
        "import_s": t1 - t0,
        "tower_build_s": t2 - t1,
        "tables_s": t3 - t2,
        "setup_s": t3 - t0,
        "scale": machine_scale([reference_s() for _ in range(3)]),
    }


def run_request(wittlab, towers: dict, req: Request):
    fn = wittlab.cohomlab.VERIFIERS[req.lemma]
    return fn(towers[req.tower], samples=req.samples, seed=req.seed, n=req.n)


def verdict_problem(report, req: Request) -> str | None:
    """Why a report is not the known verdict, or None when it is.

    Every verifier PASSes on these towers (tests/test_acceptance.py and
    tests/test_cohomlab.py pin that); a PASS that checked fewer samples
    than requested is a failure too.
    """
    if report.status != "PASS":
        return f"status {report.status}"
    checked = report.params.get("checked", req.samples)
    if checked < req.samples:
        return f"checked {checked} of {req.samples} samples"
    return None


def report_digest(reports: list[str]) -> str:
    h = hashlib.sha256()
    for blob in reports:
        h.update(blob.encode())
        h.update(b"\n")
    return h.hexdigest()
