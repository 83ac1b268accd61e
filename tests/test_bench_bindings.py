"""The names the benchmark harness binds in the package.

``perfbench/tracer.py`` wraps functions and methods by name, and
``perfbench/baseline.py`` reads ``tower.LR`` and ``ctx.vec``.  A name
deleted from ``src/`` would break the traced runs; these tests catch
that here, without running a workload."""

import importlib.util
import pathlib
import random

import wittlab
from wittlab import cohomlab, wittcore

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", PERFBENCH / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls():
    # install reads every target with vars(owner)[attr], so a missing name
    # raises KeyError here; uninstall puts the originals back
    tracer = _load_tracer().Tracer(wittlab)
    witt_trace = cohomlab.witt_trace
    tracer.install()
    try:
        assert len(tracer._saved) == 37
        assert cohomlab.witt_trace is not witt_trace
    finally:
        tracer.uninstall()
    assert cohomlab.witt_trace is witt_trace


def test_baseline_names_exist(q2_i):
    # perfbench/baseline.py builds its Witt vectors as ctx.vec(tower.LR, [...])
    # from OElems, and adds and traces them
    assert q2_i.LR is q2_i.L
    x = wittcore.ctx_for(q2_i.p, 3).vec(q2_i.LR, [1, 2, 3])
    assert x.ring is q2_i.L
    rng = random.Random(0)
    elems = [q2_i.random_L_elem(rng) for _ in range(3)]
    y = wittcore.ctx_for(q2_i.p, 3).vec(q2_i.LR, elems)
    assert y.components == tuple(a.data for a in elems)
    assert (x + y).ring is q2_i.L
    assert cohomlab.witt_trace(q2_i, y).ring is q2_i.K
