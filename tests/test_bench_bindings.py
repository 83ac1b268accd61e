"""The benchmark's pinned verdicts and the names it binds in the package.

``perfbench/digests.json`` pins the seed-1 report bytes of each
workload's request prefix; these tests serve those prefixes in process,
through perfbench's own ``run.set_up``, ``run.serve`` and
``run.check_digests``, on the ``wittlab`` this suite imported, untraced
and with the tracer installed.  ``perfbench/tracer.py`` wraps functions
and methods by name, ``perfbench/lanes.py`` times the kernels by name,
and ``perfbench/baseline.py`` reads ``tower.LR`` and ``ctx.vec``: a name
deleted from ``src/`` would break the traced runs, and these tests catch
that here.  A change meant to move report bytes re-pins with
``perfbench/run.py --pin``."""

import functools
import importlib
import json
import pathlib
import random
import subprocess
import sys
import types

import pytest

import wittlab
from wittlab import cohomlab, wittcore

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"
# run.py imports these by name, as a script run from perfbench/ does
BENCH_MODULES = ("run", "workloads", "lanes", "tracer", "baseline")
# the requests in each workload's pinned seed-1 prefix
PREFIX_REQUESTS = {"witt-p3": 100, "sampler-p2": 110, "field-lemmas": 105}


@pytest.fixture(scope="module")
def bench():
    """perfbench's modules, imported from perfbench/ by the names run.py
    uses.  ``workloads.load_wittlab`` is never called: it would put the
    checkout's src/ first, and these tests run on the wittlab imported
    above, installed or not."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        modules = {name: importlib.import_module(name) for name in BENCH_MODULES}
    finally:
        sys.path.remove(str(PERFBENCH))
    yield types.SimpleNamespace(**modules)
    for name in BENCH_MODULES:
        del sys.modules[name]


@pytest.fixture(scope="module")
def served(bench):
    """``served(name)``: the workload's pinned prefix on towers built by
    ``run.set_up``, served untraced and then with the tracer installed, as
    ``perfbench/run.py --trace 1`` serves it; each workload once."""

    @functools.cache
    def serve(name):
        workload = bench.workloads.WORKLOADS[name]
        requests = workload.requests(bench.workloads.DEFAULT_SEED, 0)
        towers = bench.run.set_up(wittlab, workload)
        plain = bench.run.serve(wittlab, towers, requests, len(workload.block))
        tracer = bench.tracer.Tracer(wittlab)
        tracer.install()
        try:
            traced = bench.run.serve(wittlab, towers, requests, len(workload.block), tracer)
        finally:
            tracer.uninstall()
        return workload, requests, plain, traced, tracer

    return serve


@pytest.mark.parametrize("name", list(PREFIX_REQUESTS))
def test_pinned_prefix_matches_the_digests(bench, served, name):
    # every block of the prefix has its pinned digest and every report is
    # the known verdict, untraced and traced; check_digests marks each
    # request of a block that differs as a problem
    workload, requests, plain, traced, _ = served(name)
    assert len(requests) == PREFIX_REQUESTS[name]
    blocks = len(json.loads(bench.run.DIGESTS.read_text())[name])
    assert blocks == len(requests) // len(workload.block)
    for run in (plain, traced):
        note = bench.run.check_digests(workload, bench.workloads.DEFAULT_SEED, run)
        assert run["problems"] == {}
        assert note == f"{blocks} of {blocks} pinned blocks match"
    assert traced["blobs"] == plain["blobs"]


def test_traced_sampler_counters_bind(served):
    # cohomlab.sampler.solves counts solve_trace_eq called straight from
    # cohomlab.sample_trace_zero; every accepted level is a solve, so it is
    # positive on sampler-p2.  The audit decides on ghost components and
    # calls no cohomlab.witt_trace, so its time falls in the sampler's
    # self time
    tracer = served("sampler-p2")[-1]
    assert tracer.under("localfield.solve_trace_eq", "cohomlab.sampler").calls > 0
    assert tracer.layer("cohomlab.witt_trace").calls == 0
    assert tracer.layer("cohomlab.sampler").self_s > 0


def test_lanes_compare_runs(bench):
    # each case names a kernel on wittlab._kernels_py; run.py's per-layer
    # metrics take one kernels.lane_py key from each
    rows = bench.lanes.compare(wittlab)
    lane_keys = {key for key in bench.run.PER_LAYER if key.startswith("kernels.lane_py.")}
    assert {f"kernels.lane_py.{name}_us" for name in rows["cases"]} == lane_keys
    for row in rows["cases"].values():
        assert row["python_us"] > 0
        assert row.get("agree", True)


@pytest.mark.parametrize("tower_name", ["q2_sqrt2", "q3_ramified"])
def test_baseline_operations_run(bench, tower_name):
    # each row runs once plain and once traced, where its layer must see
    # the call: traced_per_call divides by that layer's call count
    tower = bench.workloads.build_towers(wittlab, (tower_name,))[tower_name]
    for row, layer, fn, _ in bench.baseline.operations(wittlab, tower):
        fn()
        assert bench.baseline.traced_per_call(wittlab, fn, layer, 1) > 0, row


def test_setup_probe_runs_cold():
    # the fresh-process set-up behind setup_s: it imports wittlab from the
    # checkout's src/ and times the import, the towers and the tables
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"), "--setup-probe", "--workload", "witt-p3"],
        capture_output=True,
        text=True,
        cwd=str(PERFBENCH.parent),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    probe = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(probe) == {"import_s", "tower_build_s", "tables_s", "setup_s", "scale"}
    assert all(value > 0 for value in probe.values())


def test_tracer_installs_and_uninstalls(bench):
    # install reads every target with vars(owner)[attr], so a missing name
    # raises KeyError here; uninstall puts the originals back
    tracer = bench.tracer.Tracer(wittlab)
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
