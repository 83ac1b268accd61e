#!/usr/bin/env python3
"""Layered benchmark for wittlab: time to verdict on request workloads.

Run from the root of a checkout (wittlab need not be installed; the
benchmark puts ``src`` on the path itself):

    python3 perfbench/run.py --workload witt-p3 --seed 1 --seconds 30 --trace 0

Each workload is a closed loop with one client and no think time: one
process, one thread, issuing a request list generated from ``--seed`` and
sized to take about ``--seconds`` on the reference machine.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics, with times scaled to
reference-machine seconds by a pure-Python loop timed between blocks
(``workloads.reference_s``; README.md says why).  ``--trace 1`` reports the
per-layer metrics instead: it issues a prefix of the list untraced, then
the same prefix with the outside-in tracer installed (see tracer.py), and
adds the kernel lane comparison (see lanes.py).

``--suite-check`` runs the default ``wittlab suite`` once and compares its
aggregate sha256 with the recorded baseline; it is never part of a timed
run.  ``--pin`` re-pins the report digests in digests.json; run it only
for a change that is meant to alter verdict reports, and say so.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import lanes
import workloads as wl
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
DIGESTS = HERE / "digests.json"

SETUP_PROBES = 11
TRACE_SHARE = 3  # trace mode issues 1/TRACE_SHARE of the blocks, twice
SUITE_BASELINE = "18ca45ed6280fee2568feacbcb9363959d3398a60a1aa6ad52ee02e4e6aef134"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "verdict_s_p50": "s",
    "verdict_s_p90": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
}

TIMED_LAYERS = (
    "kernels.flat_mul",
    "kernels.zmod_poly_mulmod",
    "kernels.zmod_vec",
    "kernels.sparse",
    "localfield.ring_mul",
    "localfield.ring_add",
    "localfield.galois",
    "localfield.trace",
    "localfield.valuation",
    "localfield.solve_trace_eq",
    "localfield.solve_sigma_minus_one",
    "localfield.linsolve",
    "localfield.snf",
    "exactpoly.eval",
    "wittcore.witt_add",
    "wittcore.witt_sum",
    "wittcore.carry_value",
    "cohomlab.sampler",
    "cohomlab.witt_trace",
    "cohomlab.coboundary",
    "cohomlab.verify",
)

PER_LAYER = {
    **{f"{layer}.{field}": unit for layer in TIMED_LAYERS for field, unit in (("calls", "count"), ("self_s", "s"))},
    "localfield.linsolve.no_solution": "count",
    "localfield.tower_build_s": "s",
    "exactpoly.eval.terms": "count",
    "wittcore.tables_s": "s",
    "cohomlab.sampler.solves": "count",
    "cohomlab.sampler.rejections": "count",
    "cohomlab.sampler.useful_ratio": "1",
    "bench.import_s": "s",
    "bench.traced_requests": "count",
    "bench.trace_overhead_s": "s",
    "bench.machine_scale": "1",
    **{f"kernels.lane_py.{name}_us": "us" for name in (
        "sparse_mul_phi4_phi3",
        "sparse_pow_phi3_cubed",
        "zmod_poly_mulmod_d2_machine",
        "zmod_poly_mulmod_d3_bigint",
        "flat_mul_rank3",
    )},
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--suite-check", action="store_true")
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload is None and not (args.suite_check or args.pin):
        parser.error("--workload is required")
    return args


def environment(wittlab) -> dict:
    return {
        "backend": wittlab.BACKEND,
        "python": platform.python_version(),
        "commit": commit_id(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def commit_id() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


# -- set-up -----------------------------------------------------------------


def probe_setup(workload) -> dict:
    """Median cold set-up over fresh processes, with its breakdown, in raw
    seconds and (``scaled_setup_s``) in reference-machine seconds."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload.name]
    probes = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        probe["scaled_setup_s"] = probe["setup_s"] * probe["scale"]
        probes.append(probe)
    return {key: statistics.median(p[key] for p in probes) for key in probes[0]}


def set_up(wittlab, workload, tracer=None) -> dict:
    build_towers, build_tables = wl.build_towers, wl.build_tables
    if tracer is not None:
        build_towers = tracer.wrap(build_towers, "localfield.tower_build")
        build_tables = tracer.wrap(build_tables, "wittcore.tables")
    towers = build_towers(wittlab, workload.towers)
    build_tables(wittlab, workload)
    return towers


# -- requests -----------------------------------------------------------------


def serve(wittlab, towers, requests, block_size: int, tracer=None) -> dict:
    """Issue the requests one after another; time each and check it.

    The reference loop runs before the first request, between blocks and
    after the last; its time is kept out of ``wall_s``.
    """
    verify = wl.run_request if tracer is None else tracer.wrap(wl.run_request, "cohomlab.verify")

    def handle(req):
        t0 = time.perf_counter()
        try:
            report = verify(wittlab, towers, req)
        except Exception as exc:  # a crash is a failed request, not a stop
            traceback.print_exc(file=sys.stderr)
            return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        return latency, report.to_json(include_runtime=False), wl.verdict_problem(report, req)

    if tracer is not None:
        handle = tracer.wrap(handle, "bench.request")
    latencies, blobs, problems, references = [], [], {}, [wl.reference_s()]
    paused = 0.0
    t_start = time.perf_counter()
    for i, req in enumerate(requests):
        if i and i % block_size == 0:
            t0 = time.perf_counter()
            references.append(wl.reference_s())
            paused += time.perf_counter() - t0
        if tracer is not None:
            tracer.request_id = i
        latency, blob, problem = handle(req)
        latencies.append(latency)
        blobs.append(blob)
        if problem:
            problems[i] = problem
    wall_s = time.perf_counter() - t_start - paused
    references.append(wl.reference_s())
    return {
        "wall_s": wall_s,
        "latencies": latencies,
        "blobs": blobs,
        "problems": problems,
        "scale": wl.machine_scale(references),
    }


def blocks_of(workload, items) -> list[range]:
    """Index ranges of the whole blocks among ``items``."""
    size = len(workload.block)
    return [range(b * size, (b + 1) * size) for b in range(len(items) // size)]


def check_digests(workload, seed, run) -> str:
    """At the default seed, compare each block of the list's pinned prefix
    with its pinned digest; the requests of a block that differs fail."""
    if seed != wl.DEFAULT_SEED:
        return "not pinned for this seed"
    pinned = json.loads(DIGESTS.read_text())[workload.name]
    checks = list(zip(pinned, blocks_of(workload, run["blobs"])))
    bad = 0
    for want, block in checks:
        blobs = [run["blobs"][i] for i in block]
        if None in blobs or wl.report_digest(blobs) != want:
            bad += 1
            for i in block:
                run["problems"].setdefault(i, "report differs from the pinned digest")
    return f"{len(checks) - bad} of {len(checks)} pinned blocks match"


# -- modes ------------------------------------------------------------------


def run_untraced(wittlab, workload, args) -> int:
    requests = workload.requests(args.seed, args.seconds)
    setup = probe_setup(workload)
    towers = set_up(wittlab, workload)
    run = serve(wittlab, towers, requests, len(workload.block))
    digest_note = check_digests(workload, args.seed, run)
    lat = run["latencies"]
    attempted, failed = len(requests), len(run["problems"])
    raw = {
        "wall_s": run["wall_s"],
        "verdict_s_p50": statistics.median(lat),
        "verdict_s_p90": statistics.quantiles(lat, n=10)[8],
    }
    metrics = {
        "setup_s": setup["scaled_setup_s"],
        **{name: value * run["scale"] for name, value in raw.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": (attempted - failed) / attempted,
    }
    print(f"requests: {attempted} ({len(requests) // len(workload.block)} blocks of {len(workload.block)}), failed: {failed}, fail_ratio: {failed / attempted}")
    print(f"digests: {digest_note}")
    for i, problem in sorted(run["problems"].items())[:5]:
        print(f"  request {i} {requests[i]}: {problem}")
    print(
        f"raw seconds: setup_s {setup['setup_s']:.4f} (median of {SETUP_PROBES} fresh processes: "
        f"import {setup['import_s']:.4f}, towers {setup['tower_build_s']:.4f}, "
        f"tables {setup['tables_s']:.4f}), "
        + ", ".join(f"{name} {value:.4f}" for name, value in raw.items())
    )
    print(
        f"machine scale {run['scale']:.4f} during the requests, {setup['scale']:.4f} during set-up; "
        "the times below are raw seconds times the scale"
    )
    for name, value in metrics.items():
        print(f"{name:16s} {value:.6g} {END_TO_END[name]}")
    print(result_line(failed == 0, attempted, failed, {k: (v, END_TO_END[k]) for k, v in metrics.items()}))
    return 0


def run_traced(wittlab, workload, args, env) -> int:
    requests = workload.requests(args.seed, args.seconds)
    blocks = len(requests) // len(workload.block)
    prefix = requests[: max(1, blocks // TRACE_SHARE) * len(workload.block)]
    setup = probe_setup(workload)
    tracer = Tracer(wittlab)
    tracer.install()
    try:
        towers = set_up(wittlab, workload, tracer)
    finally:
        tracer.uninstall()
    plain = serve(wittlab, towers, prefix, len(workload.block))
    tracer.install()
    try:
        traced = serve(wittlab, towers, prefix, len(workload.block), tracer)
    finally:
        tracer.uninstall()
    digest_note = check_digests(workload, args.seed, traced)
    for i, (a, b) in enumerate(zip(plain["blobs"], traced["blobs"])):
        if a != b:
            traced["problems"].setdefault(i, "traced report differs from the untraced one")
    for i, problem in plain["problems"].items():
        traced["problems"].setdefault(i, problem)
    lane_rows = lanes.compare(wittlab)

    metrics = {}
    for layer in TIMED_LAYERS:
        st = tracer.layer(layer)
        metrics[f"{layer}.calls"] = st.calls
        metrics[f"{layer}.self_s"] = st.self_s
    metrics["localfield.linsolve.no_solution"] = tracer.layer("localfield.linsolve").raised
    metrics["localfield.tower_build_s"] = setup["tower_build_s"]
    metrics["exactpoly.eval.terms"] = tracer.layer("exactpoly.eval").work
    metrics["wittcore.tables_s"] = setup["tables_s"]
    solves = tracer.under("localfield.solve_trace_eq", "cohomlab.sampler")
    metrics["cohomlab.sampler.solves"] = solves.calls
    metrics["cohomlab.sampler.rejections"] = solves.raised
    metrics["cohomlab.sampler.useful_ratio"] = (
        (solves.calls - solves.raised) / solves.calls if solves.calls else 0.0
    )
    metrics["bench.import_s"] = setup["import_s"]
    metrics["bench.traced_requests"] = len(prefix)
    metrics["bench.trace_overhead_s"] = traced["wall_s"] - plain["wall_s"]
    metrics["bench.machine_scale"] = plain["scale"]
    for name, row in lane_rows["cases"].items():
        metrics[f"kernels.lane_py.{name}_us"] = row["python_us"]
    if metrics.keys() != PER_LAYER.keys():
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {metrics.keys() ^ PER_LAYER.keys()}")

    # with both lanes built, each kernel input is one more check
    lane_checks = [row["agree"] for row in lane_rows["cases"].values() if "agree" in row]
    attempted = 2 * len(prefix) + len(lane_checks)
    failed = len(traced["problems"]) + lane_checks.count(False)
    print(f"traced requests: {len(prefix)} (issued untraced, then traced), failed: {failed}")
    print(f"digests: {digest_note}")
    print(f"untraced wall_s {plain['wall_s']:.4f} s, traced wall_s {traced['wall_s']:.4f} s")
    print("per-layer totals cover the traced cold set-up and the traced requests")
    for name, value in metrics.items():
        print(f"{name:44s} {value:.6g} {PER_LAYER[name]}")
    if lane_rows["compiled_lane"]:
        print("kernel lanes (us per call): python | cython | speed-up | agree")
        for name, row in lane_rows["cases"].items():
            print(
                f"  {name:30s} {row['python_us']:10.2f} {row['cython_us']:10.2f} "
                f"{row['python_us'] / row['cython_us']:6.2f}x {row['agree']}"
            )
    else:
        print("kernel lanes: wittlab._kernels does not import here; only the pure-Python lane is measured")

    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
    trace_file.write_text(
        json.dumps({"env": env, "workload": workload.name, "seed": args.seed, "lanes": lane_rows, "metrics": metrics, **tracer.dump()})
    )
    print(f"trace written to {trace_file.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    print(result_line(failed == 0, attempted, failed, {k: (v, PER_LAYER[k]) for k, v in metrics.items()}))
    return 0


def suite_check(wittlab) -> int:
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "suite_aggregate.json"
    t0 = time.perf_counter()
    code = wittlab.cli.main(["suite", "--out", str(out)])
    suite_s = time.perf_counter() - t0
    digest = hashlib.sha256(out.read_bytes()).hexdigest()
    ok = code == 0 and digest == SUITE_BASELINE
    print(f"suite exit {code}, aggregate sha256 {digest}")
    print(f"baseline                       {SUITE_BASELINE}: {'match' if ok else 'MISMATCH'}")
    print(result_line(ok, 1, 0 if ok else 1, {"cli.suite_s": (suite_s, "s")}))
    return 0 if ok else 1


def pin(wittlab) -> int:
    pinned = {}
    for workload in wl.WORKLOADS.values():
        requests = workload.requests(wl.DEFAULT_SEED, 0)
        towers = set_up(wittlab, workload)
        run = serve(wittlab, towers, requests, len(workload.block))
        if run["problems"]:
            print(f"{workload.name}: not pinned, failures {run['problems']}", file=sys.stderr)
            return 1
        pinned[workload.name] = [
            wl.report_digest([run["blobs"][i] for i in block])
            for block in blocks_of(workload, run["blobs"])
        ]
        print(f"{workload.name}: {len(pinned[workload.name])} blocks pinned ({run['wall_s']:.1f} s)")
    DIGESTS.write_text(json.dumps(pinned, indent=1) + "\n")
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        print(json.dumps(wl.cold_setup(ROOT, wl.WORKLOADS[args.workload])))
        return 0
    try:
        wittlab = wl.load_wittlab(ROOT)
    except ImportError as exc:
        print(f"perfbench: cannot import wittlab: {exc}", file=sys.stderr)
        return 2
    env = environment(wittlab)
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    if args.suite_check:
        return suite_check(wittlab)
    if args.pin:
        return pin(wittlab)
    workload = wl.WORKLOADS[args.workload]
    print(f"workload {workload.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        return run_traced(wittlab, workload, args, env)
    return run_untraced(wittlab, workload, args)


if __name__ == "__main__":
    sys.exit(main())
