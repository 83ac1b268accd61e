"""Outside-in tracer: wraps wittlab's public attributes, changes no source.

Every wrapped callable is looked up by wittlab at call time (module
attributes, class attributes), so replacing the attribute catches every
call.  ``install`` swaps the wrappers in and ``uninstall`` puts the
originals back, so untraced runs execute the unmodified program.

Each call is charged to a layer.  The tracer keeps a stack of open calls
and, per (layer, parent layer) pair, the call count, total time, self time
(total minus the time of traced calls directly below it), how many calls
raised, and a work count where one is defined.  The request, verifier,
sampler, Witt-trace, carry, Witt-sum and polynomial-evaluation boundaries
also record one span each; the hot boundaries (OElem arithmetic, kernels,
field maps, solvers) only keep the per-parent counters.
"""

from __future__ import annotations

import time

ROOT_LAYER = "bench"  # parent of the outermost traced calls

KERNEL_LAYERS = {
    "flat_mul": "kernels.flat_mul",
    "zmod_poly_mulmod": "kernels.zmod_poly_mulmod",
    "zmod_vec_add": "kernels.zmod_vec",
    "zmod_vec_sub": "kernels.zmod_vec",
    "sparse_add": "kernels.sparse",
    "sparse_neg": "kernels.sparse",
    "sparse_scale": "kernels.sparse",
    "sparse_mul": "kernels.sparse",
    "sparse_pow": "kernels.sparse",
    "monomial_key_mul": "kernels.sparse",
}

OELEM_LAYERS = {
    "__mul__": "localfield.ring_mul",
    "__rmul__": "localfield.ring_mul",
    "__pow__": "localfield.ring_mul",
    "__add__": "localfield.ring_add",
    "__radd__": "localfield.ring_add",
    "__sub__": "localfield.ring_add",
    "__rsub__": "localfield.ring_add",
    "__neg__": "localfield.ring_add",
}

TOWER_LAYERS = {
    "trace": "localfield.trace",
    "galois": "localfield.galois",
    "vL": "localfield.valuation",
    "vK": "localfield.valuation",
    "solve_trace_eq": "localfield.solve_trace_eq",
    "solve_sigma_minus_one": "localfield.solve_sigma_minus_one",
}

COHOMLAB_LAYERS = {
    "sample_trace_zero": "cohomlab.sampler",
    "witt_trace": "cohomlab.witt_trace",
    "coboundary_sample": "cohomlab.coboundary",
    "level1_class_trivial": "cohomlab.coboundary",
    "h1_order_level1": "cohomlab.coboundary",
}

SPAN_LAYERS = {
    "bench.request",
    "cohomlab.verify",
    "cohomlab.sampler",
    "cohomlab.witt_trace",
    "cohomlab.coboundary",
    "wittcore.carry_value",
    "wittcore.witt_sum",
    "exactpoly.eval",
    "localfield.tower_build",
    "wittcore.tables",
}


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "raised", "work")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.raised = 0
        self.work = 0


class Tracer:
    def __init__(self, wittlab):
        self.wittlab = wittlab
        self.stats: dict[tuple[str, str], Stat] = {}
        # open calls: [layer, time spent in traced children, span id]
        self._stack: list[list] = [[ROOT_LAYER, 0.0, None]]
        self._span_stack: list[int] = []
        self.spans: list[tuple] = []  # (id, parent id, request, name, start, duration)
        self.request_id: int | None = None
        self._epoch = time.perf_counter()
        self._saved: list[tuple] = []

    # -- patching ---------------------------------------------------------

    def _targets(self):
        w = self.wittlab
        lf, wc, cl = w.localfield, w.wittcore, w.cohomlab
        for attr, layer in KERNEL_LAYERS.items():
            yield w.kernels, attr, layer, None
        for attr, layer in OELEM_LAYERS.items():
            yield lf.OElem, attr, layer, None
        for attr, layer in TOWER_LAYERS.items():
            yield lf.ExtensionTower, attr, layer, None
        # cohomlab imported these two by name, so it holds its own binding
        for mod in (lf, cl):
            yield mod, "linsolve", "localfield.linsolve", None
            yield mod, "smith_normal_form", "localfield.snf", None
        yield w.exactpoly.MPoly, "eval", "exactpoly.eval", lambda args: len(args[0].terms)
        yield wc.WittVec, "__add__", "wittcore.witt_add", None
        yield wc, "witt_sum", "wittcore.witt_sum", None
        yield wc, "carry_value", "wittcore.carry_value", None
        for attr, layer in COHOMLAB_LAYERS.items():
            yield cl, attr, layer, None

    def install(self) -> None:
        for owner, attr, layer, work in self._targets():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, work))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- recording --------------------------------------------------------

    def wrap(self, fn, layer: str, work=None):
        """A callable that runs ``fn`` charged to ``layer``."""
        stack = self._stack
        span_stack = self._span_stack
        spans = self.spans
        stats = self.stats
        clock = time.perf_counter
        span = layer in SPAN_LAYERS
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [layer, 0.0, None]
            if span:
                frame[2] = len(spans)
                spans.append(None)  # placeholder, filled when the call ends
                span_stack.append(frame[2])
            stack.append(frame)
            raised = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                parent[1] += dt
                key = (layer, parent[0])
                st = stats.get(key)
                if st is None:
                    st = stats[key] = Stat()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[1]
                st.raised += raised
                if work is not None:
                    st.work += work(args)
                if span:
                    span_stack.pop()
                    spans[frame[2]] = (
                        frame[2],
                        span_stack[-1] if span_stack else None,
                        tracer.request_id,
                        layer,
                        t0 - tracer._epoch,
                        dt,
                    )

        return traced

    # -- results ----------------------------------------------------------

    def layer(self, layer: str) -> Stat:
        """Totals of one layer over all its parents."""
        out = Stat()
        for (name, _), st in self.stats.items():
            if name == layer:
                out.calls += st.calls
                out.total_s += st.total_s
                out.self_s += st.self_s
                out.raised += st.raised
                out.work += st.work
        return out

    def under(self, layer: str, parent: str) -> Stat:
        return self.stats.get((layer, parent)) or Stat()

    def dump(self) -> dict:
        return {
            "per_parent": [
                {
                    "layer": layer,
                    "parent": parent,
                    "calls": st.calls,
                    "total_s": st.total_s,
                    "self_s": st.self_s,
                    "raised": st.raised,
                    "work": st.work,
                }
                for (layer, parent), st in sorted(self.stats.items())
            ],
            "span_fields": ["id", "parent", "request", "name", "start_s", "duration_s"],
            "spans": self.spans,
        }
