"""Span tracing around compact_tik's public functions, and per-layer metrics.

The tracer replaces module attributes with timing wrappers at the sites
where callers look them up (``nnsolver`` calls its own imported
``mlp_backward``, so that name is wrapped there, not in ``mlp``). Each
call records a span: layer name, start, end, index of the enclosing span
and a small summary of the result. Spans stay in memory; nothing is
written while the workload runs. Leaving the ``with`` block puts every
original function back.

The benchmark runs its workloads on one thread, so a single span stack is
enough to give each span its parent.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

# layer -> the (module, attribute) sites where callers in the package look
# the function up; a site missing at some later commit is skipped
LAYER_SITES = {
    "radon.forward": [
        ("compact_tik.radon", "radon_forward"),
        ("compact_tik.experiment", "radon_forward"),
        ("compact_tik.cli", "radon_forward"),
    ],
    "radon.adjoint": [("compact_tik.radon", "radon_adjoint")],
    "linop.cg": [("compact_tik.tikhonov", "cg_solve")],
    "tikhonov.solve": [
        ("compact_tik.tikhonov", "solve_tikhonov"),
        ("compact_tik.experiment", "solve_tikhonov"),
        ("compact_tik.cli", "solve_tikhonov"),
    ],
    "mlp.forward": [("compact_tik.nnsolver", "mlp_forward")],
    "mlp.backward": [("compact_tik.nnsolver", "mlp_backward")],
    "mlp.adam": [("compact_tik.nnsolver", "adam_step")],
    "nnsolver.run": [
        ("compact_tik.nnsolver", "reconstruct_nn"),
        ("compact_tik.experiment", "reconstruct_nn"),
        ("compact_tik.cli", "reconstruct_nn"),
    ],
    "experiment.sweep": [("compact_tik.experiment", "run_sweep")],
    "grid.phantom": [
        ("compact_tik.grid", "shepp_logan"),
        ("compact_tik.experiment", "shepp_logan"),
        ("compact_tik.cli", "shepp_logan"),
    ],
    "cli.main": [("compact_tik.cli", "main")],
}

# layer -> summary kept from each call's return value
OBSERVERS = {
    "linop.cg": lambda res: (res.iterations, res.converged),
    "tikhonov.solve": lambda res: res.converged,
    "nnsolver.run": lambda rec: rec.best_iteration == 0,
    "experiment.sweep": lambda res: (len(res.records) + len(res.failures), len(res.failures)),
}

# name -> (unit, better); the per_layer list of BENCHMARK.json
PER_LAYER = {
    "radon.forward.calls": ("count", "lower"),
    "radon.adjoint.calls": ("count", "lower"),
    "radon.forward.ms_p50": ("ms", "lower"),
    "radon.adjoint.ms_p50": ("ms", "lower"),
    "radon.busy_s": ("s", "lower"),
    "radon.table_build_s": ("s", "lower"),
    "linop.cg.calls": ("count", "lower"),
    "linop.cg.iters": ("count", "lower"),
    "linop.cg.unconverged": ("count", "lower"),
    "linop.cg.self_s": ("s", "lower"),
    "linop.applies_per_solve": ("count/solve", "lower"),
    "tikhonov.solves": ("count", "higher"),
    "tikhonov.solve_ms_p50": ("ms", "lower"),
    "tikhonov.self_s": ("s", "lower"),
    "mlp.forward.calls": ("count", "lower"),
    "mlp.backward.calls": ("count", "lower"),
    "mlp.forward.ms_p50": ("ms", "lower"),
    "mlp.backward.ms_p50": ("ms", "lower"),
    "mlp.adam.ms_p50": ("ms", "lower"),
    "mlp.busy_s": ("s", "lower"),
    "mlp.flops_per_iter": ("flop", "lower"),
    "mlp.gflops": ("GFLOP/s", "higher"),
    "nnsolver.iter_ms_p50": ("ms", "lower"),
    "nnsolver.iter_ms_p99": ("ms", "lower"),
    "nnsolver.self_s": ("s", "lower"),
    "nnsolver.stalled_runs": ("count", "lower"),
    "experiment.cells": ("count", "higher"),
    "experiment.failed_cells": ("count", "lower"),
    "experiment.self_s": ("s", "lower"),
    "grid.phantom_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


class Tracer:
    """Context manager that wraps every site in LAYER_SITES while active.

    May be entered several times; spans accumulate across entries.
    """

    def __init__(self, sites=LAYER_SITES):
        self.sites = sites
        self.spans = []  # [layer, start, end, parent index or -1, summary]
        self._stack = []
        self._saved = []

    def __enter__(self):
        for layer, sites in self.sites.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr, None)
                if fn is None:
                    continue
                self._saved.append((module, attr, fn))
                setattr(module, attr, self._wrap(layer, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()
        return False

    def _wrap(self, layer, fn):
        observe = OBSERVERS.get(layer)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if observe is not None:
                span[4] = observe(result)
            return result

        return traced


def percentile(values, q):
    """q-th percentile with linear interpolation; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def mlp_flops_per_iter(widths, n_points):
    """Matmul FLOPs of one forward and one backward pass of the MLP.

    Forward and weight gradients each cost 2 n d_in d_out per layer; the
    cotangent is propagated back through every layer but the first. Counted
    from the widths, not from what the program executes.
    """
    pairs = [a * b for a, b in zip(widths[:-1], widths[1:])]
    return 2 * n_points * (2 * sum(pairs) + sum(pairs[1:]))


def layer_metrics(spans, solves, flops_per_iter):
    """Per-layer metrics from recorded spans, without trace.overhead_frac.

    ``solves`` is the number of reconstructions the traced code performed;
    ``flops_per_iter`` is 0 for workloads without an MLP.
    """
    durations = {}
    child_time = [0.0] * len(spans)
    for layer, start, end, parent, _ in spans:
        durations.setdefault(layer, []).append(end - start)
        if parent >= 0:
            child_time[parent] += end - start

    def calls(layer):
        return len(durations.get(layer, []))

    def ms_p50(layer):
        return 1e3 * statistics.median(durations[layer]) if calls(layer) else 0.0

    def busy(*layers):
        return sum(sum(durations.get(layer, [])) for layer in layers)

    def self_s(layer):
        return sum(end - start - child_time[i]
                   for i, (name, start, end, _, _) in enumerate(spans) if name == layer)

    def summaries(layer):
        return [s[4] for s in spans if s[0] == layer]

    forward = durations.get("radon.forward", [])
    cg = summaries("linop.cg")
    sweeps = summaries("experiment.sweep")

    # one Adam iteration runs from one mlp_forward to the next inside a run
    forward_starts = {}
    for layer, start, _, parent, _ in spans:
        if layer == "mlp.forward":
            forward_starts.setdefault(parent, []).append(start)
    iter_ms = [1e3 * (b - a) for starts in forward_starts.values()
               for a, b in zip(starts, starts[1:])]
    mlp_busy = busy("mlp.forward", "mlp.backward", "mlp.adam")

    return {
        "radon.forward.calls": calls("radon.forward"),
        "radon.adjoint.calls": calls("radon.adjoint"),
        "radon.forward.ms_p50": ms_p50("radon.forward"),
        "radon.adjoint.ms_p50": ms_p50("radon.adjoint"),
        "radon.busy_s": busy("radon.forward", "radon.adjoint"),
        # the first forward of a run is the one that builds the projector tables
        "radon.table_build_s": max(0.0, forward[0] - statistics.median(forward)) if forward else 0.0,
        "linop.cg.calls": len(cg),
        "linop.cg.iters": sum(iters for iters, _ in cg),
        "linop.cg.unconverged": sum(1 for _, ok in cg if not ok),
        "linop.cg.self_s": self_s("linop.cg"),
        "linop.applies_per_solve": calls("radon.forward") / solves,
        "tikhonov.solves": calls("tikhonov.solve"),
        "tikhonov.solve_ms_p50": ms_p50("tikhonov.solve"),
        "tikhonov.self_s": self_s("tikhonov.solve"),
        "mlp.forward.calls": calls("mlp.forward"),
        "mlp.backward.calls": calls("mlp.backward"),
        "mlp.forward.ms_p50": ms_p50("mlp.forward"),
        "mlp.backward.ms_p50": ms_p50("mlp.backward"),
        "mlp.adam.ms_p50": ms_p50("mlp.adam"),
        "mlp.busy_s": mlp_busy,
        "mlp.flops_per_iter": flops_per_iter,
        "mlp.gflops": flops_per_iter * calls("mlp.backward") / mlp_busy / 1e9 if mlp_busy else 0.0,
        "nnsolver.iter_ms_p50": percentile(iter_ms, 50),
        "nnsolver.iter_ms_p99": percentile(iter_ms, 99),
        "nnsolver.self_s": self_s("nnsolver.run"),
        "nnsolver.stalled_runs": sum(1 for stalled in summaries("nnsolver.run") if stalled),
        "experiment.cells": sum(cells for cells, _ in sweeps),
        "experiment.failed_cells": sum(failed for _, failed in sweeps),
        "experiment.self_s": self_s("experiment.sweep"),
        "grid.phantom_s": busy("grid.phantom"),
        "cli.self_s": self_s("cli.main"),
    }
