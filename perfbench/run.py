"""Benchmark of compact_tik: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tik_sweep_ct32 --seed 42 --seconds 20 --trace 0

Each workload runs in this one process. The program is imported from the
checkout's ``src``; nothing is installed. The report lines name every
check and metric; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the solve phase is repeated in a fixed number of passes,
``--seconds`` over the workload's nominal pass time rounded (at least one),
and the end-to-end metrics are reported. The pass count does not depend on
the speed of the host, so ``attempted`` and ``failed`` repeat exactly.
With ``--trace 1`` the run makes one untraced and one traced pass, traces
the set-up too, and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("tik_sweep_ct32", "tik_single_ct128", "nn_ct32")
# set-up is timed in this many fresh processes, half before and half after
# the passes, and once in the run's own process; setup_s is the median
SETUP_PROBES = 8
PROBE_TIMEOUT_S = 60
NN_SWEEP_ITERATIONS = 6 * 3 * 6 * 5000  # the ct32 NN reference sweep, never produced

# name -> (unit, better, bound); the end_to_end list of BENCHMARK.json. On a
# shared 2-vCPU host the median speed of a 20 s window moves by about 10%
# from run to run, so timings get the widest bound; memory barely moves.
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "solves_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.1),
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up, print its seconds and exit")
    return p.parse_args(argv)


def load_workload(name, seed):
    """Import the program and the workload, build its inputs; return (workload, seconds)."""
    start = time.perf_counter()
    import workloads  # imports numpy and compact_tik

    workload = workloads.WORKLOADS[name](ROOT, seed)
    workload.setup()
    return workload, time.perf_counter() - start


def setup_probe(name, seed):
    """Set-up seconds of one fresh process."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
           "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head_path):
        return "unknown (not a git checkout)"
    with open(head_path) as f:
        head = f.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(ref_path):
        with open(ref_path) as f:
            return f.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    return f"unknown ({ref})"


def provenance(args):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    env = ("COMPACT_TIK_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in env},
    }


def pass_count(workload, seconds):
    """Passes that fill about ``seconds`` on the reference host, at least one."""
    return max(1, round(seconds / workload.nominal_pass_s))


def run_untraced(workload, seconds):
    """A fixed number of passes, about ``seconds`` of solve phase."""
    results = []
    for _ in range(pass_count(workload, seconds)):
        t0 = time.perf_counter()
        raw = workload.run_pass()
        elapsed = time.perf_counter() - t0
        results.append((elapsed, workload.check(raw)))
    return results


def pass_seconds(results):
    """Median seconds of one pass's operations: the operation count times the
    median operation time, or the median pass when a pass is one call."""
    times = [t for r in results for t in r.op_seconds]
    if len(results[0].op_seconds) == 1:
        return statistics.median(times)
    return results[0].solves * statistics.median(times)


def report_pass(index, result):
    for c in result.checks:
        print(f"  pass {index} check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    if result.stalled:
        print(f"  pass {index} stalled runs (counted as failed): {result.stalled}")
    for key, value in result.info.items():
        print(f"  pass {index} {key}: {value}")


def emit(results, values, units):
    """Print each metric, then the result object as the last line."""
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    correct = all(c.ok for r in results for c in r.checks)
    print(f"correct {correct}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.solves for r in results),
        "failed": sum(r.failed for r in results),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "compact_tik", "__init__.py")):
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    if args.setup_only:
        print(load_workload(args.workload, args.seed)[1])
        return 0

    if args.trace:
        return main_traced(args)

    process_start = time.perf_counter()
    setup_samples = [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]
    workload, setup_s = load_workload(args.workload, args.seed)
    setup_samples.append(setup_s)
    print(f"workload {args.workload}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))
    passes = run_untraced(workload, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_samples += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES // 2)]

    for i, (_, result) in enumerate(passes):
        report_pass(i, result)
    results = [r for _, r in passes]
    attempted = sum(r.solves for r in results)
    failed = sum(r.failed for r in results)
    setup_median = statistics.median(setup_samples)
    solve_s = pass_seconds(results)
    metrics = {
        "wall_s": setup_median + solve_s,
        "setup_s": setup_median,
        "solves_per_s": results[0].solves / solve_s,
        "peak_rss_mb": peak_rss_mb,
    }
    print(f"passes {len(passes)}, pass seconds "
          + ", ".join(f"{s:.3f}" for s, _ in passes)
          + ", set-up samples " + ", ".join(f"{s:.4f}" for s in setup_samples)
          + f", run seconds {time.perf_counter() - process_start:.1f}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    iterations = sum(r.iterations for r in results)
    if iterations:
        rate = iterations / sum(sum(r.op_seconds) for r in results)
        print(f"iters_per_s = {rate:.6g} 1/s; the ct32 NN reference sweep "
              f"({NN_SWEEP_ITERATIONS} iterations) projects to {NN_SWEEP_ITERATIONS / rate / 3600:.2f} h")
    emit(results, metrics, {name: unit for name, (unit, _, _) in END_TO_END.items()})
    return 0


def main_traced(args):
    import layers

    start = time.perf_counter()
    import workloads

    tracer = layers.Tracer()
    workload = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    with tracer:
        workload.setup()
    print(f"workload {args.workload}")
    print("provenance " + json.dumps(provenance(args), sort_keys=True))

    t0 = time.perf_counter()
    raw = workload.run_pass()
    untraced_s = time.perf_counter() - t0
    untraced = workload.check(raw)
    t0 = time.perf_counter()
    with tracer:
        raw = workload.run_pass()
    traced_s = time.perf_counter() - t0
    traced = workload.check(raw)

    report_pass(0, untraced)
    report_pass(1, traced)
    # the traced set-up made no reconstruction, so the traced pass's count is the base
    values = layers.layer_metrics(tracer.spans, traced.solves,
                                  getattr(workload, "flops_per_iter", 0))
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    print(f"untraced pass {untraced_s:.3f} s, traced pass {traced_s:.3f} s, "
          f"{len(tracer.spans)} spans, run seconds {time.perf_counter() - start:.1f}")
    emit((untraced, traced), values, {name: unit for name, (unit, _) in layers.PER_LAYER.items()})
    return 0


if __name__ == "__main__":
    sys.exit(main())
