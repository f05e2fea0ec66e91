"""Tests of the benchmark itself: metric names, checks and tracer hygiene.

They make no timed run; each takes well under a second.
"""

import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
import types

import numpy as np
import pytest

import run

if importlib.util.find_spec("compact_tik") is None:
    sys.path.insert(0, run.SRC)

import layers  # noqa: E402
import workloads  # noqa: E402


def load_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def test_metric_names_match_benchmark_json():
    bench = load_benchmark_json()
    assert {m["name"]: (m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == layers.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    computed = layers.layer_metrics([], solves=1, flops_per_iter=0)
    assert set(computed) | {"trace.overhead_frac"} == set(layers.PER_LAYER)


def reference_raw():
    """Raw sweep result as if the sweep had reproduced the committed tables."""
    reference = os.path.join(run.ROOT, workloads.REFERENCE_DIR)
    tables = {t: workloads.read_table(os.path.join(reference, t))
              for t in ("results.csv", "aggregate.csv", "fits.csv")}
    return {"code": 0, "seconds": 1.0, "tables": tables, "converged": [True] * 108}


def sweep_workload():
    workload = workloads.TikSweepCt32(run.ROOT, workloads.DEFAULT_SEED)
    workload.setup()
    return workload


def test_sweep_check_accepts_reference_tables():
    result = sweep_workload().check(reference_raw())
    assert [c.name for c in result.checks if not c.ok] == []
    assert result.failed == 0 and result.solves == 108


def test_corrupted_sweep_error_fails_its_check():
    raw = reference_raw()
    header, rows = raw["tables"]["results.csv"]
    rows[5] = rows[5][:3] + [repr(float(rows[5][3]) * (1 + 1e-4))] + rows[5][4:]
    result = sweep_workload().check(raw)
    assert [c.name for c in result.checks if not c.ok] == [
        f"results.csv matches {workloads.REFERENCE_DIR} (rel {workloads.REL_TOL:g})"]
    assert result.failed == 1


def test_corrupted_sweep_slope_fails_every_solve():
    raw = reference_raw()
    header, rows = raw["tables"]["fits.csv"]
    rows[0][1] = "0.2"
    result = sweep_workload().check(raw)
    assert not all(c.ok for c in result.checks)
    assert result.failed == 108


def test_unconverged_sweep_solve_fails():
    raw = reference_raw()
    raw["converged"][7] = False
    result = sweep_workload().check(raw)
    assert [c.name for c in result.checks if not c.ok] == ["every CG solve converged"]
    assert result.failed == 1


def fake_nn_raw(workload):
    n = workload.cfg["n"]
    raw = []
    for objective in workload.recorded_objectives:
        rec = types.SimpleNamespace(
            image=types.SimpleNamespace(values=np.full(n * n, 0.5)),
            objective_trace=np.array([2 * objective, objective]),
            final_objective=objective,
            best_iteration=1,
        )
        raw.append((1.0, rec))
    return raw


def test_nn_checks_count_corruption_and_stalls():
    workload = workloads.NnCt32(run.ROOT, workloads.DEFAULT_SEED)
    workload.setup()
    raw = fake_nn_raw(workload)
    assert workload.check(raw).failed == 0

    raw[2][1].image.values[10] = -1e-3
    result = workload.check(raw)
    assert [c.name for c in result.checks if not c.ok] == ["images finite and nonnegative"]
    assert result.failed == 1

    raw = fake_nn_raw(workload)
    raw[3][1].best_iteration = 0
    raw[4][1].best_iteration = 0
    result = workload.check(raw)
    assert all(c.ok for c in result.checks)
    assert (result.stalled, result.failed) == (2, 2)

    raw[0][1].final_objective *= 1.001
    assert not workload.check(raw).checks[-1].ok


def site_functions():
    return {(m, a): getattr(importlib.import_module(m), a)
            for sites in layers.LAYER_SITES.values() for m, a in sites}


def test_every_site_exists():
    assert all(fn is not None for fn in site_functions().values())


def test_tracer_restores_every_wrapped_function():
    from compact_tik import radon, grid

    before = site_functions()
    tracer = layers.Tracer()
    with pytest.raises(RuntimeError):
        with tracer:
            during = site_functions()
            assert all(during[k] is not before[k] for k in before)
            geom = radon.RadonGeometry.for_grid(4, 3)
            radon.radon_forward(grid.shepp_logan(4, 4), geom)
            raise RuntimeError("leave the block early")
    assert all(fn is before[k] for k, fn in site_functions().items())
    assert [span[0] for span in tracer.spans] == ["grid.phantom", "radon.forward"]


def test_self_time_subtracts_child_spans():
    spans = [
        ["cli.main", 0.0, 10.0, -1, None],
        ["experiment.sweep", 1.0, 9.0, 0, (18, 0)],
        ["tikhonov.solve", 2.0, 6.0, 1, True],
        ["linop.cg", 2.5, 5.5, 2, (7, True)],
        ["radon.forward", 3.0, 4.0, 3, None],
        ["radon.adjoint", 4.0, 5.0, 3, None],
    ]
    m = layers.layer_metrics(spans, solves=1, flops_per_iter=0)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["experiment.self_s"] == pytest.approx(4.0)
    assert m["tikhonov.self_s"] == pytest.approx(1.0)
    assert m["linop.cg.self_s"] == pytest.approx(1.0)
    assert m["radon.busy_s"] == pytest.approx(2.0)
    assert (m["linop.cg.iters"], m["experiment.cells"], m["linop.applies_per_solve"]) == (7, 18, 1)


def test_run_fails_without_program_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nn_ct32", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_operation_counts_do_not_depend_on_seed_or_speed():
    counts = {name: run.pass_count(w, 20) for name, w in workloads.WORKLOADS.items()}
    assert counts == {"tik_sweep_ct32": 1, "tik_single_ct128": 2, "nn_ct32": 2}
    default = workloads.NnCt32(run.ROOT, workloads.DEFAULT_SEED)
    other = workloads.NnCt32(run.ROOT, 7)
    default.setup()
    other.setup()
    assert [seed for _, seed, _ in default.runs] == [seed for _, seed, _ in other.runs]
    assert not np.array_equal(default.runs[0][2], other.runs[0][2])
