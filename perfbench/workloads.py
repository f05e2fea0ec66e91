"""The benchmark's workloads: inputs from the seed, the solve phase, checks.

Every workload calls only public functions of compact_tik, looked up as
module attributes at call time so that a tracer can wrap them. A workload
has three steps:

- ``setup()`` builds the inputs: phantom, geometry, the first
  ``radon_forward`` (which builds the cached projector tables), noisy data
  and, for the network workload, the initial parameters;
- ``run_pass()`` runs the timed operations once and returns their raw
  results; an operation is one reconstruction, i.e. one (data set, alpha)
  solution;
- ``check(raw)`` turns the raw results into a PassResult with the
  correctness checks. It runs outside the timed and traced region.

``nominal_pass_s`` is the seconds of one pass on the reference host (2
vCPUs, numpy with OpenBLAS); the runner makes ``--seconds`` over it passes,
so the number of operations does not depend on the host's current speed.

At the default seed the checks also compare against values recorded
below (and, for the sweep, against the committed reference tables). With
another seed only the checks that do not depend on the seed are made.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from compact_tik import cli, experiment, grid, mlp, nnsolver, radon, tikhonov
from compact_tik.errors import NumericalFailureError

import layers

DEFAULT_SEED = 42
# Relative tolerance on values recorded at the default seed. CG stops at a
# relative normal residual of 1e-10; a change of projector summation order or
# of Krylov method moves errors and objectives by far less than this, while a
# wrong operator or solver moves them by more than 1e-3.
REL_TOL = 1e-6
# Slack of the recomputed normal residual over cg_tol: CG's recursive
# residual drifts from the true one by roundoff.
RESIDUAL_SLACK = 2.0

REFERENCE_DIR = os.path.join("reference_runs", "ct32", "tikhonov")
MANIFEST = os.path.join(REFERENCE_DIR, "manifest.ini")


@dataclass
class Check:
    """One correctness check; ``failed`` operations did not pass it."""

    name: str
    failed: int
    detail: str

    @property
    def ok(self):
        return self.failed == 0


@dataclass
class PassResult:
    """Outcome of one pass of a workload."""

    op_seconds: list  # solve-phase seconds, per operation or for the whole pass
    solves: int
    iterations: int = 0  # Adam iterations, network workload only
    stalled: int = 0  # network runs whose objective never dropped
    checks: list = field(default_factory=list)
    info: dict = field(default_factory=dict)

    @property
    def failed(self):
        return min(self.solves, sum(c.failed for c in self.checks) + self.stalled)


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL)


def _float(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def read_table(path):
    """CSV file as (header, rows of strings)."""
    with open(path) as f:
        header, *rows = [line.rstrip("\n").split(",") for line in f if line.strip()]
    return header, rows


def mismatched_rows(got, want):
    """Rows of table ``got`` that differ from ``want``: numbers beyond REL_TOL, text at all.

    Missing and extra rows count as mismatched; a different header makes
    every row mismatched.
    """
    (g_head, g_rows), (w_head, w_rows) = got, want
    if g_head != w_head:
        return max(len(g_rows), len(w_rows))
    bad = abs(len(g_rows) - len(w_rows))
    for g_row, w_row in zip(g_rows, w_rows):
        if len(g_row) != len(w_row):
            bad += 1
            continue
        for g, w in zip(g_row, w_row):
            try:
                same = _close(float(g), float(w))
            except ValueError:
                same = g == w
            if not same:
                bad += 1
                break
    return bad


def read_manifest(root):
    return cli.parse_config_file(os.path.join(root, MANIFEST), "sweep")


class TikSweepCt32:
    """The committed ct32 Tikhonov reference sweep, through ``cli.main``."""

    name = "tik_sweep_ct32"
    nominal_pass_s = 25.0
    recorded_slope = 0.1810853309101109

    def __init__(self, root, seed):
        self.root, self.seed = root, seed
        self.cfg = read_manifest(root)
        self.solves = self.cfg["n_deltas"] * self.cfg["realizations"] * self.cfg["n_alphas"]

    def setup(self):
        n = self.cfg["n"]
        phantom = grid.shepp_logan(n, n)
        geom = radon.RadonGeometry.for_grid(n, self.cfg["angles"], self.cfg["det_halfwidth"])
        radon.radon_forward(phantom, geom)
        self.phantom_norm = float(np.linalg.norm(phantom.values))

    def run_pass(self):
        # a solve that hits cg_max_iter is not reported by the sweep tables,
        # so the converged flags are read at the call site
        audit = layers.Tracer({"tikhonov.solve": [("compact_tik.experiment", "solve_tikhonov")]})
        with tempfile.TemporaryDirectory(dir=self.root, prefix=".perfbench-") as out:
            argv = ["sweep", "--config", os.path.join(self.root, MANIFEST), "--out", out,
                    "--seed", str(self.seed), "--threads", "1"]
            with audit, contextlib.redirect_stdout(io.StringIO()):
                start = time.perf_counter()
                code = cli.main(argv)
                seconds = time.perf_counter() - start
            tables = {}
            for table in ("results.csv", "aggregate.csv", "fits.csv"):
                path = os.path.join(out, table)
                if os.path.exists(path):
                    tables[table] = read_table(path)
        converged = [span[4] for span in audit.spans]
        return {"code": code, "seconds": seconds, "tables": tables, "converged": converged}

    def check(self, raw):
        n = self.solves
        tables = raw["tables"]
        checks = [Check("exit code 0", 0 if raw["code"] == 0 else n, f"exit code {raw['code']}")]

        _, rows = tables.get("results.csv", (None, []))
        errors = [_float(r[3]) if len(r) > 3 else math.nan for r in rows]
        bad = abs(len(rows) - n) + sum(1 for e in errors if not (0.0 < e < math.inf))
        checks.append(Check("results.csv has one finite positive error per solve", bad,
                            f"{len(rows)} rows for {n} solves"))
        per_cell = {}
        for r, e in zip(rows, errors):
            per_cell.setdefault(tuple(r[:2]), []).append(e)
        worse = sum(1 for es in per_cell.values() if min(es) >= self.phantom_norm)
        checks.append(Check("each cell's best error beats the zero image",
                            worse * self.cfg["n_alphas"],
                            f"{worse} of {len(per_cell)} cells, ||phantom|| = {self.phantom_norm:.4f}"))
        unconverged = sum(1 for ok in raw["converged"] if not ok)
        checks.append(Check("every CG solve converged", unconverged,
                            f"{unconverged} of {len(raw['converged'])} observed solves unconverged"))

        _, fit_rows = tables.get("fits.csv", (None, []))
        slope = _float(fit_rows[0][1]) if fit_rows and len(fit_rows[0]) > 1 else math.nan
        checks.append(Check("fits.csv has a finite slope", 0 if math.isfinite(slope) else n,
                            f"slope {slope!r}"))
        if self.seed == DEFAULT_SEED:
            reference = os.path.join(self.root, REFERENCE_DIR)
            for table in ("results.csv", "aggregate.csv", "fits.csv"):
                want = read_table(os.path.join(reference, table))
                got = tables.get(table, (None, []))
                bad = mismatched_rows(got, want)
                failed = bad if table == "results.csv" else (n if bad else 0)
                checks.append(Check(f"{table} matches {REFERENCE_DIR} (rel {REL_TOL:g})", failed,
                                    f"{bad} of {len(want[1])} rows differ"))
            checks.append(Check(f"slope matches recorded {self.recorded_slope!r} (rel {REL_TOL:g})",
                                0 if _close(slope, self.recorded_slope) else n, f"slope {slope!r}"))
        return PassResult(op_seconds=[raw["seconds"]], solves=n, checks=checks,
                          info={"slope": slope})


class TikSingleCt128:
    """Three independent 128x128 scans, one cold-start CG solve each."""

    name = "tik_single_ct128"
    nominal_pass_s = 13.0
    n, angles, snr_db, scans = 128, 50, 23.0, 3
    cg_tol, cg_max_iter = 1e-10, 2000
    # ||x - phantom|| per scan at the default seed
    recorded_errors = (33.06781675894349, 33.181005000972036, 33.16905721010498)

    def __init__(self, root, seed):
        self.seed = seed
        self.solves = self.scans

    def setup(self):
        n = self.n
        phantom = grid.shepp_logan(n, n)
        geom = radon.RadonGeometry.for_grid(n, self.angles)
        clean = radon.radon_forward(phantom, geom).values
        self.truth = phantom.values
        self.op = radon.radon_operator(geom, n, n)
        self.delta = experiment.delta_for_snr(clean, self.snr_db)
        self.data = [
            experiment.add_noise(clean, experiment.NoiseSpec(
                delta=self.delta, seed=experiment.substream_seed(self.seed, k)))
            for k in range(self.scans)
        ]

    def run_pass(self):
        results = []
        for y in self.data:
            problem = tikhonov.TikhonovProblem(op=self.op, data=y, alpha=self.delta)
            start = time.perf_counter()
            try:
                res = tikhonov.solve_tikhonov(problem, tol=self.cg_tol, max_iter=self.cg_max_iter)
            except NumericalFailureError as exc:
                res = exc
            results.append((time.perf_counter() - start, res))
        return results

    def check(self, raw):
        op, alpha = self.op, self.delta
        raised = unconverged = high_residual = worse = mismatched = 0
        residuals, errors, iterations = [], [], []
        for k, ((_, res), y) in enumerate(zip(raw, self.data)):
            if isinstance(res, NumericalFailureError):
                raised += 1
                continue
            unconverged += not res.converged
            normal = op.apply_adjoint(op.apply(res.x)) + alpha * res.x - op.apply_adjoint(y)
            residual = float(np.linalg.norm(normal)) / res.rhs_norm
            high_residual += not residual <= RESIDUAL_SLACK * self.cg_tol
            error = float(np.linalg.norm(res.x - self.truth))
            worse += not error < float(np.linalg.norm(self.truth))
            if self.seed == DEFAULT_SEED:
                mismatched += not _close(error, self.recorded_errors[k])
            residuals.append(residual)
            errors.append(error)
            iterations.append(res.iterations)
        checks = [
            Check("no NumericalFailureError", raised, f"{raised} raised"),
            Check("CG converged", unconverged, f"iterations {iterations}"),
            Check(f"relative normal residual <= {RESIDUAL_SLACK:g} * cg_tol", high_residual,
                  "residuals " + ", ".join(f"{r:.3g}" for r in residuals)),
            Check("error beats the zero image", worse,
                  "errors " + ", ".join(f"{e:.6f}" for e in errors)),
        ]
        if self.seed == DEFAULT_SEED:
            checks.append(Check(f"errors match recorded values (rel {REL_TOL:g})", mismatched,
                                f"recorded {list(self.recorded_errors)}"))
        return PassResult(op_seconds=[s for s, _ in raw], solves=self.solves, checks=checks,
                          info={"cg_iterations": iterations})


class NnCt32:
    """Six coordinate-MLP reconstructions on cells of the ct32 reference manifest.

    The noise follows the workload seed; the inits are always those of the
    reference cells at the default seed. Two of those inits are dead, so
    every pass at every seed has exactly two stalled runs, and the failed
    count of a run depends only on its number of passes.
    """

    name = "nn_ct32"
    nominal_pass_s = 11.0
    cells = [(i, r) for i in (0, 1) for r in (0, 1, 2)]
    hidden = (100, 100, 100, 100)
    iterations = 60
    # best objective per cell at the default seed; cells (1, 0) and (1, 1)
    # start with an all-zero output ReLU and never move
    recorded_objectives = (
        197.0116940093219, 185.54740586333938, 180.20424134377797,
        1014.5620632612703, 1021.4841628919163, 149.8442858416834,
    )

    def __init__(self, root, seed):
        self.root, self.seed = root, seed
        self.cfg = read_manifest(root)
        self.solves = len(self.cells)

    def setup(self):
        cfg = self.cfg
        n = cfg["n"]
        deltas = experiment.sweep_deltas(n, cfg["angles"], cfg["snr_min_db"], cfg["snr_max_db"],
                                         cfg["n_deltas"], det_halfwidth=cfg["det_halfwidth"])
        phantom = grid.shepp_logan(n, n)
        geom = radon.RadonGeometry.for_grid(n, cfg["angles"], cfg["det_halfwidth"])
        clean = radon.radon_forward(phantom, geom).values
        self.truth = phantom.values
        self.op = radon.radon_operator(geom, n, n)
        self.arch = mlp.MlpArchitecture(hidden_widths=self.hidden)
        self.runs = []
        for i, r in self.cells:
            noise_seed = experiment.substream_seed(self.seed, i, r)
            data = experiment.add_noise(clean, experiment.NoiseSpec(delta=deltas[i],
                                                                    seed=noise_seed))
            init_seed = experiment.substream_seed(DEFAULT_SEED, i, r)
            mlp.init_params(self.arch, init_seed)
            self.runs.append((deltas[i], init_seed, data))
        self.flops_per_iter = layers.mlp_flops_per_iter(self.arch.widths, n * n)

    def run_pass(self):
        n = self.cfg["n"]
        results = []
        for alpha, seed, data in self.runs:
            cfg = nnsolver.NnReconstructionConfig(
                architecture=self.arch, alpha=alpha, operator=self.op, data=data,
                nx=n, ny=n, iterations=self.iterations, seed=seed,
            )
            start = time.perf_counter()
            try:
                rec = nnsolver.reconstruct_nn(cfg)
            except NumericalFailureError as exc:
                rec = exc
            results.append((time.perf_counter() - start, rec))
        return results

    def check(self, raw):
        raised = invalid = mismatched = stalled = 0
        objectives = []
        for k, (_, rec) in enumerate(raw):
            if isinstance(rec, NumericalFailureError):
                raised += 1
                objectives.append(math.nan)
                continue
            image = rec.image.values
            invalid += not (np.all(np.isfinite(image)) and np.all(image >= 0.0)
                            and np.all(np.isfinite(rec.objective_trace)))
            # a run stalls when its best objective never drops below the initial one
            stalled += rec.best_iteration == 0
            objectives.append(rec.final_objective)
            if self.seed == DEFAULT_SEED:
                mismatched += not _close(rec.final_objective, self.recorded_objectives[k])
        checks = [
            Check("no NumericalFailureError", raised, f"{raised} raised"),
            Check("images finite and nonnegative", invalid, f"{invalid} invalid"),
        ]
        if self.seed == DEFAULT_SEED:
            checks.append(Check(f"best objectives match recorded values (rel {REL_TOL:g})",
                                mismatched,
                                "best objectives " + ", ".join(f"{o!r}" for o in objectives)))
        return PassResult(op_seconds=[s for s, _ in raw], solves=self.solves,
                          iterations=self.solves * self.iterations, stalled=stalled,
                          checks=checks, info={"best_objectives": objectives})


WORKLOADS = {w.name: w for w in (TikSweepCt32, TikSingleCt128, NnCt32)}
