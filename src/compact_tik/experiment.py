"""Noisy CT problems, SNR accounting, delta sweeps, rate fitting and their CSV tables.

All randomness flows through explicit seeds. Independent cells of an
experiment draw from substreams whose seeds are derived by hashing
(base_seed, delta index, realization index), so any cell can be recomputed
in isolation and reruns are bitwise reproducible. Normal variates are
produced by the Box-Muller transform of the generator's uniform output.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, check_count, check_positive
from .grid import shepp_logan
from .linop import LinearOperator, cg_solve_shifted
from .mlp import MlpArchitecture
from .nnsolver import NnReconstructionConfig, reconstruct_nn
from .radon import RadonGeometry, radon_forward, radon_operator
from .tikhonov import TikhonovProblem, check_converged, normal_operator, solve_tikhonov


def substream_seed(base_seed, *parts):
    """Derived 64-bit seed for an experiment cell.

    Hashes the decimal rendering "base:part1:part2:..." with SHA-256 and
    takes the first 8 bytes little-endian; stable across platforms and
    runs.
    """
    text = ":".join(str(int(p)) for p in (base_seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode("ascii")).digest()[:8], "little")


def standard_normal(rng, n):
    """n i.i.d. standard normal variates via Box-Muller on rng.random().

    z0 = sqrt(-2 ln u1) cos(2 pi u2), z1 = sqrt(-2 ln u1) sin(2 pi u2),
    with u1 mapped to (0, 1] so the log is finite.
    """
    m = (n + 1) // 2
    u1 = 1.0 - rng.random(m)
    u2 = rng.random(m)
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    return np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]


@dataclass(frozen=True)
class NoiseSpec:
    """Noise scale and substream seed for one data realization."""

    delta: float
    seed: int

    def __post_init__(self):
        check_positive("delta", self.delta, zero_ok=True)
        check_positive("seed", self.seed, zero_ok=True)


def add_noise(y, spec: NoiseSpec):
    """y + delta * n with n i.i.d. standard normal from the seeded stream."""
    y = np.asarray(y, dtype=np.float64)
    if spec.delta == 0.0:
        return y.copy()
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    return y + spec.delta * standard_normal(rng, y.size)


def snr_db(y, delta):
    """Data signal-to-noise ratio 20 log10(||y|| / (sqrt(M) delta)) in dB."""
    check_positive("delta", delta)
    y = np.asarray(y, dtype=np.float64)
    norm = np.linalg.norm(y)
    if norm == 0:
        raise ValueError("snr undefined for zero data")
    return 20.0 * np.log10(norm / (np.sqrt(y.size) * delta))


def delta_for_snr(y, target_db):
    """Noise scale realizing a target SNR: delta = ||y|| / (sqrt(M) 10^(t/20))."""
    y = np.asarray(y, dtype=np.float64)
    norm = np.linalg.norm(y)
    if norm == 0:
        raise ValueError("snr undefined for zero data")
    return float(norm / (np.sqrt(y.size) * 10.0 ** (target_db / 20.0)))


@dataclass(frozen=True)
class Scene:
    """A CT problem before noise: the phantom's pixel values, geometry, operator, clean data."""

    truth: np.ndarray
    geometry: RadonGeometry
    operator: LinearOperator
    clean: np.ndarray

    def noisy(self, delta, seed):
        """A new array: the clean data plus noise of scale ``delta`` from the stream of ``seed``."""
        return add_noise(self.clean, NoiseSpec(delta, seed))

    def error(self, x):
        """The reported error ||truth - x|| of a reconstruction ``x``."""
        return float(np.linalg.norm(self.truth - x))


@functools.lru_cache(maxsize=8)
def scene(n, angles, det_halfwidth) -> Scene:
    """The Shepp-Logan scene on an n x n grid, seen through ``RadonGeometry.for_grid``.

    Cached, so one CT setting builds it once per process. The cells of a
    process share the scene, so its truth and clean data are read-only.
    """
    phantom = shepp_logan(n, n)
    geom = RadonGeometry.for_grid(n, angles, det_halfwidth)
    clean = radon_forward(phantom, geom).values
    phantom.values.flags.writeable = clean.flags.writeable = False
    return Scene(phantom.values, geom, radon_operator(geom, n, n), clean)


def sweep_deltas(nx, n_angles, snr_min_db, snr_max_db, count, det_halfwidth):
    """Strictly decreasing noise scales of a phantom sweep, spanning [snr_min_db, snr_max_db].

    SNR targets are equispaced in dB (so the deltas are log-spaced), from
    the noisiest (snr_min_db) to the cleanest level, on the clean sinogram
    of the scene.
    """
    if count < 2:
        raise ValueError(f"need at least two levels, got {count}")
    if not np.isfinite(snr_min_db) or not np.isfinite(snr_max_db):
        raise ValueError(f"snr bounds must be finite, got {snr_min_db} and {snr_max_db}")
    if snr_min_db >= snr_max_db:
        raise ValueError("snr_min_db must be below snr_max_db")
    clean = scene(nx, n_angles, det_halfwidth).clean
    return [delta_for_snr(clean, t) for t in np.linspace(snr_min_db, snr_max_db, count)]


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(error) against log(delta), natural logs."""

    slope: float
    intercept: float
    residual_norm: float


def fit_rate(deltas, errors) -> RateFit:
    """Ordinary least squares in log-log coordinates, in closed form."""
    # the logs, sums and norm come from the standard library, so a fit has the same
    # bits whatever BLAS kernels or SIMD loops numpy runs on the host
    import statistics  # imported here: only the commands that fit a rate use it

    deltas = np.asarray(deltas, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if deltas.size != errors.size or deltas.size < 2:
        raise ValueError("need matching delta/error arrays with at least two points")
    # the comparisons are False for NaN, so NaN is rejected too
    if not np.all((deltas > 0) & (deltas < np.inf) & (errors > 0) & (errors < np.inf)):
        raise ValueError("deltas and errors must be positive and finite")
    lx, ly = [math.log(d) for d in deltas.tolist()], [math.log(e) for e in errors.tolist()]
    # one distinct log delta leaves the slope undetermined; distinct deltas can share a log
    if min(lx) == max(lx):
        raise ValueError(f"need at least two distinct deltas, got only {float(deltas[0])}")
    slope, intercept = statistics.linear_regression(lx, ly)
    residual = math.hypot(*(y - (slope * x + intercept) for x, y in zip(lx, ly)))
    return RateFit(slope=slope, intercept=intercept, residual_norm=residual)


@dataclass
class ExperimentRecord:
    """Per-(delta, realization) results of an alpha sweep; ``errors[j]`` is at ``alphas[j]``."""

    delta: float
    seed: int
    alphas: np.ndarray
    errors: np.ndarray
    snr_db: float

    @property
    def best_error(self):
        return float(self.errors.min())

    # ties go to the smallest alpha
    @property
    def best_alpha(self):
        return float(self.alphas[self.errors == self.errors.min()].min())


@dataclass(frozen=True)
class CellFailure:
    delta: float
    seed: int
    message: str


@dataclass(frozen=True)
class DeltaAggregate:
    delta: float
    mean_error: float
    std_error: float


@dataclass
class SweepConfig:
    """Full protocol: noise levels, realizations, alpha grid, method.

    Every field but ``deltas`` is the ``[sweep]`` setting of the same name,
    with its default. The image is n x n. Each delta gets ``n_alphas``
    log-spaced alphas centered on alpha = delta and spanning
    ``alpha_span_decades`` decades each side; with one alpha, that alpha is
    delta. Every alpha must be positive and finite in float64, and a grid's
    alphas strictly increasing. Deltas must be strictly decreasing.
    """

    deltas: list
    method: str = "tikhonov"
    n: int = 64
    angles: int = 30
    det_halfwidth: float = float(np.sqrt(2.0))
    realizations: int = 3
    n_alphas: int = 20
    alpha_span_decades: float = 1.5
    seed: int = 0
    cg_tol: float = 1e-10
    cg_max_iter: int = 2000
    # network settings, read by method "nn" only
    nn_hidden: tuple[int, ...] = (100, 100, 100, 100)
    nn_iterations: int = 5000
    nn_learning_rate: float = 1e-3
    nn_weight_bound: float | None = None

    def __post_init__(self):
        self.deltas = [float(d) for d in self.deltas]
        if not self.deltas or not all(0 < d < np.inf for d in self.deltas):  # also rejects NaN
            raise ValueError(f"deltas must be nonempty, positive and finite, got {self.deltas}")
        if any(b >= a for a, b in zip(self.deltas, self.deltas[1:])):
            raise ValueError("deltas must be strictly decreasing")
        if self.method not in METHODS:
            raise ValueError(f"method must be {' or '.join(map(repr, METHODS))}, "
                             f"got {self.method!r}")
        for name in ("realizations", "n_alphas", "cg_max_iter", "nn_iterations"):
            check_count(name, getattr(self, name))
        for name in ("cg_tol", "nn_learning_rate"):
            check_positive(name, getattr(self, name))
        check_positive("alpha_span_decades", self.alpha_span_decades, zero_ok=True)
        with np.errstate(over="ignore"):  # an overflow is reported below, not as a warning
            grids = [self.alpha_grid(d) for d in self.deltas]
        # a span too small for float64 repeats an alpha, and so solves a cell's alpha twice
        if not all(np.all((g > 0) & (g < np.inf)) and np.all(np.diff(g) > 0) for g in grids):
            raise ValueError(f"alpha_span_decades {self.alpha_span_decades} puts an alpha "
                             f"outside (0, inf), or repeats one, for these deltas")
        if self.nn_weight_bound is not None:
            check_positive("nn_weight_bound", self.nn_weight_bound)
        MlpArchitecture(self.nn_hidden)  # rejects a width below 1

    def alpha_grid(self, delta):
        """Ascending alpha grid for one noise level; a one-alpha grid is [delta]."""
        if self.n_alphas == 1:
            return np.array([float(delta)])
        lo = np.log10(delta) - self.alpha_span_decades
        hi = np.log10(delta) + self.alpha_span_decades
        return np.logspace(lo, hi, self.n_alphas)


@dataclass
class SweepResult:
    records: list
    aggregates: list
    failures: list
    failed_deltas: list
    fit: RateFit | None


def _tikhonov_images(op, y_noisy, alphas, cfg, seed):
    """Reconstructions over the alpha grid from one multi-shift CG sequence.

    Every alpha shares the right-hand side R^T y, so one Krylov sequence on
    the smallest alpha, the slowest system, yields every other alpha as a
    shift (``cg_solve_shifted``). Its residuals are recursive and drift from
    the true ones, so each shift in turn is checked and then warm-starts
    ``solve_tikhonov``, which recomputes the true normal residual and
    polishes the iterate only if it is still above ``cg_tol``.

    A shift still active after ``cg_max_iter`` Krylov iterations (the base,
    the slowest, fails first, before any polish), or a polish that stops at
    ``cg_max_iter``, raises NumericalFailureError, so the error of an
    unconverged iterate never enters the oracle minimum. The noise seed is unused.
    """
    base = float(alphas.min())
    shifted = cg_solve_shifted(normal_operator(op, base), op.apply_adjoint(y_noisy),
                               alphas - base, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
    images = []
    for alpha, res in zip(alphas, shifted):
        check_converged(alpha, res, cfg.cg_tol, "cg_tol")
        problem = TikhonovProblem(op=op, data=y_noisy, alpha=float(alpha))
        result = solve_tikhonov(problem, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter, x0=res.x)
        check_converged(alpha, result, cfg.cg_tol, "cg_tol")
        images.append(result.x)
    return images


def _nn_images(op, y_noisy, alphas, cfg, seed):
    """Best-objective network images over the alpha grid, one training run per alpha."""
    arch = MlpArchitecture(hidden_widths=cfg.nn_hidden)
    return [reconstruct_nn(NnReconstructionConfig(
        architecture=arch, alpha=float(alpha), operator=op, data=y_noisy, nx=cfg.n, ny=cfg.n,
        iterations=cfg.nn_iterations, learning_rate=cfg.nn_learning_rate, seed=seed,
        weight_bound=cfg.nn_weight_bound,
    )).image.values for alpha in alphas]


# method name -> images function(op, y_noisy, alphas, cfg, seed): one image per alpha
METHODS = {"tikhonov": _tikhonov_images, "nn": _nn_images}


def _sweep_cell(cfg, i, r):
    """Cell (i, r) at ``cfg.deltas[i]``, with noise from substream (cfg.seed, i, r).

    Reads the cached :func:`scene` of the config, so a call alone still gives
    the bits of ``run_sweep``'s record for (i, r). Returns the outcome, an
    ExperimentRecord of the errors (:meth:`Scene.error`) over the alpha grid or
    a CellFailure, and its progress line: "cell k of n" (k counts in cell
    order), the delta, the wall seconds and "failed" if it failed. The caller
    writes the line, so a spawn worker's cell reports through the parent's
    ``sys.stderr``.
    """
    start = time.perf_counter()
    delta, seed = cfg.deltas[i], substream_seed(cfg.seed, i, r)
    sc = scene(cfg.n, cfg.angles, cfg.det_halfwidth)
    alphas = cfg.alpha_grid(delta)
    try:
        images = METHODS[cfg.method](sc.operator, sc.noisy(delta, seed), alphas, cfg, seed)
        errors = np.array([sc.error(x) for x in images])
        outcome = ExperimentRecord(delta=delta, seed=seed, alphas=alphas, errors=errors,
                                   snr_db=float(snr_db(sc.clean, delta)))
    except NumericalFailureError as exc:
        outcome = CellFailure(delta=delta, seed=seed, message=str(exc))
    k, n = i * cfg.realizations + r + 1, len(cfg.deltas) * cfg.realizations
    failed = " failed" if isinstance(outcome, CellFailure) else ""
    seconds = time.perf_counter() - start
    return outcome, f"cell {k} of {n}: delta={delta:.6g} {seconds:.2f} s{failed}\n"


def _report(results):
    """The outcomes of (outcome, progress line) pairs, writing each line to stderr as it arrives."""
    outcomes = []
    for outcome, line in results:
        sys.stderr.write(line)
        outcomes.append(outcome)
    return outcomes


# the thread counts of OpenBLAS, OpenMP and MKL builds, which they read when numpy loads
BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_sweep(cfg: SweepConfig, threads) -> SweepResult:
    """Run every (delta, realization) cell and :func:`summarize` their outcomes.

    A Tikhonov sweep at one thread runs here; any other in ``threads`` spawn workers.
    """
    cell = functools.partial(_sweep_cell, cfg)
    cells = list(itertools.product(range(len(cfg.deltas)), range(cfg.realizations)))
    # a spawn worker costs about 0.2 s against about 1 s for the ct32 reference, so a serial
    # Tikhonov sweep runs here
    if threads == 1 and cfg.method == "tikhonov":
        outcomes = _report(itertools.starmap(cell, cells))
    else:
        # imported here, so a serial sweep never loads the pool's modules
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from signal import SIG_DFL, SIG_IGN, SIGINT, getsignal, signal

        # every worker runs one BLAS thread, so network runs, which always come here, give the
        # same bits whatever the host's BLAS default and ``threads``. A spawn worker loads numpy
        # (through the parent's __main__) before any initializer could run, so the variables
        # are set in os.environ while the workers start, and the parent's are restored after.
        # Each worker builds its scene once, through the cache of ``scene``
        saved = {name: os.environ[name] for name in BLAS_THREAD_VARIABLES if name in os.environ}
        os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))
        try:
            # the initializer gives SIGINT its default action in each worker, so Ctrl-C ends the
            # workers at once and the pool does not go on to the cell queued next; a sweep that
            # ignores SIGINT (a background job of a script) has its workers ignore it too
            action = SIG_IGN if getsignal(SIGINT) == SIG_IGN else SIG_DFL
            with ProcessPoolExecutor(threads, multiprocessing.get_context("spawn"),
                                     signal, (SIGINT, action)) as pool:
                outcomes = _report(pool.map(cell, *zip(*cells)))
        finally:
            for name in BLAS_THREAD_VARIABLES:
                del os.environ[name]
            os.environ.update(saved)
    return summarize(cfg.deltas, outcomes)


def summarize(deltas, outcomes) -> SweepResult:
    """The result of a sweep's cells from their outcomes, ExperimentRecords and CellFailures.

    A record's oracle error is its minimum over alpha; a delta's aggregate is their mean and
    population std, and a delta without a record is left out of the fit and flagged."""
    records = [o for o in outcomes if isinstance(o, ExperimentRecord)]
    failures = [o for o in outcomes if isinstance(o, CellFailure)]
    aggregates, failed_deltas = [], []
    for delta in deltas:
        # deltas are finite and distinct, so a record's delta names its level
        best = [rec.best_error for rec in records if rec.delta == delta]
        if best:
            aggregates.append(DeltaAggregate(delta, float(np.mean(best)), float(np.std(best))))
        else:
            failed_deltas.append(delta)
    fit = (fit_rate([a.delta for a in aggregates], [a.mean_error for a in aggregates])
           if len(aggregates) >= 2 else None)
    return SweepResult(records, aggregates, failures, failed_deltas, fit)


@dataclass
class LinearOracleResult:
    fit: RateFit
    deltas: np.ndarray
    errors: np.ndarray
    alphas: np.ndarray


def alpha_of_delta(delta, mu):
    """A-priori Holder rule alpha = delta^(2 / (2 mu + 1)).

    It balances the worst-case bias and noise terms of the Tikhonov error
    under a source condition with exponent mu in [1/2, 1]; at mu = 1/2 it
    is alpha = delta.

    The paper pairs it with an a-priori network size m(delta): depth
    ceil(7 + (1 + ceil(log2 beta)) (11 + beta d)), about
    delta^(-2d / (3 beta)) neurons and a weight bound growing slower than
    delta^(-2s/3). That rule is not used here: for beta = 1 and d = 2 it
    gives depth 20, and at the noise levels of the 32x32 reference sweep
    its 19 hidden layers are 1 to 35 neurons wide, nets too thin to train.
    Sweeps take the network size as a setting instead.
    """
    check_positive("delta", delta)
    if not 0.5 <= mu <= 1.0:
        raise ValueError(f"mu must be in [1/2, 1], got {mu}")
    return delta ** (2.0 / (2.0 * mu + 1.0))


def linear_oracle(mu, n_dim, deltas, seed) -> LinearOracleResult:
    """Measure the convergence rate on a diagonal operator with known source element.

    The operator has singular values s_k = 1/k. The exact solution is
    x = (A^T A)^mu v where v is a random-sign unit vector with spectral
    envelope k^-(mu - 1/2); this envelope saturates the source condition,
    so the measured rate tracks the predicted delta^(2 mu / (2 mu + 1))
    instead of the faster decay a generic (isotropic) v exhibits. Each
    noisy datum is y + delta * n / ||n||, i.e. a perturbation of norm
    exactly delta as in the delta-ball noise model, with n drawn from the
    per-delta substream. alpha = delta^(2 / (2 mu + 1)).
    """
    if not 0.5 <= mu <= 1.0:
        raise ValueError(f"mu must be in [1/2, 1], got {mu}")
    if n_dim < 10:
        raise ValueError(f"n_dim must be >= 10, got {n_dim}")
    deltas = np.asarray(sorted(deltas, reverse=True), dtype=np.float64)
    if deltas.size < 2 or not np.all((deltas > 0) & (deltas < np.inf)):  # also rejects NaN
        raise ValueError("need at least two positive, finite deltas")
    if deltas.max() / deltas.min() < 1e3:
        raise ValueError("deltas should span at least three decades")

    k = np.arange(1, n_dim + 1, dtype=np.float64)
    s = 1.0 / k
    rng_v = np.random.Generator(np.random.PCG64(substream_seed(seed, 0, 0)))
    v = k ** -(mu - 0.5) * np.where(rng_v.random(n_dim) < 0.5, -1.0, 1.0)
    v /= np.linalg.norm(v)
    x_dagger = s ** (2.0 * mu) * v
    y = s * x_dagger

    errors = np.empty(deltas.size)
    alphas = np.empty(deltas.size)
    for i, delta in enumerate(deltas):
        rng = np.random.Generator(np.random.PCG64(substream_seed(seed, i, 1)))
        n = standard_normal(rng, n_dim)
        y_noisy = y + delta * n / np.linalg.norm(n)
        alpha = alpha_of_delta(delta, mu)
        # the Tikhonov solution of the diagonal system in closed form, exact to rounding
        errors[i] = np.linalg.norm(s * y_noisy / (s**2 + alpha) - x_dagger)
        alphas[i] = alpha

    fit = fit_rate(deltas, errors)
    return LinearOracleResult(fit=fit, deltas=deltas, errors=errors, alphas=alphas)


def csv_text(header, rows):
    """CSV text: the header line, then one line per row.

    Floats are written as ``repr(float(v))``, which reads back to the same
    float (numpy 2's repr of a float64 is ``np.float64(...)``); every other
    field as ``str``.
    """
    lines = [header] + [",".join(repr(float(v)) if isinstance(v, float) else str(v) for v in row)
                        for row in rows]
    return "\n".join(lines) + "\n"


def fits_csv(entries):
    """Fits table from (method, RateFit) pairs: method,slope,intercept,residual."""
    return csv_text("method,slope,intercept,residual",
                    ((m, f.slope, f.intercept, f.residual_norm) for m, f in entries))


def sweep_tables(result: SweepResult, method):
    """{file name: CSV text} of the results.csv, aggregate.csv and fits.csv a sweep writes."""
    rows = ((rec.delta, rec.seed, alpha, err, rec.snr_db, method)
            for rec in result.records for alpha, err in zip(rec.alphas, rec.errors))
    means = ((a.delta, a.mean_error, a.std_error, method) for a in result.aggregates)
    return {"results.csv": csv_text("delta,seed,alpha,error,snr_db,method", rows),
            "aggregate.csv": csv_text("delta,mean_error,std_error,method", means),
            "fits.csv": fits_csv([(method, result.fit)] if result.fit else [])}


def oracle_tables(result: LinearOracleResult, mu):
    """{file name: CSV text} of the oracle.csv and fits.csv ``oracle-linear`` writes."""
    return {"oracle.csv": csv_text("delta,alpha,error",
                                   zip(result.deltas, result.alphas, result.errors)),
            "fits.csv": fits_csv([(f"oracle-mu-{mu}", result.fit)])}


def read_csv(path):
    """Header fields and ``(line number, fields)`` per nonblank row of a CSV table."""
    with open(path) as f:
        lines = [(lineno, ln.strip().split(",")) for lineno, ln in enumerate(f, 1) if ln.strip()]
    if len(lines) < 2:
        raise ValueError(f"{path}: expected a header line and at least one row")
    (_, header), *rows = lines
    for lineno, row in rows:
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
    return header, rows


def _number(path, lineno, name, field, zero_ok=False):
    """``field`` of column ``name`` as a finite float, positive or (if ``zero_ok``) zero."""
    try:
        value = float(field)
    except ValueError:
        raise ValueError(f"{path}:{lineno}: not a number: {field!r}") from None
    check_positive(f"{path}:{lineno}: {name}", value, zero_ok)
    return value


def table_series(path):
    """{method: (deltas, errors, stds)} of an aggregate or delta,error table, in row order.

    A table without a ``method`` column is one method, ``all``; without ``std_error``, stds are 0.
    """
    header, rows = read_csv(path)
    if "delta" not in header:
        raise ValueError(f"{path}: no 'delta' column")
    error = "mean_error" if "mean_error" in header else "error"
    if error not in header:
        raise ValueError(f"{path}: no 'error' or 'mean_error' column")
    d_col, e_col = header.index("delta"), header.index(error)
    m_col = header.index("method") if "method" in header else None
    s_col = header.index("std_error") if "std_error" in header else None
    series = {}
    for lineno, row in rows:
        deltas, errors, stds = series.setdefault(
            row[m_col] if m_col is not None else "all", ([], [], []))
        deltas.append(_number(path, lineno, "delta", row[d_col]))
        errors.append(_number(path, lineno, error, row[e_col]))
        stds.append(0.0 if s_col is None else
                    _number(path, lineno, "std_error", row[s_col], zero_ok=True))
    # several alphas per (delta, method), as in a sweep's results.csv, are errors at every
    # alpha, not at the oracle alpha; oracle-linear's oracle.csv has one a-priori alpha each
    if "alpha" in header and any(len(set(ds)) < len(ds) for ds, *_ in series.values()):
        raise ValueError(f"{path}: has an 'alpha' column, so its errors are not the oracle "
                         "errors; use the sweep's aggregate.csv")
    return series
