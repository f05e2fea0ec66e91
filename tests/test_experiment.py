import contextlib
import dataclasses
import io
import json
import os
import warnings

import numpy as np
import pytest

from compact_tik.experiment import (
    BLAS_THREAD_VARIABLES,
    CellFailure,
    DeltaAggregate,
    ExperimentRecord,
    NoiseSpec,
    RateFit,
    SweepConfig,
    SweepResult,
    add_noise,
    alpha_of_delta,
    delta_for_snr,
    fit_rate,
    linear_oracle,
    run_sweep,
    scene,
    snr_db,
    standard_normal,
    substream_seed,
    sweep_deltas,
    sweep_tables,
)
from compact_tik.linop import cg_solve_shifted, matrix_operator
from compact_tik.tikhonov import (
    TikhonovProblem,
    dense_normal_solve,
    normal_operator,
    solve_tikhonov,
)


def test_substream_seed_stable_and_distinct():
    a = substream_seed(0, 0, 0)
    assert a == substream_seed(0, 0, 0)
    values = {substream_seed(0, i, r) for i in range(5) for r in range(5)}
    assert len(values) == 25
    assert substream_seed(1, 0, 0) != a


def test_standard_normal_moments():
    rng = np.random.Generator(np.random.PCG64(0))
    z = standard_normal(rng, 200000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    assert z.size == 200000
    # odd length works
    rng2 = np.random.Generator(np.random.PCG64(0))
    z3 = standard_normal(rng2, 7)
    assert z3.size == 7


def test_add_noise_zero_delta_exact():
    y = np.array([1.0, 2.0, 3.0])
    out = add_noise(y, NoiseSpec(delta=0.0, seed=5))
    assert np.array_equal(out, y)


def test_add_noise_deterministic():
    y = np.linspace(0, 1, 50)
    a = add_noise(y, NoiseSpec(delta=0.3, seed=7))
    b = add_noise(y, NoiseSpec(delta=0.3, seed=7))
    c = add_noise(y, NoiseSpec(delta=0.3, seed=8))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(delta=-0.1, seed=0)


def test_noise_energy_concentration():
    # over many seeds, mean of ||y^d - y||^2 / M concentrates at delta^2
    y = np.zeros(64)
    delta = 0.5
    n_seeds = 2000
    stats = np.empty(n_seeds)
    for seed in range(n_seeds):
        yd = add_noise(y, NoiseSpec(delta=delta, seed=seed))
        stats[seed] = (yd @ yd) / y.size
    se = stats.std(ddof=1) / np.sqrt(n_seeds)
    assert abs(stats.mean() - delta**2) <= 3 * se


def test_snr_zero_db():
    y = np.full(25, 2.0)
    delta = np.linalg.norm(y) / np.sqrt(y.size)
    assert snr_db(y, delta) == pytest.approx(0.0, abs=1e-12)


def test_snr_twenty_db():
    y = np.full(25, 2.0)
    delta = np.linalg.norm(y) / (10 * np.sqrt(y.size))
    assert snr_db(y, delta) == pytest.approx(20.0, abs=1e-12)


def test_snr_validation():
    with pytest.raises(ValueError):
        snr_db(np.ones(4), 0.0)
    with pytest.raises(ValueError):
        snr_db(np.zeros(4), 1.0)


def test_delta_for_snr_round_trip():
    rng = np.random.default_rng(0)
    y = rng.standard_normal(182 * 50)
    for target in (42.60, 23.10, 16.58):
        delta = delta_for_snr(y, target)
        assert delta > 0
        assert snr_db(y, delta) == pytest.approx(target, abs=1e-12)


def test_sweep_deltas_span_the_snr_range_decreasing():
    y = scene(16, 8, float(np.sqrt(2.0))).clean
    deltas = sweep_deltas(16, 8, 16.6, 42.6, 6, det_halfwidth=float(np.sqrt(2.0)))
    assert len(deltas) == 6
    assert all(b < a for a, b in zip(deltas, deltas[1:]))
    assert snr_db(y, deltas[0]) == pytest.approx(16.6, abs=1e-12)
    assert snr_db(y, deltas[-1]) == pytest.approx(42.6, abs=1e-12)


@pytest.mark.parametrize("bounds", [(np.nan, 40.0), (10.0, np.nan), (-np.inf, 40.0),
                                    (10.0, np.inf)])
def test_sweep_deltas_reject_non_finite_bounds(bounds):
    with pytest.raises(ValueError, match="finite"):
        sweep_deltas(16, 8, *bounds, 3, det_halfwidth=float(np.sqrt(2.0)))


def test_fit_rate_exact_power_law():
    deltas = np.logspace(-5, -1, 7)
    fit = fit_rate(deltas, deltas ** (2.0 / 3.0))
    assert fit.slope == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert fit.residual_norm <= 1e-12


def test_fit_rate_constant_errors():
    deltas = np.logspace(-4, -1, 5)
    fit = fit_rate(deltas, np.full(5, 3.7))
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_rate_perturbed_power_law():
    rng = np.random.default_rng(2)
    deltas = np.logspace(-6, -1, 12)
    errors = 3.0 * deltas**0.5 * (1.0 + 0.01 * rng.uniform(-1, 1, 12))
    fit = fit_rate(deltas, errors)
    assert abs(fit.slope - 0.5) <= 0.02


def test_fit_rate_matches_normal_equations():
    rng = np.random.default_rng(3)
    deltas = np.logspace(-5, -1, 9)
    errors = np.exp(rng.uniform(-3, 0, 9))
    fit = fit_rate(deltas, errors)
    # independent closed-form 2x2 normal equations
    lx, ly = np.log(deltas), np.log(errors)
    n = lx.size
    sx, sy, sxx, sxy = lx.sum(), ly.sum(), (lx * lx).sum(), (lx * ly).sum()
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    assert fit.slope == pytest.approx(slope, rel=1e-12)
    assert fit.intercept == pytest.approx(intercept, rel=1e-12)


def test_fit_rate_validation():
    with pytest.raises(ValueError):
        fit_rate([0.1], [1.0])
    with pytest.raises(ValueError):
        fit_rate([0.1, -0.2], [1.0, 1.0])
    with pytest.raises(ValueError):
        fit_rate([0.1, 0.2], [0.0, 1.0])
    with pytest.raises(ValueError, match="need at least two distinct deltas, got only 0.1"):
        fit_rate([0.1, 0.1, 0.1], [1.0, 2.0, 3.0])
    # distinct deltas whose logs are one float determine no slope either
    with pytest.raises(ValueError, match="need at least two distinct deltas, got only 0.1"):
        fit_rate([0.1, np.nextafter(0.1, 1)], [1.0, 2.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_rate_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite"):
        fit_rate([0.1, 0.01], [1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        fit_rate([bad, 0.01], [1.0, 0.5])


def test_experiment_record_invariants():
    rec = ExperimentRecord(
        delta=0.1, seed=1, alphas=np.array([0.1, 0.2, 0.3]),
        errors=np.array([2.0, 1.0, 1.0]), snr_db=10.0,
    )
    assert rec.best_error == 1.0
    assert rec.best_alpha == 0.2  # smallest alpha on ties


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(deltas=[], realizations=1)
    with pytest.raises(ValueError):
        SweepConfig(deltas=[0.1, 0.2], realizations=1)  # increasing
    with pytest.raises(ValueError):
        SweepConfig(deltas=[0.1], realizations=0)
    with pytest.raises(ValueError, match="^method must be 'tikhonov' or 'nn', got 'other'$"):
        SweepConfig(deltas=[0.1], realizations=1, method="other")


@pytest.mark.parametrize("deltas", [[np.nan], [np.inf, 1.0], [0.1, np.nan]])
def test_sweep_config_rejects_non_finite_deltas(deltas):
    with pytest.raises(ValueError, match="deltas must be nonempty, positive and finite"):
        SweepConfig(deltas=deltas, realizations=1)


@pytest.mark.parametrize("tol", [np.nan, np.inf, 0.0, -1e-10])
def test_sweep_config_rejects_cg_tol_not_positive_and_finite(tol):
    with pytest.raises(ValueError, match="cg_tol must be positive and finite"):
        SweepConfig(deltas=[0.1], realizations=1, cg_tol=tol)


@pytest.mark.parametrize("setting", ["realizations", "n_alphas", "cg_max_iter", "nn_iterations"])
def test_sweep_config_refuses_a_fractional_count_naming_it(setting):
    # 2.5 used to pass the range check and fail inside the first cell, for
    # nn_iterations with a TypeError from numpy that named no setting
    with pytest.raises(ValueError, match=f"^{setting} must be an integer, got 2.5$"):
        SweepConfig(deltas=[0.1], method="nn", **{setting: 2.5})
    with pytest.raises(ValueError, match=f"^{setting} must be positive and finite, got nan$"):
        SweepConfig(deltas=[0.1], **{setting: float("nan")})
    assert getattr(SweepConfig(deltas=[0.1], **{setting: np.int64(3)}), setting) == 3


def test_sweep_config_rejects_empty_or_descending_alpha_grid():
    with pytest.raises(ValueError, match="n_alphas"):
        SweepConfig(deltas=[0.1], realizations=1, n_alphas=0)
    # 0 and 1e-17 give twenty equal alphas, so each cell would solve one alpha twenty times
    for span in (-1.0, float("nan"), 400.0, 0.0, 1e-17):
        # a numpy overflow warning would be raised here as an error, not a ValueError
        with warnings.catch_warnings(), pytest.raises(ValueError, match="alpha_span_decades"):
            warnings.simplefilter("error")
            SweepConfig(deltas=[0.1], realizations=1, alpha_span_decades=span)
    single = SweepConfig(deltas=[0.1], realizations=1, n_alphas=1, alpha_span_decades=0.0)
    assert single.alpha_grid(0.1) == pytest.approx([0.1])


@pytest.mark.parametrize("delta, span", [(0.1, 1.5), (0.037, 2.0), (0.1, 400.0)])
def test_alpha_grid_of_one_alpha_is_delta(delta, span):
    cfg = SweepConfig(deltas=[delta], n_alphas=1, alpha_span_decades=span)
    assert cfg.alpha_grid(delta).tolist() == [delta]


def test_alpha_grid_centered_on_delta():
    cfg = SweepConfig(deltas=[0.1], realizations=1, n_alphas=21, alpha_span_decades=1.0)
    grid = cfg.alpha_grid(0.1)
    assert grid.size == 21
    assert grid[0] == pytest.approx(0.01)
    assert grid[-1] == pytest.approx(1.0)
    assert grid[10] == pytest.approx(0.1)


def test_run_sweep_single_cell_matches_direct_solve():
    deltas = [0.05]
    cfg = SweepConfig(
        deltas=deltas, realizations=1, n=12, angles=6,
        n_alphas=1, seed=3,
    )
    (alpha,) = cfg.alpha_grid(0.05)
    result = run_sweep(cfg, threads=1)
    assert len(result.records) == 1
    rec = result.records[0]
    # recompute the same cell by hand
    from compact_tik.grid import shepp_logan
    from compact_tik.radon import RadonGeometry, radon_forward, radon_operator

    phantom = shepp_logan(12, 12)
    geom = RadonGeometry.for_grid(12, 6)
    y = radon_forward(phantom, geom).values
    seed = substream_seed(3, 0, 0)
    y_noisy = add_noise(y, NoiseSpec(delta=0.05, seed=seed))
    op = radon_operator(geom, 12, 12)
    # the sweep's own path: the Krylov sequence at shift 0, then the polish
    problem = TikhonovProblem(op=op, data=y_noisy, alpha=alpha)
    (shifted,) = cg_solve_shifted(normal_operator(op, alpha), op.apply_adjoint(y_noisy), [0.0],
                                  tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
    x = solve_tikhonov(problem, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter, x0=shifted.x).x
    expected = np.linalg.norm(phantom.values - x)
    assert rec.best_error == pytest.approx(expected, rel=1e-12)
    assert rec.best_alpha == alpha
    assert rec.seed == seed
    # a direct (preconditioned) solve stops on its own Krylov sequence; both
    # normal residuals are <= cg_tol ||rhs|| and the normal operator's smallest
    # eigenvalue is >= alpha, so the two solutions differ by <= 2 cg_tol ||rhs|| / alpha
    direct = solve_tikhonov(problem, tol=cfg.cg_tol, max_iter=cfg.cg_max_iter)
    bound = 2.0 * cfg.cg_tol * direct.rhs_norm / alpha
    assert abs(np.linalg.norm(phantom.values - direct.x) - rec.best_error) <= bound


def test_run_sweep_aggregates_are_mean_and_population_std_of_best_errors():
    cfg = SweepConfig(deltas=[0.2, 0.05], realizations=3, n=8, angles=5, n_alphas=3,
                      alpha_span_decades=1.0, seed=9)
    result = run_sweep(cfg, threads=1)
    assert [a.delta for a in result.aggregates] == cfg.deltas
    for agg in result.aggregates:
        best = [rec.best_error for rec in result.records if rec.delta == agg.delta]
        assert len(best) == 3
        assert agg.mean_error == np.mean(best)
        assert agg.std_error == np.std(best) != np.std(best, ddof=1)


def test_run_sweep_oracle_minimum_and_determinism():
    cfg = SweepConfig(
        deltas=[0.2, 0.05], realizations=2, n=12, angles=6,
        n_alphas=4, alpha_span_decades=1.0, seed=9,
    )
    r1 = run_sweep(cfg, threads=1)
    r2 = run_sweep(cfg, threads=2)
    assert len(r1.records) == 4
    for a, b in zip(r1.records, r2.records):
        assert np.array_equal(a.errors, b.errors)
    assert sweep_tables(r1, "tikhonov") == sweep_tables(r2, "tikhonov")


def test_run_sweep_unconverged_solve_fails_its_cell():
    base = dict(
        deltas=[0.2, 0.05], realizations=2, n=12, angles=6,
        n_alphas=3, alpha_span_decades=1.0, seed=9,
    )
    capped = run_sweep(SweepConfig(**base, cg_max_iter=2), threads=1)
    assert capped.records == [] and capped.aggregates == [] and capped.fit is None
    assert capped.failed_deltas == base["deltas"]
    # each cell reports the first unconverged shift of its Krylov sequence, before any polish
    assert [f.message for f in capped.failures] == [
        f"CG did not converge at alpha={alpha}: 2 iterations, normal residual {residual} "
        f"> cg_tol * ||rhs|| = {threshold}"
        for alpha, residual, threshold in [("0.02", "4.751e-01", "1.223e-09"),
                                           ("0.02", "3.862e-01", "1.201e-09"),
                                           ("0.005", "2.972e-01", "1.214e-09"),
                                           ("0.005", "2.931e-01", "1.227e-09")]]

    # at the default cap every solve converges, and the cap changes nothing
    default = run_sweep(SweepConfig(**base), threads=1)
    roomy = run_sweep(SweepConfig(**base, cg_max_iter=10**6), threads=1)
    assert default.failures == [] and len(default.records) == 4
    assert sweep_tables(default, "tikhonov") == sweep_tables(roomy, "tikhonov")


def test_run_sweep_mixed_outcome_summarizes_only_the_surviving_levels(capsys):
    # Krylov iterations per cell here: 41, 41 at delta 0.2; 57, 58 at 0.05;
    # 75, 74 at 0.01. A cap of 65 fails both cells of the smallest delta only.
    base = dict(realizations=2, n=12, angles=6, n_alphas=3, alpha_span_decades=1.0, seed=9)
    cfg = SweepConfig(deltas=[0.2, 0.05, 0.01], cg_max_iter=65, **base)
    serial = run_sweep(cfg, threads=1)
    progress = capsys.readouterr().err.splitlines()
    threaded = run_sweep(cfg, threads=2)

    assert serial.failed_deltas == [0.01]
    assert [(f.delta, f.seed) for f in serial.failures] == [
        (0.01, substream_seed(9, 2, 0)), (0.01, substream_seed(9, 2, 1))]
    assert [line.endswith(" failed") for line in progress] == [False] * 4 + [True] * 2
    # the surviving levels keep their substreams, so they match a sweep of those levels alone
    survivors = run_sweep(SweepConfig(deltas=[0.2, 0.05], **base), threads=1)
    assert survivors.failures == [] and survivors.fit is not None
    for result in (serial, threaded):
        assert sweep_tables(result, "t") == sweep_tables(survivors, "t")
    assert threaded.failures == serial.failures
    assert threaded.failed_deltas == serial.failed_deltas


def test_run_sweep_gives_every_alpha_a_true_residual_verdict(monkeypatch):
    # every shifted iterate goes through experiment's solve_tikhonov, which
    # recomputes the true normal residual; callers audit solves through that name
    from compact_tik import experiment

    calls = []

    def recording_solve(problem, tol, max_iter, x0=None):
        result = solve_tikhonov(problem, tol=tol, max_iter=max_iter, x0=x0)
        calls.append((problem, tol, result))
        return result

    monkeypatch.setattr(experiment, "solve_tikhonov", recording_solve)
    cfg = SweepConfig(deltas=[0.2, 0.05], realizations=2, n=12, angles=6,
                      n_alphas=4, alpha_span_decades=3.0, seed=9)
    result = run_sweep(cfg, threads=1)
    assert result.failures == [] and len(calls) == 16
    for problem, tol, res in calls:
        op, alpha = problem.op, problem.alpha
        normal = op.apply_adjoint(op.apply(res.x)) + alpha * res.x - op.apply_adjoint(problem.data)
        assert res.converged and tol == cfg.cg_tol
        assert np.linalg.norm(normal) <= cfg.cg_tol * res.rhs_norm


def _environment_cell(cfg, i, r):
    """A stand-in for ``_sweep_cell``: a failure naming its process and its BLAS settings."""
    blas = {name: os.environ.get(name) for name in BLAS_THREAD_VARIABLES}
    failure = CellFailure(delta=cfg.deltas[i], seed=r, message=json.dumps([os.getpid(), blas]))
    return failure, f"cell ({i}, {r})\n"


def _raising_cell(cfg, i, r):
    raise RuntimeError(f"cell ({i}, {r}) raised")


@pytest.mark.parametrize("parent", [{}, {"OPENBLAS_NUM_THREADS": "4", "MKL_NUM_THREADS": "1"}],
                         ids=["unset", "set"])
@pytest.mark.parametrize("method, threads", [("tikhonov", 2), ("nn", 1), ("nn", 2)])
def test_sweep_workers_start_with_one_blas_thread_and_the_environment_is_restored(
        monkeypatch, parent, method, threads):
    # the stand-in cells are module functions, so the spawn workers unpickle them by name
    from compact_tik import experiment

    for name in BLAS_THREAD_VARIABLES:
        monkeypatch.delenv(name, raising=False)
    for name, value in parent.items():
        monkeypatch.setenv(name, value)
    before = dict(os.environ)
    cfg = SweepConfig(deltas=[0.2, 0.05], realizations=2, method=method, n=8, angles=5,
                      n_alphas=2, seed=9)
    monkeypatch.setattr(experiment, "_sweep_cell", _environment_cell)
    result = run_sweep(cfg, threads=threads)
    reports = [json.loads(f.message) for f in result.failures]
    # in cell order, as the serial sweep gives them
    assert [(f.delta, f.seed) for f in result.failures] == [(0.2, 0), (0.2, 1), (0.05, 0),
                                                             (0.05, 1)]
    assert all(blas == dict.fromkeys(BLAS_THREAD_VARIABLES, "1") for _, blas in reports)
    workers = {pid for pid, _ in reports}
    assert os.getpid() not in workers and 1 <= len(workers) <= threads
    assert dict(os.environ) == before

    monkeypatch.setattr(experiment, "_sweep_cell", _raising_cell)
    with pytest.raises(RuntimeError, match=r"^cell \(0, 0\) raised$"):
        run_sweep(cfg, threads=threads)
    assert dict(os.environ) == before


@pytest.mark.parametrize("method, threads", [("nn", 1), ("tikhonov", 2)])
def test_spawn_worker_cells_report_through_this_process_stderr(capfd, method, threads):
    # a worker's own stderr is the inherited file descriptor 2, which a
    # redirected sys.stderr does not see; capfd reads what reaches it
    cfg = SweepConfig(deltas=[0.3, 0.1], realizations=2, method=method, n=8, angles=4,
                      n_alphas=1, seed=1, nn_hidden=(6,), nn_iterations=5)
    with contextlib.redirect_stderr(io.StringIO()) as err:
        result = run_sweep(cfg, threads=threads)
    assert result.failures == [] and len(result.records) == 4
    lines = err.getvalue().splitlines()
    assert [line.split(" s")[0].rsplit(" ", 1)[0] for line in lines] == [
        f"cell {k} of 4: delta={delta:.6g}" for k, delta in zip(range(1, 5), [0.3, 0.3, 0.1, 0.1])]
    assert capfd.readouterr().err == ""


def test_serial_tikhonov_sweep_runs_its_cells_in_this_process(monkeypatch):
    from compact_tik import experiment

    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(experiment, "_sweep_cell", _environment_cell)
    cfg = SweepConfig(deltas=[0.2, 0.05], realizations=1, n=8, angles=5, n_alphas=2, seed=9)
    reports = [json.loads(f.message) for f in run_sweep(cfg, threads=1).failures]
    # this process, whose BLAS variable run_sweep leaves unset
    expected = [(os.getpid(), None)] * 2
    assert [(pid, blas["OPENBLAS_NUM_THREADS"]) for pid, blas in reports] == expected
    assert "OPENBLAS_NUM_THREADS" not in os.environ


def test_run_sweep_nn_method_smoke():
    cfg = SweepConfig(
        deltas=[0.3], realizations=1, method="nn", n=8, angles=4,
        n_alphas=1, seed=1, nn_hidden=(6,), nn_iterations=15, nn_learning_rate=1e-2,
    )
    result = run_sweep(cfg, threads=1)
    assert len(result.records) == 1
    assert result.records[0].alphas.tolist() == [0.3]
    assert result.records[0].best_error > 0


@pytest.mark.parametrize("method, threads", [("tikhonov", 1), ("tikhonov", 2), ("nn", 1)])
def test_sweep_cell_alone_gives_the_bits_of_run_sweeps_record(method, threads):
    from compact_tik import experiment

    cfg = SweepConfig(deltas=[0.2, 0.05], realizations=2, method=method, n=8, angles=5,
                      n_alphas=3, alpha_span_decades=1.0, seed=9, nn_hidden=(6,),
                      nn_iterations=15, nn_learning_rate=1e-2)
    result = run_sweep(cfg, threads=threads)
    assert result.failures == [] and len(result.records) == 4
    cells = [(0, 0), (0, 1), (1, 0), (1, 1)]
    # in reverse order and each from a cold scene cache, so no cell can lean on
    # state that the sweep or an earlier cell left behind
    for (i, r), rec in reversed(list(zip(cells, result.records))):
        experiment.scene.cache_clear()
        alone, _ = experiment._sweep_cell(cfg, i, r)
        assert (alone.delta, alone.seed, alone.snr_db) == (rec.delta, rec.seed, rec.snr_db)
        assert alone.alphas.tobytes() == rec.alphas.tobytes()
        assert alone.errors.tobytes() == rec.errors.tobytes()


def test_sweep_polish_repairs_shifted_iterates_that_missed_the_tolerance(monkeypatch):
    # the multi-shift iterates of a real sweep already meet cg_tol, so the
    # polish stops at 0 iterations; scaled by 1 + 1e-6 with their recursive
    # verdict kept, they pass the first check and only the polish repairs them
    from compact_tik import experiment

    cfg = SweepConfig(deltas=[0.2, 0.05], realizations=2, n=8, angles=5, n_alphas=3,
                      alpha_span_decades=1.0, seed=9)
    unwrapped = run_sweep(cfg, threads=1)
    shifted = experiment.cg_solve_shifted
    monkeypatch.setattr(experiment, "cg_solve_shifted", lambda *args, **kwargs: [
        dataclasses.replace(res, x=res.x * (1.0 + 1e-6)) for res in shifted(*args, **kwargs)])
    polishes = []
    polish = experiment.solve_tikhonov
    monkeypatch.setattr(experiment, "solve_tikhonov", lambda problem, **kwargs: polishes.append(
        (problem, polish(problem, **kwargs))) or polishes[-1][1])
    result = run_sweep(cfg, threads=1)
    assert result.failures == [] and len(result.records) == len(unwrapped.records) == 4
    assert len(polishes) == 4 * cfg.n_alphas
    assert any(res.iterations > 0 for _, res in polishes)
    for k, (problem, res) in enumerate(polishes):
        op, alpha = problem.op, problem.alpha
        rhs = op.apply_adjoint(problem.data)
        true_residual = np.linalg.norm(normal_operator(op, alpha)(res.x) - rhs)
        assert true_residual <= cfg.cg_tol * np.linalg.norm(rhs)
        # both solutions meet the tolerance, so they differ by <= 2 cg_tol ||rhs|| / alpha,
        # as in test_run_sweep_single_cell_matches_direct_solve
        rec, j = result.records[k // cfg.n_alphas], k % cfg.n_alphas
        assert rec.alphas[j] == alpha
        bound = 2.0 * cfg.cg_tol * res.rhs_norm / alpha
        assert abs(rec.errors[j] - unwrapped.records[k // cfg.n_alphas].errors[j]) <= bound


def test_alpha_holder_mu_one():
    # delta^(2/3) at delta = 1e-3
    assert alpha_of_delta(1e-3, 1.0) == pytest.approx(1e-2)


def test_alpha_holder_mu_half():
    # exponent 2/(2*0.5+1) = 1, so alpha = delta
    for delta in (1e-4, 0.1, 0.3):
        assert alpha_of_delta(delta, 0.5) == delta


def test_alpha_validation():
    with pytest.raises(ValueError):
        alpha_of_delta(0.0, 1.0)
    with pytest.raises(ValueError):
        alpha_of_delta(0.1, 2.0)
    with pytest.raises(ValueError):
        alpha_of_delta(0.1, 0.4)


def test_alpha_strictly_increasing():
    deltas = np.logspace(-8, -1, 30)
    for mu in (1.0, 0.75, 0.5):
        values = [alpha_of_delta(d, mu) for d in deltas]
        assert all(b > a for a, b in zip(values, values[1:]))


def test_linear_oracle_rates():
    deltas = np.logspace(-6, -2, 9)
    res_half = linear_oracle(0.5, 200, deltas, seed=0)
    assert abs(res_half.fit.slope - 0.5) <= 0.1
    res_one = linear_oracle(1.0, 200, deltas, seed=0)
    assert abs(res_one.fit.slope - 2.0 / 3.0) <= 0.1


def test_linear_oracle_slope_invariant_to_delta_scaling():
    deltas = np.logspace(-6, -2, 9)
    res = linear_oracle(1.0, 50, deltas, seed=4)
    scaled = linear_oracle(1.0, 50, 3.0 * deltas, seed=4)
    # same noise substreams, alphas differ; slope moves only via the alpha
    # rule's nonlinearity, so allow a loose bound
    assert abs(res.fit.slope - scaled.fit.slope) <= 0.1


def test_linear_oracle_stability_bound():
    # error at each delta <= ||x_alpha(y) - x_dagger|| + delta / (2 sqrt(alpha))
    deltas = np.logspace(-5, -1, 5)
    n_dim = 60
    res = linear_oracle(1.0, n_dim, deltas, seed=2)
    k = np.arange(1, n_dim + 1, dtype=np.float64)
    s = 1.0 / k
    op = matrix_operator(np.diag(s))
    rng_v = np.random.Generator(np.random.PCG64(substream_seed(2, 0, 0)))
    v = k ** -(1.0 - 0.5) * np.where(rng_v.random(n_dim) < 0.5, -1.0, 1.0)
    v /= np.linalg.norm(v)
    x_dagger = s**2.0 * v
    y = op.apply(x_dagger)
    for delta, alpha, err in zip(res.deltas, res.alphas, res.errors):
        clean = solve_tikhonov(TikhonovProblem(op=op, data=y, alpha=alpha),
                               tol=1e-12, max_iter=2000).x
        bias = np.linalg.norm(clean - x_dagger)
        assert err <= bias + delta / (2 * np.sqrt(alpha)) + 1e-12


def test_linear_oracle_errors_are_exact_to_rounding():
    # the diagonal system is solved in closed form: a dense solve of the same
    # normal equations gives the same errors to rounding
    mu, n_dim, seed = 0.75, 60, 5
    res = linear_oracle(mu, n_dim, np.logspace(-6, -2, 5), seed=seed)
    k = np.arange(1, n_dim + 1, dtype=np.float64)
    s = 1.0 / k
    rng_v = np.random.Generator(np.random.PCG64(substream_seed(seed, 0, 0)))
    v = k ** -(mu - 0.5) * np.where(rng_v.random(n_dim) < 0.5, -1.0, 1.0)
    v /= np.linalg.norm(v)
    x_dagger = s ** (2.0 * mu) * v
    for i, (delta, alpha, err) in enumerate(zip(res.deltas, res.alphas, res.errors)):
        n = standard_normal(np.random.Generator(np.random.PCG64(substream_seed(seed, i, 1))),
                            n_dim)
        y_noisy = s * x_dagger + delta * n / np.linalg.norm(n)
        x = dense_normal_solve(np.diag(s), y_noisy, alpha)
        assert err == pytest.approx(np.linalg.norm(x - x_dagger), rel=1e-10, abs=0.0)


def test_linear_oracle_validation():
    with pytest.raises(ValueError):
        linear_oracle(0.3, 200, np.logspace(-6, -2, 9), seed=0)
    with pytest.raises(ValueError):
        linear_oracle(1.0, 5, np.logspace(-6, -2, 9), seed=0)
    with pytest.raises(ValueError):
        linear_oracle(1.0, 200, [1e-3, 1e-2], seed=0)  # narrow span


def test_csv_formats():
    rec = ExperimentRecord(
        delta=0.1, seed=3, alphas=np.array([0.1, 0.2]),
        errors=np.array([2.0, 1.5]), snr_db=12.5,
    )
    result = SweepResult(records=[rec], aggregates=[DeltaAggregate(0.1, 1.75, 0.25)],
                         failures=[], failed_deltas=[], fit=RateFit(-0.5, 1.25, 0.0))
    assert sweep_tables(result, "tikhonov") == {
        "results.csv": "delta,seed,alpha,error,snr_db,method\n"
                       "0.1,3,0.1,2.0,12.5,tikhonov\n0.1,3,0.2,1.5,12.5,tikhonov\n",
        "aggregate.csv": "delta,mean_error,std_error,method\n0.1,1.75,0.25,tikhonov\n",
        "fits.csv": "method,slope,intercept,residual\ntikhonov,-0.5,1.25,0.0\n",
    }
    # a sweep without a fit writes the header of fits.csv alone
    no_fit = dataclasses.replace(result, fit=None)
    assert sweep_tables(no_fit, "tikhonov")["fits.csv"] == "method,slope,intercept,residual\n"


def test_sweep_deltas_helper():
    deltas = sweep_deltas(nx=16, n_angles=8, snr_min_db=16.6, snr_max_db=42.6, count=4,
                          det_halfwidth=float(np.sqrt(2.0)))
    assert len(deltas) == 4
    assert all(b < a for a, b in zip(deltas, deltas[1:]))


def test_one_det_halfwidth_reaches_both_geometry_users(monkeypatch):
    from compact_tik import experiment
    from compact_tik.grid import shepp_logan
    from compact_tik.radon import RadonGeometry, radon_forward

    want = RadonGeometry(n_angles=8, n_bins=18, det_halfwidth=1.1, step=2.0 / 16)
    sc = scene(16, 8, 1.1)
    y = sc.clean
    assert sc.geometry == want
    assert np.array_equal(y, radon_forward(shepp_logan(16, 16), want).values)
    seen = []
    monkeypatch.setattr(experiment, "scene", lambda *args: seen.append(scene(*args)) or seen[-1])
    assert sweep_deltas(16, 8, 16.6, 42.6, 4, det_halfwidth=1.1) == \
        [delta_for_snr(y, t) for t in np.linspace(16.6, 42.6, 4)]
    # run_sweep reads the same geometry: its SNR is that of the 18-bin sinogram
    cfg = SweepConfig(deltas=[0.1], realizations=1, n=16, angles=8,
                      det_halfwidth=1.1, n_alphas=1)
    assert run_sweep(cfg, threads=1).records[0].snr_db == float(snr_db(y, 0.1))
    # and both read the one Scene object built above
    assert len(seen) == 2 and all(s is sc for s in seen)


def test_shared_scene_arrays_are_read_only():
    sc = scene(8, 4, float(np.sqrt(2.0)))
    for shared in (sc.truth, sc.clean):
        with pytest.raises(ValueError):
            shared[0] = 1.0
    noisy = sc.noisy(0.0, 3)
    assert noisy.flags.writeable and not np.shares_memory(noisy, sc.clean)
    assert np.array_equal(noisy, sc.clean)
