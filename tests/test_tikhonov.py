import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from compact_tik.experiment import NoiseSpec, add_noise, delta_for_snr
from compact_tik.grid import shepp_logan
from compact_tik.linop import cg_solve_shifted, matrix_operator
from compact_tik.radon import RadonGeometry, dense_matrix, radon_forward, radon_operator
from compact_tik.tikhonov import (
    TikhonovProblem,
    dense_normal_solve,
    objective_and_cotangent,
    solve_tikhonov,
)
from test_radon import PRECONDITIONED_GEOMETRIES


def test_identity_closed_form():
    n = 5
    ident = matrix_operator(np.eye(n))
    c = 3.0
    alpha = 0.25
    res = solve_tikhonov(TikhonovProblem(op=ident, data=np.full(n, c), alpha=alpha),
                         tol=1e-10, max_iter=2000)
    assert np.allclose(res.x, np.full(n, c / (1 + alpha)), atol=1e-10)


def test_alpha_validation():
    with pytest.raises(ValueError):
        TikhonovProblem(op=matrix_operator(np.eye(2)), data=np.ones(2), alpha=0.0)


def test_dimension_validation():
    with pytest.raises(ValueError):
        TikhonovProblem(op=matrix_operator(np.eye(2)), data=np.ones(3), alpha=1.0)


def test_radon_normal_equation_residual():
    img = shepp_logan(32, 32)
    geom = RadonGeometry.for_grid(32, 12)
    op = radon_operator(geom, 32, 32)
    data = radon_forward(img, geom).values
    res = solve_tikhonov(TikhonovProblem(op=op, data=data, alpha=0.1), tol=1e-8, max_iter=2000)
    rhs_norm = np.linalg.norm(op.apply_adjoint(data))
    assert res.rhs_norm == rhs_norm
    assert res.residual_norm <= 1e-8 * rhs_norm


def test_cg_matches_dense_oracle_16():
    img = shepp_logan(16, 16)
    geom = RadonGeometry.for_grid(16, 10)
    op = radon_operator(geom, 16, 16)
    mat = dense_matrix(geom, 16, 16)
    rng = np.random.default_rng(4)
    data = radon_forward(img, geom).values + 0.01 * rng.standard_normal(geom.size)
    for alpha in (1e-3, 1e-1, 10.0):
        res = solve_tikhonov(TikhonovProblem(op=op, data=data, alpha=alpha),
                             tol=1e-10, max_iter=5000)
        direct = dense_normal_solve(mat, data, alpha)
        rel = np.linalg.norm(res.x - direct) / np.linalg.norm(direct)
        assert rel <= 1e-6


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    n=st.integers(4, 12),
    n_angles=st.integers(1, 10),
    det_halfwidth=st.floats(0.8, 1.6),
    log10_alpha=st.floats(-3.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cg_matches_dense_solve_property(n, n_angles, det_halfwidth, log10_alpha, seed):
    geom = RadonGeometry.for_grid(n, n_angles, det_halfwidth=det_halfwidth)
    rng = np.random.default_rng(seed)
    data = rng.standard_normal(geom.size)
    alpha = 10.0**log10_alpha
    problem = TikhonovProblem(op=radon_operator(geom, n, n), data=data, alpha=alpha)
    res = solve_tikhonov(problem, tol=1e-10, max_iter=5000)
    direct = dense_normal_solve(dense_matrix(geom, n, n), data, alpha)
    assert res.converged
    assert np.linalg.norm(res.x - direct) <= 1e-6 * np.linalg.norm(direct)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    m=st.integers(1, 14),
    n=st.integers(1, 12),
    log10_center=st.floats(-2.0, 1.0),
    span=st.floats(0.0, 1.5),
    n_alphas=st.integers(1, 8),
    zero_data=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(m=9, n=7, log10_center=-1.0, span=1.5, n_alphas=1, zero_data=False, seed=1)
@example(m=9, n=7, log10_center=-1.0, span=0.0, n_alphas=5, zero_data=False, seed=2)
@example(m=9, n=7, log10_center=-1.0, span=1.5, n_alphas=6, zero_data=True, seed=3)
def test_shifted_cg_matches_dense_solve_property(m, n, log10_center, span, n_alphas, zero_data,
                                                 seed):
    # a sweep cell's solve: one Krylov sequence on the smallest alpha, the rest as shifts
    rng = np.random.default_rng(seed)
    mat = rng.standard_normal((m, n)) / np.sqrt(m)
    data = np.zeros(m) if zero_data else rng.standard_normal(m)
    alphas = np.logspace(log10_center - span, log10_center + span, n_alphas)
    base = alphas.min()
    res = cg_solve_shifted(lambda v: mat.T @ (mat @ v) + base * v, mat.T @ data, alphas - base,
                           tol=1e-10, max_iter=1000)
    assert all(r.converged for r in res)
    assert len(res) == n_alphas and all(r.x.shape == (n,) for r in res)
    for r, alpha in zip(res, alphas):
        direct = dense_normal_solve(mat, data, alpha)
        assert np.linalg.norm(r.x - direct) <= 1e-6 * np.linalg.norm(direct)


def test_stability_bound_random_pairs():
    # ||x_a(y1) - x_a(y2)|| <= ||y1 - y2|| / (2 sqrt(alpha))
    rng = np.random.default_rng(5)
    geom = RadonGeometry.for_grid(16, 8)
    op = radon_operator(geom, 16, 16)
    alpha = 0.05
    for _ in range(20):
        y1 = rng.standard_normal(geom.size)
        y2 = rng.standard_normal(geom.size)
        x1 = solve_tikhonov(TikhonovProblem(op=op, data=y1, alpha=alpha),
                            tol=1e-10, max_iter=2000).x
        x2 = solve_tikhonov(TikhonovProblem(op=op, data=y2, alpha=alpha),
                            tol=1e-10, max_iter=2000).x
        lhs = np.linalg.norm(x1 - x2)
        rhs = np.linalg.norm(y1 - y2) / (2 * np.sqrt(alpha))
        assert lhs <= rhs * (1 + 1e-8)


def test_distance_to_prior_monotone_in_alpha():
    rng = np.random.default_rng(6)
    geom = RadonGeometry.for_grid(16, 8)
    op = radon_operator(geom, 16, 16)
    data = rng.standard_normal(geom.size)
    alphas = np.logspace(-4, 2, 13)
    norms = []
    for alpha in alphas:
        res = solve_tikhonov(TikhonovProblem(op=op, data=data, alpha=float(alpha)),
                             tol=1e-10, max_iter=5000)
        norms.append(np.linalg.norm(res.x))
    for a, b in zip(norms, norms[1:]):
        assert b <= a * (1 + 1e-8)


def test_objective_dominance():
    rng = np.random.default_rng(7)
    geom = RadonGeometry.for_grid(12, 6)
    op = radon_operator(geom, 12, 12)
    data = rng.standard_normal(geom.size)
    alpha = 0.3
    tol = 1e-10
    res = solve_tikhonov(TikhonovProblem(op=op, data=data, alpha=alpha), tol=tol, max_iter=2000)
    j_star = objective_and_cotangent(op, data, alpha, res.x)[0]
    for _ in range(10):
        v = rng.standard_normal(144)
        assert j_star <= objective_and_cotangent(op, data, alpha, v)[0] + 10 * tol


@pytest.mark.parametrize("geom, nx, ny", PRECONDITIONED_GEOMETRIES)
def test_preconditioned_solve_matches_dense_oracle(geom, nx, ny):
    op = radon_operator(geom, nx, ny)
    assert op.normal_preconditioner is not None
    mat = dense_matrix(geom, nx, ny)
    data = np.random.default_rng(9).standard_normal(geom.size)
    for alpha in (1e-3, 1e-1, 1.0):
        res = solve_tikhonov(TikhonovProblem(op=op, data=data, alpha=alpha),
                             tol=1e-10, max_iter=5000)
        direct = dense_normal_solve(mat, data, alpha)
        assert res.converged
        assert np.linalg.norm(res.x - direct) <= 1e-6 * np.linalg.norm(direct)


def test_single_alpha_solve_is_preconditioned():
    # 64x64, 30 angles, 23 dB, alpha = delta: plain CG takes 26 iterations,
    # preconditioned CG 14; more than 17 means the preconditioner was dropped
    geom = RadonGeometry.for_grid(64, 30)
    clean = radon_forward(shepp_logan(64, 64), geom).values
    delta = delta_for_snr(clean, 23.0)
    data = add_noise(clean, NoiseSpec(delta=delta, seed=1))
    res = solve_tikhonov(TikhonovProblem(op=radon_operator(geom, 64, 64), data=data, alpha=delta),
                         tol=1e-10, max_iter=2000)
    assert res.converged and res.iterations <= 17


def test_preconditioned_solve_applies_the_preconditioner_once_per_iteration():
    # 32x32, 20 angles, 23 dB, alpha = delta: 17 iterations
    geom = RadonGeometry.for_grid(32, 20)
    clean = radon_forward(shepp_logan(32, 32), geom).values
    delta = delta_for_snr(clean, 23.0)
    data = add_noise(clean, NoiseSpec(delta=delta, seed=1))
    op = radon_operator(geom, 32, 32)
    calls = []

    def counted(v, alpha):
        calls.append(1)
        return op.normal_preconditioner(v, alpha)

    counted_op = dataclasses.replace(op, normal_preconditioner=counted)
    res = solve_tikhonov(TikhonovProblem(op=counted_op, data=data, alpha=delta),
                         tol=1e-10, max_iter=2000)
    assert res.converged and res.iterations > 1
    assert len(calls) == res.iterations
