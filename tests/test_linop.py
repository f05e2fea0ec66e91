import numpy as np
import pytest

from compact_tik.errors import NumericalFailureError
from compact_tik.linop import (
    CgResult,
    LinearOperator,
    adjoint_defect,
    cg_solve,
    cg_solve_shifted,
    matrix_operator,
)


def test_matrix_operator_adjoint_contract():
    rng = np.random.default_rng(0)
    op = matrix_operator(rng.standard_normal((7, 5)))
    assert adjoint_defect(op, n_probes=20) <= 1e-10


def test_adjoint_defect_rejects_zero_denominator():
    # every ray of this geometry misses a 4x4 image, so R x = 0 on every probe
    from compact_tik.radon import RadonGeometry, radon_operator

    geom = RadonGeometry(n_angles=2, n_bins=2, det_halfwidth=2.0, step=0.3)
    op = radon_operator(geom, 4, 4)
    with pytest.raises(ValueError, match="probe 0"):
        adjoint_defect(op)


def test_adjoint_defect_reports_nan():
    nan_op = LinearOperator(domain_dim=3, range_dim=2,
                            apply=lambda x: np.full(2, np.nan),
                            apply_adjoint=lambda y: np.full(3, np.nan))
    assert np.isnan(adjoint_defect(nan_op))
    # a NaN on one probe is not hidden by finite defects on the others
    mat = np.random.default_rng(1).standard_normal((2, 3))
    calls = []

    def apply_nan_on_second_call(x):
        calls.append(None)
        return mat @ x if len(calls) != 2 else np.full(2, np.nan)

    op = LinearOperator(domain_dim=3, range_dim=2, apply=apply_nan_on_second_call,
                        apply_adjoint=lambda y: mat.T @ y)
    assert np.isnan(adjoint_defect(op, n_probes=4))
    assert len(calls) == 4


def test_adjoint_defect_needs_a_probe():
    with pytest.raises(ValueError):
        adjoint_defect(matrix_operator(np.eye(1)), n_probes=0)


def test_cg_identity_single_iteration():
    rhs = np.array([1.0, -2.0, 3.0])
    res = cg_solve(lambda x: x, rhs, tol=1e-10, max_iter=2000)
    assert res.iterations == 1
    assert np.allclose(res.x, rhs)
    assert res.converged


def test_cg_diagonal_closed_form():
    d = np.array([1.0, 2.0, 3.0])
    res = cg_solve(lambda x: d * x, np.ones(3), tol=1e-10, max_iter=2000)
    assert np.allclose(res.x, [1.0, 0.5, 1.0 / 3.0], atol=1e-10)
    assert res.converged


def test_cg_zero_rhs():
    res = cg_solve(lambda x: 2.0 * x, np.zeros(4), tol=1e-10, max_iter=2000)
    assert res.iterations == 0
    assert np.array_equal(res.x, np.zeros(4))
    assert res.converged
    want = reference_cg(lambda x: 2.0 * x, np.zeros(4))
    shifted = cg_solve_shifted(lambda x: 2.0 * x, np.zeros(4), [0.0], tol=1e-10, max_iter=2000)
    assert np.array_equal(shifted[0].x, want.x) and shifted[0].iterations == want.iterations == 0
    assert res.residual_norm == shifted[0].residual_norm == want.residual_norm == 0.0
    assert shifted[0].converged and want.converged


def test_cg_converges_within_dimension():
    # moderate-condition SPD systems of size <= 50 finish in <= N iterations
    rng = np.random.default_rng(3)
    for n in (10, 30, 50):
        b_mat = rng.standard_normal((n, n))
        spd = b_mat @ b_mat.T + n * np.eye(n)
        rhs = rng.standard_normal(n)
        res = cg_solve(lambda x, m=spd: m @ x, rhs, tol=1e-10, max_iter=2000)
        assert res.converged
        assert res.iterations <= n
        assert np.linalg.norm(spd @ res.x - rhs) <= 1e-10 * np.linalg.norm(rhs)


def test_cg_residual_contract():
    rng = np.random.default_rng(5)
    b_mat = rng.standard_normal((40, 40))
    spd = b_mat @ b_mat.T + 0.1 * np.eye(40)
    rhs = rng.standard_normal(40)
    res = cg_solve(lambda x: spd @ x, rhs, tol=1e-8, max_iter=2000)
    assert np.linalg.norm(spd @ res.x - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_cg_deterministic():
    rng = np.random.default_rng(7)
    b_mat = rng.standard_normal((20, 20))
    spd = b_mat @ b_mat.T + np.eye(20)
    rhs = rng.standard_normal(20)
    r1 = cg_solve(lambda x: spd @ x, rhs, tol=1e-10, max_iter=2000)
    r2 = cg_solve(lambda x: spd @ x, rhs, tol=1e-10, max_iter=2000)
    assert np.array_equal(r1.x, r2.x)
    assert r1.iterations == r2.iterations


def test_cg_max_iter_reported():
    rng = np.random.default_rng(9)
    b_mat = rng.standard_normal((30, 30))
    spd = b_mat @ b_mat.T + 1e-6 * np.eye(30)
    rhs = rng.standard_normal(30)
    res = cg_solve(lambda x: spd @ x, rhs, tol=1e-14, max_iter=3)
    assert res.iterations == 3
    assert not res.converged


def test_cg_rejects_bad_tol():
    with pytest.raises(ValueError):
        cg_solve(lambda x: x, np.ones(2), tol=0.0, max_iter=2000)


@pytest.mark.parametrize("tol", [np.nan, np.inf])
def test_cg_rejects_non_finite_tol(tol):
    # a NaN tol fails `tol <= 0` too, and an infinite one stops at once as "converged"
    with pytest.raises(ValueError, match="finite"):
        cg_solve(lambda x: x, np.ones(2), tol=tol, max_iter=2000)
    with pytest.raises(ValueError, match="finite"):
        cg_solve_shifted(lambda x: x, np.ones(2), [0.0, 1.0], tol=tol, max_iter=2000)


@pytest.mark.parametrize("max_iter", [0, -3, np.nan, np.inf, 2.5])
def test_cg_rejects_an_out_of_range_iteration_cap(max_iter):
    # a NaN or infinite cap never stops the loop, one below 1 allows no step,
    # and a fractional one would run to the next integer
    with pytest.raises(ValueError, match="max_iter"):
        cg_solve(lambda x: x, np.ones(2), tol=1e-10, max_iter=max_iter)
    with pytest.raises(ValueError, match="max_iter"):
        cg_solve_shifted(lambda x: x, np.ones(2), [0.0, 1.0], tol=1e-10, max_iter=max_iter)


def test_cg_takes_a_numpy_integer_cap():
    res = cg_solve(lambda x: np.arange(1.0, 51.0) * x, np.ones(50), tol=1e-14,
                   max_iter=np.int64(3))
    assert res.iterations == 3 and not res.converged


def test_cg_raises_on_nonfinite():
    def bad(x):
        out = x.copy()
        out[0] = np.nan
        return out

    with pytest.raises(NumericalFailureError):
        cg_solve(bad, np.ones(3), tol=1e-10, max_iter=2000)


def test_cg_shifted_freezes_converged_shifts():
    # the base spectrum spans four decades, so the base system runs for many
    # iterations; the largest shifts converge within a few, after which their
    # zeta shrinks by about 1e-6 per iteration and would underflow to 0/0
    eig = np.logspace(-4.0, 0.0, 200)
    rhs = np.random.default_rng(11).standard_normal(200)
    alphas = np.logspace(-3.0, 6.0, 10)
    base = alphas[0]

    def apply_base(v):
        return (eig + base) * v

    with np.errstate(all="raise"):
        capped = cg_solve_shifted(apply_base, rhs, alphas - base, tol=1e-10, max_iter=5)
        res = cg_solve_shifted(apply_base, rhs, alphas - base, tol=1e-10, max_iter=2000)
    assert all(c.iterations == 5 for c in capped)
    assert all(c.converged for c in capped[-3:]) and not capped[0].converged
    assert all(r.converged and r.iterations > 20 for r in res)
    assert all(np.all(np.isfinite(r.x)) for r in res)
    for r, alpha in zip(res, alphas):
        assert np.linalg.norm((eig + alpha) * r.x - rhs) <= 1e-9 * np.linalg.norm(rhs)


def reference_cg(apply_spd, rhs, tol=1e-10, max_iter=2000):
    """Textbook CG from x0 = 0: the loop cg_solve ran before it became the
    single-shift case of cg_solve_shifted."""
    rhs = np.asarray(rhs, dtype=np.float64)
    x = np.zeros_like(rhs)
    r = rhs - apply_spd(x)
    p = r.copy()
    rs = r @ r
    if not np.isfinite(rs):
        raise NumericalFailureError("non-finite initial residual in cg_solve")
    rhs_norm = float(np.linalg.norm(rhs))
    threshold = tol * rhs_norm
    iterations = 0
    while np.sqrt(rs) > threshold and iterations < max_iter:
        mp = apply_spd(p)
        denom = p @ mp
        if not np.isfinite(denom) or denom <= 0.0:
            raise NumericalFailureError(
                f"CG breakdown at iteration {iterations}: p^T M p = {denom}"
            )
        step = rs / denom
        x = x + step * p
        r = r - step * mp
        rs_next = r @ r
        if not np.isfinite(rs_next):
            raise NumericalFailureError(f"non-finite residual at iteration {iterations}")
        p = r + (rs_next / rs) * p
        rs = rs_next
        iterations += 1
    residual_norm = float(np.sqrt(rs))
    return CgResult(
        x=x,
        iterations=iterations,
        residual_norm=residual_norm,
        rhs_norm=rhs_norm,
        converged=residual_norm <= threshold,
    )


def random_spd(seed, n, ridge):
    rng = np.random.default_rng(seed)
    b_mat = rng.standard_normal((n, n))
    return b_mat @ b_mat.T + ridge * np.eye(n), rng.standard_normal(n)


@pytest.mark.parametrize("seed, n, ridge, tol, max_iter", [
    (20, 10, 10.0, 1e-10, 2000),
    (21, 40, 0.1, 1e-8, 2000),
    (22, 60, 1e-3, 1e-12, 2000),
    (23, 30, 1e-6, 1e-14, 3),  # capped before convergence
    (24, 25, 1.0, 1e-10, 1),  # the smallest cap: one step
])
def test_cg_is_reference_cg_bit_for_bit(seed, n, ridge, tol, max_iter):
    spd, rhs = random_spd(seed, n, ridge)
    want = reference_cg(lambda x: spd @ x, rhs, tol=tol, max_iter=max_iter)
    got = cg_solve(lambda x: spd @ x, rhs, tol=tol, max_iter=max_iter)
    shifted = cg_solve_shifted(lambda x: spd @ x, rhs, [0.0], tol=tol, max_iter=max_iter)
    assert np.array_equal(got.x, want.x)
    assert (got.iterations, got.residual_norm, got.rhs_norm, got.converged) == (
        want.iterations, want.residual_norm, want.rhs_norm, want.converged)
    assert np.array_equal(shifted[0].x, want.x)
    assert (shifted[0].iterations, shifted[0].residual_norm, shifted[0].converged) == (
        want.iterations, want.residual_norm, want.converged)


def test_cg_shifted_base_shift_is_plain_cg():
    spd, rhs = random_spd(12, 25, 1.0)
    res = cg_solve_shifted(lambda x: spd @ x, rhs, [0.0, 0.5, 3.0], tol=1e-10, max_iter=2000)
    plain = reference_cg(lambda x: spd @ x, rhs)
    assert np.array_equal(res[0].x, plain.x)
    assert res[0].iterations == plain.iterations


def test_cg_warm_start_from_solution_does_not_iterate():
    spd, rhs = random_spd(25, 30, 1.0)
    x0 = np.linalg.solve(spd, rhs)
    assert np.linalg.norm(spd @ x0 - rhs) <= 1e-10 * np.linalg.norm(rhs)
    res = cg_solve(lambda x: spd @ x, rhs, tol=1e-10, max_iter=2000, x0=x0)
    assert res.iterations == 0 and res.converged
    assert np.array_equal(res.x, x0)
    assert res.residual_norm == np.linalg.norm(rhs - spd @ x0)
    assert res.rhs_norm == np.linalg.norm(rhs)


def test_cg_warm_start_from_random_point_converges():
    spd, rhs = random_spd(26, 40, 1.0)
    x0 = 100.0 * np.random.default_rng(27).standard_normal(40)
    res = cg_solve(lambda x: spd @ x, rhs, tol=1e-8, max_iter=2000, x0=x0)
    assert res.converged and res.iterations > 0
    assert np.linalg.norm(spd @ res.x - rhs) <= 1e-8 * np.linalg.norm(rhs)


def test_cg_shifted_rejects_bad_arguments():
    with pytest.raises(ValueError):
        cg_solve_shifted(lambda x: x, np.ones(2), [0.0], tol=0.0, max_iter=2000)
    with pytest.raises(ValueError):
        cg_solve_shifted(lambda x: x, np.ones(2), [], tol=1e-10, max_iter=2000)
    with pytest.raises(ValueError):
        cg_solve_shifted(lambda x: x, np.ones(2), [0.0, -1.0], tol=1e-10, max_iter=2000)


def test_preconditioned_cg_meets_tol_on_its_true_residual():
    # badly scaled SPD system; Jacobi (inverse diagonal) is an SPD preconditioner
    spd, rhs = random_spd(28, 40, 1.0)
    scale = np.logspace(0, 2, 40)
    spd = scale[:, None] * spd * scale[None, :]
    inv_diag = 1.0 / np.diag(spd)
    res = cg_solve(lambda x: spd @ x, rhs, tol=1e-8, max_iter=2000,
                   precondition=lambda r: inv_diag * r)
    assert res.converged
    assert np.linalg.norm(spd @ res.x - rhs) <= 1e-8 * np.linalg.norm(rhs)
    direct = np.linalg.solve(spd, rhs)
    assert np.linalg.norm(res.x - direct) <= 1e-6 * np.linalg.norm(direct)


def test_cg_preconditioned_by_the_exact_inverse_takes_one_iteration():
    spd, rhs = random_spd(29, 30, 1.0)
    inverse = np.linalg.inv(spd)
    calls = []

    def precondition(r):
        calls.append(1)
        return inverse @ r

    res = cg_solve(lambda x: spd @ x, rhs, tol=1e-10, max_iter=2000, precondition=precondition)
    assert res.converged and res.iterations == 1
    # z is formed only when a step follows: once per iteration
    assert len(calls) == 1


def test_converged_warm_start_never_calls_the_preconditioner():
    spd, rhs = random_spd(25, 30, 1.0)
    calls = []

    def precondition(r):
        calls.append(1)
        return r

    res = cg_solve(lambda x: spd @ x, rhs, tol=1e-10, max_iter=2000, x0=np.linalg.solve(spd, rhs),
                   precondition=precondition)
    assert res.iterations == 0 and res.converged
    assert not calls
