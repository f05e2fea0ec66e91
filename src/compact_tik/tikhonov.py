"""Classical Tikhonov regularization for linear operators.

The regularized solution of A x = y^d with penalty weight alpha and prior
x* minimizes ||A z - y^d||^2 + alpha ||z - x*||^2, i.e. solves the normal
equations (A^T A + alpha I) x = A^T y^d + alpha x*. The system is SPD for
alpha > 0, so conjugate gradients applies without preconditioning.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linop import cg_solve

DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 2000


@dataclass
class TikhonovProblem:
    """Operator, data, regularization weight and prior element.

    ``x_star`` defaults to the zero vector.
    """

    op: object
    data: np.ndarray
    alpha: float
    x_star: np.ndarray | None = None

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        self.data = np.asarray(self.data, dtype=np.float64).ravel()
        if self.data.size != self.op.range_dim:
            raise ValueError(
                f"data has length {self.data.size}, operator range is {self.op.range_dim}"
            )
        if self.x_star is None:
            self.x_star = np.zeros(self.op.domain_dim)
        else:
            self.x_star = np.asarray(self.x_star, dtype=np.float64).ravel()
            if self.x_star.size != self.op.domain_dim:
                raise ValueError(
                    f"x_star has length {self.x_star.size}, operator domain is {self.op.domain_dim}"
                )


@dataclass(frozen=True)
class TikhonovResult:
    x: np.ndarray
    iterations: int
    residual_norm: float
    rhs_norm: float
    converged: bool


def tikhonov_objective(op, data, alpha, x, x_star=None):
    """||A x - data||^2 + alpha ||x - x*||^2 for an arbitrary candidate x."""
    r = op.apply(x) - data
    d = x if x_star is None else x - x_star
    return float(r @ r + alpha * (d @ d))


def solve_tikhonov(problem: TikhonovProblem, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER,
                   x0=None) -> TikhonovResult:
    """Solve the normal equations by CG.

    Returns the solution together with the final normal-equation residual
    so callers can audit optimality. ``x0`` warm-starts the iteration.
    """
    op, alpha = problem.op, problem.alpha

    def normal_operator(v):
        return op.apply_adjoint(op.apply(v)) + alpha * v

    rhs = op.apply_adjoint(problem.data) + alpha * problem.x_star
    res = cg_solve(normal_operator, rhs, tol=tol, max_iter=max_iter, x0=x0)
    return TikhonovResult(
        x=res.x,
        iterations=res.iterations,
        residual_norm=res.residual_norm,
        rhs_norm=float(np.linalg.norm(rhs)),
        converged=res.converged,
    )


def dense_normal_solve(mat, data, alpha, x_star=None):
    """Direct dense solve of the normal equations; test oracle for small N."""
    mat = np.asarray(mat, dtype=np.float64)
    n = mat.shape[1]
    if n > 4096:
        raise ValueError(f"dense oracle limited to N <= 4096, got {n}")
    if x_star is None:
        x_star = np.zeros(n)
    lhs = mat.T @ mat + alpha * np.eye(n)
    rhs = mat.T @ np.asarray(data, dtype=np.float64) + alpha * x_star
    return np.linalg.solve(lhs, rhs)
