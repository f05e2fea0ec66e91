"""Classical Tikhonov regularization for linear operators.

The regularized solution of A x = y^d with penalty weight alpha minimizes
||A z - y^d||^2 + alpha ||z||^2, i.e. solves the normal equations
(A^T A + alpha I) x = A^T y^d. The system is SPD for alpha > 0, so
conjugate gradients applies. A single-alpha solve is preconditioned when
the operator supplies an approximate inverse of the normal operator (the
Radon transform's FFT symbol of R^T R); a sweep's multi-shift sequence is
not, since preconditioning breaks its shift invariance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, check_positive
from .linop import CgResult, cg_solve


@dataclass
class TikhonovProblem:
    """Operator, data and regularization weight."""

    op: object
    data: np.ndarray
    alpha: float

    def __post_init__(self):
        check_positive("alpha", self.alpha)
        self.data = np.asarray(self.data, dtype=np.float64).ravel()
        if self.data.size != self.op.range_dim:
            raise ValueError(
                f"data has length {self.data.size}, operator range is {self.op.range_dim}"
            )


def objective_and_cotangent(op, data, alpha, x):
    """||A x - data||^2 + alpha ||x||^2 and its gradient 2 A^T (A x - data) + 2 alpha x."""
    residual = op.apply(x) - data
    objective = float(residual @ residual + alpha * (x @ x))
    cotangent = 2.0 * op.apply_adjoint(residual) + 2.0 * alpha * x
    return objective, cotangent


def normal_operator(op, alpha):
    """The map v -> (A^T A + alpha I) v of the normal equations."""
    return lambda v: op.apply_adjoint(op.apply(v)) + alpha * v


def solve_tikhonov(problem: TikhonovProblem, tol, max_iter, x0=None) -> CgResult:
    """Solve the normal equations by CG, preconditioned when the operator can.

    Returns the solution together with the final normal-equation residual
    and ||A^T y^d|| so callers can audit optimality. ``x0`` warm-starts the
    iteration. An operator with a ``normal_preconditioner`` gets
    preconditioned CG; the stopping test is the same either way.
    """
    op, alpha = problem.op, problem.alpha
    pre = op.normal_preconditioner
    precondition = None if pre is None else (lambda r: pre(r, alpha))
    return cg_solve(normal_operator(op, alpha), op.apply_adjoint(problem.data), tol=tol,
                    max_iter=max_iter, x0=x0, precondition=precondition)


def check_converged(alpha, result: CgResult, tol, tol_name):
    """Raise NumericalFailureError, naming the setting ``tol_name``, unless ``result`` converged."""
    if not result.converged:
        raise NumericalFailureError(
            f"CG did not converge at alpha={alpha:.6g}: {result.iterations} iterations, "
            f"normal residual {result.residual_norm:.3e} > {tol_name} * ||rhs|| = "
            f"{tol * result.rhs_norm:.3e}"
        )


def dense_normal_solve(mat, data, alpha):
    """Direct dense solve of the normal equations; test oracle for small N."""
    mat = np.asarray(mat, dtype=np.float64)
    n = mat.shape[1]
    if n > 4096:
        raise ValueError(f"dense oracle limited to N <= 4096, got {n}")
    lhs = mat.T @ mat + alpha * np.eye(n)
    return np.linalg.solve(lhs, mat.T @ np.asarray(data, dtype=np.float64))
