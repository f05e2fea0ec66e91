"""Matrix-free linear operators and conjugate-gradient solvers.

An operator is anything exposing ``domain_dim``, ``range_dim``, ``apply``
and ``apply_adjoint`` over flat float64 vectors; the adjoint pair must
satisfy <Ax, y> = <x, A^T y> up to floating-point roundoff.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NumericalFailureError, check_count, check_positive


@dataclass(frozen=True)
class LinearOperator:
    """Behavioral apply/adjoint pair on flat vectors.

    ``apply`` and ``apply_adjoint`` return a new array on each call, which the
    caller may overwrite.
    """

    domain_dim: int
    range_dim: int
    apply: Callable[[np.ndarray], np.ndarray]
    apply_adjoint: Callable[[np.ndarray], np.ndarray]
    #: optional (v, alpha) -> approximately (A^T A + alpha I)^{-1} v, SPD for alpha > 0
    normal_preconditioner: Callable[[np.ndarray, float], np.ndarray] | None = None


def matrix_operator(mat):
    """Wrap a dense 2-D array as a LinearOperator."""
    mat = np.asarray(mat, dtype=np.float64)
    return LinearOperator(
        domain_dim=mat.shape[1],
        range_dim=mat.shape[0],
        apply=lambda x: mat @ x,
        apply_adjoint=lambda y: mat.T @ y,
    )


def adjoint_defect(op, n_probes=10, seed=0):
    """Max relative defect |<Ax,y> - <x,A^T y>| / (||Ax|| ||y||) on random probes.

    A NaN defect on any probe (an operator that returns NaN) makes the
    result NaN, never a pass. A probe with ||Ax|| ||y|| = 0 has no relative
    defect and raises ValueError.
    """
    check_positive("n_probes", n_probes)
    rng = np.random.default_rng(seed)
    defects = []
    for k in range(n_probes):
        x = rng.standard_normal(op.domain_dim)
        y = rng.standard_normal(op.range_dim)
        ax = op.apply(x)
        aty = op.apply_adjoint(y)
        scale = np.linalg.norm(ax) * np.linalg.norm(y)
        if scale == 0.0:
            raise ValueError(f"probe {k}: ||A x|| ||y|| = 0, so the relative defect is undefined")
        defects.append(abs(ax @ y - x @ aty) / scale)
    return float(np.max(defects))


@dataclass(frozen=True)
class CgResult:
    """One system's solution and convergence metadata; the iteration stops at tol * ``rhs_norm``."""

    x: np.ndarray
    iterations: int
    residual_norm: float
    rhs_norm: float
    converged: bool


def _identity(v):
    return v


def cg_solve(apply_spd, rhs, tol, max_iter, x0=None, precondition=None):
    """Conjugate gradients for M x = rhs with M symmetric positive definite.

    The single-shift case (shift 0) of :func:`cg_solve_shifted`. A warm
    start solves M d = rhs - M x0 to the threshold of the original ``rhs``
    and returns x0 + d, so a converged ``x0`` costs no iteration.

    With ``precondition``, an SPD approximation of M^{-1}, the search
    directions follow z = precondition(r) instead of r (preconditioned CG).
    The stopping test is unchanged: it reads the unpreconditioned residual
    ||r||, so ``residual_norm`` and ``converged`` keep their meaning. Each
    z is formed only after a convergence test that lets a step follow, so
    ``precondition`` is applied once per iteration and never at a converged
    start. Without it, z = r and this is textbook CG bit for bit.

    Parameters
    ----------
    apply_spd : callable
        x -> M x for the SPD operator M (behavioral assumption, unchecked).
    rhs : ndarray
        Right-hand side.
    tol : float
        Stop when ||M x - rhs|| <= tol * ||rhs||. Must be positive and finite.
    max_iter : int
        Iteration cap; a positive integer. Hitting it is reported, not raised.
    x0 : ndarray, optional
        Warm start; defaults to zero.
    precondition : callable, optional
        r -> z, an SPD approximation of M^{-1} r (behavioral assumption,
        unchecked). A poor one costs iterations, never the verdict.

    Returns
    -------
    CgResult

    Raises
    ------
    NumericalFailureError
        If non-finite values appear during the iteration.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    r0 = rhs if x0 is None else rhs - apply_spd(np.asarray(x0, dtype=np.float64))
    (res,) = _shifted_cg(apply_spd, r0, np.zeros(1), tol, float(np.linalg.norm(rhs)), max_iter,
                         _identity if precondition is None else precondition)
    return res if x0 is None else dataclasses.replace(res, x=x0 + res.x)


def cg_solve_shifted(apply_base, rhs, shifts, tol, max_iter):
    """Multi-shift CG for (M + s I) x_s = rhs, every shift s from one Krylov sequence.

    CG runs on the base system M x = rhs from x0 = 0. The residual of each
    shifted system stays collinear with the base residual, r_s = zeta_s r,
    so each shift costs vector updates only and the whole set costs the
    applications of M of the slowest system (Frommer & Maass, SIAM J. Sci.
    Comput. 20 (1999); Jegerlehner, hep-lat/9612014). Shifts are
    nonnegative, so the base system is the slowest and zeta_s shrinks as s
    grows. There is no preconditioned variant: preconditioning breaks the
    shift invariance K(M, r) = K(M + s I, r) that lets the shifts share
    one sequence.

    A shift is frozen once |zeta_s| ||r|| <= tol * ||rhs|| and never updated
    again: past convergence its zeta keeps shrinking, underflows and would
    turn the recurrence into 0/0. The recursive residuals drift from the
    true ones by roundoff, so callers that need a verdict recompute
    ||(M + s I) x_s - rhs||.

    Parameters
    ----------
    apply_base : callable
        x -> M x for the SPD base operator M (behavioral assumption, unchecked).
    rhs : ndarray
        Right-hand side shared by every shift.
    shifts : array_like
        Nonnegative shifts, 1-D and nonempty.
    tol : float
        Per-shift stopping tolerance relative to ||rhs||; positive, finite.
    max_iter : int
        Cap on applications of M; a positive integer. Shifts still active
        when it is hit are reported unconverged, not raised.

    Returns
    -------
    list of CgResult
        One per shift, in shift order. ``iterations`` is the length of the
        shared sequence; ``residual_norm`` is the recursive |zeta_s| ||r||
        as of the iteration at which the shift was frozen or the iteration
        stopped.

    Raises
    ------
    NumericalFailureError
        If non-finite values or a CG breakdown appear during the iteration.
    """
    shifts = np.asarray(shifts, dtype=np.float64)
    if shifts.ndim != 1 or shifts.size == 0:
        raise ValueError("shifts must be a nonempty 1-D array")
    if not np.all(shifts >= 0.0):  # also rejects NaN
        raise ValueError("shifts must be nonnegative")
    rhs = np.asarray(rhs, dtype=np.float64)
    return _shifted_cg(apply_base, rhs, shifts, tol, float(np.linalg.norm(rhs)), max_iter,
                       _identity)


def _shifted_cg(apply_base, rhs, shifts, tol, rhs_norm, max_iter, precondition):
    """:func:`cg_solve_shifted` from x0 = 0, freezing each shift at the absolute
    threshold tol * ``rhs_norm``. With the single shift 0, zeta and the ratio
    stay exactly 1, so this is textbook CG bit for bit; ``precondition`` is
    for that case only, and turns it into preconditioned CG. Each step first
    forms z = precondition(r) and the next direction, so z is formed only
    when the convergence test lets a step follow. Both entry points' ``tol``
    and ``max_iter`` are checked here, before the first step."""
    check_positive("tol", tol)
    check_count("max_iter", max_iter)
    threshold = tol * rhs_norm
    r = np.array(rhs, dtype=np.float64)  # a copy: r and p are updated in place
    rs = r @ r
    if not np.isfinite(rs):
        raise NumericalFailureError("non-finite initial residual in CG")
    p = np.zeros_like(r)
    xs = np.zeros((shifts.size, r.size))
    residuals = np.empty(shifts.size)
    # state of the active shifts only; rows of a frozen shift are dropped
    active = np.arange(shifts.size)
    sigma = shifts
    x_act = np.zeros_like(xs)
    p_act = np.zeros_like(xs)
    zeta = np.ones(shifts.size)
    zeta_prev = np.ones(shifts.size)
    ratio = np.ones(shifts.size)
    # rz = r^T z; an infinite one before the first step makes the first beta
    # 0, so the first directions are z and zeta z = z
    step_prev, rz_prev = 1.0, np.inf
    iterations = 0
    while True:
        res = zeta * np.sqrt(rs)
        done = res <= threshold
        if done.any():
            xs[active[done]] = x_act[done]
            residuals[active[done]] = res[done]
            active, sigma, zeta, zeta_prev, ratio, x_act, p_act, res = (
                a[~done] for a in (active, sigma, zeta, zeta_prev, ratio, x_act, p_act, res)
            )
        if active.size == 0 or iterations >= max_iter:
            break
        z = precondition(r)
        rz = r @ z
        beta = rz / rz_prev
        p_act *= (beta * ratio * ratio)[:, None]
        p_act += zeta[:, None] * z
        p *= beta
        p += z
        mp = apply_base(p)
        denom = p @ mp
        if not np.isfinite(denom) or denom <= 0.0:
            raise NumericalFailureError(
                f"CG breakdown at iteration {iterations}: p^T M p = {denom}"
            )
        step = rz / denom
        zeta_next = zeta * zeta_prev * step_prev / (
            step * beta * (zeta_prev - zeta) + zeta_prev * step_prev * (1.0 + sigma * step)
        )
        ratio = zeta_next / zeta
        x_act += (step * ratio)[:, None] * p_act
        r -= step * mp
        rs = r @ r
        if not np.isfinite(rs):
            raise NumericalFailureError(f"non-finite residual at iteration {iterations}")
        zeta_prev, zeta = zeta, zeta_next
        step_prev, rz_prev = step, rz
        iterations += 1
    xs[active] = x_act
    residuals[active] = res
    return [CgResult(x=x, iterations=iterations, residual_norm=float(norm), rhs_norm=rhs_norm,
                     converged=bool(norm <= threshold)) for x, norm in zip(xs, residuals)]
