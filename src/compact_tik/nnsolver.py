"""Network-parametrized regularized reconstruction.

Instead of minimizing the Tikhonov functional over all images, the image
is the output of a coordinate MLP evaluated on the pixel-center grid, and
the functional

    J(omega) = ||R x_omega - y^d||^2 + alpha ||x_omega||^2

is minimized over the network parameters with full-batch Adam. The final
ReLU keeps every reconstruction in the nonnegative orthant; an optional
box bound on the parameters (enforced by clamping after each step) keeps
them inside the compact solution set.

The data-term gradient is routed through the verified adjoint: the
image-space cotangent 2 R^T (R x - y^d) + 2 alpha x is handed to the
network backward pass; by linearity of R this equals differentiating
through the projector itself.

Each iteration evaluates the network once: the image x is the output of
one forward trace, and the backward pass reuses that trace. Both run
through one ``MlpWorkspace`` built per run, so the loop allocates no
(pixels x width) array: the trace, the image x (a view of the output
buffer) and the gradient live in the workspace and are overwritten by the
next iteration, and the best image is copied out of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, check_count, check_positive
from .grid import ImageGrid, pixel_centers
from .mlp import (
    AdamState,
    MlpArchitecture,
    MlpWorkspace,
    adam_step,
    forward_trace,
    init_params,
    mlp_backward,
    mlp_forward,
    project_weights,
)
from .tikhonov import objective_and_cotangent


@dataclass
class NnReconstructionConfig:
    """Everything a single network reconstruction depends on.

    ``operator`` must have domain dimension nx * ny. ``weight_bound`` None
    reproduces unconstrained training; a finite value clamps the drawn init,
    and the parameters after every step, to [-c, c].
    """

    architecture: MlpArchitecture
    alpha: float
    operator: object
    data: np.ndarray
    nx: int
    ny: int
    iterations: int
    seed: int
    learning_rate: float = 1e-3
    weight_bound: float | None = None

    def __post_init__(self):
        for name in ("alpha", "learning_rate"):
            check_positive(name, getattr(self, name))
        check_count("iterations", self.iterations)
        check_positive("seed", self.seed, zero_ok=True)
        if self.weight_bound is not None:
            check_positive("weight_bound", self.weight_bound)
        if self.operator.domain_dim != self.nx * self.ny:
            raise ValueError(
                f"operator domain {self.operator.domain_dim} != grid size {self.nx * self.ny}"
            )
        self.data = np.asarray(self.data, dtype=np.float64).ravel()
        if self.data.size != self.operator.range_dim:
            raise ValueError(
                f"data length {self.data.size} != operator range {self.operator.range_dim}"
            )


@dataclass
class NnReconstruction:
    """Best-objective iterate of the optimization."""

    image: ImageGrid
    params: object
    objective_trace: np.ndarray
    final_objective: float
    best_iteration: int


def reconstruct_nn(cfg: NnReconstructionConfig) -> NnReconstruction:
    """Run the full-batch optimization loop and return the best iterate.

    The objective trace has ``iterations + 1`` entries (initial value
    included). Adam is not monotone, so the returned image is the one with
    the smallest objective seen, not the last.

    An init whose output is zero at every pixel (output pre-activation
    <= 0 everywhere) is never trained from: the output ReLU passes no
    gradient there, so Adam would never move and the zero image would be
    returned silently. Such an init has its output-layer weights negated,
    which is an equally likely draw of the symmetric uniform init, stays
    inside any weight box and consumes no extra random draws; every other
    init is used bit for bit as drawn. If the negated init is still zero
    everywhere, NumericalFailureError is raised.
    """
    coords = pixel_centers(cfg.nx, cfg.ny)
    op, data, alpha = cfg.operator, cfg.data, cfg.alpha
    params = init_params(cfg.architecture, cfg.seed)
    if cfg.weight_bound is not None:
        project_weights(params, cfg.weight_bound)
    workspace = MlpWorkspace(params, coords.shape[0])
    if not mlp_forward(params, coords, workspace).any():
        w_out = params.weights[-1]
        np.negative(w_out, out=w_out)
        if not mlp_forward(params, coords, workspace).any():
            raise NumericalFailureError("network output is zero at every pixel for both signs "
                                        "of the initial output layer")
    state = AdamState.for_params(params, learning_rate=cfg.learning_rate)

    trace = np.empty(cfg.iterations + 1)
    best_objective = np.inf
    best_params = None
    best_image = None
    best_iteration = 0

    for it in range(cfg.iterations + 1):
        fwd = forward_trace(params, coords, workspace)
        x = fwd[-1][:, 0]
        objective, cotangent = objective_and_cotangent(op, data, alpha, x)
        if not np.isfinite(objective):
            raise NumericalFailureError(f"non-finite objective at iteration {it}")
        trace[it] = objective
        if objective < best_objective:
            best_objective = objective
            best_params = params.copy()
            best_image = x.copy()  # x is overwritten by the next forward
            best_iteration = it
        if it == cfg.iterations:
            break
        grad = mlp_backward(params, fwd, cotangent, workspace)
        # the loop's memory peaks in the next objective's projector calls
        del cotangent
        adam_step(params, grad, state)
        if cfg.weight_bound is not None:
            project_weights(params, cfg.weight_bound)

    return NnReconstruction(
        image=ImageGrid(nx=cfg.nx, ny=cfg.ny, values=best_image),
        params=best_params,
        objective_trace=trace,
        final_objective=best_objective,
        best_iteration=best_iteration,
    )
