"""Tikhonov regularization on compact solution sets, with a CT test bench.

Regularized solutions of ill-posed linear problems are computed two ways:
the classical unconstrained Tikhonov minimizer (conjugate gradients on
the normal equations, preconditioned for a single alpha), and a minimizer over compact sets of nonnegative
images generated by bounded-weight coordinate MLPs. The experiment layer
measures how the reconstruction error decays with the noise level and
compares the fitted rate to the predicted power laws.
"""

from .errors import NumericalFailureError
from .grid import (
    ImageGrid,
    pixel_centers,
    read_imgf,
    shepp_logan,
    write_imgf,
    write_pgm16,
)
from .linop import CgResult, LinearOperator, adjoint_defect, cg_solve, matrix_operator
from .mlp import (
    AdamState,
    MlpArchitecture,
    MlpParams,
    MlpWorkspace,
    adam_step,
    forward_trace,
    init_params,
    load_params,
    mlp_backward,
    mlp_forward,
    project_weights,
    save_params,
)
from .nnsolver import NnReconstruction, NnReconstructionConfig, reconstruct_nn
from .radon import (
    RadonGeometry,
    SinogramGrid,
    dense_matrix,
    radon_adjoint,
    radon_forward,
    radon_operator,
    read_sinf,
    write_sinf,
)
from .tikhonov import (
    TikhonovProblem,
    check_converged,
    dense_normal_solve,
    normal_operator,
    solve_tikhonov,
    tikhonov_objective,
)
from .experiment import (
    ExperimentRecord,
    LinearOracleResult,
    NoiseSpec,
    RateFit,
    SweepConfig,
    SweepResult,
    add_noise,
    alpha_of_delta,
    delta_for_snr,
    deltas_for_snr_range,
    fit_rate,
    linear_oracle,
    run_sweep,
    snr_db,
    standard_normal,
    substream_seed,
)
from .svgplot import emit_plot, render_plot

__version__ = "0.1.0"
