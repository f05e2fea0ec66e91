import numpy as np
import pytest

from compact_tik.errors import NumericalFailureError
from compact_tik.experiment import substream_seed
from compact_tik.grid import pixel_centers, shepp_logan
from compact_tik.mlp import MlpArchitecture, MlpWorkspace, init_params, mlp_forward, project_weights
from compact_tik.nnsolver import NnReconstructionConfig, reconstruct_nn
from compact_tik.radon import RadonGeometry, radon_forward, radon_operator
from compact_tik.tikhonov import TikhonovProblem, objective_and_cotangent, solve_tikhonov
from test_mlp import (
    ReferenceAdamState,
    reference_adam_step,
    reference_backward,
    reference_project_weights,
)

NX = 16
GEOM = RadonGeometry.for_grid(NX, 8)
OP = radon_operator(GEOM, NX, NX)
ARCH = MlpArchitecture(hidden_widths=(12, 12))


def make_config(**overrides):
    base = dict(
        architecture=ARCH,
        alpha=0.05,
        operator=OP,
        data=np.zeros(GEOM.size),
        nx=NX,
        ny=NX,
        iterations=60,
        learning_rate=1e-2,
        seed=0,
    )
    base.update(overrides)
    return NnReconstructionConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        make_config(alpha=0.0)
    with pytest.raises(ValueError):
        make_config(iterations=0)
    # a fractional count is refused up front, naming the setting, not by numpy inside the run
    with pytest.raises(ValueError, match="^iterations must be an integer, got 2.5$"):
        make_config(iterations=2.5)
    assert make_config(iterations=np.int64(3)).iterations == 3
    with pytest.raises(ValueError):
        make_config(nx=8)  # operator domain mismatch
    with pytest.raises(ValueError):
        make_config(data=np.zeros(3))


def test_zero_data_drives_norm_down():
    cfg = make_config()
    recon = reconstruct_nn(cfg)
    trace = recon.objective_trace
    assert trace.size == cfg.iterations + 1
    assert recon.final_objective <= trace[0]
    # J = ||R x||^2 + alpha ||x||^2 with zero data: the image norm shrinks
    drawn = init_params(ARCH, cfg.seed)
    initial = mlp_forward(drawn, pixel_centers(NX, NX), MlpWorkspace(drawn, NX * NX))
    final_norm = np.linalg.norm(recon.image.values)
    assert final_norm**2 <= np.linalg.norm(initial) ** 2


def test_output_nonnegative():
    rng = np.random.default_rng(0)
    cfg = make_config(data=rng.standard_normal(GEOM.size), iterations=40)
    recon = reconstruct_nn(cfg)
    assert np.all(recon.image.values >= 0.0)


def test_best_iterate_not_worse_than_initial():
    rng = np.random.default_rng(1)
    cfg = make_config(data=rng.standard_normal(GEOM.size), iterations=40)
    recon = reconstruct_nn(cfg)
    assert recon.final_objective <= recon.objective_trace[0]
    assert recon.final_objective == recon.objective_trace.min()
    assert recon.objective_trace[recon.best_iteration] == recon.final_objective


def test_deterministic_given_seed():
    phantom = shepp_logan(NX, NX)
    data = radon_forward(phantom, GEOM).values
    r1 = reconstruct_nn(make_config(data=data, iterations=30, seed=11))
    r2 = reconstruct_nn(make_config(data=data, iterations=30, seed=11))
    assert np.array_equal(r1.image.values, r2.image.values)
    assert np.array_equal(r1.objective_trace, r2.objective_trace)


def test_weight_bound_respected():
    rng = np.random.default_rng(2)
    cfg = make_config(data=rng.standard_normal(GEOM.size), iterations=50, weight_bound=0.2)
    recon = reconstruct_nn(cfg)
    assert np.abs(recon.params.flat).max() <= 0.2
    assert np.all(recon.image.values >= 0.0)


def test_unconstrained_minimum_dominates():
    # J(x_tikhonov) <= J(x_nn) for the same (alpha, data, x* = 0)
    phantom = shepp_logan(NX, NX)
    data = radon_forward(phantom, GEOM).values
    alpha = 0.05
    cfg = make_config(data=data, alpha=alpha, iterations=150)
    recon = reconstruct_nn(cfg)
    tik = solve_tikhonov(TikhonovProblem(op=OP, data=data, alpha=alpha), tol=1e-10, max_iter=2000)
    j_tik = objective_and_cotangent(OP, data, alpha, tik.x)[0]
    assert j_tik <= recon.final_objective + 1e-6 * j_tik


# Ct32 reference-sweep setting, where the zero-bias init can be dead: the
# output pre-activation is <= 0 at every pixel, so the output ReLU returns
# the zero image and passes no gradient.
CT32_ARCH = MlpArchitecture(hidden_widths=(100, 100, 100, 100))
CT32_GEOM = RadonGeometry.for_grid(32, 20)
DEAD_SEED = substream_seed(42, 1, 0)


def ct32_config(**overrides):
    base = dict(
        architecture=CT32_ARCH,
        alpha=0.1,
        operator=radon_operator(CT32_GEOM, 32, 32),
        data=radon_forward(shepp_logan(32, 32), CT32_GEOM).values,
        nx=32,
        ny=32,
        iterations=20,
        seed=DEAD_SEED,
    )
    base.update(overrides)
    return NnReconstructionConfig(**base)


def initial_objective(cfg, params):
    x = mlp_forward(params, pixel_centers(cfg.nx, cfg.ny), MlpWorkspace(params, cfg.nx * cfg.ny))
    residual = cfg.operator.apply(x) - cfg.data
    return float(residual @ residual + cfg.alpha * (x @ x))


def negated_output_layer(params):
    w = params.weights[-1]
    np.negative(w, out=w)
    return params


def test_dead_init_is_trained_from_negated_output_layer():
    cfg = ct32_config()
    drawn = init_params(CT32_ARCH, DEAD_SEED)
    assert not mlp_forward(drawn, pixel_centers(32, 32), MlpWorkspace(drawn, 32 * 32)).any()
    recon = reconstruct_nn(cfg)
    assert recon.best_iteration > 0
    assert np.abs(recon.image.values).max() > 0.0
    assert recon.objective_trace[0] == initial_objective(cfg, negated_output_layer(drawn))


def test_live_init_is_used_as_drawn():
    rng = np.random.default_rng(3)
    cfg = make_config(data=rng.standard_normal(GEOM.size), iterations=5)
    drawn = init_params(ARCH, cfg.seed)
    assert mlp_forward(drawn, pixel_centers(NX, NX), MlpWorkspace(drawn, NX * NX)).any()
    recon = reconstruct_nn(cfg)
    assert recon.objective_trace[0] == initial_objective(cfg, drawn)


def test_negated_dead_init_respects_weight_bound():
    bound = 0.05
    cfg = ct32_config(weight_bound=bound, iterations=5)
    drawn = init_params(CT32_ARCH, DEAD_SEED)
    project_weights(drawn, bound)
    assert not mlp_forward(drawn, pixel_centers(32, 32), MlpWorkspace(drawn, 32 * 32)).any()
    flipped = negated_output_layer(drawn)
    assert np.abs(flipped.flat).max() <= bound
    recon = reconstruct_nn(cfg)
    assert recon.objective_trace[0] == initial_objective(cfg, flipped)
    assert recon.best_iteration > 0
    assert np.abs(recon.params.flat).max() <= bound


def test_output_dead_for_both_signs_raises(monkeypatch):
    # with a zero output layer neither sign of it can give a nonzero image

    def zero_output_init(arch, seed):
        params = init_params(arch, seed)
        params.weights[-1][:] = 0.0
        return params

    monkeypatch.setattr("compact_tik.nnsolver.init_params", zero_output_init)
    with pytest.raises(NumericalFailureError):
        reconstruct_nn(make_config())


def two_forward_reference(cfg):
    """The loop as it was before it kept one forward trace per iteration and
    updated one flat parameter vector in place: one forward for the image, a
    second one inside the backward, and an out-of-place Adam step and clamp
    over per-layer lists."""
    coords = pixel_centers(cfg.nx, cfg.ny)
    params = init_params(cfg.architecture, cfg.seed)
    if cfg.weight_bound is not None:
        params = reference_project_weights(params, cfg.weight_bound)
    if not mlp_forward(params, coords, MlpWorkspace(params, len(coords))).any():
        params = negated_output_layer(params)
    state = ReferenceAdamState.for_params(params, learning_rate=cfg.learning_rate)
    trace = []
    best = (np.inf, None, None)
    for it in range(cfg.iterations + 1):
        x = mlp_forward(params, coords, MlpWorkspace(params, len(coords)))  # kept as best[1]
        residual = cfg.operator.apply(x) - cfg.data
        objective = float(residual @ residual + cfg.alpha * (x @ x))
        trace.append(objective)
        if objective < best[0]:
            best = (objective, x, params.copy())
        if it == cfg.iterations:
            break
        cotangent = 2.0 * cfg.operator.apply_adjoint(residual) + 2.0 * cfg.alpha * x
        grads = reference_backward(params, coords, cotangent)
        params, state = reference_adam_step(params, grads, state)
        if cfg.weight_bound is not None:
            params = reference_project_weights(params, cfg.weight_bound)
    return np.array(trace), best[1], best[2]


@pytest.mark.parametrize("make, overrides, early_best", [
    (make_config, {"data": np.random.default_rng(4).standard_normal(GEOM.size)}, False),
    (make_config, {"data": np.random.default_rng(4).standard_normal(GEOM.size),
                   "weight_bound": 0.2}, False),
    (ct32_config, {}, False),  # a dead init, trained with its output layer negated
    # the best iterate is iteration 1, so its image must survive 29 later forwards
    (make_config, {"data": np.random.default_rng(4).standard_normal(GEOM.size),
                   "learning_rate": 3e-2}, True),
], ids=["free", "bounded", "dead-init", "early-best"])
def test_matches_two_forward_reference_bit_for_bit(make, overrides, early_best):
    cfg = make(iterations=30, **overrides)
    recon = reconstruct_nn(cfg)
    trace, image, params = two_forward_reference(cfg)
    assert recon.objective_trace.tobytes() == trace.tobytes()
    assert recon.image.values.tobytes() == image.tobytes()
    for got, want in zip((*recon.params.weights, *recon.params.biases),
                         (*params.weights, *params.biases)):
        assert got.tobytes() == want.tobytes()
    if cfg.weight_bound is not None:
        assert np.abs(recon.params.flat).max() == cfg.weight_bound  # the bound binds
    assert recon.best_iteration > 0  # every run trains, the dead init included
    if early_best:
        assert recon.best_iteration < cfg.iterations
