from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from compact_tik.errors import NumericalFailureError
from compact_tik.mlp import (
    LEAK,
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


def set_flat(params, vec):
    out = params.copy()
    out.flat[:] = vec
    return out


def scalar_loss(params, coords, cot):
    return float(mlp_forward(params, coords, MlpWorkspace(params, len(coords))) @ cot)


def central_difference_grad(params, coords, cot, h=1e-5):
    base = params.flat
    grad = np.empty(base.size)
    for i in range(base.size):
        up = base.copy()
        up[i] += h
        down = base.copy()
        down[i] -= h
        grad[i] = (
            scalar_loss(set_flat(params, up), coords, cot)
            - scalar_loss(set_flat(params, down), coords, cot)
        ) / (2 * h)
    return grad


def min_preactivation_gap(params, coords):
    activations = forward_trace(params, coords, MlpWorkspace(params, len(coords)))
    return min(np.abs(a @ w.T + b).min()
               for a, w, b in zip(activations, params.weights, params.biases))


def bits(a):
    """Bit patterns of a float64 array, so that -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def reference_forward_trace(params, coords):
    """The forward with np.where activations that forward_trace replaced."""
    h = np.asarray(coords, dtype=np.float64)
    n_layers = len(params.weights)
    activations, pre = [h], []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        pre.append(z)
        h = np.where(z > 0, z, LEAK * z) if i < n_layers - 1 else np.maximum(z, 0.0)
        activations.append(h)
    return activations, pre


def reference_backward(params, coords, cot):
    """The backward that re-ran the forward from the coordinates."""
    return reference_backward_from(params, *reference_forward_trace(params, coords), cot)


def reference_backward_from(params, activations, pre, cot):
    """The backward over activations and pre-activations, with np.where slopes."""
    n_layers = len(params.weights)
    gw, gb = [None] * n_layers, [None] * n_layers
    delta = cot[:, None] * (pre[-1] > 0)
    for i in range(n_layers - 1, -1, -1):
        gw[i] = delta.T @ activations[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = (delta @ params.weights[i]) * np.where(pre[i - 1] > 0, 1.0, LEAK)
    return gw, gb


@dataclass
class ReferenceAdamState:
    """The per-layer moment lists that AdamState kept before it held two flat vectors."""

    m_weights: list
    m_biases: list
    v_weights: list
    v_biases: list
    t: int = 0
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def for_params(cls, params, learning_rate=1e-3):
        return cls(
            m_weights=[np.zeros_like(w) for w in params.weights],
            m_biases=[np.zeros_like(b) for b in params.biases],
            v_weights=[np.zeros_like(w) for w in params.weights],
            v_biases=[np.zeros_like(b) for b in params.biases],
            learning_rate=learning_rate,
        )


def reference_adam_step(params, grads, state):
    """The out-of-place Adam step over per-layer lists that adam_step replaced.

    ``grads`` is a (weight gradients, bias gradients) pair of lists.
    Returns (new params, new state); the inputs are not mutated.
    """
    grad_w, grad_b = grads
    t = state.t + 1
    b1, b2, eps, lr = state.beta1, state.beta2, state.eps, state.learning_rate
    corr1 = 1.0 - b1**t
    corr2 = 1.0 - b2**t

    def update(p, g, m, v):
        m_new = b1 * m + (1 - b1) * g
        v_new = b2 * v + (1 - b2) * g * g
        p_new = p - lr * (m_new / corr1) / (np.sqrt(v_new / corr2) + eps)
        return p_new, m_new, v_new

    new_w, new_mw, new_vw = [], [], []
    for p, g, m, v in zip(params.weights, grad_w, state.m_weights, state.v_weights):
        pn, mn, vn = update(p, g, m, v)
        new_w.append(pn)
        new_mw.append(mn)
        new_vw.append(vn)
    new_b, new_mb, new_vb = [], [], []
    for p, g, m, v in zip(params.biases, grad_b, state.m_biases, state.v_biases):
        pn, mn, vn = update(p, g, m, v)
        new_b.append(pn)
        new_mb.append(mn)
        new_vb.append(vn)

    new_params = MlpParams(weights=new_w, biases=new_b)
    new_state = ReferenceAdamState(
        m_weights=new_mw, m_biases=new_mb, v_weights=new_vw, v_biases=new_vb,
        t=t, learning_rate=lr, beta1=b1, beta2=b2, eps=eps,
    )
    return new_params, new_state


def reference_project_weights(params, c):
    """The per-layer, out-of-place clamp that project_weights replaced."""
    return MlpParams(
        weights=[np.clip(w, -c, c) for w in params.weights],
        biases=[np.clip(b, -c, c) for b in params.biases],
    )


def random_params(rng, hidden, scale=1.0):
    widths = (2, *hidden, 1)
    return MlpParams(
        weights=[scale * rng.standard_normal((d_out, d_in))
                 for d_in, d_out in zip(widths, widths[1:])],
        biases=[scale * rng.standard_normal(d) for d in widths[1:]],
    )


def layers(params):
    return (*params.weights, *params.biases)


def max_abs(params):
    return np.abs(params.flat).max()


def test_architecture_validation():
    with pytest.raises(ValueError):
        MlpArchitecture(hidden_widths=(0,))
    arch = MlpArchitecture(hidden_widths=(100, 100, 100, 100))
    assert arch.widths == (2, 100, 100, 100, 100, 1)


def test_forward_zero_params_is_zero():
    arch = MlpArchitecture(hidden_widths=(5, 5))
    params = init_params(arch, seed=0)
    zeroed = MlpParams(
        weights=[np.zeros_like(w) for w in params.weights],
        biases=[np.zeros_like(b) for b in params.biases],
    )
    coords = np.array([[0.1, -0.2], [0.5, 0.5], [0.0, 0.0]])
    assert np.array_equal(mlp_forward(zeroed, coords, MlpWorkspace(zeroed, 3)), np.zeros(3))


def test_forward_negative_preoutput_clips_to_zero():
    # single hidden layer wired so the output pre-activation is constant -1
    params = MlpParams(
        weights=[np.zeros((3, 2)), np.zeros((1, 3))],
        biases=[np.zeros(3), np.array([-1.0])],
    )
    coords = np.array([[0.3, 0.7], [-0.9, 0.2]])
    assert np.array_equal(mlp_forward(params, coords, MlpWorkspace(params, 2)), np.zeros(2))


def test_forward_reference_scale_batch():
    arch = MlpArchitecture(hidden_widths=(100, 100, 100, 100))
    params = init_params(arch, seed=1)
    from compact_tik.grid import pixel_centers

    coords = pixel_centers(128, 128)
    values = mlp_forward(params, coords, MlpWorkspace(params, len(coords)))
    assert values.shape == (16384,)
    assert np.all(values >= 0.0)


def test_forward_nonnegative_random():
    rng = np.random.default_rng(2)
    arch = MlpArchitecture(hidden_widths=(7, 3))
    for seed in range(10):
        params = init_params(arch, seed=seed)
        coords = rng.uniform(-1, 1, size=(50, 2))
        assert np.all(mlp_forward(params, coords, MlpWorkspace(params, 50)) >= 0.0)


def test_forward_shape_mismatch():
    params = init_params(MlpArchitecture(hidden_widths=(4,)), seed=0)
    with pytest.raises(ValueError):
        mlp_forward(params, np.zeros((5, 3)), MlpWorkspace(params, 5))


def test_backward_zero_cotangent():
    arch = MlpArchitecture(hidden_widths=(6, 6))
    params = init_params(arch, seed=3)
    coords = np.random.default_rng(3).uniform(-1, 1, size=(20, 2))
    workspace = MlpWorkspace(params, 20)
    grad = mlp_backward(params, forward_trace(params, coords, workspace), np.zeros(20), workspace)
    assert np.array_equal(grad, np.zeros_like(params.flat))


def test_backward_linear_in_cotangent():
    arch = MlpArchitecture(hidden_widths=(5,))
    params = init_params(arch, seed=4)
    rng = np.random.default_rng(4)
    coords = rng.uniform(-1, 1, size=(12, 2))
    cot = rng.standard_normal(12)
    one, two = MlpWorkspace(params, 12), MlpWorkspace(params, 12)
    g1 = mlp_backward(params, forward_trace(params, coords, one), cot, one)
    g2 = mlp_backward(params, forward_trace(params, coords, two), 2.0 * cot, two)
    assert np.array_equal(g2, 2.0 * g1)


def test_backward_matches_central_differences_small_net():
    rng = np.random.default_rng(5)
    arch = MlpArchitecture(hidden_widths=(3,))
    attempts = 0
    while True:
        attempts += 1
        params = init_params(arch, seed=rng.integers(1 << 31))
        coords = rng.uniform(-1, 1, size=(6, 2))
        if min_preactivation_gap(params, coords) > 1e-3:
            break
        assert attempts < 100
    cot = rng.standard_normal(6)
    workspace = MlpWorkspace(params, 6)
    ad = mlp_backward(params, forward_trace(params, coords, workspace), cot, workspace)
    fd = central_difference_grad(params, coords, cot)
    rel = np.abs(ad - fd).max() / max(np.abs(fd).max(), 1e-12)
    assert rel <= 1e-4


def test_backward_cotangent_length_mismatch():
    params = init_params(MlpArchitecture(hidden_widths=(4,)), seed=0)
    workspace = MlpWorkspace(params, 5)
    with pytest.raises(ValueError):
        mlp_backward(params, forward_trace(params, np.zeros((5, 2)), workspace), np.zeros(4),
                     workspace)


def test_kink_subgradient_convention():
    # one unit fed exactly 0: ReLU output derivative is the negative side (0),
    # leaky hidden derivative is the leak slope
    params = MlpParams(
        weights=[np.array([[1.0, 0.0]]), np.array([[1.0]])],
        biases=[np.zeros(1), np.zeros(1)],
    )
    coords = np.array([[0.0, 0.0]])  # hidden pre-activation exactly 0, output 0
    workspace = MlpWorkspace(params, 1)
    _, grad_b = params.split(
        mlp_backward(params, forward_trace(params, coords, workspace), np.ones(1), workspace))
    # d output / d output-bias = ReLU'(0) = 0
    assert grad_b[1][0] == 0.0
    # with a positive output shift the hidden kink derivative becomes visible
    params2 = MlpParams(
        weights=[np.array([[1.0, 0.0]]), np.array([[1.0]])],
        biases=[np.zeros(1), np.array([1.0])],
    )
    workspace = MlpWorkspace(params2, 1)
    _, grad_b2 = params2.split(
        mlp_backward(params2, forward_trace(params2, coords, workspace), np.ones(1), workspace))
    # d output / d hidden-bias = W2 * leaky'(0) = LEAK
    assert grad_b2[0][0] == pytest.approx(LEAK)


def test_project_weights_clamps():
    params = MlpParams(
        weights=[np.array([[5.0, -4.0]]), np.array([[0.5]])],
        biases=[np.array([2.0]), np.array([-0.25])],
    )
    project_weights(params, 3.0)
    assert params.weights[0].tolist() == [[3.0, -3.0]]
    assert params.biases[0].tolist() == [2.0]
    assert params.flat.tolist() == [3.0, -3.0, 2.0, 0.5, -0.25]


def test_project_weights_identity_inside_bound():
    params = init_params(MlpArchitecture(hidden_widths=(4,)), seed=6)
    c = max_abs(params) + 1.0
    clipped = params.copy()
    project_weights(clipped, c)
    assert np.array_equal(clipped.flat, params.flat)


def test_project_weights_idempotent_and_max():
    rng = np.random.default_rng(7)
    params = MlpParams(
        weights=[rng.standard_normal((5, 2)), rng.standard_normal((1, 5))],
        biases=[rng.standard_normal(5), rng.standard_normal(1)],
    )
    c = 0.7
    once = params.copy()
    project_weights(once, c)
    twice = once.copy()
    project_weights(twice, c)
    assert np.array_equal(once.flat, twice.flat)
    assert max_abs(once) == min(c, max_abs(params))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    hidden=st.lists(st.integers(1, 12), min_size=1, max_size=3),
    n_points=st.integers(1, 20),
    zero_hidden_biases=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_forward_and_backward_match_np_where_reference(hidden, n_points, zero_hidden_biases,
                                                       seed):
    rng = np.random.default_rng(seed)
    widths = (2, *hidden, 1)
    biases = [rng.standard_normal(d) for d in widths[1:]]
    if zero_hidden_biases:
        # every hidden pre-activation is exactly 0 at the origin, and the
        # output bias decides whether a gradient reaches those kinks
        biases[:-1] = [np.zeros_like(b) for b in biases[:-1]]
    params = MlpParams(
        weights=[rng.standard_normal((d_out, d_in)) for d_in, d_out in zip(widths, widths[1:])],
        biases=biases,
    )
    coords = rng.uniform(-1, 1, size=(n_points, 2))
    coords[0] = 0.0
    if n_points > 1:
        coords[1] = -0.0
    cot = rng.standard_normal(n_points)
    cot[rng.random(n_points) < 0.2] = 0.0

    workspace = MlpWorkspace(params, n_points)
    activations = forward_trace(params, coords, workspace)
    want_activations, _ = reference_forward_trace(params, coords)
    assert len(activations) == len(want_activations)
    for got, want in zip(activations, want_activations):
        assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(bits(mlp_forward(params, coords, MlpWorkspace(params, n_points))),
                          bits(want_activations[-1][:, 0]))

    kept = [a.copy() for a in activations]
    got_gw, got_gb = params.split(mlp_backward(params, activations, cot, workspace))
    want_gw, want_gb = reference_backward(params, coords, cot)
    for got, want in zip((*got_gw, *got_gb), (*want_gw, *want_gb)):
        assert np.array_equal(bits(got), bits(want))
    # the backward reads the trace and leaves it as it was
    for got, want in zip(activations, kept):
        assert np.array_equal(bits(got), bits(want))


def test_backward_slopes_at_signed_zeros_and_underflow():
    # hidden pre-activations 0.0, -0.0 and -5e-324; at the last, LEAK * z
    # underflows to -0.0, so the activation is a zero, yet the slope taken
    # from it must be LEAK as at every z <= 0
    z = np.array([[0.0, -0.0, -5e-324]])
    hidden = np.maximum(z, LEAK * z)
    assert np.array_equal(bits(hidden), bits(np.array([[0.0, -0.0, -0.0]])))
    w_out = np.array([[1.0, -2.0, 3.0]])
    cot = np.array([1.5])
    want_slopes = cot * w_out * LEAK

    # through the forward: a matmul never yields -0.0 here, so it reaches 0.0
    # and -5e-324 (from the biases, with zero weights)
    params = MlpParams(weights=[np.zeros((3, 2)), w_out], biases=[z[0], np.array([0.5])])
    coords = np.zeros((1, 2))
    workspace = MlpWorkspace(params, 1)
    activations = forward_trace(params, coords, workspace)
    assert np.array_equal(bits(activations[1]), bits(np.array([[0.0, 0.0, -0.0]])))
    got_gw, got_gb = params.split(mlp_backward(params, activations, cot, workspace))
    want_gw, want_gb = reference_backward(params, coords, cot)
    for got, want in zip((*got_gw, *got_gb), (*want_gw, *want_gb)):
        assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(got_gb[0], want_slopes[0])

    # a trace built from the three pre-activations, -0.0 included
    z_out = hidden @ w_out.T + params.biases[1]
    activations = [coords, hidden, np.maximum(z_out, 0.0)]
    got_gw, got_gb = params.split(mlp_backward(params, activations, cot, workspace))
    want_gw, want_gb = reference_backward_from(params, activations, [z, z_out], cot)
    for got, want in zip((*got_gw, *got_gb), (*want_gw, *want_gb)):
        assert np.array_equal(bits(got), bits(want))
    assert np.array_equal(got_gb[0], want_slopes[0])


def test_backward_rejects_trace_of_other_depth():
    params = init_params(MlpArchitecture(hidden_widths=(4, 4)), seed=0)
    shallow = init_params(MlpArchitecture(hidden_widths=(4,)), seed=0)
    coords = np.zeros((3, 2))
    with pytest.raises(ValueError):
        mlp_backward(params, forward_trace(shallow, coords, MlpWorkspace(shallow, 3)), np.ones(3),
                     MlpWorkspace(params, 3))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    scale=st.floats(0.01, 10.0),
    c=st.floats(1e-3, 5.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_project_weights_property(hidden, scale, c, seed):
    params = random_params(np.random.default_rng(seed), hidden, scale)
    once = params.copy()
    project_weights(once, c)
    twice = once.copy()
    project_weights(twice, c)
    assert max_abs(once) <= c
    assert np.array_equal(bits(once.flat), bits(twice.flat))
    inside = np.abs(params.flat) <= c
    assert np.array_equal(once.flat[inside], params.flat[inside])
    for got, want in zip(layers(once), layers(reference_project_weights(params, c))):
        assert np.array_equal(bits(got), bits(want))


def test_project_weights_validation():
    params = init_params(MlpArchitecture(hidden_widths=(3,)), seed=0)
    with pytest.raises(ValueError):
        project_weights(params, 0.0)


def test_adam_first_step_is_signed_learning_rate():
    lr = 1e-3
    params = MlpParams(weights=[np.array([[1.0]])], biases=[np.array([0.0])])
    state = AdamState.for_params(params, learning_rate=lr)
    adam_step(params, np.array([0.37, 0.0]), state)
    assert state.t == 1
    update = params.weights[0][0, 0] - 1.0
    assert abs(abs(update) - lr) <= 1e-6 * lr
    assert np.sign(update) == -np.sign(0.37)


def test_adam_zero_gradient_keeps_params():
    params = init_params(MlpArchitecture(hidden_widths=(4,)), seed=8)
    before = params.flat.copy()
    adam_step(params, np.zeros_like(params.flat), AdamState.for_params(params, learning_rate=1e-3))
    assert np.array_equal(params.flat, before)


def test_adam_deterministic():
    params = init_params(MlpArchitecture(hidden_widths=(4,)), seed=9)
    grad = np.random.default_rng(9).standard_normal(params.flat.size)
    out1, out2 = params.copy(), params.copy()
    adam_step(out1, grad, AdamState.for_params(out1, learning_rate=1e-3))
    adam_step(out2, grad, AdamState.for_params(out2, learning_rate=1e-3))
    assert np.array_equal(out1.flat, out2.flat)
    assert not np.array_equal(out1.flat, params.flat)


def test_adam_rejects_nonfinite_gradient():
    params = init_params(MlpArchitecture(hidden_widths=(4,)), seed=10)
    state = AdamState.for_params(params, learning_rate=1e-3)
    before = params.flat.copy()
    grad = np.zeros_like(params.flat)
    params.split(grad)[0][0][:] = np.nan
    with pytest.raises(NumericalFailureError):
        adam_step(params, grad, state)
    # nothing is updated when the step is refused
    assert np.array_equal(params.flat, before)
    assert state.t == 0 and not state.m.any() and not state.v.any()


def test_gradient_check_16_16_ensemble():
    # invariant check at the standard net size, away from kinks
    rng = np.random.default_rng(11)
    arch = MlpArchitecture(hidden_widths=(16, 16))
    checked = 0
    seed = 0
    while checked < 20:
        seed += 1
        params = init_params(arch, seed=seed)
        coords = rng.uniform(-1, 1, size=(4, 2))
        if min_preactivation_gap(params, coords) <= 1e-3:
            continue
        cot = rng.standard_normal(4)
        workspace = MlpWorkspace(params, 4)
        ad = mlp_backward(params, forward_trace(params, coords, workspace), cot, workspace)
        fd = central_difference_grad(params, coords, cot)
        rel = np.abs(ad - fd).max() / max(np.abs(fd).max(), 1e-12)
        assert rel <= 1e-4
        checked += 1


def test_bounded_outputs_layered_bound():
    # outputs of weight-bounded nets are uniformly bounded by the layered
    # product bound prod_i (c (d_{i-1} + 1)) * max(1, sup|input|)
    arch = MlpArchitecture(hidden_widths=(6, 5))
    c = 0.8
    widths = arch.widths
    bound = 1.0
    for d_in in widths[:-1]:
        bound *= c * (d_in + 1)
    rng = np.random.default_rng(12)
    coords = rng.uniform(-1, 1, size=(30, 2))
    for seed in range(100):
        params = init_params(arch, seed=seed)
        project_weights(params, c)
        values = mlp_forward(params, coords, MlpWorkspace(params, 30))
        assert values.max() <= bound


def test_checkpoint_round_trip(tmp_path):
    params = init_params(MlpArchitecture(hidden_widths=(7, 4)), seed=13)
    path = tmp_path / "net.mlpw"
    save_params(path, params)
    back = load_params(path)
    assert len(back.weights) == 3
    for a, b in zip(back.weights, params.weights):
        assert np.array_equal(a, b)
    for a, b in zip(back.biases, params.biases):
        assert np.array_equal(a, b)
    raw = path.read_bytes()
    assert raw[:4] == b"MLPW"


def test_init_deterministic_by_seed():
    arch = MlpArchitecture(hidden_widths=(8, 8))
    a = init_params(arch, seed=21)
    b = init_params(arch, seed=21)
    c = init_params(arch, seed=22)
    for x, y in zip(a.weights, b.weights):
        assert np.array_equal(x, y)
    assert any(not np.array_equal(x, y) for x, y in zip(a.weights, c.weights))


# uneven widths: the spare buffers hold 7 columns, so the views of width 3,
# 5 and 1 are smaller than the buffers and than what they held before
UNEVEN = (7, 3, 5)


def test_workspace_reuse_matches_fresh_workspaces_byte_for_byte():
    rng = np.random.default_rng(7)
    first, second = random_params(rng, UNEVEN), random_params(rng, UNEVEN)
    coords = rng.uniform(-1, 1, size=(11, 2))
    cot = rng.standard_normal(11)
    workspace = MlpWorkspace(first, len(coords))
    for params in (first, second, first):
        fresh = MlpWorkspace(params, len(coords))
        want_trace = forward_trace(params, coords, fresh)
        want_grad = mlp_backward(params, want_trace, cot, fresh)
        got_trace = forward_trace(params, coords, workspace)
        assert len(got_trace) == len(want_trace)
        for got, want in zip(got_trace, want_trace):
            assert got.tobytes() == want.tobytes()
        got_grad = mlp_backward(params, got_trace, cot, workspace)
        assert got_grad is workspace.grad
        assert got_grad.tobytes() == want_grad.tobytes()
        ref_gw, ref_gb = reference_backward(params, coords, cot)
        assert got_grad.tobytes() == np.concatenate(
            [a.ravel() for layer in zip(ref_gw, ref_gb) for a in layer]).tobytes()
        got_x = mlp_forward(params, coords, workspace)
        assert got_x.tobytes() == want_trace[-1][:, 0].tobytes()
        assert np.shares_memory(got_x, workspace.activations[-1])


def test_separate_workspaces_return_independent_arrays():
    rng = np.random.default_rng(8)
    params = random_params(rng, UNEVEN)
    coords = rng.uniform(-1, 1, size=(11, 2))
    cot = rng.standard_normal(11)
    first, second = MlpWorkspace(params, 11), MlpWorkspace(params, 11)
    one, two = forward_trace(params, coords, first), forward_trace(params, coords, second)
    kept = [a.copy() for a in one]
    grad_one = mlp_backward(params, one, cot, first)
    grad_two = mlp_backward(params, two, cot, second)
    assert not np.shares_memory(grad_one, grad_two)
    fresh = [*one[1:], *two[1:], grad_one, grad_two]
    for i, a in enumerate(fresh):
        assert not any(np.shares_memory(a, b) for b in fresh[i + 1:])
    for got, want in zip(one, kept):
        assert got.tobytes() == want.tobytes()


def test_workspace_rejects_other_shapes():
    params = random_params(np.random.default_rng(9), UNEVEN)
    workspace = MlpWorkspace(params, 11)
    with pytest.raises(ValueError, match="workspace"):
        forward_trace(params, np.zeros((12, 2)), workspace)
    with pytest.raises(ValueError, match="workspace"):
        forward_trace(random_params(np.random.default_rng(9), (7, 3)), np.zeros((11, 2)),
                      workspace)
    with pytest.raises(ValueError, match="workspace"):
        mlp_backward(params, forward_trace(params, np.zeros((12, 2)), MlpWorkspace(params, 12)),
                     np.ones(12), workspace)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
    steps=st.integers(1, 6),
    learning_rate=st.floats(1e-4, 0.5),
    bound=st.one_of(st.none(), st.floats(0.05, 0.5)),
    seed=st.integers(0, 2**32 - 1),
)
def test_flat_adam_and_projection_match_per_layer_reference(hidden, steps, learning_rate,
                                                           bound, seed):
    rng = np.random.default_rng(seed)
    params = random_params(rng, hidden)
    params.flat[0] = 1.0  # outside every box drawn here, so a box binds
    want = params.copy()
    state = AdamState.for_params(params, learning_rate=learning_rate)
    want_state = ReferenceAdamState.for_params(want, learning_rate=learning_rate)
    clipped = False
    for _ in range(steps):
        grad = rng.standard_normal(params.flat.size) * rng.choice([0.0, 1e-6, 1.0, 1e3])
        grad[rng.random(grad.size) < 0.2] = 0.0
        grad_w, grad_b = params.split(grad)
        adam_step(params, grad, state)
        want, want_state = reference_adam_step(want, (list(grad_w), list(grad_b)), want_state)
        if bound is not None:
            clipped = clipped or max_abs(params) > bound
            project_weights(params, bound)
            want = reference_project_weights(want, bound)
        for got, expected in zip(layers(params), layers(want)):
            assert np.array_equal(bits(got), bits(expected))
        m_w, m_b = params.split(state.m)
        v_w, v_b = params.split(state.v)
        for got, expected in zip((*m_w, *m_b, *v_w, *v_b),
                                 (*want_state.m_weights, *want_state.m_biases,
                                  *want_state.v_weights, *want_state.v_biases)):
            assert np.array_equal(bits(got), bits(expected))
        assert state.t == want_state.t
    assert clipped or bound is None


def test_layers_are_views_of_flat(tmp_path):
    params = init_params(MlpArchitecture(hidden_widths=(3, 2)), seed=14)
    assert params.flat.shape == (3 * 2 + 3 + 2 * 3 + 2 + 1 * 2 + 1,)
    assert all(np.shares_memory(a, params.flat) for a in layers(params))
    params.weights[1][0, 0] = 7.0
    assert params.flat[3 * 2 + 3] == 7.0
    params.flat[-1] = -5.0
    assert params.biases[-1][0] == -5.0
    # flat is in checkpoint order: the payload of each layer record, in turn
    path = tmp_path / "net.mlpw"
    save_params(path, params)
    raw = path.read_bytes()[8:]
    payload = b""
    for w in params.weights:
        payload += raw[8:8 + 8 * (w.size + w.shape[0])]
        raw = raw[8 + 8 * (w.size + w.shape[0]):]
    assert raw == b"" and payload == params.flat.astype("<f8").tobytes()


def test_layers_cannot_be_rebound():
    params = init_params(MlpArchitecture(hidden_widths=(3,)), seed=15)
    with pytest.raises(TypeError):
        params.weights[-1] = -params.weights[-1]
    with pytest.raises(TypeError):
        params.biases[0] = np.ones(3)
    w = params.weights[-1]
    before = w.copy()
    np.negative(w, out=w)
    assert np.array_equal(params.weights[-1], -before)


def test_copy_owns_its_vector():
    params = init_params(MlpArchitecture(hidden_widths=(4,)), seed=16)
    project_weights(params, 0.3)
    dup = params.copy()
    assert not np.shares_memory(dup.flat, params.flat)
    assert all(np.shares_memory(a, dup.flat) for a in layers(dup))
    assert dup.shapes == params.shapes
    dup.flat[:] = 0.0
    assert max_abs(params) > 0.0
    assert not dup.weights[0].any()


def test_params_reject_mismatched_layers():
    with pytest.raises(ValueError):
        MlpParams(weights=[], biases=[])
    with pytest.raises(ValueError):
        MlpParams(weights=[np.ones((2, 2))], biases=[np.ones(3)])
    with pytest.raises(ValueError):
        MlpParams(weights=[np.ones(2)], biases=[np.ones(2)])


def test_params_reject_layers_that_do_not_chain():
    with pytest.raises(ValueError, match="layer 1: W has 5 columns, but layer 0 has 4 rows"):
        MlpParams(weights=[np.ones((4, 2)), np.ones((1, 5))], biases=[np.ones(4), np.ones(1)])


@pytest.mark.parametrize("widths", [(3, 4, 1), (2, 4, 3)])
def test_load_params_rejects_other_input_or_output_width(tmp_path, widths):
    weights = [np.ones((rows, cols)) for cols, rows in zip(widths, widths[1:])]
    params = MlpParams(weights=weights, biases=[np.zeros(w.shape[0]) for w in weights])
    path = tmp_path / "net.mlpw"
    save_params(path, params)
    with pytest.raises(ValueError, match=f"{path}: expected a network from 2 inputs to 1 output"):
        load_params(path)
