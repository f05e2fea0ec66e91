"""Coordinate MLP with leaky-ReLU hidden layers and a ReLU output layer.

The network maps plane coordinates to a nonnegative intensity. All
arithmetic is float64. Gradients are reverse-mode: :func:`forward_trace`
keeps every layer's input and pre-activation, and :func:`mlp_backward`
consumes that trace without evaluating the network again, so a training
step costs one forward. At an activation kink (input exactly 0) the
derivative takes the negative-side slope, so zero for the output ReLU and
the leak slope for hidden units.

The hidden leaky ReLU is computed as max(z, leak z) and its slope as
max(sign z, leak). For 0 < leak < 1 (which both :class:`MlpArchitecture`
and :class:`MlpParams` enforce) these equal the branch forms "z if z > 0
else leak z" and "1 if z > 0 else leak" bit for bit, signed zeros
included, and unlike ``np.where`` over a random sign mask they do not
stall on branch mispredictions.

Clamping every weight and bias to [-c, c] after each optimizer step keeps
the parameters in a fixed box; the image sets generated by such bounded
networks are the compact solution sets this package minimizes over.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError

MLPW_MAGIC = b"MLPW"


@dataclass(frozen=True)
class MlpArchitecture:
    """Layer widths and activation parameters.

    ``hidden_widths`` lists the hidden layer sizes; input is 2-D
    (coordinates), output 1-D (intensity). ``leak`` is the leaky-ReLU
    negative-side slope, in (0, 1).
    """

    hidden_widths: tuple[int, ...]
    input_dim: int = 2
    output_dim: int = 1
    leak: float = 0.01

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError(f"layer widths must be >= 1, got {self.hidden_widths}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be >= 1")
        if not 0.0 < self.leak < 1.0:
            raise ValueError(f"leak slope must be in (0, 1), got {self.leak}")

    @property
    def widths(self):
        """All widths including input and output."""
        return (self.input_dim, *self.hidden_widths, self.output_dim)


@dataclass
class MlpParams:
    """Per-layer weight matrices (d_i x d_{i-1}) and bias vectors (d_i,).

    ``weight_bound`` is the box half-width c, or None for unbounded
    parameters. ``leak`` travels with the parameters so a checkpoint fully
    determines the function.
    """

    weights: list
    biases: list
    leak: float = 0.01
    weight_bound: float | None = None

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        self.biases = [np.asarray(b, dtype=np.float64) for b in self.biases]
        if len(self.weights) != len(self.biases):
            raise ValueError("weights and biases must pair up layer by layer")
        for w, b in zip(self.weights, self.biases):
            if w.shape[0] != b.shape[0]:
                raise ValueError(f"layer shape mismatch: W {w.shape}, b {b.shape}")
        if not 0.0 < self.leak < 1.0:
            raise ValueError(f"leak slope must be in (0, 1), got {self.leak}")

    @property
    def n_params(self):
        return sum(w.size + b.size for w, b in zip(self.weights, self.biases))

    def copy(self):
        return MlpParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            leak=self.leak,
            weight_bound=self.weight_bound,
        )

    def max_abs(self):
        return max(max(np.abs(w).max(), np.abs(b).max()) for w, b in zip(self.weights, self.biases))


@dataclass
class MlpGrads:
    """Parameter-shaped gradient container."""

    weights: list
    biases: list


def init_params(arch: MlpArchitecture, seed, weight_bound=None) -> MlpParams:
    """Seeded symmetric-uniform init: W ~ U(-a, a), a = sqrt(6/(fan_in+fan_out)), b = 0.

    With zero biases some draws are dead: the output pre-activation is <= 0
    at every input, so the output ReLU gives the zero function and passes
    no gradient (18% of seeds for a 100x4 net on a 32x32 grid). The draw
    is returned as is; :func:`compact_tik.nnsolver.reconstruct_nn` trains
    such a draw with its output-layer weights negated, an equally likely
    draw of this symmetric init that stays inside any weight box.
    """
    rng = np.random.default_rng(seed)
    widths = arch.widths
    weights, biases = [], []
    for d_in, d_out in zip(widths[:-1], widths[1:]):
        a = np.sqrt(6.0 / (d_in + d_out))
        weights.append(rng.uniform(-a, a, size=(d_out, d_in)))
        biases.append(np.zeros(d_out))
    params = MlpParams(weights=weights, biases=biases, leak=arch.leak, weight_bound=weight_bound)
    if weight_bound is not None:
        params = project_weights(params, weight_bound)
    return params


def forward_trace(params: MlpParams, coords):
    """Forward pass keeping what the backward sweep needs.

    Returns ``(activations, pre)``: ``activations[0]`` is the coordinate
    array and ``activations[i + 1]`` the output of layer i; ``pre[i]`` is
    layer i's pre-activation. The network output is ``activations[-1]``.
    """
    h = np.asarray(coords, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"coords must be (n, {params.weights[0].shape[1]}), got {h.shape}"
        )
    n_layers = len(params.weights)
    activations = [h]
    pre = []
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T
        z += b
        pre.append(z)
        if i < n_layers - 1:
            # branch-free leaky ReLU, exact for 0 < leak < 1 (module docstring)
            h = params.leak * z
            np.maximum(z, h, out=h)
        else:
            h = np.maximum(z, 0.0)
        activations.append(h)
    return activations, pre


def mlp_forward(params: MlpParams, coords):
    """Evaluate the network at each coordinate row.

    Returns a length-n vector; nonnegative by the final ReLU.
    """
    activations, _ = forward_trace(params, coords)
    return activations[-1][:, 0]


def mlp_backward(params: MlpParams, trace, output_cotangent) -> MlpGrads:
    """Gradient of sum_k cotangent_k * output_k with respect to the parameters.

    ``trace`` is the ``(activations, pre)`` pair that :func:`forward_trace`
    returned for these parameters; it is read, not modified.
    """
    activations, pre = trace
    cot = np.asarray(output_cotangent, dtype=np.float64).ravel()
    if cot.size != activations[0].shape[0]:
        raise ValueError(
            f"cotangent length {cot.size} != number of coordinates {activations[0].shape[0]}"
        )
    n_layers = len(params.weights)
    if len(pre) != n_layers:
        raise ValueError(f"trace has {len(pre)} layers, parameters have {n_layers}")
    gw = [None] * n_layers
    gb = [None] * n_layers
    # output layer: derivative of ReLU at 0 taken as 0
    delta = cot[:, None] * (pre[-1] > 0)
    for i in range(n_layers - 1, -1, -1):
        gw[i] = delta.T @ activations[i]
        gb[i] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ params.weights[i]
            # slope 1 where pre > 0, leak elsewhere, kink included
            slope = np.sign(pre[i - 1])
            np.maximum(slope, params.leak, out=slope)
            delta *= slope
    return MlpGrads(weights=gw, biases=gb)


def project_weights(params: MlpParams, c) -> MlpParams:
    """Clamp every weight and bias entry to [-c, c]. Idempotent."""
    if c <= 0:
        raise ValueError(f"weight bound must be positive, got {c}")
    return MlpParams(
        weights=[np.clip(w, -c, c) for w in params.weights],
        biases=[np.clip(b, -c, c) for b in params.biases],
        leak=params.leak,
        weight_bound=float(c),
    )


@dataclass
class AdamState:
    """First/second-moment accumulators and step counter."""

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
    def for_params(cls, params: MlpParams, learning_rate=1e-3, beta1=0.9, beta2=0.999,
                   eps=1e-8):
        return cls(
            m_weights=[np.zeros_like(w) for w in params.weights],
            m_biases=[np.zeros_like(b) for b in params.biases],
            v_weights=[np.zeros_like(w) for w in params.weights],
            v_biases=[np.zeros_like(b) for b in params.biases],
            learning_rate=learning_rate,
            beta1=beta1,
            beta2=beta2,
            eps=eps,
        )


def adam_step(params: MlpParams, grads: MlpGrads, state: AdamState):
    """One bias-corrected Adam update; returns (new params, new state).

    Inputs are not mutated. Raises NumericalFailureError on non-finite
    gradient entries.
    """
    for g in (*grads.weights, *grads.biases):
        if not np.all(np.isfinite(g)):
            raise NumericalFailureError("non-finite gradient entries in adam_step")
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
    for p, g, m, v in zip(params.weights, grads.weights, state.m_weights, state.v_weights):
        pn, mn, vn = update(p, g, m, v)
        new_w.append(pn)
        new_mw.append(mn)
        new_vw.append(vn)
    new_b, new_mb, new_vb = [], [], []
    for p, g, m, v in zip(params.biases, grads.biases, state.m_biases, state.v_biases):
        pn, mn, vn = update(p, g, m, v)
        new_b.append(pn)
        new_mb.append(mn)
        new_vb.append(vn)

    new_params = MlpParams(
        weights=new_w, biases=new_b, leak=params.leak, weight_bound=params.weight_bound
    )
    new_state = AdamState(
        m_weights=new_mw, m_biases=new_mb, v_weights=new_vw, v_biases=new_vb,
        t=t, learning_rate=lr, beta1=b1, beta2=b2, eps=eps,
    )
    return new_params, new_state


def save_params(path, params: MlpParams):
    """Checkpoint format: magic ``MLPW``, u32 n_layers, then per layer
    u32 rows, u32 cols, float64 LE weights row-major, float64 LE biases."""
    with open(path, "wb") as f:
        f.write(MLPW_MAGIC)
        f.write(struct.pack("<I", len(params.weights)))
        for w, b in zip(params.weights, params.biases):
            rows, cols = w.shape
            f.write(struct.pack("<II", rows, cols))
            f.write(w.astype("<f8").tobytes())
            f.write(b.astype("<f8").tobytes())


def load_params(path, leak=0.01, weight_bound=None) -> MlpParams:
    """Read a checkpoint written by :func:`save_params`."""
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != MLPW_MAGIC:
            raise ValueError(f"bad magic {magic!r}, expected {MLPW_MAGIC!r}")
        (n_layers,) = struct.unpack("<I", f.read(4))
        weights, biases = [], []
        for _ in range(n_layers):
            rows, cols = struct.unpack("<II", f.read(8))
            w = np.frombuffer(f.read(8 * rows * cols), dtype="<f8").reshape(rows, cols)
            b = np.frombuffer(f.read(8 * rows), dtype="<f8")
            weights.append(w.copy())
            biases.append(b.copy())
    return MlpParams(weights=weights, biases=biases, leak=leak, weight_bound=weight_bound)
