"""Coordinate MLP with leaky-ReLU hidden layers and a ReLU output layer.

The network maps plane coordinates to a nonnegative intensity; all
arithmetic is float64. The parameters are one vector ``MlpParams.flat``
in checkpoint order (W0, b0, W1, b1, ...) with per-layer views, and a
gradient has the same layout, so Adam, the projection onto the box
[-c, c]^P and copies each act on one vector, in place. The image sets of
such bounded networks are the compact solution sets this package
minimizes over.

Gradients are reverse-mode: :func:`forward_trace` keeps every layer's
activation, and :func:`mlp_backward` consumes that trace without
evaluating the network again. At an activation kink (input exactly 0)
the derivative takes the negative-side slope: zero for the output ReLU,
``LEAK`` for hidden units.

Both passes write every array they make into the buffers of an
:class:`MlpWorkspace` and allocate none of (points x width) size. The
returned activations and gradient live in the workspace and are
overwritten by the next call through it; copy what must outlive it.

The hidden leaky ReLU is a = max(z, LEAK z) and its slope
max(sign z, LEAK). Because 0 < LEAK < 1 these equal the branch forms
"z if z > 0 else LEAK z" and "1 if z > 0 else LEAK" bit for bit, signed
zeros included, and unlike ``np.where`` over a random sign mask they do
not stall on branch mispredictions.

The activations alone determine the slopes, so the trace keeps no
pre-activations. Where z > 0, a = z > 0; where z is NaN, a is NaN; where
z <= 0, a <= 0 (-0.0 when LEAK z underflows). So max(sign a, LEAK)
equals max(sign z, LEAK) for every float64, and the output ReLU's
max(z, 0) > 0 exactly when z > 0.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass

import numpy as np

from .errors import NumericalFailureError, check_length, check_magic, check_positive, naming_path

MLPW_MAGIC = b"MLPW"

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# negative-side slope of the hidden leaky ReLU; must lie in (0, 1) for the
# branch-free forms in the module docstring to be exact
LEAK = 0.01


@dataclass(frozen=True)
class MlpArchitecture:
    """Hidden layer widths. Input is 2-D (coordinates), output 1-D (intensity)."""

    hidden_widths: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        for w in self.hidden_widths:
            check_positive("hidden widths", w)

    @property
    def widths(self):
        """All widths including input and output."""
        return (2, *self.hidden_widths, 1)


class MlpParams:
    """Weight matrices (d_i x d_{i-1}) and bias vectors (d_i,), layer by layer.

    The constructor copies them into one float64 vector ``flat``;
    ``weights`` and ``biases`` are tuples of views into it.
    """

    def __init__(self, weights, biases):
        weights = [np.asarray(w, dtype=np.float64) for w in weights]
        biases = [np.asarray(b, dtype=np.float64) for b in biases]
        if not weights or len(weights) != len(biases):
            raise ValueError("weights and biases must pair up layer by layer")
        for k, (w, b) in enumerate(zip(weights, biases)):
            if w.ndim != 2 or b.shape != (w.shape[0],):
                raise ValueError(f"layer shape mismatch: W {w.shape}, b {b.shape}")
            if k and w.shape[1] != weights[k - 1].shape[0]:
                raise ValueError(f"layer {k}: W has {w.shape[1]} columns, but layer {k - 1} "
                                 f"has {weights[k - 1].shape[0]} rows")
        self.shapes = tuple(w.shape for w in weights)
        self._bind(np.concatenate([a.ravel() for layer in zip(weights, biases) for a in layer]))

    def _bind(self, flat):
        self.flat = flat
        self.weights, self.biases = self.split(flat)

    def split(self, vec):
        """Per-layer ``(weights, biases)`` views of a vector laid out like ``flat``."""
        weights, biases, pos = [], [], 0
        for rows, cols in self.shapes:
            weights.append(vec[pos:pos + rows * cols].reshape(rows, cols))
            pos += rows * cols
            biases.append(vec[pos:pos + rows])
            pos += rows
        return tuple(weights), tuple(biases)

    def copy(self):
        out = copy.copy(self)
        out._bind(self.flat.copy())
        return out


def init_params(arch: MlpArchitecture, seed) -> MlpParams:
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
    return MlpParams(weights=weights, biases=biases)


class MlpWorkspace:
    """Every per-iteration array of :func:`forward_trace` and :func:`mlp_backward`.

    Built once for the layer shapes of ``params`` and ``n_points``
    coordinate rows: one activation buffer per layer, two spare buffers
    with room for ``n_points`` rows of the widest layer, and a gradient laid
    out like ``params.flat``. The forward uses the first spare buffer for
    ``LEAK * h``; the backward alternates its delta between the two and
    writes each slope into the one whose delta it has just consumed. Views
    of a spare buffer are contiguous (n, d) arrays at its start, laid out
    as fresh arrays would be, so every operation keeps its bits.
    """

    def __init__(self, params: MlpParams, n_points):
        self.shapes, self.n_points = params.shapes, n_points
        self.activations = [np.empty((n_points, rows)) for rows, _ in self.shapes]
        widest = max(rows for rows, _ in self.shapes)
        self.spare = (np.empty(n_points * widest), np.empty(n_points * widest))
        self.grad = np.empty_like(params.flat)

    def view(self, k, cols):
        """The spare buffer ``k`` as a contiguous (n_points, cols) array."""
        return self.spare[k][:self.n_points * cols].reshape(self.n_points, cols)

    def check(self, params: MlpParams, n_points):
        """ValueError unless the workspace was built for these layer shapes and points."""
        if params.shapes != self.shapes or n_points != self.n_points:
            raise ValueError(f"workspace is for layers {self.shapes} at {self.n_points} "
                             f"points, got {params.shapes} at {n_points}")


def forward_trace(params: MlpParams, coords, workspace: MlpWorkspace):
    """Forward pass keeping what the backward sweep needs.

    Returns the list ``activations``: ``activations[0]`` is the coordinate
    array and ``activations[i + 1]`` the output of layer i. The network
    output is ``activations[-1]``. The layer outputs are the buffers of
    ``workspace``, which the next call through it overwrites.
    """
    h = np.asarray(coords, dtype=np.float64)
    if h.ndim != 2 or h.shape[1] != params.weights[0].shape[1]:
        raise ValueError(
            f"coords must be (n, {params.weights[0].shape[1]}), got {h.shape}"
        )
    workspace.check(params, h.shape[0])
    n_layers = len(params.weights)
    activations = [h]
    for i, (w, b, out) in enumerate(zip(params.weights, params.biases, workspace.activations)):
        h = np.matmul(h, w.T, out=out)
        h += b
        if i < n_layers - 1:
            # branch-free leaky ReLU, exact because 0 < LEAK < 1 (module docstring)
            leak = np.multiply(h, LEAK, out=workspace.view(0, h.shape[1]))
            np.maximum(h, leak, out=h)
        else:
            np.maximum(h, 0.0, out=h)
        activations.append(h)
    return activations


def mlp_forward(params: MlpParams, coords, workspace: MlpWorkspace):
    """Evaluate the network at each coordinate row.

    Returns a length-n vector; nonnegative by the final ReLU. It is a view
    into the output buffer of ``workspace``.
    """
    return forward_trace(params, coords, workspace)[-1][:, 0]


def mlp_backward(params: MlpParams, activations, output_cotangent, workspace: MlpWorkspace):
    """Gradient of sum_k cotangent_k * output_k with respect to the parameters.

    ``activations`` is the list that :func:`forward_trace` returned for
    these parameters; it is read, not modified. The gradient is laid out
    like ``params.flat``. It is the gradient buffer of ``workspace`` (the
    one the forward used, or another of the same shape), which the next
    call through it overwrites.
    """
    cot = np.asarray(output_cotangent, dtype=np.float64).ravel()
    n_points = activations[0].shape[0]
    if cot.size != n_points:
        raise ValueError(
            f"cotangent length {cot.size} != number of coordinates {n_points}"
        )
    n_layers = len(params.weights)
    if len(activations) != n_layers + 1:
        raise ValueError(f"trace has {len(activations) - 1} layers, parameters have {n_layers}")
    workspace.check(params, n_points)
    grad = workspace.grad
    gw, gb = params.split(grad)
    # output layer: derivative of ReLU at 0 taken as 0
    k = 0
    delta = np.greater(activations[-1], 0.0, out=workspace.view(k, 1))
    delta *= cot[:, None]
    for i in range(n_layers - 1, -1, -1):
        np.matmul(delta.T, activations[i], out=gw[i])
        delta.sum(axis=0, out=gb[i])
        if i > 0:
            w = params.weights[i]
            delta = np.matmul(delta, w, out=workspace.view(1 - k, w.shape[1]))
            # slope 1 where the pre-activation is > 0, LEAK elsewhere, kink
            # included; read from the activation (module docstring), into
            # the buffer of the delta just consumed
            slope = np.sign(activations[i], out=workspace.view(k, w.shape[1]))
            np.maximum(slope, LEAK, out=slope)
            delta *= slope
            k = 1 - k
    return grad


def project_weights(params: MlpParams, c):
    """Clamp every weight and bias entry to [-c, c], in place. Idempotent."""
    check_positive("weight_bound", c)
    np.clip(params.flat, -c, c, out=params.flat)


@dataclass
class AdamState:
    """First/second-moment vectors laid out like ``MlpParams.flat``, and the step counter."""

    m: np.ndarray
    v: np.ndarray
    learning_rate: float
    t: int = 0

    @classmethod
    def for_params(cls, params: MlpParams, learning_rate):
        return cls(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat),
                   learning_rate=learning_rate)


def adam_step(params: MlpParams, grad, state: AdamState):
    """One bias-corrected Adam update of ``params.flat`` and ``state``, in place.

    Every entry gets the floating-point operations of
    p - lr (m / (1 - b1^t)) / (sqrt(v / (1 - b2^t)) + eps). Raises
    NumericalFailureError on non-finite gradient entries, before any update.
    """
    if not np.all(np.isfinite(grad)):
        raise NumericalFailureError("non-finite gradient entries in adam_step")
    state.t += 1
    state.m *= ADAM_BETA1
    state.m += (1 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1 - ADAM_BETA2) * grad * grad
    step = state.m / (1.0 - ADAM_BETA1**state.t)
    step *= state.learning_rate
    denom = state.v / (1.0 - ADAM_BETA2**state.t)
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    params.flat -= step


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


def load_params(path) -> MlpParams:
    """Read a checkpoint written by :func:`save_params`: a network from 2 inputs to 1 output."""
    with open(path, "rb") as f:
        blob = f.read()
    check_magic(path, blob, MLPW_MAGIC)
    check_length(path, len(blob), 8, at_least=True)
    (n_layers,) = struct.unpack_from("<I", blob, 4)
    weights, biases, pos = [], [], 8
    for _ in range(n_layers):
        check_length(path, len(blob), pos + 8, at_least=True)
        rows, cols = struct.unpack_from("<II", blob, pos)
        pos += 8
        check_length(path, len(blob), pos + 8 * rows * (cols + 1), at_least=True)
        weights.append(np.frombuffer(blob, "<f8", rows * cols, pos).reshape(rows, cols))
        pos += 8 * rows * cols
        biases.append(np.frombuffer(blob, "<f8", rows, pos))
        pos += 8 * rows
    check_length(path, len(blob), pos)
    with naming_path(path):
        params = MlpParams(weights=weights, biases=biases)
    (_, inputs), (outputs, _) = params.shapes[0], params.shapes[-1]
    if (inputs, outputs) != (2, 1):
        raise ValueError(f"{path}: expected a network from 2 inputs to 1 output, "
                         f"got {inputs} inputs and {outputs} outputs")
    return params
