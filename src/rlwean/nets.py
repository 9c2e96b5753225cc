"""Small tanh MLPs with hand-written reverse-mode gradients and Adam.

All networks in this package are feed-forward nets with tanh hidden
activations and an identity output layer. Forward and backward accept
either a single input vector or a batch (N, d); batched backward returns
gradients summed over the batch. `forward` also takes a stacked model of K
nets, weights (K, out, in) and biases (K, 1, out), on inputs (K or 1, N, d):
3-D matmul gives each net the bits of its own 2-D forward. A list passed to
`forward` receives the layer activations; `backward` given that list skips
its own forward pass.
Gradients and Adam's two moments are flat vectors, so the finiteness check
and the moment updates are single passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class MlpModel:
    """Feed-forward network: weights[l] has shape (out_dim, in_dim)."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @property
    def input_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def output_dim(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "MlpModel":
        return MlpModel(
            list(self.layer_dims),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.biases],
        )


@dataclass
class GradientBuffer:
    """Parameter gradients, shape-congruent with an MlpModel.

    The entries are copied into one flat vector, `flat` (weights, then
    biases, in layer order); d_weights and d_biases are views into it.
    """

    d_weights: list[np.ndarray]
    d_biases: list[np.ndarray]

    def __post_init__(self):
        arrays = self.d_weights + self.d_biases
        self.flat = np.concatenate([np.ravel(a) for a in arrays],
                                   dtype=np.float64)
        views = _split(self.flat, arrays)
        self.d_weights = views[:len(self.d_weights)]
        self.d_biases = views[len(self.d_weights):]

    def scale(self, c: float) -> None:
        self.flat *= c

    def global_norm(self) -> float:
        # Summed array by array: the clip scale depends on these exact bits.
        total = 0.0
        for dw in self.d_weights:
            total += float(np.sum(dw * dw))
        for db in self.d_biases:
            total += float(np.sum(db * db))
        return float(np.sqrt(total))

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def _split(flat: np.ndarray, like: list[np.ndarray]) -> list[np.ndarray]:
    """Consecutive views into `flat`, shaped like the arrays of `like`."""
    views, start = [], 0
    for a in like:
        views.append(flat[start:start + a.size].reshape(a.shape))
        start += a.size
    return views


def init_mlp(layer_dims: list[int], rng: np.random.Generator,
             output_scale: float = 1.0) -> MlpModel:
    """Uniform(-sqrt(1/fan_in), +sqrt(1/fan_in)) init; output layer rescaled."""
    if len(layer_dims) < 2 or any(d < 1 for d in layer_dims):
        raise ValueError(f"invalid layer dims {layer_dims}")
    weights, biases = [], []
    n_layers = len(layer_dims) - 1
    for l in range(n_layers):
        fan_in = layer_dims[l]
        bound = np.sqrt(1.0 / fan_in)
        w = rng.uniform(-bound, bound, size=(layer_dims[l + 1], fan_in))
        b = rng.uniform(-bound, bound, size=layer_dims[l + 1])
        if l == n_layers - 1:
            w *= output_scale
            b *= output_scale
        weights.append(w)
        biases.append(b)
    return MlpModel(list(layer_dims), weights, biases)


def _forward_cached(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """Return post-activation values per layer, activations[0] = input."""
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w.mT + b
        if l != last:
            h = np.tanh(h)
        acts.append(h)
    return acts


def forward(model: MlpModel, x: np.ndarray,
            activations: list | None = None) -> np.ndarray:
    """Evaluate the network on a vector (d,) or a batch (N, d), or a
    stacked model on (K, N, d).

    A list passed as `activations` receives every layer's output, the
    input first, for a later backward(model, x, g, activations).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[-1] != model.input_dim:
        raise ValueError(
            f"input dim {x.shape[-1]} != network input dim {model.input_dim}")
    acts = _forward_cached(model, x)
    if activations is not None:
        activations[:] = acts
    return acts[-1]


def backward(model: MlpModel, x: np.ndarray, output_gradient: np.ndarray,
             activations: list | None = None) -> GradientBuffer:
    """Exact gradients of sum(output * output_gradient) w.r.t. parameters.

    For batched inputs the gradient is summed over the batch, so pre-scaling
    output_gradient by 1/N yields a batch-mean gradient. `activations` from
    forward(model, x, activations) on the same x skips the forward pass.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(output_gradient, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
        g = g[None, :]
    if x.shape[-1] != model.input_dim or g.shape[-1] != model.output_dim:
        raise ValueError("shape mismatch between input/output_gradient and model")
    if x.shape[0] != g.shape[0]:
        raise ValueError("batch size mismatch between input and output_gradient")

    if activations is None:
        acts = _forward_cached(model, x)
    else:
        acts = [a[None, :] for a in activations] if single else activations
    n_layers = len(model.weights)
    d_weights, d_biases = [None] * n_layers, [None] * n_layers
    delta = g
    for l in range(n_layers - 1, -1, -1):
        d_weights[l] = delta.T @ acts[l]
        d_biases[l] = delta.sum(axis=0)
        if l > 0:
            # acts[l] is post-tanh; d tanh(z)/dz = 1 - tanh(z)^2
            delta = (delta @ model.weights[l]) * (1.0 - acts[l] ** 2)
    return GradientBuffer(d_weights, d_biases)


def zero_grads(model: MlpModel) -> GradientBuffer:
    return GradientBuffer([np.zeros_like(w) for w in model.weights],
                          [np.zeros_like(b) for b in model.biases])


def clip_grad_norm(grads: GradientBuffer, max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most max_norm."""
    norm = grads.global_norm()
    if norm > max_norm > 0.0:
        grads.scale(max_norm / norm)
    return norm


@dataclass
class AdamState:
    """Adam optimizer state with bias correction. The moments are flat
    vectors laid out like GradientBuffer.flat."""

    learning_rate: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    step_count: int = 0


def init_adam(model: MlpModel, learning_rate: float) -> AdamState:
    size = sum(a.size for a in model.weights + model.biases)
    return AdamState(learning_rate, np.zeros(size), np.zeros(size))


def adam_update(model: MlpModel, state: AdamState, grads: GradientBuffer) -> None:
    """One Adam step, in place. Rejects non-finite gradients untouched."""
    if not grads.is_finite():
        raise FloatingPointError("non-finite gradient entries")
    state.step_count += 1
    t = state.step_count
    b1, b2 = state.beta1, state.beta2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    g, m, v = grads.flat, state.first_moment, state.second_moment
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    step = state.learning_rate * (m / c1) / (np.sqrt(v / c2) + state.epsilon)
    params = model.weights + model.biases
    for p, s in zip(params, _split(step, params)):
        p -= s
