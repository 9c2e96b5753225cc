"""Small tanh MLPs with hand-written reverse-mode gradients and Adam.

All networks in this package are feed-forward nets with tanh hidden
activations and an identity output layer. `forward` accepts a single input
vector or a batch (N, d); `backward` takes a batch and returns gradients
summed over it. `forward` also takes a stacked model of K
nets, weights (K, out, in) and biases (K, 1, out), on inputs (K or 1, N, d):
3-D matmul gives each net the bits of its own 2-D forward. A list passed to
`forward` receives the layer activations; `backward` given that list skips
its own forward pass.
Parameters, gradients and Adam's moments are flat vectors (weights, then
biases, in layer order), so Adam and the gradient checks are single passes.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import InitVar, dataclass
from pathlib import Path

import numpy as np

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@functools.cache
def _openblas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas*")):
        lib = ctypes.CDLL(str(path))
        if hasattr(lib, "scipy_openblas_set_num_threads64_"):
            return (lib.scipy_openblas_get_num_threads64_,
                    lib.scipy_openblas_set_num_threads64_)
    return None


@contextlib.contextmanager
def single_blas_thread():
    """Run the body on one OpenBLAS thread. The products here (at most
    256 x 64) run no faster on two threads, and any other busy process
    stalls every split product. OpenBLAS splits a GEMM's output between
    its threads, so the bits are the same."""
    get, set_ = _openblas_threads() or (lambda: 1, lambda n: None)
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


@dataclass
class MlpModel:
    """Feed-forward network: weights[l] has shape (out_dim, in_dim), or
    (K, out_dim, in_dim) in a stacked model; the widths are read from it.
    Weights and biases are views into the parameter vector `flat`, which
    holds them end to end (a copy of them, unless `flat` is given)."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    flat: InitVar[np.ndarray | None] = None

    def __post_init__(self, flat):
        params = self.weights + self.biases
        if flat is None:
            flat = np.concatenate(params, axis=None, dtype=np.float64)
        views, start = [], 0
        for a in params:
            views.append(flat[start:start + a.size].reshape(a.shape))
            start += a.size
        n = len(self.weights)
        self.flat, self.weights, self.biases = flat, views[:n], views[n:]

    @property
    def layer_dims(self) -> list[int]:
        return [self.input_dim] + [w.shape[-2] for w in self.weights]

    @property
    def input_dim(self) -> int:
        return self.weights[0].shape[-1]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[-2]

    def copy(self) -> "MlpModel":
        return type(self)(self.weights, self.biases, self.flat.copy())

    def __reduce__(self):
        # deepcopy and pickle rebuild the views into the copied `flat`.
        return type(self), (self.weights, self.biases, self.flat)


class GradientBuffer(MlpModel):
    """Parameter gradients, stored as an MlpModel's parameters are: weights
    and biases are views into `flat`, in the same layout."""

    def scale(self, c: float) -> None:
        self.flat *= c

    def global_norm(self) -> float:
        # Summed array by array: the clip scale depends on these exact bits.
        squares, total, start = self.flat * self.flat, 0.0, 0
        for a in self.weights + self.biases:
            total += float(np.add.reduce(squares[start:start + a.size]))
            start += a.size
        return float(np.sqrt(total))

    def is_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


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
    return MlpModel(weights, biases)


def share_parameters(*models: MlpModel) -> list[MlpModel]:
    """A one-array model, of the first model's type, over a new vector, then
    copies of `models`, of their own types, end to end in it as views."""
    flat = np.concatenate([m.flat for m in models])
    parts = np.split(flat, np.cumsum([m.flat.size for m in models])[:-1])
    return [type(models[0])([flat], [], flat)] + [
        type(m)(m.weights, m.biases, p) for m, p in zip(models, parts)]


def _forward_cached(model: MlpModel, x: np.ndarray) -> list[np.ndarray]:
    """Return post-activation values per layer, activations[0] = input."""
    acts = [x]
    h = x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w.mT
        h += b
        if l != last:
            np.tanh(h, out=h)
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
             activations: list | None = None, out=None) -> GradientBuffer:
    """Exact gradients of sum(output * output_gradient) w.r.t. parameters,
    for a batch x (N, d) and output_gradient (N, out).

    The gradient is summed over the batch, so pre-scaling output_gradient
    by 1/N yields a batch-mean gradient. `activations` from
    forward(model, x, activations) on the same x skips the forward pass.
    A GradientBuffer `out` laid out like the model receives the gradients.
    """
    x = np.asarray(x, dtype=np.float64)
    g = np.asarray(output_gradient, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.input_dim \
            or g.shape != (len(x), model.output_dim):
        raise ValueError(f"backward takes a batch x (N, {model.input_dim}) "
                         f"and output_gradient (N, {model.output_dim})")

    acts = _forward_cached(model, x) if activations is None else activations
    grads = GradientBuffer(model.weights, model.biases,
                           np.empty_like(model.flat)) if out is None else out
    delta = g
    for l in range(len(model.weights) - 1, -1, -1):
        np.matmul(delta.T, acts[l], out=grads.weights[l])
        np.add.reduce(delta, axis=0, out=grads.biases[l])  # np.sum's bits
        if l > 0:
            # acts[l] is post-tanh; d tanh(z)/dz = 1 - tanh(z)^2. np.dot: @
            # takes a loop without BLAS on the value head's (N, 1) @ (1, out).
            slope = np.square(acts[l])
            np.subtract(1.0, slope, out=slope)
            delta = np.dot(delta, model.weights[l])
            delta *= slope
    return grads


def clip_grad_norm(grads: GradientBuffer, max_norm: float) -> float:
    """Scale gradients in place so their global norm is at most max_norm."""
    norm = grads.global_norm()
    if norm > max_norm > 0.0:
        grads.scale(max_norm / norm)
    return norm


@dataclass
class AdamState:
    """Adam optimizer state with bias correction. The moments, and the two
    rows of the step's `scratch` space, are laid out like MlpModel.flat."""

    learning_rate: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    step_count: int = 0

    def __post_init__(self):
        self.scratch = np.empty((2,) + self.first_moment.shape)


def init_adam(model: MlpModel, learning_rate: float) -> AdamState:
    size = model.flat.size
    return AdamState(learning_rate, np.zeros(size), np.zeros(size))


def adam_update(model: MlpModel, state: AdamState, grads: GradientBuffer) -> None:
    """One Adam step, in place. Rejects non-finite gradients untouched."""
    if not grads.is_finite():
        raise FloatingPointError("non-finite gradient entries")
    state.step_count += 1
    t = state.step_count
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    g, m, v = grads.flat, state.first_moment, state.second_moment
    step, denom = state.scratch
    m *= b1
    m += np.multiply(1.0 - b1, g, out=step)
    v *= b2
    v += np.multiply(np.multiply(1.0 - b2, g, out=step), g, out=step)
    # step = lr * (m / c1) / (sqrt(v / c2) + eps)
    np.divide(m, c1, out=step)
    step *= state.learning_rate
    np.sqrt(np.divide(v, c2, out=denom), out=denom)
    denom += ADAM_EPSILON
    step /= denom
    model.flat -= step
