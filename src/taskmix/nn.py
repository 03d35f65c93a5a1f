"""Dense-network numerics.

A model is a "neck" of Linear-PReLU layers followed by a linear classification
head sized to the largest class count across tasks. A model's parameters are
one flat vector with named views into it (ModelParams). Everything here is a
pure function over such parameters: forward pass, weighted cross-entropy,
exact reverse-mode gradients, exact Hessian-vector products, and
meta-gradients obtained by backpropagating through an unrolled inner-loop SGD
trajectory.

Input values are trusted: data is checked when it is read (`data.load_dataset`),
and mixing only forms convex combinations of checked batches, so labels
stay row-normalized and weights non-negative and finite.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ShapeError, UsageError

FIRST_ORDER = "first_order"
EXACT = "exact"
GRAD_MODES = (FIRST_ORDER, EXACT)

PRELU_INIT_SLOPE = 0.25


@dataclass
class Geometry:
    """Layer widths: input dim, neck hidden widths, head class count."""

    input_dim: int
    hidden: list[int]
    n_classes: int

    def validate(self) -> None:
        dims = [self.input_dim, *self.hidden, self.n_classes]
        if any(int(d) < 1 for d in dims):
            raise ConfigError(f"geometry dimensions must be >= 1, got {dims}")


@dataclass
class LayerParams:
    weight: np.ndarray  # [out, in]
    bias: np.ndarray  # [out]
    slope: np.ndarray  # [out], per-unit PReLU slope


@dataclass
class HeadParams:
    weight: np.ndarray  # [n_classes, in]
    bias: np.ndarray  # [n_classes]


@dataclass(frozen=True)
class Layout:
    """Where each named array of a model sits in its flat parameter vector.

    Order: every neck layer's (weight, bias, slope), then the head's
    (weight, bias). `dims` is (input_dim, *hidden, n_classes).
    """

    dims: tuple[int, ...]
    spans: tuple[tuple[int, int, tuple[int, ...]], ...]  # (start, stop, shape)
    size: int

    @property
    def neck_size(self) -> int:
        """Length of the neck's prefix of the vector; the head follows it."""
        return self.spans[-2][0]


@functools.lru_cache(maxsize=256)
def layout_for(dims: tuple[int, ...]) -> Layout:
    """The layout of one geometry, computed once and shared (it is immutable)."""
    shapes: list[tuple[int, ...]] = []
    for fan_in, fan_out in zip(dims[:-2], dims[1:-1]):
        shapes += [(fan_out, fan_in), (fan_out,), (fan_out,)]
    shapes += [(dims[-1], dims[-2]), (dims[-1],)]
    spans, pos = [], 0
    for shape in shapes:
        spans.append((pos, pos + math.prod(shape), shape))
        pos += math.prod(shape)
    return Layout(dims=tuple(dims), spans=tuple(spans), size=pos)


@dataclass
class ModelParams:
    """Neck + head parameters: one contiguous vector and named views into it.

    `layers[k].weight/bias/slope` and `head.weight/bias` share memory with
    `flat`, in the dtype the vector was built with. Gradients, Hessian-vector
    products and optimizer moments use the same layout, so every update is
    one whole-vector operation.
    """

    flat: np.ndarray
    layout: Layout
    layers: list[LayerParams] = field(init=False, repr=False)
    head: HeadParams = field(init=False, repr=False)

    def __post_init__(self):
        if self.flat.shape != (self.layout.size,):
            raise ShapeError(
                f"parameter vector has shape {self.flat.shape}, layout needs "
                f"({self.layout.size},)"
            )
        views = [self.flat[a:b].reshape(shape) for a, b, shape in self.layout.spans]
        self.layers = [LayerParams(*views[i : i + 3]) for i in range(0, len(views) - 2, 3)]
        self.head = HeadParams(*views[-2:])

    def like(self, flat: np.ndarray) -> ModelParams:
        """Another vector viewed through this model's layout."""
        return ModelParams(flat, self.layout)

    def copy(self) -> ModelParams:
        return self.like(self.flat.copy())

    @property
    def input_dim(self) -> int:
        return self.layout.dims[0]

    @property
    def n_classes(self) -> int:
        return self.layout.dims[-1]

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


# ---------------------------------------------------------------------------
# Initialization and forward pass
# ---------------------------------------------------------------------------


def init_params(
    geometry: Geometry, rng: np.random.Generator, dtype=np.float32
) -> ModelParams:
    """Glorot-uniform weights, zero biases, PReLU slopes at 0.25."""
    geometry.validate()
    dims = (geometry.input_dim, *geometry.hidden, geometry.n_classes)
    layout = layout_for(tuple(int(d) for d in dims))
    params = ModelParams(np.zeros(layout.size, dtype=dtype), layout)

    def glorot(weight: np.ndarray) -> None:
        fan_out, fan_in = weight.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weight[...] = rng.uniform(-limit, limit, size=weight.shape)

    for layer in params.layers:
        glorot(layer.weight)
        layer.slope[...] = PRELU_INIT_SLOPE
    glorot(params.head.weight)
    return params


def _check_input(params: ModelParams, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != params.input_dim:
        raise ShapeError(
            f"input has shape {x.shape}, model expects [B, {params.input_dim}]"
        )


def _forward_cache(params: ModelParams, x: np.ndarray):
    """Returns (logits, hs, zs): hs[k] is the input to layer k, zs[k] its preactivation."""
    _check_input(params, x)
    hs, zs = [x], []
    h = x
    for layer in params.layers:
        z = h @ layer.weight.T + layer.bias
        h = np.where(z > 0, z, layer.slope * z)
        zs.append(z)
        hs.append(h)
    logits = h @ params.head.weight.T + params.head.bias
    return logits, hs, zs


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Logits [B, n_classes] for features [B, D]."""
    logits, _, _ = _forward_cache(params, x)
    return logits


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def _loss_and_log_probs(logits, soft_labels, class_weights):
    """(weighted cross-entropy, log softmax of the logits)."""
    ls = _log_softmax(logits)
    return float(-(soft_labels * ls * class_weights[None, :]).sum(axis=1).mean()), ls


def weighted_ce(
    logits: np.ndarray, soft_labels: np.ndarray, class_weights: np.ndarray
) -> float:
    """Mean over the batch of -sum_c w_c * y_c * log softmax(logits)_c."""
    return _loss_and_log_probs(logits, soft_labels, class_weights)[0]


# ---------------------------------------------------------------------------
# Exact gradients
# ---------------------------------------------------------------------------


def backward(params: ModelParams, batch) -> tuple[float, ModelParams]:
    """Loss and exact gradients of weighted_ce(forward(x)) for every parameter.

    Returns (loss, grads) where grads is one vector in the params' layout,
    including per-unit PReLU slope gradients. Reduction is the mean over the
    batch, so duplicating rows leaves gradients unchanged.
    """
    x, y, w = batch.x, batch.y, batch.w
    logits, hs, zs = _forward_cache(params, x)
    loss, ls = _loss_and_log_probs(logits, y, w)

    b = x.shape[0]
    p = np.exp(ls)
    weight_mass = y @ w  # [B]; total class weight carried by each row's labels
    delta = (weight_mass[:, None] * p - y * w[None, :]) / b  # dLoss/dlogits

    grads = params.like(np.empty_like(params.flat))
    np.matmul(delta.T, hs[-1], out=grads.head.weight)
    delta.sum(axis=0, out=grads.head.bias)
    d = delta @ params.head.weight

    for k in range(len(params.layers) - 1, -1, -1):
        layer, z, g = params.layers[k], zs[k], grads.layers[k]
        act_slope = np.where(z > 0, 1.0, layer.slope)
        dz = d * act_slope
        np.where(z > 0, 0.0, d * z).sum(axis=0, out=g.slope)
        np.matmul(dz.T, hs[k], out=g.weight)
        dz.sum(axis=0, out=g.bias)
        if k:  # the gradient w.r.t. the input itself is never needed
            d = dz @ layer.weight
    return loss, grads


def loss_hvp(params: ModelParams, batch, direction: ModelParams) -> ModelParams:
    """Exact Hessian-vector product of the batch loss at params.

    Forward-over-reverse: propagate the directional tangent through the
    forward pass, then through the exact backward pass. PReLU is piecewise
    linear, so the tangent of its local slope w.r.t. z vanishes almost
    everywhere; the slope parameter's own tangent still flows.
    """
    x, y, w = batch.x, batch.y, batch.w
    logits, hs, zs = _forward_cache(params, x)
    b = x.shape[0]

    # Tangent forward pass.
    r_hs = [np.zeros_like(x)]
    r_zs = []
    rh = r_hs[0]
    for layer, v_layer, z, h_in in zip(params.layers, direction.layers, zs, hs):
        rz = rh @ layer.weight.T + h_in @ v_layer.weight.T + v_layer.bias
        rh = np.where(z > 0, rz, layer.slope * rz + z * v_layer.slope)
        r_zs.append(rz)
        r_hs.append(rh)
    r_logits = (
        rh @ params.head.weight.T + hs[-1] @ direction.head.weight.T + direction.head.bias
    )

    # Tangent of dLoss/dlogits. With labels and weights fixed, only the
    # softmax output moves: Rp = p * (Ru - <p, Ru>).
    ls = _log_softmax(logits)
    p = np.exp(ls)
    rp = p * (r_logits - (p * r_logits).sum(axis=1, keepdims=True))
    weight_mass = y @ w
    delta = (weight_mass[:, None] * p - y * w[None, :]) / b
    r_delta = (weight_mass[:, None] * rp) / b

    # Tangent backward pass, written straight into one output vector.
    hv = params.like(np.empty_like(params.flat))
    np.add(r_delta.T @ hs[-1], delta.T @ r_hs[-1], out=hv.head.weight)
    r_delta.sum(axis=0, out=hv.head.bias)
    d = delta @ params.head.weight
    rd = r_delta @ params.head.weight + delta @ direction.head.weight

    for k in range(len(params.layers) - 1, -1, -1):
        layer, v_layer, out = params.layers[k], direction.layers[k], hv.layers[k]
        z, rz = zs[k], r_zs[k]
        neg = z <= 0
        act_slope = np.where(neg, layer.slope, 1.0)
        dz = d * act_slope
        r_dz = rd * act_slope + np.where(neg, d * v_layer.slope, 0.0)
        np.where(neg, rd * z + d * rz, 0.0).sum(axis=0, out=out.slope)
        np.add(r_dz.T @ hs[k], dz.T @ r_hs[k], out=out.weight)
        r_dz.sum(axis=0, out=out.bias)
        if k:  # input tangents are never needed
            rd = r_dz @ layer.weight + dz @ v_layer.weight
            d = dz @ layer.weight
    return hv


# ---------------------------------------------------------------------------
# Meta-gradients through an unrolled inner loop
# ---------------------------------------------------------------------------


@dataclass
class TraceStep:
    params: ModelParams  # parameters the inner gradient was evaluated at
    batch: object
    lr: float


@dataclass
class AdaptationTrace:
    """Record of one inner-loop run from theta to `adapted`.

    `steps` holds one entry per inner step, or is None when the trace was
    not recorded (first-order training), which is an error to unroll through.
    """

    adapted: ModelParams
    steps: list[TraceStep] | None


def backprop_through_trace(grads: ModelParams, trace: AdaptationTrace) -> ModelParams:
    """Pull query-loss gradients at the adapted parameters back to theta.

    Each inner SGD step theta_j = theta_{j-1} - lr * g(theta_{j-1}) contributes
    a Jacobian factor (I - lr * H_j); applying the factors in reverse order
    turns the gradient at theta_n into the exact meta-gradient at theta.
    """
    if trace.steps is None:
        raise UsageError("exact meta-gradient requires a recorded adaptation trace")
    g = grads
    for step in reversed(trace.steps):
        hv = loss_hvp(step.params, step.batch, g)
        g = g.like(g.flat - step.lr * hv.flat)
    return g
