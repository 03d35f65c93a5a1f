"""Dense-network numerics.

A model is a "neck" of Linear-PReLU layers followed by a linear classification
head sized to the largest class count across tasks. A model's parameters are
one flat vector and its Layout (ModelParams). Gradients, Hessian-vector
products, HVP directions and meta-gradients are plain vectors in that same
layout; `Layout.views` is the one place that names their slices. Everything
here is a pure function over such vectors: forward pass, weighted
cross-entropy, exact reverse-mode gradients, exact Hessian-vector products,
and meta-gradients obtained by backpropagating through an unrolled
inner-loop SGD trajectory.

Gradients (`backward`) and Hessian-vector products (`loss_hvp`) come from one
reverse pass (`_backprop`); the HVP adds Pearlmutter's R-operator tangent
terms to it. PReLU is h = max(z, 0) + slope * min(z, 0), and its derivative
dh/dz is 1 where z > 0 and the slope elsewhere, z == 0 included.

A unit axis. The passes and products here also take a stack of G models:
parameters [G, P] with batches x [G, B, D], y [G, B, C], w [G, C], one model
and one batch per unit. Slice g of each result is, bit for bit, what the unstacked
call on slice g returns: every matmul is one BLAS call per slice, and every
reduction runs over the same axis in the same order as unstacked. One call
then carries G units' arrays through one set of numpy calls (see README
"Parameter layout").

Inputs are trusted, values and shapes alike: data is checked when it is read
(`data.load_dataset`, which also makes every task's width the model's input
width), and mixing only forms convex combinations of checked batches of one
shape, so labels stay row-normalized and weights non-negative and finite.
Nothing here raises an engine error.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

FIRST_ORDER = "first_order"
EXACT = "exact"
GRAD_MODES = (FIRST_ORDER, EXACT)

PRELU_INIT_SLOPE = 0.25


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

    def views(self, flat: np.ndarray):
        """(layers, head) of a vector in this layout: layers[k] is
        [weight [out, in], bias [out], slope [out]] of neck layer k, and head
        is [weight [n_classes, in], bias [n_classes]]. All share flat's memory.
        A stack of vectors [G, P] gives each array a leading unit axis."""
        lead = flat.shape[:-1]
        arrays = [flat[..., a:b].reshape(lead + shape) for a, b, shape in self.spans]
        return [arrays[i : i + 3] for i in range(0, len(arrays) - 2, 3)], arrays[-2:]


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
    """A model's parameters: one contiguous vector and its layout.

    Gradients, Hessian-vector products and optimizer moments are vectors in
    the same layout, so every update is one whole-vector operation.
    """

    flat: np.ndarray
    layout: Layout

    def like(self, flat: np.ndarray) -> ModelParams:
        """Another vector in this model's layout, as parameters."""
        return ModelParams(flat, self.layout)


# ---------------------------------------------------------------------------
# Initialization and forward pass
# ---------------------------------------------------------------------------


def check_size(n: int) -> None:
    """MemoryError for an array of n elements (of 8 bytes at most) past
    numpy's index range, where numpy would raise ValueError."""
    if n > sys.maxsize // 8:
        raise MemoryError(f"{n} elements are past numpy's index range")


def init_params(
    dims: tuple[int, ...], rng: np.random.Generator, dtype=np.float32
) -> ModelParams:
    """Glorot-uniform weights, zero biases, PReLU slopes at 0.25.

    dims is (input_dim, *hidden, n_classes), as in layout_for.
    """
    layout = layout_for(dims)
    check_size(layout.size)
    flat = np.zeros(layout.size, dtype=dtype)
    layers, (head_weight, _) = layout.views(flat)

    def glorot(weight: np.ndarray) -> None:
        fan_out, fan_in = weight.shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weight[...] = rng.uniform(-limit, limit, size=weight.shape)

    for weight, _, slope in layers:
        glorot(weight)
        slope[...] = PRELU_INIT_SLOPE
    glorot(head_weight)
    return ModelParams(flat, layout)


def _rows(vector: np.ndarray) -> np.ndarray:
    """A per-unit vector [..., n] as one row [..., 1, n], to broadcast over a batch."""
    return vector[..., None, :]


def _forward_cache(layers, head, x: np.ndarray):
    """Returns (logits, hs, poss, negs): hs[k] is the input to layer k; for its
    preactivation z, poss[k] = z > 0 and negs[k] = minimum(z, 0)."""
    hs, poss, negs = [x], [], []
    h = x
    for weight, bias, slope in layers:
        z = h @ weight.mT
        z += _rows(bias)
        poss.append(z > 0)
        negs.append(np.minimum(z, 0))
        h = np.maximum(z, 0, out=z)
        h += _rows(slope) * negs[-1]
        hs.append(h)
    logits = h @ head[0].mT
    logits += _rows(head[1])
    return logits, hs, poss, negs


def forward(params: ModelParams, x: np.ndarray) -> np.ndarray:
    """Logits [B, n_classes] for features [B, D]."""
    return _forward_cache(*params.layout.views(params.flat), x)[0]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def _loss_and_log_probs(logits, soft_labels, class_weights):
    """(weighted cross-entropy, log softmax of the logits); the loss is a float,
    or one float64 per unit [G] for a stack."""
    ls = _log_softmax(logits)
    loss = -(soft_labels * ls * _rows(class_weights)).sum(axis=-1).mean(axis=-1)
    return (loss.astype(np.float64) if loss.ndim else float(loss)), ls


def weighted_ce(
    logits: np.ndarray, soft_labels: np.ndarray, class_weights: np.ndarray
) -> float:
    """Mean over the batch of -sum_c w_c * y_c * log softmax(logits)_c."""
    return _loss_and_log_probs(logits, soft_labels, class_weights)[0]


# ---------------------------------------------------------------------------
# Exact gradients
# ---------------------------------------------------------------------------


def _prelu_derivative(slope: np.ndarray, pos: np.ndarray, out=None):
    """dh/dz from pos = z > 0, in out if given. At z == 0 the slope applies, as
    it does below zero."""
    act = np.multiply(_rows(slope), ~pos, out=out)
    act += pos
    return act


def _tangent_weight_grad(r_d, h, d, r_h, out) -> None:
    """out = r_d.T @ h + d.T @ r_h, a weight's HVP term; r_h None is a zero tangent."""
    np.matmul(r_d.mT, h, out=out)
    if r_h is not None:
        out += d.mT @ r_h


def _tangent_forward(layers, v_layers, hs, poss, negs):
    """The direction's tangent through the neck, from _forward_cache's arrays.

    Returns (r_hs, r_zms): r_hs[k] is layer k's input tangent, the last
    layer's output tangent last; the input's own is zero, None, so its
    products are skipped. r_zms[k] is layer k's tangent preactivation masked
    to z <= 0, the only form of it the reverse pass reads. Its own function,
    so that no loop name keeps the last layer's temporaries alive after it.
    """
    r_hs, r_zms = [None], []
    for (weight, _, slope), (v_w, v_b, v_s), h, pos, neg in zip(
            layers, v_layers, hs, poss, negs):
        rz = h @ v_w.mT
        if r_hs[-1] is not None:
            rz += r_hs[-1] @ weight.mT
        rz += _rows(v_b)
        r_h = _prelu_derivative(slope, pos)
        r_h *= rz
        r_h += neg * _rows(v_s)
        r_hs.append(r_h)
        r_zms.append(np.multiply(rz, ~pos, out=rz))
    return r_hs, r_zms


def _backprop(params: ModelParams, batch, direction: np.ndarray | None = None):
    """One forward and one reverse pass of the batch loss at params.

    Returns (loss, out): out is the gradient or, given a direction, the
    Hessian-vector product by Pearlmutter's R-operator (forward-over-reverse):
    the direction's tangent is pushed through the forward pass and its terms
    run beside the reverse pass, which then skips the gradient itself. PReLU
    is piecewise linear, so the tangent of its derivative vanishes almost
    everywhere; the slope parameter's own tangent still flows.

    Each layer keeps only what its reverse step reads, and each array is
    dropped once it is spent. The forward pass keeps a layer's input h, its
    mask z > 0 and min(z, 0). The tangent pass adds the layer's output
    tangent (the next layer's input tangent) and its tangent preactivation
    masked to z <= 0. The reverse step builds its terms in those spent
    buffers and recomputes the PReLU derivative from the mask: dz goes into
    min(z, 0), and the adjoint of a layer's input and its tangent go into
    that input and its input tangent once the weight terms have read them.
    hs[0] is the caller's features and is never written. Every product
    keeps its operands or swaps a commutative pair, and every sum keeps its
    order, so the in-place forms give the same bits as fresh temporaries.

    With a unit axis (params [G, P], batch x [G, B, D]; see the module
    docstring) loss is [G] and out is [G, P]; params may be a broadcast view.
    """
    x, y, w = batch.x, batch.y, batch.w
    layers, (head_w, head_b) = params.layout.views(params.flat)
    logits, hs, poss, negs = _forward_cache(layers, (head_w, head_b), x)
    loss, ls = _loss_and_log_probs(logits, y, w)
    p = np.exp(ls)
    # [..., B, 1]: total class weight carried by each row's labels
    weight_mass = y @ w[..., None]
    delta = (weight_mass * p - y * _rows(w)) / x.shape[-2]  # dLoss/dlogits

    if direction is not None:
        v_layers, (v_head_w, v_head_b) = params.layout.views(direction)
        r_hs, r_zms = _tangent_forward(layers, v_layers, hs, poss, negs)
        r_logits = hs[-1] @ v_head_w.mT
        if r_hs[-1] is not None:
            r_logits += r_hs[-1] @ head_w.mT
        r_logits += _rows(v_head_b)
        # Tangent of dLoss/dlogits. With labels and weights fixed, only the
        # softmax output moves: Rp = p * (Ru - <p, Ru>).
        rp = p * (r_logits - (p * r_logits).sum(axis=-1, keepdims=True))
        r_delta = (weight_mass * rp) / x.shape[-2]
    # after the tangent pass, which holds the HVP's largest working set
    out = np.empty(params.flat.shape, params.flat.dtype)
    out_layers, (out_head_w, out_head_b) = params.layout.views(out)

    h = hs.pop()
    if direction is None:
        np.matmul(delta.mT, h, out=out_head_w)
        delta.sum(axis=-2, out=out_head_b)
    else:
        r_h = r_hs.pop()
        _tangent_weight_grad(r_delta, h, delta, r_h, out_head_w)
        r_delta.sum(axis=-2, out=out_head_b)
    if layers:  # with no hidden layer, no adjoint is read
        if direction is not None:
            rd = np.matmul(r_delta, head_w, out=r_h)
            rd += np.matmul(delta, v_head_w, out=h)
        d = np.matmul(delta, head_w, out=h)

    for k in range(len(layers) - 1, -1, -1):
        (weight, _, slope), (o_w, o_b, o_s) = layers[k], out_layers[k]
        h, pos, neg = hs.pop(), poss.pop(), negs.pop()
        if direction is None:
            np.multiply(neg, d, out=neg).sum(axis=-2, out=o_s)
            dz = _prelu_derivative(slope, pos, out=neg)
            dz *= d
            np.matmul(dz.mT, h, out=o_w)
            dz.sum(axis=-2, out=o_b)
        else:
            v_w, _, v_s = v_layers[k]
            rzm = r_zms.pop()
            # slope: sum of rd * min(z, 0) + d * (tangent z where z <= 0)
            rzm *= d
            neg *= rd
            neg += rzm
            neg.sum(axis=-2, out=o_s)
            # r_dz = rd * act + d * (slope tangent where z <= 0), in rd
            np.multiply(_rows(v_s), ~pos, out=rzm)
            rzm *= d
            act = _prelu_derivative(slope, pos, out=neg)
            r_dz = rd
            r_dz *= act
            r_dz += rzm
            del rzm, rd
            dz = act
            dz *= d
            r_h = r_hs.pop()
            _tangent_weight_grad(r_dz, h, dz, r_h, o_w)
            r_dz.sum(axis=-2, out=o_b)
            if k:
                rd = np.matmul(r_dz, weight, out=r_h)
                rd += np.matmul(dz, v_w, out=h)
            del r_dz
        if k:  # the adjoint of the input itself is never needed
            d = np.matmul(dz, weight, out=h)
    return loss, out


def backward(params: ModelParams, batch) -> tuple[float, np.ndarray]:
    """Loss and exact gradients of weighted_ce(forward(x)) for every parameter.

    Returns (loss, grads) where grads is one vector in the params' layout,
    including per-unit PReLU slope gradients. Reduction is the mean over the
    batch, so duplicating rows leaves gradients unchanged. A stack of G
    models and batches gives G losses and G gradient vectors.
    """
    return _backprop(params, batch)


def loss_hvp(params: ModelParams, batch, direction: np.ndarray) -> np.ndarray:
    """Exact Hessian-vector product of the batch loss at params, for a
    direction vector in the params' layout."""
    return _backprop(params, batch, direction)[1]


# ---------------------------------------------------------------------------
# Meta-gradients through an unrolled inner loop
# ---------------------------------------------------------------------------


def backprop_through_trace(grads: np.ndarray, starts: list[ModelParams], support_batches,
                           lr: float) -> np.ndarray:
    """Pull query-loss gradients at the adapted parameters back to theta.

    starts are the parameters each SGD step on support_batches at lr started
    from: what inner_adapt returns, less its last entry (the adapted
    parameters, which the pullback never reads). Each step
    theta_j = theta_{j-1} - lr * g(theta_{j-1}) contributes a Jacobian factor
    (I - lr * H_j); applying the factors in reverse order turns the gradient
    at the adapted parameters into the exact meta-gradient at theta. With a
    unit axis, grads, starts and the batches are stacks of G units.

    The pullback owns grads: it subtracts each step's term from it in place,
    drops the term, and returns grads, so every HVP runs beside just the one
    gradient being pulled back. Pass a copy to keep the caller's array.
    """
    for params, batch in zip(reversed(starts), reversed(support_batches)):
        step = loss_hvp(params, batch, grads)
        step *= lr
        grads -= step
        del step
    return grads
