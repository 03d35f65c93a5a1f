"""Gradient and forward-pass oracles.

The backward pass, Hessian-vector products, and unrolled meta-gradients are
all checked against central finite differences in 64-bit, which is an
implementation-independent oracle.
"""

import numpy as np
import pytest

from taskmix.data import Batch, one_hot
from taskmix.errors import ShapeError, UsageError
from taskmix.nn import (
    EXACT,
    PRELU_INIT_SLOPE,
    AdaptationTrace,
    ModelParams,
    TraceStep,
    backprop_through_trace,
    backward,
    forward,
    init_params,
    layout_for,
    loss_hvp,
    weighted_ce,
)
from taskmix.training import inner_adapt, unit_gradient

from util import fd_gradient, random_batch, rel_err, small_net, tiny_config, trees_equal


def hand_model(head_w=2.0, head_b=1.0):
    # one 1->1 PReLU layer (weight 1, bias 0, slope 0.25), then a 1->1 head
    flat = np.array([1.0, 0.0, 0.25, head_w, head_b])
    return ModelParams(flat, layout_for((1, 1, 1)))


def test_forward_hand_case():
    model = hand_model()
    # positive branch: prelu(3) = 3, head 2*3 + 1 = 7
    assert forward(model, np.array([[3.0]]))[0, 0] == pytest.approx(7.0)
    # negative branch: prelu(-3) = -0.75, head 2*(-0.75) + 1 = -0.5
    assert forward(model, np.array([[-3.0]]))[0, 0] == pytest.approx(-0.5)


def test_forward_permutation_equivariant():
    params = small_net(seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 4))
    perm = rng.permutation(10)
    assert np.array_equal(forward(params, x)[perm], forward(params, x[perm]))


def test_forward_rejects_wrong_width():
    params = small_net(seed=1)
    with pytest.raises(ShapeError):
        forward(params, np.zeros((2, 5)))


def test_weighted_ce_uniform_logits_is_log2():
    logits = np.zeros((4, 2))
    w = np.ones(2)
    hard = one_hot(np.array([0, 1, 0, 1]), 2, dtype=np.float64)
    assert weighted_ce(logits, hard, w) == pytest.approx(np.log(2.0), rel=1e-12)
    soft = np.full((4, 2), 0.5)
    assert weighted_ce(logits, soft, w) == pytest.approx(np.log(2.0), rel=1e-12)


def test_weighted_ce_nonnegative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        b, c = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        logits = rng.standard_normal((b, c)) * 3.0
        y = rng.random((b, c))
        y /= y.sum(axis=1, keepdims=True)
        w = rng.uniform(0.0, 3.0, c)
        assert weighted_ce(logits, y, w) >= 0.0


def test_backward_matches_finite_differences():
    # [4 -> 3 -> 2] net, 64-bit, 10 seeds, rel err < 1e-5
    for seed in range(10):
        params = small_net(seed, dims=(4, 3, 2))
        batch = random_batch(1000 + seed, b=8, d=4, c=2)
        _, grads = backward(params, batch)

        def loss_at(vec):
            p = params.like(vec)
            return weighted_ce(forward(p, batch.x), batch.y, batch.w)

        fd = fd_gradient(loss_at, params.flat.copy(), h=1e-6)
        assert rel_err(grads.flat, fd) < 1e-5


def test_backward_loss_matches_weighted_ce():
    params = small_net(seed=4)
    batch = random_batch(5, b=6, d=4, c=2)
    loss, _ = backward(params, batch)
    assert loss == pytest.approx(weighted_ce(forward(params, batch.x), batch.y, batch.w))


def test_backward_mean_reduction_duplication_invariant():
    params = small_net(seed=9)
    batch = random_batch(21, b=5, d=4, c=2)
    tripled = Batch(
        x=np.tile(batch.x, (3, 1)), y=np.tile(batch.y, (3, 1)), w=batch.w
    )
    loss1, g1 = backward(params, batch)
    loss3, g3 = backward(params, tripled)
    assert loss3 == pytest.approx(loss1, rel=1e-12)
    assert np.allclose(g1.flat, g3.flat, rtol=1e-12, atol=1e-14)


def test_backward_zero_weights_zero_gradients():
    params = small_net(seed=2)
    batch = random_batch(3, b=4, d=4, c=2)
    zeroed = Batch(x=batch.x, y=batch.y, w=np.zeros_like(batch.w))
    loss, grads = backward(params, zeroed)
    assert loss == 0.0
    assert np.all(grads.flat == 0.0)


def test_hvp_matches_fd_of_gradients():
    for seed in range(5):
        params = small_net(seed, dims=(4, 3, 2))
        batch = random_batch(400 + seed, b=8, d=4, c=2)
        rng = np.random.default_rng(seed)
        vec = params.flat.copy()
        direction = rng.standard_normal(vec.size)
        hv = loss_hvp(params, batch, params.like(direction))

        h = 1e-6
        up = params.like(vec + h * direction)
        dn = params.like(vec - h * direction)
        _, gu = backward(up, batch)
        _, gd = backward(dn, batch)
        fd = (gu.flat - gd.flat) / (2.0 * h)
        assert rel_err(hv.flat, fd) < 1e-5


@pytest.mark.parametrize("n_steps", [1, 2, 3])
def test_meta_gradient_matches_fd_of_meta_objective(n_steps):
    inner_lr = 0.05
    cfg = tiny_config(meta={"inner_lr": inner_lr, "grad_mode": EXACT})
    for seed in (0, 1, 2):
        theta = small_net(seed, dims=(4, 3, 2))
        support = [random_batch(700 + 10 * seed + k, 8, 4, 2) for k in range(n_steps)]
        query = random_batch(900 + seed, 8, 4, 2)

        _, exact = unit_gradient(theta, support, query, cfg, None)

        def meta_objective(vec):
            p = theta.like(vec)
            adapted = inner_adapt(p, support, inner_lr, record=False).adapted
            return weighted_ce(forward(adapted, query.x), query.y, query.w)

        fd = fd_gradient(meta_objective, theta.flat.copy(), h=1e-6)
        assert rel_err(exact.flat, fd) < 1e-4


def test_meta_gradient_modes_coincide_without_inner_steps():
    theta = small_net(seed=8)
    query = random_batch(77, 8, 4, 2)
    loss_first, g_first = unit_gradient(theta, [], query, tiny_config(), None)
    exact_cfg = tiny_config(meta={"grad_mode": EXACT})
    loss_exact, g_exact = unit_gradient(theta, [], query, exact_cfg, None)
    assert loss_first == loss_exact
    assert trees_equal(g_first, g_exact)
    # both are the plain query gradient at theta
    assert trees_equal(g_first, backward(theta, query)[1])


def test_trace_unroll_requires_recording():
    theta = small_net(seed=0)
    grads = theta.like(np.zeros_like(theta.flat))
    trace = AdaptationTrace(adapted=theta, steps=None)
    with pytest.raises(UsageError):
        backprop_through_trace(grads, trace)


def test_trace_unroll_quadratic_closed_form(monkeypatch):
    # For L(t) = t^2 the Hessian is the constant 2, so each inner step at
    # lr=0.1 multiplies the meta-gradient by (1 - 0.1*2) = 0.8. Starting
    # from dL/dt = 1.6 at the adapted point: one step gives 1.28, two give
    # 1.024. Verified against the trace unroll with the Hessian pinned.
    import taskmix.nn as nn_mod

    monkeypatch.setattr(nn_mod, "loss_hvp", lambda p, b, d: d.like(2.0 * d.flat))

    # head-only models: weight [[w]], bias [0]
    theta = ModelParams(np.array([1.0, 0.0]), layout_for((1, 1)))
    grads = ModelParams(np.array([1.6, 0.0]), layout_for((1, 1)))
    one = AdaptationTrace(adapted=theta, steps=[TraceStep(params=theta, batch=None, lr=0.1)])
    out1 = backprop_through_trace(grads, one)
    assert out1.head.weight[0, 0] == pytest.approx(1.28, rel=1e-12)

    two = AdaptationTrace(adapted=theta, steps=[TraceStep(params=theta, batch=None, lr=0.1)] * 2)
    out2 = backprop_through_trace(grads, two)
    assert out2.head.weight[0, 0] == pytest.approx(1.024, rel=1e-12)


def test_init_params_shapes_and_constants():
    params = init_params((5, 4, 3, 2), np.random.default_rng(0))
    assert [l.weight.shape for l in params.layers] == [(4, 5), (3, 4)]
    assert params.head.weight.shape == (2, 3)
    for layer in params.layers:
        assert np.all(layer.bias == 0.0)
        assert np.all(layer.slope == PRELU_INIT_SLOPE)
    assert np.all(params.head.bias == 0.0)
    limit = np.sqrt(6.0 / (5 + 4))
    assert np.abs(params.layers[0].weight).max() <= limit


def test_init_params_deterministic_per_seed():
    dims = (4, 3, 2)
    a = init_params(dims, np.random.default_rng(42))
    b = init_params(dims, np.random.default_rng(42))
    assert trees_equal(a, b)
    c = init_params(dims, np.random.default_rng(43))
    assert not trees_equal(a, c)


def test_tree_vector_roundtrip():
    params = small_net(seed=6, dims=(3, 5, 4))
    vec = params.flat.copy()
    back = params.like(vec)
    assert trees_equal(params, back)
    with pytest.raises(ShapeError):
        params.like(vec[:-1])


def test_views_share_the_flat_vector():
    params = small_net(seed=1, dims=(4, 3, 5, 2))
    doubled = params.like(2.0 * params.flat)
    assert isinstance(doubled, ModelParams)
    assert np.array_equal(doubled.head.weight, 2.0 * params.head.weight)
    # every named array is a view into the one vector, in layout order
    views = [a for l in params.layers for a in (l.weight, l.bias, l.slope)]
    views += [params.head.weight, params.head.bias]
    assert all(np.shares_memory(v, params.flat) for v in views)
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), params.flat)
    assert params.layout.size == params.flat.size == sum(v.size for v in views)
    params.flat[-1] = 7.0
    assert params.head.bias[-1] == 7.0
    # the layout is computed once per geometry and shared
    assert small_net(seed=2, dims=(4, 3, 5, 2)).layout is params.layout
    with pytest.raises(ShapeError):
        ModelParams(params.flat[:-1], params.layout)


def test_all_finite_flag():
    params = small_net(seed=5)
    assert params.all_finite()
    params.head.bias[0] = np.inf
    assert not params.all_finite()
