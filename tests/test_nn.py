"""Gradient and forward-pass oracles.

The backward pass, Hessian-vector products, and unrolled meta-gradients are
all checked against central finite differences in 64-bit, which is an
implementation-independent oracle.
"""

import tracemalloc

import numpy as np
import pytest

from taskmix.data import Batch, one_hot
from taskmix.mixing import metamix_augment
from taskmix.nn import (
    EXACT,
    PRELU_INIT_SLOPE,
    ModelParams,
    backprop_through_trace,
    backward,
    forward,
    init_params,
    layout_for,
    loss_hvp,
    weighted_ce,
)
from taskmix.training import group_gradient, inner_adapt

from util import (
    fd_gradient,
    random_batch,
    rel_err,
    same_params,
    small_net,
    stacked,
    tiny_config,
)


# (input, *hidden, classes) of the finite-difference checks: no hidden layer
# up to three, so the reverse pass's recursion across layers is checked too
DEPTHS = [(4, 2), (4, 3, 2), (4, 3, 3, 2), (4, 5, 3, 4, 3)]


def dims_id(dims):
    return "-".join(map(str, dims))


def hand_model(head_w=(2.0,), head_b=(1.0,), bias=0.0):
    # one 1->1 PReLU layer (weight 1, slope 0.25), then a 1->len(head_w) head
    flat = np.array([1.0, bias, 0.25, *head_w, *head_b])
    return ModelParams(flat, layout_for((1, 1, len(head_w))))


def test_forward_hand_case():
    model = hand_model()
    # positive branch: prelu(3) = 3, head 2*3 + 1 = 7
    assert forward(model, np.array([[3.0]]))[0, 0] == pytest.approx(7.0)
    # negative branch: prelu(-3) = -0.75, head 2*(-0.75) + 1 = -0.5
    assert forward(model, np.array([[-3.0]]))[0, 0] == pytest.approx(-0.5)


def test_prelu_slope_applies_at_zero_preactivation():
    # bias = -w*x puts the preactivation at exactly 0. There the PReLU output
    # is 0, its derivative is the slope (as below zero, not 1 as above), and
    # the slope's own gradient, d * min(z, 0), is 0.
    x = 3.0
    model = hand_model(head_w=(2.0, -1.0), head_b=(0.0, 0.0), bias=-x)
    batch = Batch(x=np.array([[x]]), y=np.array([[1.0, 0.0]]), w=np.array([1.0, 1.0]))
    logits = forward(model, batch.x)
    assert np.array_equal(logits, [[0.0, 0.0]])  # head of a zero PReLU output

    _, grads = backward(model, batch)
    dlogits = np.exp(logits[0]) / np.exp(logits[0]).sum() - batch.y[0]  # [-0.5, 0.5]
    head_weight = model.layout.views(model.flat)[1][0]
    d_out = head_weight[:, 0] @ dlogits  # dL/d(PReLU output) = -1.5
    [(weight, bias, slope)], _ = model.layout.views(grads)
    assert bias[0] == pytest.approx(0.25 * d_out, rel=1e-12)
    assert weight[0, 0] == pytest.approx(0.25 * d_out * x, rel=1e-12)
    assert slope[0] == 0.0


def test_forward_permutation_equivariant():
    params = small_net(seed=3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((10, 4))
    perm = rng.permutation(10)
    assert np.array_equal(forward(params, x)[perm], forward(params, x[perm]))


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


@pytest.mark.parametrize("dims", DEPTHS, ids=dims_id)
def test_backward_matches_finite_differences(dims):
    # 64-bit, 10 seeds, rel err < 1e-5
    for seed in range(10):
        params = small_net(seed, dims=dims)
        batch = random_batch(1000 + seed, b=8, d=4, c=dims[-1])
        _, grads = backward(params, batch)

        def loss_at(vec):
            p = params.like(vec)
            return weighted_ce(forward(p, batch.x), batch.y, batch.w)

        fd = fd_gradient(loss_at, params.flat.copy(), h=1e-6)
        assert rel_err(grads, fd) < 1e-5


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
    assert np.allclose(g1, g3, rtol=1e-12, atol=1e-14)


def test_backward_zero_weights_zero_gradients():
    params = small_net(seed=2)
    batch = random_batch(3, b=4, d=4, c=2)
    zeroed = Batch(x=batch.x, y=batch.y, w=np.zeros_like(batch.w))
    loss, grads = backward(params, zeroed)
    assert loss == 0.0
    assert np.all(grads == 0.0)


@pytest.mark.parametrize("dims", DEPTHS, ids=dims_id)
def test_hvp_matches_fd_of_gradients(dims):
    for seed in range(5):
        params = small_net(seed, dims=dims)
        batch = random_batch(400 + seed, b=8, d=4, c=dims[-1])
        rng = np.random.default_rng(seed)
        vec = params.flat.copy()
        direction = rng.standard_normal(vec.size)
        hv = loss_hvp(params, batch, direction)

        h = 1e-6
        up = params.like(vec + h * direction)
        dn = params.like(vec - h * direction)
        _, gu = backward(up, batch)
        _, gd = backward(dn, batch)
        fd = (gu - gd) / (2.0 * h)
        assert rel_err(hv, fd) < 1e-5


def group_of_units(seeds, n_steps, c):
    """(support, query) of one task unit per seed, and the stacked group of them."""
    units = [([random_batch(700 + 10 * seed + k, 8, 4, c) for k in range(n_steps)],
              random_batch(900 + seed, 8, 4, c)) for seed in seeds]
    support = [stacked(*step) for step in zip(*(sup for sup, _ in units))]
    return units, support, stacked(*(query for _, query in units))


@pytest.mark.parametrize("dims", DEPTHS, ids=dims_id)
@pytest.mark.parametrize("n_steps", [1, 2, 3])
def test_meta_gradient_matches_fd_of_meta_objective(n_steps, dims):
    # one group of two units per theta: each row is its own unit's meta-gradient
    inner_lr = 0.05
    cfg = tiny_config(meta={"inner_lr": inner_lr, "grad_mode": EXACT})
    c = dims[-1]
    for seed in (0, 1, 2):
        theta = small_net(seed, dims=dims)
        units, support, query = group_of_units((seed, seed + 3), n_steps, c)
        _, exact = group_gradient(theta, support, query, cfg, None)

        for row, (unit_support, unit_query) in zip(exact, units):
            def meta_objective(vec):
                p = theta.like(vec)
                adapted = inner_adapt(p, unit_support, inner_lr)[-1]
                return weighted_ce(forward(adapted, unit_query.x), unit_query.y, unit_query.w)

            fd = fd_gradient(meta_objective, theta.flat.copy(), h=1e-6)
            assert rel_err(row, fd) < 1e-4


@pytest.mark.parametrize("dims", DEPTHS, ids=dims_id)
@pytest.mark.parametrize("n_steps", [1, 2, 3])
def test_exact_metamix_gradient_matches_fd_of_mean_meta_objective(n_steps, dims):
    inner_lr = 0.05
    cfg = tiny_config(meta={"inner_lr": inner_lr, "grad_mode": EXACT,
                            "augmentation": "metamix"})
    c = dims[-1]
    for seed in (0, 1, 2):
        theta = small_net(seed, dims=dims)
        units, support, query = group_of_units((seed, seed + 3), n_steps, c)
        rngs = [np.random.default_rng(seed), np.random.default_rng(seed + 3)]
        _, exact = group_gradient(theta, support, query, cfg, rngs)
        # the same mixed batches, drawn from twin generators
        twins = [np.random.default_rng(seed), np.random.default_rng(seed + 3)]
        mixed = metamix_augment(query, cfg.mix, twins)

        for g, (row, (unit_support, unit_query)) in enumerate(zip(exact, units)):
            def meta_objective(vec):
                adapted = inner_adapt(theta.like(vec), unit_support, inner_lr)[-1]
                return 0.5 * sum(weighted_ce(forward(adapted, b.x), b.y, b.w)
                                 for b in (unit_query, mixed.units(g)))

            fd = fd_gradient(meta_objective, theta.flat.copy(), h=1e-6)
            assert rel_err(row, fd) < 1e-4


def test_exact_metamix_pulls_back_once(monkeypatch):
    # one pullback of the averaged query gradients: inner_steps HVPs per group
    import taskmix.nn as nn_mod

    calls = []
    real_hvp = nn_mod.loss_hvp

    def counted_hvp(params, batch, direction):
        calls.append(direction)
        return real_hvp(params, batch, direction)

    monkeypatch.setattr(nn_mod, "loss_hvp", counted_hvp)
    cfg = tiny_config(meta={"inner_steps": 3, "grad_mode": EXACT, "augmentation": "metamix"})
    theta = small_net(seed=3)
    _, support, query = group_of_units((0, 1), 3, 2)
    group_gradient(theta, support, query, cfg, [np.random.default_rng(0), np.random.default_rng(1)])
    assert len(calls) == cfg.meta.inner_steps
    assert all(direction.shape == (2, theta.flat.size) for direction in calls)


def test_meta_gradient_modes_coincide_without_inner_steps():
    theta = small_net(seed=8)
    query = random_batch(77, 8, 4, 2)
    loss_first, g_first = group_gradient(theta, [], stacked(query), tiny_config(), None)
    exact_cfg = tiny_config(meta={"grad_mode": EXACT})
    loss_exact, g_exact = group_gradient(theta, [], stacked(query), exact_cfg, None)
    assert np.array_equal(loss_first, loss_exact)
    assert np.array_equal(g_first, g_exact)
    # both are the plain query gradient at theta
    assert np.array_equal(g_first[0], backward(theta, query)[1])


@pytest.mark.parametrize("dims", [(6, 3), (6, 8, 3), (6, 8, 5, 4)], ids=dims_id)
def test_stacked_calls_equal_their_slices_bit_for_bit(dims):
    # a stack of G models and batches, or G batches at one broadcast model,
    # gives per slice exactly what the unstacked call gives (float32, as in
    # training)
    rng = np.random.default_rng(0)
    models = [init_params(dims, rng) for _ in range(3)]
    batches = [random_batch(30 + g, 16, dims[0], dims[-1], dtype=np.float32) for g in range(3)]
    directions = rng.standard_normal((3, models[0].layout.size)).astype(np.float32)
    group = stacked(*batches)
    layout = models[0].layout
    for flats in (np.stack([m.flat for m in models]), np.broadcast_to(models[0].flat, (3, layout.size))):
        params = ModelParams(flats, layout)
        losses, grads = backward(params, group)
        hvps = loss_hvp(params, group, directions)
        assert losses.dtype == np.float64 and grads.shape == hvps.shape == (3, layout.size)
        for g, batch in enumerate(batches):
            one = ModelParams(flats[g].copy(), layout)
            loss, grad = backward(one, batch)
            assert losses[g] == loss
            assert np.array_equal(grads[g], grad)
            assert np.array_equal(hvps[g], loss_hvp(one, batch, directions[g]))
        # views of a stack name the same slices, unit by unit
        stack_layers, stack_head = layout.views(grads)
        for g in range(3):
            layers, head = layout.views(grads[g])
            assert all(np.array_equal(a[g], b) for a, b in zip(stack_head, head))
            assert all(np.array_equal(a[g], b)
                       for stack_layer, layer in zip(stack_layers, layers)
                       for a, b in zip(stack_layer, layer))


def unit_case(units, dims=(32, 128, 128, 5), b=256):
    """(params, batch, direction, bytes of one [G, B, dims[1]] activation), all
    float32: one unit unstacked, or a stack of units at one broadcast model."""
    rng = np.random.default_rng(3)
    params = init_params(dims, rng)
    batches = [random_batch(60 + g, b, dims[0], dims[-1], dtype=np.float32)
               for g in range(units)]
    direction = rng.standard_normal((units, params.layout.size)).astype(np.float32)
    if units == 1:
        batch, direction = batches[0], direction[0]
    else:
        batch = stacked(*batches)
        params = params.like(np.broadcast_to(params.flat, (units, params.layout.size)))
    return params, batch, direction, units * b * dims[1] * 4


def traced_peak(call) -> int:
    """Peak bytes allocated while call() runs."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("units", [1, 2])
def test_hvp_working_set_stays_near_ten_activations(units):
    # per layer the HVP keeps only what its reverse step reads (input, mask,
    # min(z, 0), output tangent, masked tangent preactivation) and builds its
    # terms in spent buffers: about 10 arrays of [G, B, 128] float32 above
    # its inputs at this shape, against about 16 with whole tangent lists
    params, batch, direction, activation_bytes = unit_case(units)
    assert traced_peak(lambda: loss_hvp(params, batch, direction)) < 13 * activation_bytes


@pytest.mark.parametrize("units", [1, 2])
def test_backward_working_set_stays_below_six_and_a_half_activations(units):
    # the reverse pass allocates nothing activation-sized: each adjoint goes
    # into the activation it has spent, and dz into the spent min(z, 0). The
    # peak is the forward cache (4.5 arrays of [G, B, 128] float32 here) and
    # the temporaries of its last layer, against about 7.3 arrays when the
    # reverse pass allocated dz and d fresh.
    params, batch, _, activation_bytes = unit_case(units)
    assert traced_peak(lambda: backward(params, batch)) < 6.5 * activation_bytes


@pytest.mark.parametrize("units", [1, 3], ids=["unstacked", "broadcast"])
@pytest.mark.parametrize("dims", [(6, 3), (6, 8, 3), (6, 8, 5, 4)], ids=dims_id)
def test_passes_never_write_the_callers_arrays(dims, units):
    # the reverse pass writes into spent buffers; the caller's are never among
    # them, not even the features, which a head-only model reads as its top
    # activation
    params, batch, direction, _ = unit_case(units, dims, b=16)
    inputs = (params.flat, batch.x, batch.y, batch.w, direction)
    before = [a.tobytes() for a in inputs]
    for call in (lambda: backward(params, batch), lambda: loss_hvp(params, batch, direction)):
        call()
        assert [a.tobytes() for a in inputs] == before


def test_trace_unroll_quadratic_closed_form(monkeypatch):
    # For L(t) = t^2 the Hessian is the constant 2, so each inner step at
    # lr=0.1 multiplies the meta-gradient by (1 - 0.1*2) = 0.8. Starting
    # from dL/dt = 1.6 at the adapted point: one step gives 1.28, two give
    # 1.024. Verified against the trace unroll with the Hessian pinned.
    import taskmix.nn as nn_mod

    monkeypatch.setattr(nn_mod, "loss_hvp", lambda p, b, d: 2.0 * d)

    # head-only models: weight [[w]], bias [0]
    layout = layout_for((1, 1))
    theta = ModelParams(np.array([1.0, 0.0]), layout)
    grads = np.array([1.6, 0.0])
    # the pullback accumulates into the gradient it is handed: keep grads for
    # the second call
    out1 = backprop_through_trace(grads.copy(), [theta], [None], 0.1)
    assert layout.views(out1)[1][0][0, 0] == pytest.approx(1.28, rel=1e-12)

    out2 = backprop_through_trace(grads, [theta] * 2, [None] * 2, 0.1)
    assert layout.views(out2)[1][0][0, 0] == pytest.approx(1.024, rel=1e-12)


def test_init_params_shapes_and_constants():
    params = init_params((5, 4, 3, 2), np.random.default_rng(0))
    layers, (head_weight, head_bias) = params.layout.views(params.flat)
    assert [weight.shape for weight, _, _ in layers] == [(4, 5), (3, 4)]
    assert head_weight.shape == (2, 3)
    for _, bias, slope in layers:
        assert np.all(bias == 0.0)
        assert np.all(slope == PRELU_INIT_SLOPE)
    assert np.all(head_bias == 0.0)
    limit = np.sqrt(6.0 / (5 + 4))
    assert np.abs(layers[0][0]).max() <= limit


def test_init_params_deterministic_per_seed():
    dims = (4, 3, 2)
    a = init_params(dims, np.random.default_rng(42))
    b = init_params(dims, np.random.default_rng(42))
    assert same_params(a, b)
    c = init_params(dims, np.random.default_rng(43))
    assert not same_params(a, c)


def test_params_vector_roundtrip():
    params = small_net(seed=6, dims=(3, 5, 4))
    vec = params.flat.copy()
    back = params.like(vec)
    assert same_params(params, back)


def test_views_share_the_flat_vector():
    params = small_net(seed=1, dims=(4, 3, 5, 2))
    doubled = params.like(2.0 * params.flat)
    assert isinstance(doubled, ModelParams)
    layers, head = params.layout.views(params.flat)
    assert np.array_equal(params.layout.views(doubled.flat)[1][0], 2.0 * head[0])
    # every named array is a view into the one vector, in layout order
    views = [a for layer in layers for a in layer] + head
    assert all(np.shares_memory(v, params.flat) for v in views)
    assert np.array_equal(np.concatenate([v.ravel() for v in views]), params.flat)
    assert params.layout.size == params.flat.size == sum(v.size for v in views)
    params.flat[-1] = 7.0
    assert head[1][-1] == 7.0
    # the layout is computed once per geometry and shared
    assert small_net(seed=2, dims=(4, 3, 5, 2)).layout is params.layout
