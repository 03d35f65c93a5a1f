"""Update-rule hand cases and schedule/early-stopping behavior."""

import math

import numpy as np
import pytest

from taskmix import optim
from taskmix.errors import ConfigError
from taskmix.optim import (
    MAXIMIZE,
    MINIMIZE,
    AdamState,
    EarlyStopper,
    Schedule,
    adam_step,
    cosine_lr,
    sgd_step,
)

from util import small_net

PARAMS = np.zeros(3)  # stand-in parameters where only the scores matter


def test_sgd_hand_case():
    out = sgd_step(np.array([1.0]), np.array([2.0]), 0.1)
    assert out[0] == pytest.approx(0.8, rel=1e-15)


def test_sgd_linear_in_gradients():
    rng = np.random.default_rng(3)
    p = rng.standard_normal(10)
    g1 = rng.standard_normal(10)
    g2 = rng.standard_normal(10)
    combined = sgd_step(p, g1 + g2, 0.05)
    chained = sgd_step(sgd_step(p, g1, 0.05), g2, 0.05)
    assert np.allclose(combined, chained, rtol=1e-12, atol=1e-15)


def test_sgd_applies_to_model_trees():
    params = small_net(seed=0)
    moved = params.like(sgd_step(params.flat, params.flat, 1.0))  # p - p = 0
    assert all(np.all(leaf == 0.0) for leaf in
               [moved.head.weight, moved.head.bias] +
               [a for l in moved.layers for a in (l.weight, l.bias, l.slope)])


def test_adam_first_step_size_is_lr():
    # with bias correction, |update| = lr * |g|/(|g| + eps') ~ lr for any g
    rng = np.random.default_rng(1)
    p = rng.standard_normal(6)
    g = rng.uniform(0.5, 4.0, 6) * np.sign(rng.standard_normal(6))
    state = AdamState.init(p)
    state, out = adam_step(state, p, g, lr=0.01)
    assert state.t == 1
    delta = np.abs(out - p)
    assert np.allclose(delta, 0.01, rtol=1e-6)


def test_adam_constant_gradient_steps_are_lr_sized():
    p = np.array([0.0, 0.0])
    g = np.array([3.0, -0.5])
    state = AdamState.init(p)
    cur = p
    for t in (1, 2, 3):
        state, cur = adam_step(state, cur, g, lr=0.1)
        assert state.t == t
    # three steps of lr-sized movement against the gradient sign
    assert np.allclose(cur, [-0.3, 0.3], rtol=1e-5)


def test_adam_zero_gradient_is_noop():
    p = np.array([1.5, -2.0])
    state = AdamState.init(p)
    state, out = adam_step(state, p, np.zeros(2), lr=0.3)
    assert np.array_equal(out, p)


def test_adam_large_eps_behaves_like_scaled_sgd(monkeypatch):
    # eps = 1e6 swamps sqrt(v-hat), so the update collapses to lr/eps * g
    monkeypatch.setattr(optim, "ADAM_EPS", 1e6)
    rng = np.random.default_rng(7)
    p = rng.standard_normal(5)
    g = rng.standard_normal(5)
    state = AdamState.init(p)
    _, adam_out = adam_step(state, p, g, lr=0.5)
    sgd_out = sgd_step(p, g, 0.5 * 1e-6)
    assert np.allclose(adam_out, sgd_out, rtol=0, atol=1e-6)


def test_adam_state_trees_match_params():
    params = small_net(seed=2)
    state = AdamState.init(params.flat)
    new_state, out = adam_step(state, params.flat, params.flat, lr=0.01)
    # moments and the result share the parameter vector's layout and dtype
    for arr in (state.m, state.v, new_state.m, new_state.v, out):
        assert arr.shape == params.flat.shape and arr.dtype == params.flat.dtype


def _reference_sgd(leaves, grads, lr):
    return [p - lr * g for p, g in zip(leaves, grads)]


def _reference_adam(m, v, t, leaves, grads, lr, b1=0.9, b2=0.999, eps=1e-8):
    # one array at a time, the update rule written out
    t += 1
    m = [b1 * m_ + (1.0 - b1) * g for m_, g in zip(m, grads)]
    v = [b2 * v_ + (1.0 - b2) * g * g for v_, g in zip(v, grads)]
    mc, vc = 1.0 - b1**t, 1.0 - b2**t
    new = [p - lr * (m_ / mc) / (np.sqrt(v_ / vc) + eps) for p, m_, v_ in zip(leaves, m, v)]
    return m, v, t, new


def _leaves(params):
    return [a for l in params.layers for a in (l.weight, l.bias, l.slope)] + [
        params.head.weight, params.head.bias
    ]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_optimizers_match_per_array_reference(dtype):
    params = small_net(seed=4, dims=(4, 3, 5, 2), dtype=dtype)
    rng = np.random.default_rng(11)
    grads = [params.like(rng.standard_normal(params.flat.size).astype(dtype))
             for _ in range(5)]

    # SGD
    cur, ref = params.flat, [a.copy() for a in _leaves(params)]
    for g in grads:
        cur = sgd_step(cur, g.flat, 0.05)
        ref = _reference_sgd(ref, _leaves(g), 0.05)
        assert cur.dtype == dtype
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(params.like(cur)), ref))

    # Adam
    state, cur = AdamState.init(params.flat), params.flat
    m = [np.zeros_like(a) for a in _leaves(params)]
    v = [np.zeros_like(a) for a in _leaves(params)]
    t, ref = 0, [a.copy() for a in _leaves(params)]
    for g in grads:
        state, cur = adam_step(state, cur, g.flat, 0.01)
        m, v, t, ref = _reference_adam(m, v, t, ref, _leaves(g), 0.01)
        assert cur.dtype == state.m.dtype == state.v.dtype == dtype
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(params.like(cur)), ref))
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(params.like(state.m)), m))
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(params.like(state.v)), v))
    assert state.t == t == 5


def test_cosine_endpoints_and_midpoint():
    sched = Schedule(lr_max=0.2, lr_min=0.02, max_step=100)
    assert cosine_lr(0, sched) == pytest.approx(0.2, rel=1e-12)
    assert cosine_lr(100, sched) == pytest.approx(0.02, rel=1e-12)
    assert cosine_lr(50, sched) == pytest.approx(0.11, rel=1e-12)


def test_cosine_monotone_and_clamped():
    sched = Schedule(lr_max=1.0, lr_min=0.0, max_step=37)
    values = [cosine_lr(s, sched) for s in range(40)]
    for a, b in zip(values, values[1:38]):
        assert b <= a + 1e-15
    assert cosine_lr(37, sched) == cosine_lr(200, sched) == pytest.approx(0.0, abs=1e-15)


def test_schedule_validation():
    with pytest.raises(ConfigError):
        Schedule(lr_max=0.1, lr_min=0.2)
    with pytest.raises(ConfigError):
        Schedule(lr_max=0.1, lr_min=-0.1)
    with pytest.raises(ConfigError):
        Schedule(lr_max=0.1, max_step=0)


def test_early_stopper_patience_trace():
    # minimize, patience 2: 1.0 best, then 1.1 and 1.2 exhaust patience
    stopper = EarlyStopper(patience=2, direction=MINIMIZE)
    p0, p1, p2 = (np.array([v]) for v in (0.0, 1.0, 2.0))
    assert stopper.update(1.0, 0, p0) is False
    assert stopper.update(1.1, 1, p1) is False
    assert stopper.update(1.2, 2, p2) is True
    assert stopper.best_value == 1.0
    assert stopper.best_step == 0
    assert stopper.best_params[0] == 0.0


def test_early_stopper_snapshot_is_a_copy():
    stopper = EarlyStopper(patience=3, direction=MINIMIZE)
    live = np.array([5.0])
    stopper.update(1.0, 0, live)
    live[0] = -100.0
    assert stopper.best_params[0] == 5.0


def test_early_stopper_snapshot_owns_its_views():
    # writing into the live vector, or through its views, after the update
    # leaves the snapshot alone; the snapshot's views read its own vector
    stopper = EarlyStopper(patience=3, direction=MINIMIZE)
    live = small_net(seed=3, dims=(4, 3, 2))
    before = live.flat.copy()
    stopper.update(1.0, 0, live)
    live.flat[:] = -1.0
    live.head.weight[...] = 9.0
    best = stopper.best_params
    assert np.array_equal(best.flat, before)
    assert not np.shares_memory(best.flat, live.flat)
    assert all(np.shares_memory(a, best.flat) for a in _leaves(best))
    assert np.array_equal(np.concatenate([a.ravel() for a in _leaves(best)]), before)


def test_early_stopper_maximize():
    stopper = EarlyStopper(patience=2, direction=MAXIMIZE)
    assert stopper.update(0.5, 0, PARAMS) is False
    assert stopper.update(0.7, 1, PARAMS) is False  # improvement resets patience
    assert stopper.update(0.6, 2, PARAMS) is False
    assert stopper.update(0.6, 3, PARAMS) is True
    assert stopper.best_value == 0.7
    assert stopper.best_step == 1


def test_early_stopper_best_never_worse_than_any_seen():
    rng = np.random.default_rng(13)
    for direction in (MINIMIZE, MAXIMIZE):
        stopper = EarlyStopper(patience=1000, direction=direction)
        seen = []
        for step in range(40):
            value = float(rng.standard_normal())
            seen.append(value)
            stopper.update(value, step, PARAMS)
        target = min(seen) if direction == MINIMIZE else max(seen)
        assert stopper.best_value == target


def test_early_stopper_validation():
    with pytest.raises(ConfigError):
        EarlyStopper(patience=0, direction=MINIMIZE)
    with pytest.raises(ConfigError):
        EarlyStopper(patience=2, direction="sideways")


def test_early_stopper_nan_never_improves():
    stopper = EarlyStopper(patience=2, direction=MINIMIZE)
    stopper.update(1.0, 0, PARAMS)
    assert stopper.update(math.nan, 1, PARAMS) is False
    assert stopper.update(math.nan, 2, PARAMS) is True
    assert stopper.best_value == 1.0
