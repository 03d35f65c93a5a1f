"""Update-rule hand cases and schedule/early-stopping behavior.

Early stopping is the training loop's (`training._fit`): its tests drive the
loop with a scripted evaluation.
"""

import operator

import numpy as np
import pytest

from taskmix import optim
from taskmix.config import FinetuneConfig, RunConfig, Schedule
from taskmix.errors import ConfigError, TrainingDivergedError
from taskmix.optim import adam_step, cosine_lr, sgd_step
from taskmix.training import _fit

from util import small_net


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


def test_sgd_applies_to_model_vectors():
    params = small_net(seed=0)
    moved = sgd_step(params.flat, params.flat, 1.0)  # p - p = 0
    assert all(np.all(leaf == 0.0) for leaf in _leaves(params.layout, moved))


def test_adam_first_step_size_is_lr():
    # with bias correction, |update| = lr * |g|/(|g| + eps') ~ lr for any g
    rng = np.random.default_rng(1)
    p = rng.standard_normal(6)
    g = rng.uniform(0.5, 4.0, 6) * np.sign(rng.standard_normal(6))
    out = adam_step(np.zeros(6), np.zeros(6), 1, p, g, lr=0.01)
    delta = np.abs(out - p)
    assert np.allclose(delta, 0.01, rtol=1e-6)


def test_adam_constant_gradient_steps_are_lr_sized():
    p = np.array([0.0, 0.0])
    g = np.array([3.0, -0.5])
    m, v = np.zeros(2), np.zeros(2)
    cur = p
    for t in (1, 2, 3):
        cur = adam_step(m, v, t, cur, g, lr=0.1)
    # three steps of lr-sized movement against the gradient sign
    assert np.allclose(cur, [-0.3, 0.3], rtol=1e-5)


def test_adam_zero_gradient_is_noop():
    p = np.array([1.5, -2.0])
    out = adam_step(np.zeros(2), np.zeros(2), 1, p, np.zeros(2), lr=0.3)
    assert np.array_equal(out, p)


def test_adam_large_eps_behaves_like_scaled_sgd(monkeypatch):
    # eps = 1e6 swamps sqrt(v-hat), so the update collapses to lr/eps * g
    monkeypatch.setattr(optim, "ADAM_EPS", 1e6)
    rng = np.random.default_rng(7)
    p = rng.standard_normal(5)
    g = rng.standard_normal(5)
    adam_out = adam_step(np.zeros(5), np.zeros(5), 1, p, g, lr=0.5)
    sgd_out = sgd_step(p, g, 0.5 * 1e-6)
    assert np.allclose(adam_out, sgd_out, rtol=0, atol=1e-6)


def test_adam_state_vectors_match_params():
    params = small_net(seed=2)
    m, v = np.zeros_like(params.flat), np.zeros_like(params.flat)
    out = adam_step(m, v, 1, params.flat, params.flat, lr=0.01)
    # moments and the result share the parameter vector's layout and dtype
    for arr in (m, v, out):
        assert arr.shape == params.flat.shape and arr.dtype == params.flat.dtype


def test_adam_writes_the_callers_moments_in_place():
    rng = np.random.default_rng(5)
    p, g = rng.standard_normal(4), rng.standard_normal(4)
    m, v = np.zeros(4), np.zeros(4)
    out = adam_step(m, v, 1, p, g, lr=0.01)
    # the caller's arrays now hold step 1's moments; the parameters are new
    assert np.array_equal(m, (1.0 - 0.9) * g)
    assert np.array_equal(v, (1.0 - 0.999) * g * g)
    assert not np.shares_memory(out, p)
    assert not np.shares_memory(out, m) and not np.shares_memory(out, v)


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


def _leaves(layout, flat):
    # every named array of a vector in layout order: (weight, bias, slope)
    # per neck layer, then the head's (weight, bias)
    layers, head = layout.views(flat)
    return [a for layer in layers for a in layer] + head


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_optimizers_match_per_array_reference(dtype):
    params = small_net(seed=4, dims=(4, 3, 5, 2), dtype=dtype)
    rng = np.random.default_rng(11)
    layout = params.layout
    grads = [rng.standard_normal(params.flat.size).astype(dtype) for _ in range(5)]

    # SGD
    cur, ref = params.flat, [a.copy() for a in _leaves(layout, params.flat)]
    for g in grads:
        cur = sgd_step(cur, g, 0.05)
        ref = _reference_sgd(ref, _leaves(layout, g), 0.05)
        assert cur.dtype == dtype
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(layout, cur), ref))

    # Adam
    m_flat, v_flat = np.zeros_like(params.flat), np.zeros_like(params.flat)
    cur = params.flat
    m = [np.zeros_like(a) for a in _leaves(layout, params.flat)]
    v = [np.zeros_like(a) for a in _leaves(layout, params.flat)]
    t, ref = 0, [a.copy() for a in _leaves(layout, params.flat)]
    for g in grads:
        cur = adam_step(m_flat, v_flat, t + 1, cur, g, 0.01)
        m, v, t, ref = _reference_adam(m, v, t, ref, _leaves(layout, g), 0.01)
        assert cur.dtype == m_flat.dtype == v_flat.dtype == dtype
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(layout, cur), ref))
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(layout, m_flat), m))
        assert all(np.array_equal(a, b) for a, b in zip(_leaves(layout, v_flat), v))


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
        RunConfig(schedule=Schedule(lr_max=0.1, lr_min=0.2)).validate()
    with pytest.raises(ConfigError):
        RunConfig(schedule=Schedule(lr_max=0.1, lr_min=-0.1)).validate()
    with pytest.raises(ConfigError):
        RunConfig(schedule=Schedule(lr_max=0.1, max_step=0)).validate()


def scripted_fit(values, improves=operator.lt, patience=2, baseline=None, start=None,
                 write=None):
    """_fit with evaluation i scripted to return values[i], one evaluation
    per step and a step per value. Every step moves the vector (a unit
    gradient at learning rate 1), and write(flat), if given, then writes into
    the vector the step was handed. Returns the model and the vectors each
    evaluation saw, copied."""
    seen = []

    def gradient(flat):
        if write is not None:
            write(flat)
        return {"loss": 0.0}, np.ones_like(flat)

    def evaluate(flat):
        seen.append(flat.copy())
        return "score", values[len(seen) - 1]

    start = np.zeros(3) if start is None else start
    budget = FinetuneConfig(max_steps=len(values), eval_every=1, patience=patience)
    return _fit(start, gradient, lambda _: 1.0, evaluate, improves, budget, baseline), seen


def test_early_stopper_patience_trace():
    # minimize, patience 2: 1.0 best, then 1.1 and 1.2 exhaust patience
    # before 0.5 is ever evaluated
    model, seen = scripted_fit([1.0, 1.1, 1.2, 0.5])
    assert model.stopped_at == len(seen) == 3
    assert [r["score"] for r in model.history] == [1.0, 1.1, 1.2]
    assert model.best_value == 1.0
    assert model.best_step == 0
    assert np.array_equal(model.params, seen[0])


def test_early_stopper_snapshot_is_a_copy():
    # every later step writes into the vector it is handed, the baseline's
    # start vector first
    def scribble(flat):
        flat[0] = -100.0

    model, seen = scripted_fit([1.0, 2.0, 3.0], patience=5, write=scribble)
    assert model.best_step == 0
    assert np.array_equal(model.params, seen[0])
    start = np.full(3, 5.0)
    model, _ = scripted_fit([1.0, 2.0], operator.gt, baseline=4.0, start=start, write=scribble)
    assert model.best_step == -1
    assert start[0] == -100.0 and np.array_equal(model.params, np.full(3, 5.0))


def test_early_stopper_snapshot_owns_its_views():
    # writing into the live vector, or through its views, after the
    # evaluation leaves the snapshot alone; the snapshot's views read its
    # own vector
    net = small_net(seed=3, dims=(4, 3, 2))
    layout, handed = net.layout, []

    def scribble(flat):
        handed.append(flat)
        flat[:] = -1.0
        layout.views(flat)[1][0][...] = 9.0

    model, seen = scripted_fit([1.0, 2.0, 3.0], patience=5, start=net.flat, write=scribble)
    best = model.params
    assert model.best_step == 0 and np.array_equal(best, seen[0])
    assert not any(np.shares_memory(best, live) for live in handed)
    leaves = _leaves(layout, best)
    assert all(np.shares_memory(a, best) for a in leaves)
    assert np.array_equal(np.concatenate([a.ravel() for a in leaves]), seen[0])


def test_early_stopper_maximize():
    # 0.4 uses one unit of patience; the improvement to 0.7 resets it, so
    # the run ends only at the second 0.6 after it
    model, seen = scripted_fit([0.5, 0.4, 0.7, 0.6, 0.6, 0.9], operator.gt)
    assert model.stopped_at == 5
    assert model.best_value == 0.7
    assert model.best_step == 2
    assert np.array_equal(model.params, seen[2])


def test_early_stopper_best_never_worse_than_any_seen():
    rng = np.random.default_rng(13)
    for improves, pick in ((operator.lt, min), (operator.gt, max)):
        values = [float(v) for v in rng.standard_normal(40)]
        model, seen = scripted_fit(values, improves, patience=1000)
        assert model.stopped_at == 40
        assert model.best_value == pick(values)
        assert np.array_equal(model.params, seen[values.index(pick(values))])


def test_early_stopper_keeps_the_baseline_when_nothing_beats_it():
    start = np.arange(3.0)
    model, seen = scripted_fit([0.5, 0.6, 0.9], operator.gt, baseline=0.6, start=start)
    assert model.stopped_at == len(seen) == 2
    assert (model.best_step, model.best_value) == (-1, 0.6)
    assert np.array_equal(model.params, start) and not np.shares_memory(model.params, start)


def test_early_stopper_nan_evaluation_diverges():
    # a NaN never reaches the comparison: it ends the run at its step, with
    # the history before it
    with pytest.raises(TrainingDivergedError) as err:
        scripted_fit([1.0, float("nan"), 0.5], patience=5)
    assert err.value.step == 1
    assert "non-finite score at step 1" in str(err.value)
    assert [r["step"] for r in err.value.history] == [0]
    assert err.value.history[0]["score"] == 1.0
