"""Training loops: inner adaptation, outer steps, fine-tuning, MTL baseline."""

import json
import math

import numpy as np
import pytest

from taskmix.data import ROLE_META_TEST, ROLE_META_TRAIN, sample_batch
from taskmix.errors import DataError, TrainingDivergedError, UsageError
from taskmix.nn import backward
from taskmix.optim import AdamState, adam_step, cosine_lr, sgd_step
from taskmix.rng import StreamBundle
from taskmix.training import (
    initial_params,
    inner_adapt,
    meta_step,
    meta_train,
    mtl_train,
    finetune,
)

from util import random_batch, small_net, tiny_config, tiny_dataset, trees_equal


def test_inner_adapt_zero_steps_is_identity():
    params = small_net(seed=0)
    trace = inner_adapt(params, [], 0.1, record=True)
    assert trace.adapted is params
    assert trace.steps == []


def test_inner_adapt_matches_manual_sgd():
    params = small_net(seed=1)
    batches = [random_batch(50 + k, b=6, d=4, c=2) for k in range(3)]
    trace = inner_adapt(params, batches, 0.05, record=False)

    cur = params
    for batch in batches:
        _, grads = backward(cur, batch)
        cur = cur.like(sgd_step(cur.flat, grads.flat, 0.05))
    assert trees_equal(trace.adapted, cur)
    assert trace.steps is None


def test_inner_adapt_records_visited_parameters():
    params = small_net(seed=2)
    batches = [random_batch(70 + k, b=6, d=4, c=2) for k in range(2)]
    trace = inner_adapt(params, batches, 0.05, record=True)
    assert len(trace.steps) == 2
    assert trace.steps[0].params is params
    _, g0 = backward(params, batches[0])
    assert trees_equal(trace.steps[1].params, params.like(sgd_step(params.flat, g0.flat, 0.05)))
    assert trace.steps[0].lr == 0.05


def test_inner_adapt_trace_survives_writes_into_the_live_vector():
    # each recorded step keeps the parameters its gradient was taken at,
    # even when the adapted (live) vector is later written in place
    params = small_net(seed=3)
    batches = [random_batch(90 + k, b=6, d=4, c=2) for k in range(3)]
    trace = inner_adapt(params, batches, 0.05, record=True)
    recorded = [s.params.flat.copy() for s in trace.steps]
    trace.adapted.flat[:] = np.nan
    trace.adapted.layers[0].weight[...] = 5.0
    assert all(np.array_equal(s.params.flat, r) for s, r in zip(trace.steps, recorded))
    assert not any(np.shares_memory(s.params.flat, trace.adapted.flat) for s in trace.steps)
    # the steps' vectors are distinct from one another too
    flats = [s.params.flat for s in trace.steps]
    assert not any(np.shares_memory(x, y) for i, x in enumerate(flats) for y in flats[i + 1:])


def one_task_dataset(seed=21):
    return tiny_dataset(seed=seed, n_train_tasks=1, n_test_tasks=1)


def test_meta_step_degenerates_to_supervised_adam():
    # one task, zero inner steps, no augmentation: the outer loop must equal
    # plain Adam on that task's query batches, bit for bit
    ds = one_task_dataset()
    cfg = tiny_config(meta={"inner_steps": 0, "max_steps": 5, "eval_every": 100})
    trained = meta_train(ds, cfg, seed=4)

    task = ds.meta_train_tasks[0]
    bundle = StreamBundle(4)
    theta = initial_params(ds, cfg, 4)
    rng = bundle.batch(task.id)
    adam = AdamState.init(theta.flat)
    for _ in range(5):
        batch = sample_batch(task, "train", cfg.meta.batch_size, rng)
        _, grads = backward(theta, batch)
        lr = cosine_lr(adam.t, cfg.schedule)
        adam, flat = adam_step(adam, theta.flat, grads.flat, lr)
        theta = theta.like(flat)
    assert trees_equal(trained.params, theta)


def test_meta_step_counts_and_stats():
    ds = tiny_dataset(seed=5)
    cfg = tiny_config()
    theta = initial_params(ds, cfg, 0)
    adam = AdamState.init(theta.flat)
    bundle = StreamBundle(0)
    theta2, adam2, stats = meta_step(theta, adam, ds.meta_train_tasks, cfg, bundle)
    assert stats["step"] == 0
    assert adam2.t == 1
    assert stats["lr"] == cosine_lr(0, cfg.schedule)
    assert np.isfinite(stats["mean_task_loss"])
    assert not trees_equal(theta, theta2)


def test_taskmix_changes_units_not_outer_steps():
    ds = tiny_dataset(seed=6)
    plain_cfg = tiny_config()
    mix_cfg = tiny_config(meta={"augmentation": "taskmix"}, mix={"n_synthetic": 2})
    theta = initial_params(ds, plain_cfg, 1)

    _, adam_a, stats_a = meta_step(
        theta, AdamState.init(theta.flat), ds.meta_train_tasks, plain_cfg, StreamBundle(1)
    )
    _, adam_b, stats_b = meta_step(
        theta, AdamState.init(theta.flat), ds.meta_train_tasks, mix_cfg, StreamBundle(1)
    )
    # same number of outer updates either way
    assert adam_a.t == adam_b.t == 1
    assert stats_a["step"] == stats_b["step"] == 0
    # the loss average runs over T + N units under taskmix
    assert stats_a["mean_task_loss"] != stats_b["mean_task_loss"]


def test_meta_step_requires_tasks():
    ds = tiny_dataset(seed=7)
    cfg = tiny_config()
    theta = initial_params(ds, cfg, 0)
    with pytest.raises(DataError):
        meta_step(theta, AdamState.init(theta.flat), [], cfg, StreamBundle(0))


def test_meta_train_zero_steps_returns_init():
    ds = tiny_dataset(seed=8)
    cfg = tiny_config(meta={"max_steps": 0})
    trained = meta_train(ds, cfg, seed=3)
    assert trained.stopped_at == 0
    assert trained.best_step == -1
    assert trees_equal(trained.params, initial_params(ds, cfg, 3))


def test_meta_train_deterministic():
    ds = tiny_dataset(seed=9)
    cfg = tiny_config()
    a = meta_train(ds, cfg, seed=5)
    b = meta_train(ds, cfg, seed=5)
    assert trees_equal(a.params, b.params)
    assert a.stopped_at == b.stopped_at
    assert [h.get("validation_loss") for h in a.history] == [
        h.get("validation_loss") for h in b.history
    ]
    c = meta_train(ds, cfg, seed=6)
    assert not trees_equal(a.params, c.params)


def test_meta_train_best_snapshot_tracks_minimum():
    ds = tiny_dataset(seed=10)
    cfg = tiny_config(meta={"max_steps": 24, "eval_every": 4, "patience": 2})
    trained = meta_train(ds, cfg, seed=1)
    evals = [h["validation_loss"] for h in trained.history if "validation_loss" in h]
    assert evals
    assert trained.best_value == min(evals)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_meta_train_divergence_reports_step():
    ds = tiny_dataset(seed=11)
    cfg = tiny_config(meta={"inner_lr": 1e30, "inner_steps": 3})
    with pytest.raises(TrainingDivergedError) as err:
        meta_train(ds, cfg, seed=0)
    assert err.value.step == 0


def test_finetune_role_guard():
    ds = tiny_dataset(seed=13)
    cfg = tiny_config()
    theta = initial_params(ds, cfg, 0)
    with pytest.raises(UsageError):
        finetune(theta, ds.meta_train_tasks[0], cfg)


def test_finetune_zero_steps_returns_start():
    ds = tiny_dataset(seed=14)
    cfg = tiny_config(finetune={"max_steps": 0})
    theta = initial_params(ds, cfg, 2)
    tuned = finetune(theta, ds.meta_test_tasks[0], cfg)
    assert trees_equal(tuned.params, theta)
    assert tuned.best_step == -1


def test_finetune_never_worse_than_baseline():
    from taskmix.metrics import split_macro_f1

    ds = tiny_dataset(seed=15)
    cfg = tiny_config()
    for seed in range(3):
        theta = initial_params(ds, cfg, seed)
        task = ds.meta_test_tasks[0]
        baseline = split_macro_f1(theta, task, "validation")
        tuned = finetune(theta, task, cfg)
        assert tuned.best_value >= baseline


def test_finetune_learns_separable_task():
    from taskmix.metrics import split_macro_f1

    ds = tiny_dataset(seed=16, noise_scale=0.1)
    cfg = tiny_config(finetune={"max_steps": 120, "eval_every": 10, "patience": 8})
    theta = initial_params(ds, cfg, 0)
    task = ds.meta_test_tasks[0]
    tuned = finetune(theta, task, cfg)
    assert split_macro_f1(tuned.params, task, "validation") >= 0.9


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finetune_divergence():
    ds = tiny_dataset(seed=17)
    cfg = tiny_config(finetune={"lr": 1e30, "eval_every": 5})
    theta = initial_params(ds, cfg, 0)
    with pytest.raises(TrainingDivergedError):
        finetune(theta, ds.meta_test_tasks[0], cfg)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_finetune_never_keeps_non_finite_parameters():
    # One overflowing update. Argmax of NaN logits is class 0, so the model
    # would still get a finite validation F1 and could become the snapshot.
    ds = tiny_dataset(seed=17)
    cfg = tiny_config(finetune={"lr": 1e200, "max_steps": 1, "eval_every": 1})
    theta = initial_params(ds, cfg, 0)
    for task in ds.meta_test_tasks:
        with pytest.raises(TrainingDivergedError) as err:
            finetune(theta, task, cfg)
        assert err.value.step == 0
        assert "non-finite validation_macro_f1" in str(err.value)


def test_mtl_returns_fresh_never_trained_head():
    ds = tiny_dataset(seed=19)
    cfg = tiny_config()
    model = mtl_train(ds, cfg, seed=7).params
    reference = initial_params(ds, cfg, 7)
    # the returned head is the untouched initialization draw ...
    assert np.array_equal(model.head.weight, reference.head.weight)
    assert np.array_equal(model.head.bias, reference.head.bias)
    # ... while the trunk moved away from it
    neck = reference.layout.neck_size
    assert not np.array_equal(model.flat[:neck], reference.flat[:neck])


def test_mtl_deterministic_and_finite():
    ds = tiny_dataset(seed=20)
    cfg = tiny_config()
    a = mtl_train(ds, cfg, seed=3).params
    b = mtl_train(ds, cfg, seed=3).params
    assert trees_equal(a, b)
    assert np.isfinite(a.flat).all()


# The three stages share one loop; each names its loss and its evaluation.
STAGE_KEYS = {
    "meta_train": ("mean_task_loss", "validation_loss"),
    "mtl_train": ("mean_task_loss", "validation_loss"),
    "finetune": ("train_loss", "validation_macro_f1"),
}


def run_stage(stage, ds, log_path, **loop):
    """Run one stage from the seed-0 initialization with the same step budget,
    cadence and patience in the meta and fine-tune config sections; returns
    (result, start parameters)."""
    cfg = tiny_config(meta=loop, finetune=loop)
    start = initial_params(ds, cfg, 0)
    if stage == "finetune":
        return finetune(start, ds.meta_test_tasks[0], cfg, log_path=log_path), start
    train = {"meta_train": meta_train, "mtl_train": mtl_train}[stage]
    return train(ds, cfg, 0, log_path=log_path), start


@pytest.mark.parametrize("stage", list(STAGE_KEYS))
def test_stage_loop_contract(stage, tmp_path, monkeypatch):
    import taskmix.training as training

    loss_key, eval_key = STAGE_KEYS[stage]
    ds = tiny_dataset(seed=12)
    log = tmp_path / "history.jsonl"
    trained, _ = run_stage(stage, ds, log, max_steps=8, eval_every=3, patience=5)
    lines = [json.loads(l) for l in log.read_text().splitlines()]
    assert trained.stopped_at == len(trained.history) == len(lines) == 8
    assert lines == trained.history
    for k, record in enumerate(trained.history):
        assert record["step"] == k
        assert {"step", "lr", loss_key} <= set(record)
        assert (eval_key in record) == ((k + 1) % 3 == 0)

    # no steps: the start parameters, no best step, an empty log
    trained, start = run_stage(stage, ds, log, max_steps=0)
    assert trained.stopped_at == 0 and trained.history == []
    assert trained.best_step == -1
    assert trees_equal(trained.params, start)
    assert log.read_text() == ""

    # the third update poisons the fourth step: NaN parameters or an infinite
    # loss; either way the step's record holds a non-finite loss
    for poison in ("params", "loss"):
        updates = []

        def poisoned_adam(state, params, grads, lr):
            state, params = adam_step(state, params, grads, lr)
            updates.append(lr)
            return state, params * np.nan if poison == "params" and len(updates) == 3 else params

        def poisoned_backward(params, batch):
            loss, grads = backward(params, batch)
            return (math.inf if poison == "loss" and len(updates) >= 3 else loss), grads

        monkeypatch.setattr(training, "adam_step", poisoned_adam)
        monkeypatch.setattr(training, "backward", poisoned_backward)
        with pytest.raises(TrainingDivergedError) as err:
            run_stage(stage, ds, log, max_steps=8, eval_every=100)
        assert err.value.step == 3
        assert "step 3" in str(err.value)
        assert loss_key in str(err.value)
        assert len(log.read_text().splitlines()) == 3  # the steps before it


def test_model_geometry_uses_dataset_shape():
    ds = tiny_dataset(seed=23)
    cfg = tiny_config()
    params = initial_params(ds, cfg, 0)
    assert params.input_dim == ds.dim
    assert params.n_classes == ds.c_max
    assert params.layout.dims[1:-1] == (8,)


def test_roles_are_what_training_expects():
    ds = tiny_dataset(seed=24)
    assert all(t.role == ROLE_META_TRAIN for t in ds.meta_train_tasks)
    assert all(t.role == ROLE_META_TEST for t in ds.meta_test_tasks)
