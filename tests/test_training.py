"""Training loops: inner adaptation, outer steps, fine-tuning, MTL baseline."""

import json
import math
import pickle
import tracemalloc

import numpy as np
import pytest

from taskmix import mixing
from taskmix.config import AUGMENTATIONS
from taskmix.data import ROLE_META_TEST, ROLE_META_TRAIN, gather_batch, sample_rows
from taskmix.errors import TrainingDivergedError
from taskmix.nn import GRAD_MODES, backward
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

from util import random_batch, same_params, small_net, tiny_config, tiny_dataset


def test_inner_adapt_zero_steps_is_identity():
    params = small_net(seed=0)
    visited = inner_adapt(params, [], 0.1)
    assert len(visited) == 1
    assert visited[0] is params


def test_inner_adapt_matches_manual_sgd():
    params = small_net(seed=1)
    batches = [random_batch(50 + k, b=6, d=4, c=2) for k in range(3)]
    visited = inner_adapt(params, batches, 0.05)

    cur = params
    for batch in batches:
        _, grads = backward(cur, batch)
        cur = cur.like(sgd_step(cur.flat, grads, 0.05))
    assert len(visited) == 4
    assert same_params(visited[-1], cur)


def test_inner_adapt_records_visited_parameters():
    params = small_net(seed=2)
    batches = [random_batch(70 + k, b=6, d=4, c=2) for k in range(2)]
    visited = inner_adapt(params, batches, 0.05)
    assert len(visited) == 3
    assert visited[0] is params
    _, g0 = backward(params, batches[0])
    assert same_params(visited[1], params.like(sgd_step(params.flat, g0, 0.05)))


def test_inner_adapt_trace_survives_writes_into_the_live_vector():
    # every visited step keeps the parameters its gradient was taken at,
    # even when the adapted (live) vector is later written in place
    params = small_net(seed=3)
    batches = [random_batch(90 + k, b=6, d=4, c=2) for k in range(3)]
    visited = inner_adapt(params, batches, 0.05)
    steps, adapted = visited[:-1], visited[-1]
    recorded = [p.flat.copy() for p in steps]
    adapted.flat[:] = np.nan
    adapted.layout.views(adapted.flat)[0][0][0][...] = 5.0
    assert all(np.array_equal(p.flat, r) for p, r in zip(steps, recorded))
    assert not any(np.shares_memory(p.flat, adapted.flat) for p in steps)
    # the steps' vectors are distinct from one another too
    flats = [p.flat for p in steps]
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
        batch = gather_batch(task, sample_rows(task, "train", cfg.meta.batch_size, rng))
        _, grads = backward(theta, batch)
        lr = cosine_lr(adam.t, cfg.schedule)
        adam, flat = adam_step(adam, theta.flat, grads, lr)
        theta = theta.like(flat)
    assert same_params(trained.params, theta)


def test_meta_step_counts_and_stats():
    ds = tiny_dataset(seed=5)
    cfg = tiny_config()
    theta = initial_params(ds, cfg, 0)
    bundle = StreamBundle(0)
    stats, grads = meta_step(theta, ds.meta_train_tasks, cfg, bundle)
    adam2, flat = adam_step(AdamState.init(theta.flat), theta.flat, grads,
                            cosine_lr(0, cfg.schedule))
    assert adam2.t == 1
    assert np.isfinite(stats["mean_task_loss"])
    assert not same_params(theta, theta.like(flat))
    # meta_train's first step is that update, recorded as step 0 at the schedule's lr
    record = meta_train(ds, tiny_config(meta={"max_steps": 1}), seed=0).history[0]
    assert record["step"] == 0
    assert record["lr"] == cosine_lr(0, cfg.schedule)
    assert record["mean_task_loss"] == stats["mean_task_loss"]


def test_taskmix_changes_units_not_outer_steps():
    ds = tiny_dataset(seed=6)
    plain_cfg = tiny_config()
    mix_cfg = tiny_config(meta={"augmentation": "taskmix"}, mix={"n_synthetic": 2})
    theta = initial_params(ds, plain_cfg, 1)

    stats_a, grads_a = meta_step(theta, ds.meta_train_tasks, plain_cfg, StreamBundle(1))
    stats_b, grads_b = meta_step(theta, ds.meta_train_tasks, mix_cfg, StreamBundle(1))
    # one meta-gradient, so one outer update, either way
    assert grads_a.shape == grads_b.shape == theta.flat.shape
    # the loss average runs over T + N units under taskmix
    assert stats_a["mean_task_loss"] != stats_b["mean_task_loss"]


@pytest.mark.parametrize("grad_mode", GRAD_MODES)
@pytest.mark.parametrize("augmentation", AUGMENTATIONS)
def test_meta_step_results_do_not_depend_on_group_size(augmentation, grad_mode, monkeypatch):
    # one unit per group, groups of 2 (which divides neither the 3 real nor the
    # 6 units under taskmix), and one group for all: the same bytes each time
    import taskmix.training as training

    ds = tiny_dataset(seed=25)
    cfg = tiny_config(meta={"augmentation": augmentation, "grad_mode": grad_mode})
    theta = initial_params(ds, cfg, 0)
    per_unit = cfg.meta.batch_size * max(theta.layout.dims)
    runs = []
    for size in (1, 2, 64):
        monkeypatch.setattr(training, "GROUP_BUDGET", size * per_unit)
        assert training.group_size(theta.layout, cfg.meta.batch_size) == size
        flat, adam, bundle = theta.flat, AdamState.init(theta.flat), StreamBundle(0)
        stats = []
        for k in range(3):
            record, grads = meta_step(theta.like(flat), ds.meta_train_tasks, cfg, bundle)
            adam, flat = adam_step(adam, flat, grads, cosine_lr(k, cfg.schedule))
            stats.append(json.dumps(record))
        runs.append((flat.tobytes(), adam.m.tobytes(), adam.v.tobytes(), adam.t, stats))
    assert runs[0] == runs[1] == runs[2]


def _step_peak(theta, tasks, cfg) -> int:
    """tracemalloc peak of one meta_step."""
    tracemalloc.start()
    try:
        meta_step(theta, tasks, cfg, StreamBundle(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_meta_step_peak_memory_stays_below_the_step_batch_stack():
    # a step keeps its batches as row indices and gathers a group's batches
    # when the group runs, so it never holds the features of every batch at once
    ds = tiny_dataset(seed=26, n_train_tasks=40, dim=64)
    cfg = tiny_config(meta={"augmentation": "taskmix", "batch_size": 128})
    tasks = ds.meta_train_tasks
    theta = initial_params(ds, cfg, 0)
    stack_bytes = (len(tasks) * (cfg.meta.inner_steps + 1) * cfg.meta.batch_size * ds.dim
                   * tasks[0].features.itemsize)
    assert _step_peak(theta, tasks, cfg) < stack_bytes


def test_exact_metamix_meta_step_drops_each_vector_at_its_last_read(monkeypatch):
    # one unit per group, a wide model and small batches, so parameter-sized
    # vectors set the peak: the step's gradient total, the start of the
    # second inner step, the gradient being pulled back and one HVP's output,
    # plus about one vector of activations. The previous group's gradient,
    # the mixed query gradient, the adapted parameters, the plain query
    # gradient and a spent HVP output are dead by then; any one of them
    # would break the bound.
    import taskmix.training as training

    ds = tiny_dataset(seed=27, dim=16)
    cfg = tiny_config(model={"hidden": [256, 256]},
                      meta={"augmentation": "metamix", "grad_mode": "exact"})
    theta = initial_params(ds, cfg, 0)
    monkeypatch.setattr(training, "GROUP_BUDGET", cfg.meta.batch_size * 256)
    assert training.group_size(theta.layout, cfg.meta.batch_size) == 1
    assert _step_peak(theta, ds.meta_train_tasks, cfg) < 6.5 * theta.flat.nbytes


def test_first_order_meta_step_holds_one_group_of_episodes(monkeypatch):
    # two groups of two units with wide features and a small model, so the
    # group's gathered batches set the peak: the next group gathers its own
    # only after the previous group's are dropped
    import taskmix.training as training

    ds = tiny_dataset(seed=28, n_train_tasks=4, dim=128)
    cfg = tiny_config(meta={"batch_size": 128})
    theta = initial_params(ds, cfg, 0)
    monkeypatch.setattr(training, "GROUP_BUDGET", 2 * cfg.meta.batch_size * ds.dim)
    assert training.group_size(theta.layout, cfg.meta.batch_size) == 2
    episode_bytes = (2 * (cfg.meta.inner_steps + 1) * cfg.meta.batch_size
                     * (ds.dim + ds.c_max) * 4)
    assert _step_peak(theta, ds.meta_train_tasks, cfg) < 1.5 * episode_bytes


def test_exact_metamix_with_unit_coefficient_is_plain_exact(monkeypatch):
    # the mixed batch is the query itself, so the averaged gradient is the
    # plain one exactly and so is its pullback
    ds = tiny_dataset(seed=12)
    plain = meta_train(ds, tiny_config(meta={"grad_mode": "exact"}), seed=0)
    monkeypatch.setattr(mixing, "sample_beta", lambda eta, rng: 1.0)
    pinned_cfg = tiny_config(meta={"grad_mode": "exact", "augmentation": "metamix"})
    pinned = meta_train(ds, pinned_cfg, seed=0)
    assert same_params(pinned.params, plain.params)
    assert pinned.history == plain.history


def test_meta_train_zero_steps_returns_init():
    ds = tiny_dataset(seed=8)
    cfg = tiny_config(meta={"max_steps": 0})
    trained = meta_train(ds, cfg, seed=3)
    assert trained.stopped_at == 0
    assert trained.best_step == -1
    assert same_params(trained.params, initial_params(ds, cfg, 3))


def test_meta_train_deterministic():
    ds = tiny_dataset(seed=9)
    cfg = tiny_config()
    a = meta_train(ds, cfg, seed=5)
    b = meta_train(ds, cfg, seed=5)
    assert same_params(a.params, b.params)
    assert a.stopped_at == b.stopped_at
    assert [h.get("validation_loss") for h in a.history] == [
        h.get("validation_loss") for h in b.history
    ]
    c = meta_train(ds, cfg, seed=6)
    assert not same_params(a.params, c.params)


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


def test_finetune_zero_steps_returns_start():
    ds = tiny_dataset(seed=14)
    cfg = tiny_config(finetune={"max_steps": 0})
    theta = initial_params(ds, cfg, 2)
    tuned = finetune(theta, ds.meta_test_tasks[0], cfg)
    assert same_params(tuned.params, theta)
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


def test_divergence_error_survives_pickling():
    # worker processes hand exceptions back pickled
    history = [{"step": 0, "loss": 1.5}, {"step": 1, "loss": 0.75}]
    err = TrainingDivergedError(2, "training diverged at step 2", history)
    copy = pickle.loads(pickle.dumps(err))
    assert type(copy) is TrainingDivergedError
    assert (copy.step, str(copy), copy.history) == (2, "training diverged at step 2", history)


def test_mtl_returns_fresh_never_trained_head():
    ds = tiny_dataset(seed=19)
    cfg = tiny_config()
    model = mtl_train(ds, cfg, seed=7).params
    reference = initial_params(ds, cfg, 7)
    # the returned head is the untouched initialization draw ...
    model_head = model.layout.views(model.flat)[1]
    reference_head = reference.layout.views(reference.flat)[1]
    assert np.array_equal(model_head[0], reference_head[0])
    assert np.array_equal(model_head[1], reference_head[1])
    # ... while the trunk moved away from it
    neck = reference.layout.neck_size
    assert not np.array_equal(model.flat[:neck], reference.flat[:neck])


def test_mtl_deterministic_and_finite():
    ds = tiny_dataset(seed=20)
    cfg = tiny_config()
    a = mtl_train(ds, cfg, seed=3).params
    b = mtl_train(ds, cfg, seed=3).params
    assert same_params(a, b)
    assert np.isfinite(a.flat).all()


# The three stages share one loop; each names its loss and its evaluation.
STAGE_KEYS = {
    "meta_train": ("mean_task_loss", "validation_loss"),
    "mtl_train": ("mean_task_loss", "validation_loss"),
    "finetune": ("train_loss", "validation_macro_f1"),
}


def run_stage(stage, ds, **loop):
    """Run one stage from the seed-0 initialization with the same step budget,
    cadence and patience in the meta and fine-tune config sections; returns
    (result, start parameters)."""
    cfg = tiny_config(meta=loop, finetune=loop)
    start = initial_params(ds, cfg, 0)
    if stage == "finetune":
        return finetune(start, ds.meta_test_tasks[0], cfg), start
    train = {"meta_train": meta_train, "mtl_train": mtl_train}[stage]
    return train(ds, cfg, 0), start


@pytest.mark.parametrize("stage", list(STAGE_KEYS))
def test_stage_loop_contract(stage, monkeypatch):
    import taskmix.training as training

    loss_key, eval_key = STAGE_KEYS[stage]
    ds = tiny_dataset(seed=12)
    trained, _ = run_stage(stage, ds, max_steps=8, eval_every=3, patience=5)
    assert trained.stopped_at == len(trained.history) == 8
    for k, record in enumerate(trained.history):
        assert record["step"] == k
        assert {"step", "lr", loss_key} <= set(record)
        assert (eval_key in record) == ((k + 1) % 3 == 0)

    # no steps: the start parameters, no best step, an empty history
    trained, start = run_stage(stage, ds, max_steps=0)
    assert trained.stopped_at == 0 and trained.history == []
    assert trained.best_step == -1
    assert same_params(trained.params, start)

    # the third update poisons the fourth step: NaN parameters or an infinite
    # loss; either way the step's record holds a non-finite loss
    for poison in ("params", "loss"):
        updates = []

        def poisoned_adam(state, params, grads, lr):
            state, params = adam_step(state, params, grads, lr)
            updates.append(lr)
            return state, params * np.nan if poison == "params" and len(updates) == 3 else params

        def poisoned_backward(params, batch):
            # meta-train's calls carry a unit axis: one loss per unit
            loss, grads = backward(params, batch)
            return (loss + math.inf if poison == "loss" and len(updates) >= 3 else loss), grads

        monkeypatch.setattr(training, "adam_step", poisoned_adam)
        monkeypatch.setattr(training, "backward", poisoned_backward)
        with pytest.raises(TrainingDivergedError) as err:
            run_stage(stage, ds, max_steps=8, eval_every=100)
        assert err.value.step == 3
        assert "step 3" in str(err.value)
        assert loss_key in str(err.value)
        assert [r["step"] for r in err.value.history] == [0, 1, 2]  # the steps before it


def test_model_geometry_uses_dataset_shape():
    ds = tiny_dataset(seed=23)
    cfg = tiny_config()
    params = initial_params(ds, cfg, 0)
    assert params.layout.dims[0] == ds.dim
    assert params.layout.dims[-1] == ds.c_max
    assert params.layout.dims[1:-1] == (8,)


def test_roles_are_what_training_expects():
    ds = tiny_dataset(seed=24)
    assert all(t.role == ROLE_META_TRAIN for t in ds.meta_train_tasks)
    assert all(t.role == ROLE_META_TEST for t in ds.meta_test_tasks)
