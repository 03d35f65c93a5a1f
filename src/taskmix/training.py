"""Training stages: episodic meta-training with optional augmentation,
meta-test fine-tuning, and the joint multi-task baseline.

One outer step of meta-training draws, per training task, a fresh support
batch for every inner SGD step plus one query batch (all from the task's
train split). Augmentation hooks plug in here:

  * metamix: each task also contributes the gradient of a mixed query
    batch; the task's meta-loss is the mean of the plain and mixed query
    losses, so a coefficient of 1 reproduces the unaugmented trajectory
    bit for bit;
  * taskmix: the drawn batches of random task pairs are blended into
    synthetic tasks appended to the step's task set, each adapted and
    differentiated exactly like a real task.

Per-task meta-gradients are summed and applied in a single Adam update at
the cosine-annealed learning rate. Every random draw comes from a substream
keyed by (purpose, consumer), so toggling any augmentation never perturbs
the draws of the base algorithm.

All three stages differ only in their step and evaluation; one driver
(`_fit`) runs the steps, the evaluation cadence, early stopping, the
history and the divergence check for each of them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import AUG_BOTH, AUG_METAMIX, AUG_TASKMIX, RunConfig
from .data import Batch, Dataset, Task, full_split_batch, sample_batch
from .data import ROLE_META_TEST
from .errors import DataError, TrainingDivergedError, UsageError
from .metrics import split_loss, split_macro_f1
from .mixing import metamix_augment, taskmix_synthesize
from .nn import (
    EXACT,
    AdaptationTrace,
    ModelParams,
    TraceStep,
    backprop_through_trace,
    backward,
    forward,
    init_params,
    layout_for,
    weighted_ce,
)
from .optim import (
    MAXIMIZE,
    MINIMIZE,
    AdamState,
    EarlyStopper,
    adam_step,
    cosine_lr,
    sgd_step,
)
from .rng import StreamBundle


@dataclass
class TrainedModel:
    """Result of a training stage: best-snapshot parameters plus bookkeeping.

    params always hold the early stopper's best snapshot (falling back to
    the final parameters when no evaluation ever ran). stopped_at is the
    number of optimization steps actually executed, one history record each.
    """

    params: ModelParams
    history: list[dict]
    stopped_at: int
    best_step: int
    best_value: float


def _fit(params, step, evaluate, stopper: EarlyStopper, max_steps: int, eval_every: int,
         log_path) -> TrainedModel:
    """Run up to max_steps of `step(params, k) -> (params', record)`.

    After every eval_every-th step, `evaluate(params) -> (name, value)` adds
    its value to the step's record and feeds the early stopper, which ends
    the run once its patience runs out. Records go to the history and, one
    JSON line each, to log_path (if given). A non-finite record value ends
    the run with TrainingDivergedError at that step: the numerics do not
    check their inputs (data is checked when it is read), so non-finite
    parameters show up here as a non-finite loss or evaluation.
    """
    history: list[dict] = []
    log = open(log_path, "w") if log_path else None
    try:
        for k in range(max_steps):
            evaluated = (k + 1) % eval_every == 0
            params, record = step(params, k)
            if evaluated:
                name, value = evaluate(params)
                record[name] = value
            bad = [key for key, v in record.items() if not math.isfinite(v)]
            if bad:
                raise TrainingDivergedError(k, f"non-finite {bad[0]} at step {k}")
            history.append(record)
            if log is not None:
                log.write(json.dumps(record, sort_keys=True) + "\n")
            if evaluated and stopper.update(value, k, params):
                break
    finally:
        if log is not None:
            log.close()
    best = stopper.best_params if stopper.best_params is not None else params
    best_value = stopper.best_value if stopper.best_value is not None else math.nan
    return TrainedModel(best, history, len(history), stopper.best_step, best_value)


def initial_params(dataset: Dataset, cfg: RunConfig, seed: int) -> ModelParams:
    """Fresh Glorot initialization from the seed's init substream."""
    dims = (dataset.dim, *cfg.model.hidden, dataset.c_max)
    return init_params(dims, StreamBundle(seed).init())


def inner_adapt(
    params: ModelParams, support_batches, lr: float, record: bool
) -> AdaptationTrace:
    """n SGD steps from params, one support batch per step.

    The visited parameters and batches are recorded when `record` is set,
    which is what exact meta-gradients unroll through.
    """
    steps = [] if record else None
    cur = params
    for batch in support_batches:
        _, grads = backward(cur, batch)
        if record:
            steps.append(TraceStep(params=cur, batch=batch, lr=lr))
        cur = cur.like(sgd_step(cur.flat, grads.flat, lr))
    return AdaptationTrace(adapted=cur, steps=steps)


def unit_gradient(theta, support, query, cfg: RunConfig, metamix_rng):
    """Meta-loss and meta-gradient of one task unit (real or synthetic).

    Adapts theta on the support batches at cfg.meta.inner_lr, then takes the
    query-loss gradient at the adapted parameters: as is under first_order,
    pulled back through the inner loop under exact. With a metamix_rng, the
    loss and gradient are the mean of the plain and a mixed query's.
    """
    mode = cfg.meta.grad_mode
    trace = inner_adapt(theta, support, cfg.meta.inner_lr, record=(mode == EXACT))
    loss, grads = backward(trace.adapted, query)
    if mode == EXACT:
        grads = backprop_through_trace(grads, trace)
    if metamix_rng is not None:
        mixed = metamix_augment(query, cfg.mix, metamix_rng)
        mixed_loss, mixed_grads = backward(trace.adapted, mixed)
        if mode == EXACT:
            mixed_grads = backprop_through_trace(mixed_grads, trace)
        grads = grads.like(0.5 * (grads.flat + mixed_grads.flat))
        loss = 0.5 * (loss + mixed_loss)
    return loss, grads


def meta_step(
    theta: ModelParams,
    adam_state: AdamState,
    tasks: list[Task],
    cfg: RunConfig,
    bundle: StreamBundle,
):
    """One outer update over all real tasks plus any synthetic ones.

    Returns (theta', adam_state', stats). The outer step index is
    adam_state.t, which also drives the cosine schedule.
    """
    if not tasks:
        raise DataError("meta_step requires at least one meta-training task")
    step = adam_state.t
    aug = cfg.meta.augmentation
    use_metamix = aug in (AUG_METAMIX, AUG_BOTH)
    use_taskmix = aug in (AUG_TASKMIX, AUG_BOTH)

    per_task = []
    for task in tasks:
        rng = bundle.batch(task.id)
        support = [
            sample_batch(task, "train", cfg.meta.batch_size, rng)
            for _ in range(cfg.meta.inner_steps)
        ]
        query = sample_batch(task, "train", cfg.meta.batch_size, rng)
        per_task.append((support, query))

    units = [(task.id, sup, query) for task, (sup, query) in zip(tasks, per_task)]
    if use_taskmix:
        synthetic = taskmix_synthesize(per_task, cfg.mix, bundle.beta("taskmix"))
        units += [(f"synthetic/{k}", s.support, s.query) for k, s in enumerate(synthetic)]

    total_loss = 0.0
    total_grads = None
    for key, support, query in units:
        metamix_rng = bundle.beta(f"metamix/{key}") if use_metamix else None
        loss, grads = unit_gradient(theta, support, query, cfg, metamix_rng)
        total_loss += loss
        total_grads = grads.flat if total_grads is None else total_grads + grads.flat

    lr = cosine_lr(step, cfg.schedule)
    adam_state, flat = adam_step(adam_state, theta.flat, total_grads, lr)
    theta = theta.like(flat)
    stats = {"step": step, "lr": lr, "mean_task_loss": total_loss / len(units)}
    return theta, adam_state, stats


def meta_train(dataset: Dataset, cfg: RunConfig, seed: int, log_path=None) -> TrainedModel:
    """Meta-train up to cfg.meta.max_steps outer updates.

    Every cfg.meta.eval_every steps the mean validation-split loss over the
    training tasks is evaluated (at the current initialization, without
    adaptation); training stops after cfg.meta.patience consecutive
    non-improvements and the best snapshot is returned.
    """
    tasks = dataset.meta_train_tasks
    if not tasks:
        raise DataError("meta-training requires at least one meta_train task")
    bundle = StreamBundle(seed)
    theta = initial_params(dataset, cfg, seed)
    adam_state = AdamState.init(theta.flat)

    def step(theta, _):
        nonlocal adam_state
        theta, adam_state, stats = meta_step(theta, adam_state, tasks, cfg, bundle)
        return theta, stats

    def evaluate(theta):
        total = sum(split_loss(theta, t, "validation") for t in tasks)
        return "validation_loss", total / len(tasks)

    stopper = EarlyStopper(patience=cfg.meta.patience, direction=MINIMIZE)
    return _fit(theta, step, evaluate, stopper, cfg.meta.max_steps, cfg.meta.eval_every,
                log_path)


def finetune(theta: ModelParams, task: Task, cfg: RunConfig, log_path=None) -> TrainedModel:
    """Adapt all parameters to one held-out task.

    Adam on the whole train split as a single deterministic batch; early
    stopping maximizes validation macro F1 (argmax masked to the task's own
    classes). The pre-training parameters participate as the baseline
    evaluation, so fine-tuning can never return something worse than what
    it started from. Non-finite parameters score NaN, which `_fit` reports
    as divergence.
    """
    if task.role != ROLE_META_TEST:
        raise UsageError(f"finetune targets meta_test tasks, got role {task.role!r}")
    batch = full_split_batch(task, "train")
    adam_state = AdamState.init(theta.flat)
    lr = cfg.finetune.lr

    def step(params, k):
        nonlocal adam_state
        loss, grads = backward(params, batch)
        adam_state, flat = adam_step(adam_state, params.flat, grads.flat, lr)
        return params.like(flat), {"step": k, "lr": lr, "train_loss": loss}

    def evaluate(params):
        # argmax over NaN logits is class 0, so a non-finite model would still score
        if not params.all_finite():
            return "validation_macro_f1", math.nan
        return "validation_macro_f1", split_macro_f1(params, task, "validation")

    stopper = EarlyStopper(patience=cfg.finetune.patience, direction=MAXIMIZE)
    stopper.update(split_macro_f1(theta, task, "validation"), -1, theta)
    return _fit(theta, step, evaluate, stopper, cfg.finetune.max_steps,
                cfg.finetune.eval_every, log_path)


def _restrict(batch: Batch, n_classes: int) -> Batch:
    # drop padded label columns for a task-private head of width n_classes
    return Batch(x=batch.x, y=batch.y[:, :n_classes], w=batch.w[:n_classes])


def mtl_train(dataset: Dataset, cfg: RunConfig, seed: int, log_path=None) -> TrainedModel:
    """Joint multi-task pretraining of the shared trunk.

    Each step samples one batch per training task, runs it through the
    shared trunk and that task's private head (width = its own class
    count), sums the losses, and takes a single Adam step over everything.
    Early stopping minimizes the mean validation loss under the private
    heads, which are then discarded: the returned model is the best-snapshot
    trunk under a freshly initialized full-width head that was never
    trained.
    """
    tasks = dataset.meta_train_tasks
    if not tasks:
        raise DataError("mtl_train requires at least one meta_train task")
    bundle = StreamBundle(seed)
    init_rng = bundle.init()
    base = init_params((dataset.dim, *cfg.model.hidden, dataset.c_max), init_rng)
    heads = [init_params((base.layout.dims[-2], t.n_classes), init_rng) for t in tasks]

    # One flat state: the shared neck, then every task's private head. A
    # task's model is the neck followed by its own head.
    n_neck = base.layout.neck_size
    state = np.concatenate([base.flat[:n_neck], *(h.flat for h in heads)])
    spans, pos = [], n_neck
    for head in heads:
        spans.append((pos, pos + head.flat.size))
        pos += head.flat.size
    layouts = [layout_for((*base.layout.dims[:-1], t.n_classes)) for t in tasks]

    def task_model(vec: np.ndarray, k: int) -> ModelParams:
        a, b = spans[k]
        return ModelParams(np.concatenate([vec[:n_neck], vec[a:b]]), layouts[k])

    adam_state = AdamState.init(state)

    def step(vec, step_index):
        nonlocal adam_state
        total_loss = 0.0
        grads = np.empty_like(vec)
        for k, task in enumerate(tasks):
            batch = _restrict(
                sample_batch(task, "train", cfg.meta.batch_size, bundle.batch(task.id)),
                task.n_classes,
            )
            loss, g = backward(task_model(vec, k), batch)
            total_loss += loss
            a, b = spans[k]
            grads[a:b] = g.flat[n_neck:]
            neck = g.flat[:n_neck]
            grads[:n_neck] = grads[:n_neck] + neck if k else neck
        lr = cosine_lr(adam_state.t, cfg.schedule)
        adam_state, vec = adam_step(adam_state, vec, grads, lr)
        return vec, {"step": step_index, "lr": lr, "mean_task_loss": total_loss / len(tasks)}

    def evaluate(vec):
        total = 0.0
        for k, task in enumerate(tasks):
            batch = _restrict(full_split_batch(task, "validation"), task.n_classes)
            total += weighted_ce(forward(task_model(vec, k), batch.x), batch.y, batch.w)
        return "validation_loss", total / len(tasks)

    stopper = EarlyStopper(patience=cfg.meta.patience, direction=MINIMIZE)
    model = _fit(state, step, evaluate, stopper, cfg.meta.max_steps, cfg.meta.eval_every,
                 log_path)
    trunk = model.params[:n_neck]
    return replace(model, params=base.like(np.concatenate([trunk, base.flat[n_neck:]])))
