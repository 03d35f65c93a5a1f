"""Training stages: episodic meta-training with optional augmentation,
meta-test fine-tuning, and the joint multi-task baseline.

One outer step of meta-training draws, per training task, a fresh support
batch for every inner SGD step plus one query batch (all from the task's
train split). The step keeps the draws as row indices and gathers a group's
batches from the tasks' arrays when the group runs, so it never holds the
features of all its batches at once. Each task unit is adapted by
`inner_adapt`, which returns the parameters it visited; under grad_mode
exact the query gradient is pulled back through that list, less the adapted
parameters (`nn.backprop_through_trace`). The units run in consecutive
groups of up to `group_size` units, each group as one stack through the
unit axis of `nn` (see README "Parameter layout"); results do not depend on
the group size.
Augmentation hooks plug in here:

  * metamix: each task also contributes the gradient of a mixed query
    batch; the task's meta-loss is the mean of the plain and mixed query
    losses, so a coefficient of 1 reproduces the unaugmented trajectory
    bit for bit. The pullback is linear, so under exact the averaged query
    gradient is pulled back once per unit;
  * taskmix: synthetic units follow the real ones; each is blended from a
    random task pair's drawn batches straight into its slot of a group, which
    may also hold real units, then adapted and differentiated like a real one.

Per-task meta-gradients are summed into one meta-gradient per outer step.
Every random draw comes from a substream keyed by (purpose, consumer), so
toggling any augmentation never perturbs the draws of the base algorithm.

All three stages differ only in their gradient, learning rate and
evaluation; one training loop (`_fit`) owns the Adam state and runs the
updates, the evaluation cadence, early stopping, the history and the
divergence check for each of them.
"""

from __future__ import annotations

import ctypes
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from .config import AUG_BOTH, AUG_METAMIX, AUG_TASKMIX, RunConfig
from .data import (
    Batch,
    Dataset,
    Task,
    empty_batch,
    full_split_batch,
    gather_batch,
    sample_rows,
)
from .errors import TrainingDivergedError
from .metrics import split_loss, split_macro_f1
from .mixing import metamix_augment, taskmix_synthesize
from .nn import (
    EXACT,
    ModelParams,
    backprop_through_trace,
    backward,
    check_size,
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


def _fit(flat: np.ndarray, gradient, lr, evaluate, stopper: EarlyStopper, max_steps: int,
         eval_every: int) -> TrainedModel:
    """Run up to max_steps Adam updates of the vector flat: step k applies
    `gradient(flat, k) -> (stats, grads)` at `lr(k)` and records
    {"step": k, "lr": lr(k), **stats}.

    After every eval_every-th step, `evaluate(flat) -> (name, value)` adds
    its value to the step's record and feeds the early stopper, which ends
    the run once its patience runs out. A non-finite record value ends the
    run with TrainingDivergedError at that step, which carries the history
    so far. The numerics do not check their inputs (data is checked when
    read), so non-finite parameters show up as a non-finite loss or
    evaluation. The stage gives the returned vector its layout.
    """
    if sys.platform == "linux":  # glibc's malloc thresholds, fixed: see README
        for param, value in ((-3, 32 << 20), (-1, 64 << 20)):  # M_MMAP_, M_TRIM_THRESHOLD
            ctypes.CDLL(None).mallopt(param, value)
    adam_state = AdamState.init(flat)
    history: list[dict] = []
    for k in range(max_steps):
        evaluated = (k + 1) % eval_every == 0
        stats, grads = gradient(flat, k)
        rate = lr(k)
        adam_state, flat = adam_step(adam_state, flat, grads, rate)
        del grads  # spent: not held through the next step's gradient
        record = {"step": k, "lr": rate, **stats}
        if evaluated:
            name, value = evaluate(flat)
            record[name] = value
        bad = [key for key, v in record.items() if not math.isfinite(v)]
        if bad:
            raise TrainingDivergedError(k, f"non-finite {bad[0]} at step {k}", history)
        history.append(record)
        if evaluated and stopper.update(value, k, flat):
            break
    best = stopper.best_params if stopper.best_params is not None else flat
    best_value = stopper.best_value if stopper.best_value is not None else math.nan
    return TrainedModel(best, history, len(history), stopper.best_step, best_value)


def initial_params(dataset: Dataset, cfg: RunConfig, seed: int) -> ModelParams:
    """Fresh Glorot initialization from the seed's init substream."""
    dims = (dataset.dim, *cfg.model.hidden, dataset.c_max)
    return init_params(dims, StreamBundle(seed).init())


def inner_adapt(params: ModelParams, support_batches, lr: float,
                trace: bool = True) -> list[ModelParams]:
    """n SGD steps from params, one support batch per step.

    Returns the visited parameters: params first, then the result of each
    step, so the adapted parameters are last. Exact meta-gradients unroll
    through this list (nn.backprop_through_trace). With trace False the list
    keeps only the adapted parameters, since first-order meta-gradients need
    nothing else: a group's trace would otherwise set its peak memory. A
    stack of G parameter vectors and batches adapts G units at once.
    """
    visited = [params]
    for batch in support_batches:
        _, grads = backward(visited[-1], batch)
        visited.append(params.like(sgd_step(visited[-1].flat, grads, lr)))
        del grads  # spent: not held through the next step's backward
        if not trace:
            del visited[:-1]
    return visited


# Activation elements (batch rows x widest layer) one unit group may hold per
# layer. Stacking units amortizes numpy's per-call overhead across the group;
# past this budget the stacked arrays outgrow the caches and the gain turns
# into a loss (README "Parameter layout").
GROUP_BUDGET = 1 << 15


def group_size(layout, batch_size: int) -> int:
    """Task units per stacked group for models of this layout and batch size."""
    return max(1, GROUP_BUDGET // (batch_size * max(layout.dims)))


def group_gradient(theta: ModelParams, support, query: Batch, cfg: RunConfig, metamix_rngs):
    """Meta-losses [G] and meta-gradients [G, P] of a group of G task units.

    support holds the group's stacked support batches, one per inner step,
    and query its stacked query batches (x [G, B, D]). Every unit adapts
    theta on its support batches at cfg.meta.inner_lr, then takes the
    query-loss gradient at its adapted parameters. With metamix_rngs (one
    generator per unit), a unit's loss and gradient are the mean of its
    plain and a mixed query's, both taken at its adapted parameters. The
    gradient is used as is under first_order; under exact it is pulled back
    once, after the averaging: the pullback is linear, so this equals the
    mean of the two pulled-back gradients up to rounding.

    Every array is dropped at its last read, since under exact the pullback
    sets the group's peak memory: the mixed batch and gradient once averaged
    in, and the adapted parameters once both query gradients are taken. The
    pullback gets only the parameters each support step started from, and it
    owns the query gradient it is handed, which it accumulates into in place.
    """
    lr = cfg.meta.inner_lr
    exact = cfg.meta.grad_mode == EXACT
    start = theta.like(np.broadcast_to(theta.flat, (query.x.shape[0], theta.flat.size)))
    visited = inner_adapt(start, support, lr, trace=exact)
    adapted = visited.pop()
    loss, grads = backward(adapted, query)
    if metamix_rngs is not None:
        mixed_loss, mixed_grads = backward(adapted,
                                           metamix_augment(query, cfg.mix, metamix_rngs))
        loss = 0.5 * (loss + mixed_loss)
        grads += mixed_grads
        del mixed_grads
        grads *= 0.5
    del adapted
    if exact:
        grads = backprop_through_trace(grads, visited, support, lr)
    return loss, grads


def _episodes(tasks: list[Task], cfg: RunConfig, bundle: StreamBundle) -> np.ndarray:
    """Row indices [T, S + 1, B] of every task's batches of one outer step: a
    task's S = inner_steps support batches, then its query batch, each drawn
    from its train split with its own batch substream."""
    check_size(len(tasks) * (cfg.meta.inner_steps + 1) * cfg.meta.batch_size)
    rows = np.empty((len(tasks), cfg.meta.inner_steps + 1, cfg.meta.batch_size), np.int64)
    for task, task_rows in zip(tasks, rows):
        rng = bundle.batch(task.id)
        for batch_rows in task_rows:
            batch_rows[...] = sample_rows(task, "train", cfg.meta.batch_size, rng)
    return rows


def meta_step(theta: ModelParams, tasks: list[Task], cfg: RunConfig, bundle: StreamBundle):
    """(stats, meta-gradient) of one outer step over all real tasks plus any
    synthetic ones: stats is {"mean_task_loss": ...}, the gradient the sum
    of the units' meta-gradients, a vector in theta's layout.

    The units run in unit order, real then synthetic, in consecutive groups
    of up to group_size units; when a group runs, each slot is gathered, or
    blended for a synthetic unit. Losses and gradients are summed unit by
    unit in that order, so the group size never moves a result. A group's
    batches, losses and gradients are dropped once summed, before the next
    group gathers its batches, so a step holds one group's arrays at a time.
    """
    aug = cfg.meta.augmentation
    use_metamix = aug in (AUG_METAMIX, AUG_BOTH)
    size = group_size(theta.layout, cfg.meta.batch_size)

    rows = _episodes(tasks, cfg, bundle)
    keys = [task.id for task in tasks]
    if aug in (AUG_TASKMIX, AUG_BOTH):
        taskmix_rng = bundle.beta("taskmix")
        keys += [f"synthetic/{k}" for k in range(cfg.mix.synthetic_count(len(tasks)))]

    total_loss = 0.0
    total_grads = None
    for a in range(0, len(keys), size):
        b = min(a + size, len(keys))
        episodes = empty_batch(tasks[0], rows.shape[1:], (b - a,))
        for g, u in enumerate(range(a, b)):
            if u < len(tasks):
                gather_batch(tasks[u], rows[u], out=episodes.units(g))
            else:
                taskmix_synthesize(tasks, rows, cfg.mix, taskmix_rng, episodes.units(g))
        batches = [Batch(episodes.x[:, s], episodes.y[:, s], episodes.w)
                   for s in range(cfg.meta.inner_steps + 1)]
        metamix_rngs = [bundle.beta(f"metamix/{key}") for key in keys[a:b]] if use_metamix else None
        losses, grads = group_gradient(theta, batches[:-1], batches[-1], cfg, metamix_rngs)
        for loss, row in zip(losses, grads):
            total_loss += float(loss)
            if total_grads is None:
                total_grads = row.copy()
            else:
                total_grads += row
        # spent: the next group gathers its batches without this one's
        del episodes, batches, losses, grads, row
    return {"mean_task_loss": total_loss / len(keys)}, total_grads


def meta_train(dataset: Dataset, cfg: RunConfig, seed: int) -> TrainedModel:
    """Meta-train up to cfg.meta.max_steps outer updates, each one Adam
    step along meta_step's gradient at the cosine-annealed learning rate.

    Every cfg.meta.eval_every steps the mean validation-split loss over the
    training tasks is evaluated (at the current initialization, without
    adaptation); training stops after cfg.meta.patience consecutive
    non-improvements and the best snapshot is returned.
    """
    tasks = dataset.meta_train_tasks
    bundle = StreamBundle(seed)
    theta = initial_params(dataset, cfg, seed)

    def evaluate(flat):
        total = sum(split_loss(theta.like(flat), t, "validation") for t in tasks)
        return "validation_loss", total / len(tasks)

    model = _fit(theta.flat, lambda flat, _: meta_step(theta.like(flat), tasks, cfg, bundle),
                 lambda k: cosine_lr(k, cfg.schedule), evaluate,
                 EarlyStopper(patience=cfg.meta.patience, direction=MINIMIZE),
                 cfg.meta.max_steps, cfg.meta.eval_every)
    return replace(model, params=theta.like(model.params))


def finetune(theta: ModelParams, task: Task, cfg: RunConfig) -> TrainedModel:
    """Adapt all parameters to one held-out task.

    Adam at the constant cfg.finetune.lr on the whole train split as a
    single deterministic batch; early stopping maximizes validation macro F1
    (argmax masked to the task's own classes). The pre-training parameters
    participate as the baseline evaluation, so fine-tuning can never return
    something worse than what it started from. Non-finite parameters score
    NaN, which `_fit` reports as divergence.
    """
    batch = full_split_batch(task, "train")

    def gradient(flat, _):
        loss, grads = backward(theta.like(flat), batch)
        return {"train_loss": loss}, grads

    def evaluate(flat):
        # argmax over NaN logits is class 0, so a non-finite model would still score
        if not np.isfinite(flat).all():
            return "validation_macro_f1", math.nan
        return "validation_macro_f1", split_macro_f1(theta.like(flat), task, "validation")

    stopper = EarlyStopper(patience=cfg.finetune.patience, direction=MAXIMIZE)
    stopper.update(split_macro_f1(theta, task, "validation"), -1, theta.flat)
    model = _fit(theta.flat, gradient, lambda _: cfg.finetune.lr, evaluate, stopper,
                 cfg.finetune.max_steps, cfg.finetune.eval_every)
    return replace(model, params=theta.like(model.params))


def _restrict(batch: Batch, n_classes: int) -> Batch:
    # drop padded label columns for a task-private head of width n_classes
    return Batch(x=batch.x, y=batch.y[:, :n_classes], w=batch.w[:n_classes])


def mtl_train(dataset: Dataset, cfg: RunConfig, seed: int) -> TrainedModel:
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
    check_size(cfg.meta.batch_size)  # each task's batch rows
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

    def gradient(vec, _):
        total_loss = 0.0
        grads = np.empty_like(vec)
        for k, task in enumerate(tasks):
            rows = sample_rows(task, "train", cfg.meta.batch_size, bundle.batch(task.id))
            batch = _restrict(gather_batch(task, rows), task.n_classes)
            loss, g = backward(task_model(vec, k), batch)
            total_loss += loss
            a, b = spans[k]
            grads[a:b] = g[n_neck:]
            neck = g[:n_neck]
            grads[:n_neck] = grads[:n_neck] + neck if k else neck
        return {"mean_task_loss": total_loss / len(tasks)}, grads

    def evaluate(vec):
        total = 0.0
        for k, task in enumerate(tasks):
            batch = _restrict(full_split_batch(task, "validation"), task.n_classes)
            total += weighted_ce(forward(task_model(vec, k), batch.x), batch.y, batch.w)
        return "validation_loss", total / len(tasks)

    stopper = EarlyStopper(patience=cfg.meta.patience, direction=MINIMIZE)
    model = _fit(state, gradient, lambda k: cosine_lr(k, cfg.schedule), evaluate, stopper,
                 cfg.meta.max_steps, cfg.meta.eval_every)
    trunk = model.params[:n_neck]
    return replace(model, params=base.like(np.concatenate([trunk, base.flat[n_neck:]])))
