"""Experiment protocol: per-seed trials, aggregation, and report rendering.

A trial runs one method end to end for one seed: the method's training
phase (if any), then fine-tuning on every held-out task, then macro F1 on
each task's test split. It returns a seed record {"seed", "average_macro_f1",
"per_task"}, which a result cell stores beside its "method". A method's
records aggregate into its report.json entry, {"method", "mean", "std",
"seeds"}, rendered as the familiar "mean ± std" leaderboard.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

from .config import METHOD_AUGMENTATION, METHODS, RunConfig
from .data import Dataset
from .errors import DataError
from .metrics import evaluate_model
from .training import TrainedModel, finetune, initial_params, meta_train, mtl_train


def train_phase(dataset: Dataset, method: str, cfg: RunConfig, seed: int) -> TrainedModel:
    """The training phase of a method: mtl_train, or meta_train with the
    method's augmentation."""
    if method == "mtl":
        return mtl_train(dataset, cfg, seed)
    meta_cfg = replace(cfg, meta=replace(cfg.meta, augmentation=METHOD_AUGMENTATION[method]))
    return meta_train(dataset, meta_cfg, seed)


def run_method(dataset: Dataset, method: str, cfg: RunConfig, seed: int) -> dict:
    """One experiment cell's seed record: train (when the method has a
    training phase), fine-tune each held-out task, score its test split."""
    if not dataset.meta_test_tasks:
        raise DataError("evaluation requires at least one meta_test task")

    if method == "vanilla":
        theta = initial_params(dataset, cfg, seed)
    else:
        theta = train_phase(dataset, method, cfg, seed).params

    per_task = {}
    for task in dataset.meta_test_tasks:
        tuned = finetune(theta, task, cfg)
        per_task[task.id] = evaluate_model(tuned.params, task)
    average = sum(per_task.values()) / len(per_task)
    return {"seed": seed, "average_macro_f1": average, "per_task": per_task}


def summarize(method: str, records: list[dict]) -> dict:
    """The method's report.json entry: mean and sample std of its seed
    records' average macro F1, and the records themselves."""
    values = [r["average_macro_f1"] for r in records]
    mean = sum(values) / len(values)
    if len(values) == 1 or all(v == values[0] for v in values):
        # exact zero for identical seeds; the accumulated mean would not be
        std = 0.0
    else:
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    return {"method": method, "mean": mean, "std": std, "seeds": records}


# exact types, as json.loads makes them: a bool, an int subclass, is no seed or score
_CELL_FIELDS = {"method": (str,), "seed": (int,), "average_macro_f1": (int, float),
                "per_task": (dict,)}


def read_cell(cell, path: Path) -> tuple[str, dict]:
    """(method, seed record) of the parsed JSON of the result cell at path.

    DataError naming path if a field is missing or mistyped, if the cell's
    method and seed do not match its place, results/<method>/seed_<seed>.json,
    if the method is not one of METHODS, or if the cell holds no per-task
    score or a score outside [0, 1] (json.loads parses NaN and Infinity).
    """
    cell = cell if isinstance(cell, dict) else {}
    bad = [k for k, types in _CELL_FIELDS.items() if type(cell.get(k)) not in types]
    if bad or not all(type(v) in (int, float) for v in cell["per_task"].values()):
        raise DataError(f"{path}: result cell lacks or mistypes {', '.join(bad) or 'per_task'}")
    method, seed = cell["method"], cell["seed"]
    if (path.parent.name, path.name) != (method, f"seed_{seed}.json"):
        raise DataError(f"{path}: result cell of method {method!r}, seed {seed} is misfiled")
    if method not in METHODS:
        raise DataError(f"{path}: result cell of unknown method {method!r}")
    scores = [cell["average_macro_f1"], *cell["per_task"].values()]
    if not cell["per_task"] or not all(0 <= v <= 1 for v in scores):  # NaN compares False
        raise DataError(f"{path}: result cell needs per-task and average scores in [0, 1]")
    return method, {k: cell[k] for k in ("seed", "average_macro_f1", "per_task")}


def render_report(summaries: list[dict]) -> tuple[str, list[dict]]:
    """(text table, report.json's list of summaries), both sorted by mean,
    best first. The table shows mean ± std to three decimals; the list holds
    the summaries themselves, at full precision and with the per-task scores.
    """
    ordered = sorted(summaries, key=lambda s: (-s["mean"], s["method"]))
    width = max([len("method")] + [len(s["method"]) for s in ordered])
    lines = [f"{'method':<{width}}  avg_macro_f1"]
    for s in ordered:
        lines.append(f"{s['method']:<{width}}  {s['mean']:.3f} ± {s['std']:.3f}")
    return "\n".join(lines) + "\n", ordered
