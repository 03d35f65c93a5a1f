"""Experiment protocol: per-seed trials, aggregation, and report rendering.

A trial runs one method end to end for one seed: the method's training
phase (if any), then fine-tuning on every held-out task, then macro F1 on
each task's test split. Trials aggregate into per-method mean and sample
standard deviation of the average macro F1, formatted as the familiar
"mean ± std" leaderboard.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

from .config import METHOD_AUGMENTATION, METHODS, RunConfig
from .data import Dataset
from .errors import ConfigError, DataError
from .metrics import evaluate_model
from .training import TrainedModel, finetune, initial_params, meta_train, mtl_train


@dataclass
class MetricsReport:
    """One seed's scores: per-task test macro F1 and their unweighted mean."""

    seed: int
    per_task: dict[str, float]
    average_macro_f1: float


@dataclass
class TrialSummary:
    method: str
    mean: float
    std: float
    reports: list[MetricsReport]


def train_phase(dataset: Dataset, method: str, cfg: RunConfig, seed: int,
                log_path=None) -> TrainedModel:
    """The training phase of a method: mtl_train, or meta_train with the
    method's augmentation."""
    if method == "mtl":
        return mtl_train(dataset, cfg, seed, log_path)
    if method not in METHOD_AUGMENTATION:
        raise ConfigError(f"method {method!r} has no training phase")
    meta_cfg = replace(cfg, meta=replace(cfg.meta, augmentation=METHOD_AUGMENTATION[method]))
    return meta_train(dataset, meta_cfg, seed, log_path)


def run_method(dataset: Dataset, method: str, cfg: RunConfig, seed: int) -> MetricsReport:
    """One experiment cell: train (when the method has a training phase),
    fine-tune each held-out task, score its test split."""
    if method not in METHODS:
        raise ConfigError(f"method must be one of {METHODS}, got {method!r}")
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
    return MetricsReport(seed=seed, per_task=per_task, average_macro_f1=average)


def summarize(method: str, reports: list[MetricsReport]) -> TrialSummary:
    values = [r.average_macro_f1 for r in reports]
    mean = sum(values) / len(values)
    if len(values) == 1 or all(v == values[0] for v in values):
        # exact zero for identical seeds; the accumulated mean would not be
        std = 0.0
    else:
        std = math.sqrt(sum((v - mean) ** 2 for v in values) / (len(values) - 1))
    return TrialSummary(method=method, mean=mean, std=std, reports=reports)


def summary_to_dict(summary: TrialSummary) -> dict:
    return {
        "method": summary.method,
        "mean": summary.mean,
        "std": summary.std,
        "seeds": [
            {
                "seed": r.seed,
                "average_macro_f1": r.average_macro_f1,
                "per_task": dict(sorted(r.per_task.items())),
            }
            for r in summary.reports
        ],
    }


def render_report(summaries: list[TrialSummary]) -> tuple[str, str]:
    """(text table, JSON document), both sorted by mean, best first.

    The table shows mean ± std to three decimals; the JSON keeps full
    precision and the per-task scores.
    """
    if not summaries:
        raise DataError("no trial summaries to report")
    ordered = sorted(summaries, key=lambda s: (-s.mean, s.method))
    width = max(len(s.method) for s in ordered)
    width = max(width, len("method"))
    lines = [f"{'method':<{width}}  avg_macro_f1"]
    for s in ordered:
        lines.append(f"{s.method:<{width}}  {s.mean:.3f} ± {s.std:.3f}")
    text = "\n".join(lines) + "\n"
    doc = json.dumps([summary_to_dict(s) for s in ordered], indent=2, sort_keys=True) + "\n"
    return text, doc
