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

from .config import METHOD_AUGMENTATION, RunConfig
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


def seed_record(report: MetricsReport) -> dict:
    """One seed's record, as report.json lists it and a result cell stores it
    (beside the cell's "method")."""
    return {
        "seed": report.seed,
        "average_macro_f1": report.average_macro_f1,
        "per_task": dict(sorted(report.per_task.items())),
    }


_CELL_FIELDS = {"method": str, "seed": int, "average_macro_f1": (int, float), "per_task": dict}


def read_cell(cell, where) -> tuple[str, MetricsReport]:
    """(method, report) of a result cell's parsed JSON; DataError naming
    `where` if a field is missing or mistyped."""
    cell = cell if isinstance(cell, dict) else {}
    bad = [k for k, tp in _CELL_FIELDS.items()
           if not isinstance(cell.get(k), tp) or isinstance(cell.get(k), bool)]
    if bad or not all(isinstance(v, (int, float)) for v in cell["per_task"].values()):
        raise DataError(f"{where}: result cell lacks or mistypes {', '.join(bad) or 'per_task'}")
    return cell["method"], MetricsReport(cell["seed"], cell["per_task"], cell["average_macro_f1"])


def summary_to_dict(summary: TrialSummary) -> dict:
    return {
        "method": summary.method,
        "mean": summary.mean,
        "std": summary.std,
        "seeds": [seed_record(r) for r in summary.reports],
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
