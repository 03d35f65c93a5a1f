"""Evaluation metrics: masked prediction, macro F1, split-level summaries."""

from __future__ import annotations

import numpy as np

from .data import Task, full_split_batch
from .nn import ModelParams, forward, weighted_ce


def predict_labels(params: ModelParams, x: np.ndarray, n_classes: int) -> np.ndarray:
    """Argmax over the first n_classes logits.

    The head is padded to the dataset-wide class count; columns past a
    task's own class count are never valid predictions for it.
    """
    return np.argmax(forward(params, x)[:, :n_classes], axis=1)


def macro_f1(true_labels: np.ndarray, predicted: np.ndarray, n_classes: int) -> float:
    """Unweighted mean of per-class F1 over classes 0..n_classes-1.

    A class with zero precision+recall mass contributes F1 = 0, so absent
    or never-predicted classes pull the average down rather than being
    skipped.
    """
    true_labels = np.asarray(true_labels)
    predicted = np.asarray(predicted)

    def per_class(labels):
        return np.bincount(labels, minlength=n_classes)[:n_classes]

    tps = per_class(true_labels[predicted == true_labels])
    fps = per_class(predicted) - tps
    fns = per_class(true_labels) - tps
    total = 0.0
    for c in range(n_classes):
        tp, fp, fn = float(tps[c]), float(fps[c]), float(fns[c])
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        if precision + recall == 0.0:
            continue
        total += 2.0 * precision * recall / (precision + recall)
    return total / n_classes


def split_macro_f1(params: ModelParams, task: Task, split: str) -> float:
    pool = task.splits[split]
    predicted = predict_labels(params, task.features[pool], task.n_classes)
    return macro_f1(task.labels[pool], predicted, task.n_classes)


def evaluate_model(params: ModelParams, task: Task) -> float:
    """Macro F1 on the task's held-out test split."""
    return split_macro_f1(params, task, "test")


def split_loss(params: ModelParams, task: Task, split: str) -> float:
    """Weighted cross-entropy of one whole split, no sampling involved."""
    batch = full_split_batch(task, split)
    return weighted_ce(forward(params, batch.x), batch.y, batch.w)
