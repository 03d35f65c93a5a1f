"""Shared helpers for the test suite: finite differences, tiny fixtures."""

from __future__ import annotations

import numpy as np

from taskmix.config import RunConfig, from_dict
from taskmix.data import Batch, one_hot
from taskmix.nn import init_params
from taskmix.synth import SynthSpec, generate


def oracle_macro_f1(y_true, y_pred, n_classes):
    """Independent reimplementation: direct confusion-matrix enumeration."""
    total = 0.0
    for c in range(n_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1 = 2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        total += f1
    return total / n_classes


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    denom = max(np.linalg.norm(a), np.linalg.norm(b))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(a - b) / denom)


def fd_gradient(fn, vec: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a flat vector."""
    g = np.zeros_like(vec)
    for i in range(vec.size):
        up = vec.copy()
        dn = vec.copy()
        up[i] += h
        dn[i] -= h
        g[i] = (fn(up) - fn(dn)) / (2.0 * h)
    return g


def small_net(seed: int, dims=(4, 3, 2), dtype=np.float64):
    # dims = (input, *hidden, classes)
    return init_params(dims, np.random.default_rng(seed), dtype=dtype)


def random_batch(seed: int, b: int, d: int, c: int, dtype=np.float64) -> Batch:
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((b, d)).astype(dtype)
    y = one_hot(rng.integers(0, c, size=b), c, dtype=dtype)
    w = rng.uniform(0.5, 2.0, size=c).astype(dtype)
    return Batch(x=x, y=y, w=w)


def tiny_dataset(seed: int = 7, **overrides):
    """A fast, fully separable-ish dataset for training-loop tests."""
    kw = dict(
        n_train_tasks=3,
        n_test_tasks=2,
        classes_min=2,
        classes_max=3,
        examples_per_task=48,
        dim=6,
        palette_size=4,
        class_separation=3.0,
        noise_scale=0.4,
        seed=seed,
    )
    kw.update(overrides)
    return generate(SynthSpec(**kw))


def tiny_config(**sections) -> RunConfig:
    data = {
        "model": {"hidden": [8]},
        "meta": {
            "inner_lr": 0.05,
            "inner_steps": 2,
            "batch_size": 16,
            "max_steps": 12,
            "eval_every": 4,
            "patience": 3,
        },
        "schedule": {"lr_max": 0.01, "lr_min": 0.0, "max_step": 12},
        "finetune": {"lr": 0.02, "max_steps": 20, "eval_every": 5, "patience": 4},
    }
    for key, value in sections.items():
        data.setdefault(key, {}).update(value)
    cfg = from_dict(data)
    cfg.validate()
    return cfg


def trees_equal(a, b) -> bool:
    """Same layout and bit-identical parameter vectors (for ModelParams)."""
    return a.layout == b.layout and np.array_equal(a.flat, b.flat)
