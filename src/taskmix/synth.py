"""Synthetic task-family generator for experiments and tests.

Every task draws its class centroids from one shared palette of directions,
then gets a private orthogonal rotation (Cayley transform of a random skew
matrix) and a private shift. Tasks are therefore related but not identical,
which is the regime where adapting a shared initialization beats training
from scratch. Label frequencies follow a Zipf profile to mimic the heavy
class imbalance of intent data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import (
    Dataset,
    ROLE_META_TEST,
    ROLE_META_TRAIN,
    Task,
    auto_split,
    compute_class_weights,
)
from .errors import ConfigError
from .rng import PURPOSE_SPLIT, PURPOSE_SYNTH, substream


@dataclass
class SynthSpec:
    n_train_tasks: int
    n_test_tasks: int
    classes_min: int
    classes_max: int
    examples_per_task: int
    dim: int = 64
    palette_size: int = 16
    class_separation: float = 3.0
    noise_scale: float = 1.0
    task_shift_scale: float = 0.5
    rotation_strength: float = 0.1
    zipf_exponent: float = 1.0
    seed: int = 0

    def validate(self) -> None:
        if self.n_train_tasks < 1 or self.n_test_tasks < 0:
            raise ConfigError("need at least one training task and a nonnegative test count")
        if not (2 <= self.classes_min <= self.classes_max):
            raise ConfigError(
                f"class range must satisfy 2 <= min <= max, got ({self.classes_min}, {self.classes_max})"
            )
        if self.palette_size < self.classes_max:
            raise ConfigError(
                f"palette_size {self.palette_size} cannot seat {self.classes_max} classes"
            )
        if self.examples_per_task < 10 * self.classes_max:
            raise ConfigError(
                f"examples_per_task {self.examples_per_task} too small for "
                f"{self.classes_max} classes with train/validation/test splits"
            )
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.class_separation <= 0:
            raise ConfigError("class_separation must be positive")
        for name in ("noise_scale", "zipf_exponent", "task_shift_scale", "rotation_strength"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")


def _palette(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    directions = rng.standard_normal((spec.palette_size, spec.dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return spec.class_separation * directions


def _rotation(dim: int, strength: float, rng: np.random.Generator) -> np.ndarray:
    # Cayley transform of a skew-symmetric matrix: exactly orthogonal,
    # near identity for small strength.
    m = rng.standard_normal((dim, dim))
    skew = strength * (m - m.T) / 2.0
    eye = np.eye(dim)
    return np.linalg.solve(eye + skew, eye - skew)


def _zipf_counts(n: int, n_classes: int, exponent: float) -> np.ndarray:
    """Integer class counts summing to n, Zipf-shaped, at least 3 per class."""
    ranks = np.arange(1, n_classes + 1, dtype=np.float64)
    p = ranks**-exponent
    p /= p.sum()
    counts = np.floor(p * n).astype(np.int64)
    remainders = p * n - counts
    for _ in range(n - int(counts.sum())):
        k = int(np.argmax(remainders))
        counts[k] += 1
        remainders[k] = -1.0
    while counts.min() < 3:
        counts[int(np.argmax(counts))] -= 1
        counts[int(np.argmin(counts))] += 1
    return counts


def _make_task(
    task_id: str, role: str, spec: SynthSpec, palette: np.ndarray, c_max: int
) -> Task:
    rng = substream(spec.seed, PURPOSE_SYNTH, task_id)
    n_classes = int(rng.integers(spec.classes_min, spec.classes_max + 1))
    centroid_ids = rng.choice(spec.palette_size, size=n_classes, replace=False)
    rotation = _rotation(spec.dim, spec.rotation_strength, rng)
    shift = spec.task_shift_scale * rng.standard_normal(spec.dim)

    counts = _zipf_counts(spec.examples_per_task, n_classes, spec.zipf_exponent)
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), counts)
    centers = (palette[centroid_ids] @ rotation.T) + shift
    features = centers[labels] + spec.noise_scale * rng.standard_normal(
        (spec.examples_per_task, spec.dim)
    )
    order = rng.permutation(spec.examples_per_task)
    features, labels = features[order].astype(np.float32), labels[order]

    splits = auto_split(labels, substream(spec.seed, PURPOSE_SPLIT, task_id))
    weights = compute_class_weights(labels[splits.train], n_classes, c_max)
    return Task(
        id=task_id,
        role=role,
        n_classes=n_classes,
        features=features,
        labels=labels,
        splits=splits,
        class_weights=weights,
        metadata={"centroids": [int(c) for c in centroid_ids]},
    )


def generate(spec: SynthSpec) -> Dataset:
    """Build a full dataset (tasks, splits, class weights) in memory.

    Determinism contract: every random choice flows from (spec.seed, task id)
    substreams, so regenerating with the same spec is bit-identical and
    independent of task iteration order.
    """
    spec.validate()
    palette = _palette(spec, substream(spec.seed, PURPOSE_SYNTH, "palette"))

    # class counts are drawn per task, so fix the padded width first
    plan = [(f"train_{i:02d}", ROLE_META_TRAIN) for i in range(spec.n_train_tasks)]
    plan += [(f"test_{i:02d}", ROLE_META_TEST) for i in range(spec.n_test_tasks)]
    widths = [
        int(substream(spec.seed, PURPOSE_SYNTH, task_id).integers(spec.classes_min,
                                                                  spec.classes_max + 1))
        for task_id, _ in plan
    ]
    c_max = max(widths)

    tasks = [
        _make_task(task_id, role, spec, palette, c_max) for task_id, role in plan
    ]
    return Dataset(tasks=tasks, dim=spec.dim, c_max=c_max)


_PRESETS = {
    "long": dict(
        n_train_tasks=7,
        n_test_tasks=4,
        classes_min=5,
        classes_max=10,
        examples_base=6884,
        palette_size=16,
    ),
    "wide": dict(
        n_train_tasks=54,
        n_test_tasks=14,
        classes_min=2,
        classes_max=3,
        examples_base=1269,
        palette_size=8,
    ),
}


def preset(name: str, scale: float = 1.0) -> SynthSpec:
    """Named task-family shapes: 'long' (few tasks, many classes, many
    examples) and 'wide' (many tasks, few classes, fewer examples). scale
    multiplies the per-task example count so experiments can shrink data
    volume without changing the family's shape."""
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {sorted(_PRESETS)}")
    if not (0 < scale <= 1):
        raise ConfigError(f"preset scale must lie in (0, 1], got {scale}")
    params = dict(_PRESETS[name])
    examples = int(round(params.pop("examples_base") * scale))
    return SynthSpec(examples_per_task=examples, **params)
