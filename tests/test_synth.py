"""Synthetic task-family generation: shapes, determinism, transfer structure."""

from dataclasses import replace

import numpy as np
import pytest

from taskmix.data import largest_remainders
from taskmix.errors import ConfigError
from taskmix.metrics import split_loss
from taskmix.synth import SynthSpec, _rotation, _zipf_counts, preset
from taskmix.training import initial_params, meta_train

from util import generate, tiny_config, tiny_dataset


def test_preset_long_shape():
    spec = preset("long", 0.05)
    assert spec.n_train_tasks == 7
    assert spec.n_test_tasks == 4
    assert (spec.classes_min, spec.classes_max) == (5, 10)
    assert spec.examples_per_task == 344  # round(6884 * 0.05)
    assert spec.palette_size == 16
    assert spec.dim == 64


def test_preset_wide_shape():
    spec = preset("wide", 0.05)
    assert spec.n_train_tasks == 54
    assert spec.n_test_tasks == 14
    assert (spec.classes_min, spec.classes_max) == (2, 3)
    assert spec.examples_per_task == 63  # round(1269 * 0.05)
    assert spec.palette_size == 8


def test_preset_guards():
    with pytest.raises(ConfigError):
        preset("tall")
    with pytest.raises(ConfigError):
        preset("long", 0.0)
    with pytest.raises(ConfigError):
        preset("long", 1.5)
    preset("long", 1.0)  # the full budget is allowed


def test_spec_validation():
    good = dict(
        n_train_tasks=2, n_test_tasks=1, classes_min=2, classes_max=3,
        examples_per_task=40, dim=4, palette_size=4,
    )
    SynthSpec(**good).validate()
    with pytest.raises(ConfigError):  # < 10 * classes_max
        SynthSpec(**{**good, "examples_per_task": 15}).validate()


def test_generate_deterministic():
    spec = SynthSpec(
        n_train_tasks=2, n_test_tasks=1, classes_min=2, classes_max=3,
        examples_per_task=40, dim=5, palette_size=4, seed=11,
    )
    a = generate(spec)
    b = generate(spec)
    for ta, tb in zip(a.tasks, b.tasks):
        assert np.array_equal(ta.features, tb.features)
        assert np.array_equal(ta.labels, tb.labels)
        assert np.array_equal(ta.splits["train"], tb.splits["train"])
    c = generate(replace(spec, seed=12))
    assert not np.array_equal(a.tasks[0].features, c.tasks[0].features)


def test_generated_tasks_satisfy_invariants():
    ds = tiny_dataset(seed=9)
    assert ds.c_max == max(t.n_classes for t in ds.tasks)
    for task in ds.tasks:
        n = len(task.labels)
        joined = np.concatenate(list(task.splits.values()))
        assert len(np.unique(joined)) == n  # disjoint and covering
        assert task.labels.min() >= 0
        assert task.labels.max() < task.n_classes
        assert np.isfinite(task.features).all()
        # every class reaches the train split
        train_labels = task.labels[task.splits["train"]]
        assert len(np.unique(train_labels)) == task.n_classes
        counts = np.bincount(train_labels, minlength=task.n_classes)
        assert np.isclose(
            (counts * task.class_weights[: task.n_classes]).sum(), len(train_labels)
        )
        assert np.all(task.class_weights[task.n_classes :] == 0.0)


def test_zipf_counts_sum_and_floor():
    counts = _zipf_counts(100, 4, 1.0)
    assert counts.sum() == 100
    assert counts.min() >= 3
    assert counts[0] == counts.max()  # rank 1 is the heaviest class
    skewed = _zipf_counts(200, 5, 2.0)
    assert skewed.sum() == 200
    assert skewed.min() >= 3


def test_zipf_counts_raise_rare_classes_to_three():
    # at exponent 2, 200 examples over 20 classes leave the rarest ranks none
    p = np.arange(1, 21, dtype=np.float64) ** -2.0
    assert largest_remainders(p / p.sum(), 200).min() == 0
    counts = _zipf_counts(200, 20, 2.0)
    assert counts.min() >= 3
    assert counts.sum() == 200


def test_zipf_exponent_zero_is_uniform():
    counts = _zipf_counts(100, 4, 0.0)
    assert np.array_equal(counts, [25, 25, 25, 25])
    counts = _zipf_counts(103, 4, 0.0)
    assert counts.sum() == 103
    assert counts.max() - counts.min() <= 1


def test_zipf_zero_task_histogram_uniform():
    ds = tiny_dataset(seed=2, zipf_exponent=0.0)
    for task in ds.tasks:
        counts = np.bincount(task.labels, minlength=task.n_classes)
        assert counts.max() - counts.min() <= 1


def test_rotation_is_orthogonal():
    rng = np.random.default_rng(3)
    for strength in (0.0, 0.1, 0.8):
        rot = _rotation(6, strength, rng)
        assert np.allclose(rot @ rot.T, np.eye(6), atol=1e-9)
    # zero strength is the identity
    assert np.allclose(_rotation(4, 0.0, rng), np.eye(4), atol=1e-12)


def test_zero_noise_collapses_classes_to_points():
    ds = tiny_dataset(seed=6, noise_scale=0.0)
    task = ds.tasks[0]
    for c in range(task.n_classes):
        rows = task.features[task.labels == c]
        assert np.allclose(rows, rows[0], atol=1e-6)


def test_meta_trained_beats_random_init_on_test_tasks():
    # shared palette means training tasks transfer; the meta-trained
    # initialization must carry lower unadapted validation loss on the
    # held-out tasks than a fresh random model
    ds = tiny_dataset(seed=12, noise_scale=0.3)
    cfg = tiny_config(meta={"max_steps": 60, "eval_every": 10, "patience": 6})
    trained = meta_train(ds, cfg, seed=0)
    fresh = initial_params(ds, cfg, seed=0)

    def mean_val_loss(params):
        losses = [split_loss(params, t, "validation") for t in ds.meta_test_tasks]
        return sum(losses) / len(losses)

    assert mean_val_loss(trained.params) < mean_val_loss(fresh)
