"""Macro F1 oracles, aggregation conventions, and report rendering."""

import json
import re

import numpy as np
import pytest

from taskmix.cli import _write_json
from taskmix.data import Task, compute_class_weights, full_split_batch
from taskmix.errors import ConfigError
from taskmix.evaluation import render_report, run_method, summarize
from taskmix.metrics import (
    evaluate_model,
    macro_f1,
    predict_labels,
    split_loss,
    split_macro_f1,
)
from taskmix.nn import ModelParams, forward, layout_for, weighted_ce

from util import oracle_macro_f1, tiny_config, tiny_dataset


def test_macro_f1_hand_case():
    # class 0: P=1/2 R=1 F1=2/3; class 1: P=1 R=2/3 F1=4/5; mean = 11/15
    got = macro_f1(np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1]), 2)
    assert got == pytest.approx(11.0 / 15.0, rel=1e-12)
    assert f"{got:.4f}" == "0.7333"


def test_macro_f1_perfect_and_all_wrong():
    y = np.array([0, 1, 2, 0, 1, 2])
    assert macro_f1(y, y, 3) == pytest.approx(1.0)
    assert macro_f1(y, (y + 1) % 3, 3) == 0.0


def test_macro_f1_relabeling_invariance():
    rng = np.random.default_rng(17)
    for _ in range(30):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(4, 25))
        y_true = rng.integers(0, c, n)
        y_pred = rng.integers(0, c, n)
        perm = rng.permutation(c)
        assert macro_f1(perm[y_true], perm[y_pred], c) == pytest.approx(
            macro_f1(y_true, y_pred, c), rel=1e-12
        )


def test_macro_f1_matches_bruteforce_oracle():
    rng = np.random.default_rng(99)
    for _ in range(1000):
        c = int(rng.integers(2, 6))
        n = int(rng.integers(1, 21))
        y_true = rng.integers(0, c, n)
        y_pred = rng.integers(0, c, n)
        assert macro_f1(y_true, y_pred, c) == oracle_macro_f1(
            list(y_true), list(y_pred), c
        )


def test_macro_f1_absent_classes_count_as_zero():
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 0, 1, 1])
    assert macro_f1(y_true, y_pred, 2) == pytest.approx(1.0)
    # a third class that never occurs drags the mean to 2/3
    assert macro_f1(y_true, y_pred, 3) == pytest.approx(2.0 / 3.0)
    # a class between others that is never true and never predicted counts
    # as zero too, exactly as the confusion-matrix oracle scores it
    y_true, y_pred = np.array([0, 2, 2, 3, 0]), np.array([0, 2, 3, 3, 2])
    assert macro_f1(y_true, y_pred, 4) == oracle_macro_f1(list(y_true), list(y_pred), 4)
    assert macro_f1(y_true, y_pred, 4) == pytest.approx((2.0 / 3.0 + 0.0 + 0.5 + 2.0 / 3.0) / 4.0)


def constant_model(dim, width, bias=None):
    # head only: zero weights, so the logits are the bias
    b = np.zeros(width) if bias is None else np.asarray(bias, dtype=np.float64)
    return ModelParams(np.concatenate([np.zeros(width * dim), b]), layout_for((dim, width)))


def test_constant_logits_balanced_two_class_third():
    # ties argmax to class 0; on balanced labels: F1 = (2/3 + 0)/2 = 1/3
    model = constant_model(dim=3, width=2)
    x = np.random.default_rng(0).standard_normal((10, 3))
    y_true = np.array([0, 1] * 5)
    pred = predict_labels(model, x, 2)
    assert np.all(pred == 0)
    assert macro_f1(y_true, pred, 2) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_predict_labels_masks_padded_classes():
    # column 3 dominates unmasked, but only the first 2 are valid
    model = constant_model(dim=3, width=4, bias=[0.0, 1.0, 0.0, 10.0])
    x = np.zeros((6, 3))
    pred = predict_labels(model, x, 2)
    assert np.all(pred == 1)


def hand_task():
    rng = np.random.default_rng(41)
    labels = np.array([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1], dtype=np.int64)
    splits = {
        "train": np.arange(0, 6, dtype=np.int64),
        "validation": np.arange(6, 9, dtype=np.int64),
        "test": np.arange(9, 12, dtype=np.int64),
    }
    return Task(
        id="hand",
        role="meta_test",
        n_classes=2,
        features=rng.standard_normal((12, 3)).astype(np.float32),
        labels=labels,
        splits=splits,
        class_weights=compute_class_weights(labels[splits["train"]], 2, 2),
    )


def test_split_metrics_match_definitions():
    task = hand_task()
    model = constant_model(dim=3, width=2, bias=[0.0, 0.5])
    pool = task.splits["test"]
    expected = macro_f1(
        task.labels[pool], predict_labels(model, task.features[pool], 2), 2
    )
    assert split_macro_f1(model, task, "test") == expected
    assert evaluate_model(model, task) == expected

    batch = full_split_batch(task, "validation")
    assert split_loss(model, task, "validation") == pytest.approx(
        weighted_ce(forward(model, batch.x), batch.y, batch.w)
    )


def report(seed, scores):
    avg = sum(scores.values()) / len(scores)
    return {"seed": seed, "average_macro_f1": avg, "per_task": scores}


def test_summarize_hand_case():
    reports = [report(s, {"t": v}) for s, v in enumerate((0.1, 0.2, 0.3))]
    summary = summarize("maml", reports)
    assert summary["mean"] == pytest.approx(0.2, rel=1e-12)
    assert summary["std"] == pytest.approx(0.1, rel=1e-12)  # sample std, n-1


def test_summarize_single_seed_has_zero_std():
    summary = summarize("maml", [report(0, {"t": 0.5})])
    assert summary["std"] == 0.0


def test_std_zero_iff_all_equal():
    equal = summarize("m", [report(s, {"t": 0.4}) for s in range(3)])
    assert equal["std"] == 0.0
    assert equal["mean"] == pytest.approx(0.4)
    mixed = summarize("m", [report(0, {"t": 0.4}), report(1, {"t": 0.401})])
    assert mixed["std"] > 0.0


def test_run_method_vanilla_scores_every_test_task():
    ds = tiny_dataset(seed=25)
    cfg = tiny_config()
    rep = run_method(ds, "vanilla", cfg, seed=0)
    assert sorted(rep["per_task"]) == sorted(t.id for t in ds.meta_test_tasks)
    assert rep["average_macro_f1"] == pytest.approx(
        sum(rep["per_task"].values()) / len(rep["per_task"])
    )
    assert all(0.0 <= v <= 1.0 for v in rep["per_task"].values())


def test_run_method_rejects_unknown():
    ds = tiny_dataset(seed=26)
    with pytest.raises(ConfigError):
        run_method(ds, "protonet", tiny_config(), seed=0)


def test_summarize_aggregates_run_method_reports():
    ds = tiny_dataset(seed=28)
    cfg = tiny_config()
    summary = summarize("vanilla", [run_method(ds, "vanilla", cfg, seed) for seed in (0, 1)])
    assert summary["method"] == "vanilla"
    assert len(summary["seeds"]) == 2
    values = [r["average_macro_f1"] for r in summary["seeds"]]
    assert summary["mean"] == pytest.approx(sum(values) / 2)


def test_report_json_schema(tmp_path):
    # report.json is the report's list of summaries as cli writes every JSON file
    summary = summarize("maml", [report(s, {"b": 0.2, "a": 0.4}) for s in (1, 0)])
    _write_json(tmp_path / "report.json", render_report([summary])[1])
    text = (tmp_path / "report.json").read_text()
    assert text.endswith("\n")
    doc = json.loads(text)[0]
    assert set(doc) == {"method", "mean", "std", "seeds"}
    assert [s["seed"] for s in doc["seeds"]] == [1, 0]
    assert list(doc["seeds"][0]["per_task"]) == ["a", "b"]  # sorted keys
    assert set(doc["seeds"][0]) == {"seed", "average_macro_f1", "per_task"}


def test_render_report_format_and_order():
    summaries = [
        summarize("maml", [report(s, {"t": v}) for s, v in enumerate((0.35, 0.38, 0.38))]),
        summarize("vanilla", [report(s, {"t": v}) for s, v in enumerate((0.50, 0.52, 0.51))]),
    ]
    text, doc = render_report(summaries)
    lines = text.splitlines()
    assert lines[0].startswith("method")
    assert "avg_macro_f1" in lines[0]
    assert lines[1].startswith("vanilla")  # higher mean first
    assert re.search(r"\d\.\d{3} ± \d\.\d{3}$", lines[1])
    assert re.search(r"maml\s+0\.370 ± 0\.017$", lines[2])
    assert text.endswith("\n")

    assert [entry["method"] for entry in doc] == ["vanilla", "maml"]
