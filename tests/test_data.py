"""Task model, binary format, splitting, sampling, and CSV ingestion."""

import json
import os

import numpy as np
import pytest

from taskmix.data import (
    FORMAT_VERSION,
    MAGIC,
    ROLE_META_TEST,
    ROLE_META_TRAIN,
    Task,
    auto_split,
    compute_class_weights,
    full_split_batch,
    gather_batch,
    load_dataset,
    one_hot,
    read_csv_features,
    read_task_file,
    sample_rows,
    write_task_file,
)
from taskmix.errors import DataError
from taskmix.rng import PURPOSE_SPLIT, substream

from util import tiny_dataset, write_tiny


def test_class_weights_hand_case():
    # counts [3, 1], two classes, padded to three: w = n/(C*n_c) = [2/3, 2, 0]
    labels = np.array([0, 0, 0, 1])
    w = compute_class_weights(labels, n_classes=2, c_max=3)
    assert np.allclose(w, [2.0 / 3.0, 2.0, 0.0], rtol=1e-15)


def test_class_weights_uniform_is_one():
    labels = np.array([0, 1, 2] * 5)
    w = compute_class_weights(labels, 3, 3)
    assert np.allclose(w, 1.0, rtol=1e-15)


def test_class_weights_errors():
    with pytest.raises(DataError):
        compute_class_weights(np.array([0, 0, 2]), 3, 3)  # class 1 absent
    with pytest.raises(DataError):
        compute_class_weights(np.array([0, 3]), 2, 4)  # label out of range


def test_weighted_counts_sum_to_n():
    rng = np.random.default_rng(5)
    for _ in range(20):
        c = int(rng.integers(2, 7))
        labels = np.concatenate(
            [np.full(int(rng.integers(1, 30)), k) for k in range(c)]
        )
        w = compute_class_weights(labels, c, c + 2)
        counts = np.bincount(labels, minlength=c)
        assert np.isclose((counts * w[:c]).sum(), len(labels), rtol=1e-12)


def test_one_hot_argmax_roundtrip():
    labels = np.array([2, 0, 1, 2, 4])
    y = one_hot(labels, 5)
    assert np.array_equal(np.argmax(y, axis=1), labels)
    assert np.allclose(y.sum(axis=1), 1.0)


def test_task_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(19)
    features = rng.standard_normal((37, 9)).astype(np.float32)
    labels = rng.integers(0, 4, size=37)
    path = tmp_path / "t.tmxf"
    write_task_file(path, features, labels, 4)
    f2, l2, c2 = read_task_file(path)
    assert np.array_equal(f2, features)
    assert np.array_equal(l2, labels)
    assert c2 == 4


def test_task_file_error_cases(tmp_path):
    rng = np.random.default_rng(2)
    features = rng.standard_normal((5, 3)).astype(np.float32)
    labels = np.array([0, 1, 0, 1, 0])
    good = tmp_path / "good.tmxf"
    write_task_file(good, features, labels, 2)
    raw = good.read_bytes()

    bad_magic = tmp_path / "magic.tmxf"
    bad_magic.write_bytes(b"NOPE" + raw[4:])
    with pytest.raises(DataError, match="magic"):
        read_task_file(bad_magic)

    bad_version = tmp_path / "version.tmxf"
    bad_version.write_bytes(raw[:4] + (99).to_bytes(4, "little") + raw[8:])
    with pytest.raises(DataError, match="version"):
        read_task_file(bad_version)

    truncated = tmp_path / "short.tmxf"
    truncated.write_bytes(raw[:10])
    with pytest.raises(DataError, match="truncated"):
        read_task_file(truncated)

    clipped = tmp_path / "clipped.tmxf"
    clipped.write_bytes(raw[:-8])
    with pytest.raises(DataError, match="bytes"):
        read_task_file(clipped)

    out_of_range = tmp_path / "label.tmxf"
    write_task_file(out_of_range, features, np.array([0, 1, 2, 1, 0]), 2)
    with pytest.raises(DataError, match="n_classes"):
        read_task_file(out_of_range)


def test_task_file_with_more_classes_than_records_is_a_data_error(tmp_path):
    # every class needs a train example, so C > n never holds for valid input;
    # trusting a header's C = 2**32 - 1 would allocate class counts of that length
    path = tmp_path / "classes.tmxf"
    write_task_file(path, np.zeros((30, 3), dtype=np.float32), np.arange(30) % 2, 2**32 - 1)
    with pytest.raises(DataError, match="header claims 4294967295 classes for 30 records") as err:
        read_task_file(path)
    assert str(path) in str(err.value)


def test_magic_constants():
    assert MAGIC == b"TMXF"
    assert FORMAT_VERSION == 1


def stratified_labels(counts):
    return np.concatenate([np.full(n, k) for k, n in enumerate(counts)])


def test_auto_split_is_stratified_and_covering():
    labels = stratified_labels([40, 25, 10])
    rng = np.random.default_rng(0)
    splits = auto_split(labels, rng)
    all_idx = np.concatenate(list(splits.values()))
    assert len(np.unique(all_idx)) == len(labels)
    for c, n_c in enumerate([40, 25, 10]):
        got = np.sum(labels[splits["train"]] == c)
        assert abs(got - 0.7 * n_c) <= 1.0
        assert np.sum(labels[splits["validation"]] == c) >= 1
        assert np.sum(labels[splits["test"]] == c) >= 1


def test_auto_split_deterministic_per_stream():
    labels = stratified_labels([12, 9])
    a = auto_split(labels, substream(5, PURPOSE_SPLIT, "t"))
    b = auto_split(labels, substream(5, PURPOSE_SPLIT, "t"))
    for name in ("train", "validation", "test"):
        assert np.array_equal(a[name], b[name])


def test_auto_split_errors():
    labels = stratified_labels([2, 10])
    with pytest.raises(DataError):  # class 0 thinner than the 3 splits
        auto_split(labels, np.random.default_rng(0))


def test_write_load_roundtrip(tmp_path):
    ds = tiny_dataset(seed=3)
    manifest = write_tiny(tmp_path / "ds", seed=3)
    loaded = load_dataset(manifest)
    assert loaded.dim == ds.dim
    assert loaded.c_max == ds.c_max
    assert [t.id for t in loaded.tasks] == [t.id for t in ds.tasks]
    for a, b in zip(ds.tasks, loaded.tasks):
        assert a.role == b.role
        assert a.n_classes == b.n_classes
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.labels, b.labels)
        for name in ("train", "validation", "test"):
            assert np.array_equal(a.splits[name], b.splits[name])
        assert np.array_equal(a.class_weights, b.class_weights)


def test_interrupted_manifest_write_leaves_no_manifest_behind(tmp_path, monkeypatch):
    # the manifest goes through a temp file and a rename, as every CLI output does
    def failing_replace(src, dst):
        raise OSError("rename failed")

    out = tmp_path / "ds"
    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="rename failed"):
        write_tiny(out, seed=3)
    assert not any(path.suffix != ".tmxf" for path in out.iterdir())


def test_load_dataset_auto_split_path(tmp_path):
    manifest_path = write_tiny(tmp_path / "ds", seed=4)
    manifest = json.loads(manifest_path.read_text())
    for entry in manifest["tasks"]:
        del entry["splits"]
    manifest_path.write_text(json.dumps(manifest))
    first = load_dataset(manifest_path)
    second = load_dataset(manifest_path)
    for a, b in zip(first.tasks, second.tasks):
        assert np.array_equal(a.splits["train"], b.splits["train"])


def test_load_dataset_error_cases(tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_dataset(tmp_path / "nope.json")

    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"dim": 4, "tasks": []}))
    with pytest.raises(DataError, match="no tasks"):
        load_dataset(empty)

    rng = np.random.default_rng(0)
    write_task_file(tmp_path / "a.tmxf", rng.standard_normal((30, 4)).astype(np.float32),
                    rng.integers(0, 2, 30), 2)

    bad_role = tmp_path / "role.json"
    bad_role.write_text(json.dumps(
        {"dim": 4, "tasks": [{"id": "a", "role": "training", "file": "a.tmxf"}]}
    ))
    with pytest.raises(DataError, match="role"):
        load_dataset(bad_role)

    missing_key = tmp_path / "key.json"
    missing_key.write_text(json.dumps({"dim": 4, "tasks": [{"id": "a", "file": "a.tmxf"}]}))
    with pytest.raises(DataError, match="role"):
        load_dataset(missing_key)

    overlap = tmp_path / "overlap.json"
    overlap.write_text(json.dumps({
        "dim": 4,
        "tasks": [{
            "id": "a", "role": "meta_train", "file": "a.tmxf",
            "splits": {"train": list(range(30)), "validation": [0], "test": [1]},
        }],
    }))
    with pytest.raises(DataError, match="disjoint"):
        load_dataset(overlap)

    write_task_file(tmp_path / "b.tmxf", rng.standard_normal((30, 6)).astype(np.float32),
                    rng.integers(0, 2, 30), 2)
    mixed_dim = tmp_path / "dim.json"
    mixed_dim.write_text(json.dumps({
        "dim": 4,
        "tasks": [
            {"id": "a", "role": "meta_train", "file": "a.tmxf"},
            {"id": "b", "role": "meta_train", "file": "b.tmxf"},
        ],
    }))
    with pytest.raises(DataError, match="dimension"):
        load_dataset(mixed_dim)

    test_only = tmp_path / "testonly.json"
    test_only.write_text(json.dumps(
        {"dim": 4, "tasks": [{"id": "a", "role": "meta_test", "file": "a.tmxf"}]}
    ))
    with pytest.raises(DataError, match="meta-training"):
        load_dataset(test_only)


@pytest.mark.parametrize("labels, message", [
    ([0, 2] * 15, "class 1 has no examples"),
    ([0] * 28 + [1] * 2, "class 1 has 2 examples, fewer than the 3 splits"),
], ids=["class-skipped", "class-of-two"])
def test_a_task_load_error_names_the_manifest_and_the_task(tmp_path, labels, message):
    # the class weights' and the automatic split's errors come with the task's place
    write_task_file(tmp_path / "a.tmxf", np.zeros((30, 4), np.float32), np.array(labels),
                    max(labels) + 1)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps({"tasks": [{"id": "a", "role": "meta_train", "file": "a.tmxf"}]}))
    with pytest.raises(DataError) as err:
        load_dataset(path)
    assert str(err.value).startswith(f"{path}: task 'a': {message}")


def test_meta_train_task_may_leave_its_test_split_empty(tmp_path):
    # meta-training reads only train and validation; meta_test tasks need all three
    manifest_path = write_tiny(tmp_path / "ds", seed=6)
    manifest = json.loads(manifest_path.read_text())
    entry = manifest["tasks"][0]
    assert entry["role"] == ROLE_META_TRAIN
    entry["splits"]["train"] += entry["splits"]["test"]
    entry["splits"]["test"] = []
    manifest_path.write_text(json.dumps(manifest))
    assert len(load_dataset(manifest_path).tasks[0].splits["test"]) == 0


def make_task(n=20, d=3, n_classes=2, c_max=4):
    rng = np.random.default_rng(31)
    labels = np.asarray([k % n_classes for k in range(n)], dtype=np.int64)
    splits = {
        "train": np.arange(0, n - 6, dtype=np.int64),
        "validation": np.arange(n - 6, n - 3, dtype=np.int64),
        "test": np.arange(n - 3, n, dtype=np.int64),
    }
    return Task(
        id="hand",
        role=ROLE_META_TRAIN,
        n_classes=n_classes,
        features=rng.standard_normal((n, d)).astype(np.float32),
        labels=labels,
        splits=splits,
        class_weights=compute_class_weights(labels[splits["train"]], n_classes, c_max),
    )


def test_sample_batch_properties():
    task = make_task()
    rng = np.random.default_rng(8)
    rows = sample_rows(task, "train", 64, rng)  # larger than the 14-row pool
    batch = gather_batch(task, rows)
    assert batch.x.shape == (64, 3)
    assert batch.y.shape == (64, 4)
    assert np.allclose(batch.y.sum(axis=1), 1.0)
    assert np.all(np.argmax(batch.y, axis=1) < task.n_classes)
    assert np.all(np.isfinite(batch.x))
    assert np.array_equal(batch.w, task.class_weights.astype(np.float32))


def test_sample_batch_deterministic():
    task = make_task()
    a = gather_batch(task, sample_rows(task, "train", 16, substream(3, "batch", task.id)))
    b = gather_batch(task, sample_rows(task, "train", 16, substream(3, "batch", task.id)))
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.y, b.y)


def test_sample_batch_rows_come_from_split():
    task = make_task()
    batch = gather_batch(task, sample_rows(task, "validation", 32, np.random.default_rng(0)))
    pool_rows = task.features[task.splits["validation"]]
    for row in batch.x:
        assert any(np.array_equal(row, p) for p in pool_rows)


def test_full_split_batch_preserves_order():
    task = make_task()
    batch = full_split_batch(task, "train")
    assert np.array_equal(batch.x, task.features[task.splits["train"]])
    assert np.array_equal(
        np.argmax(batch.y, axis=1), task.labels[task.splits["train"]]
    )


def write_csv(path, rows, header="label,f0,f1"):
    path.write_text("\n".join([header] + rows) + "\n")


def test_read_csv_roundtrip(tmp_path):
    p = tmp_path / "t.csv"
    write_csv(p, ["0,0.5,-1.25", "1,2.0,3.5", "0,0.0,1.0"])
    features, labels, n_classes = read_csv_features(p)
    assert features.dtype == np.float32
    assert np.allclose(features, [[0.5, -1.25], [2.0, 3.5], [0.0, 1.0]])
    assert np.array_equal(labels, [0, 1, 0])
    assert n_classes == 2


def test_read_csv_errors(tmp_path):
    p = tmp_path / "bad.csv"

    p.write_text("")
    with pytest.raises(DataError, match="empty"):
        read_csv_features(p)

    write_csv(p, ["0,1.0,2.0"], header="id,f0,f1")
    with pytest.raises(DataError, match="label"):
        read_csv_features(p)

    write_csv(p, ["0,1.0,2.0"], header="label,x0,x1")
    with pytest.raises(DataError, match="f0"):
        read_csv_features(p)

    write_csv(p, ["0,1.0,2.0", "1,3.0"])
    with pytest.raises(DataError, match=":3"):  # line number in the message
        read_csv_features(p)

    write_csv(p, ["0,1.0,2.0", "1,oops,4.0"])
    with pytest.raises(DataError, match=":3"):
        read_csv_features(p)

    write_csv(p, ["-1,1.0,2.0"])
    with pytest.raises(DataError, match="negative"):
        read_csv_features(p)

    # n_classes = max label + 1 must fit the task file's u32 header field
    for label in (2**32 - 1, 10**20):
        write_csv(p, ["0,1.0,2.0", f"{label},1.0,2.0"])
        with pytest.raises(DataError, match=":3: label"):
            read_csv_features(p)

    write_csv(p, [])
    with pytest.raises(DataError, match="no data"):
        read_csv_features(p)


def test_dataset_role_views():
    ds = tiny_dataset(seed=5)
    assert len(ds.meta_train_tasks) == 3
    assert len(ds.meta_test_tasks) == 2
    assert all(t.role == ROLE_META_TRAIN for t in ds.meta_train_tasks)
    assert all(t.role == ROLE_META_TEST for t in ds.meta_test_tasks)
