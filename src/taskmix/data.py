"""Task and dataset model, on-disk format, splits, and batch sampling.

A task is one (domain, language) classification subset: a feature matrix of
precomputed embeddings, integer intent labels, train/validation/test index
splits, and an inverse-frequency class-weight vector zero-padded to the
dataset-wide maximum class count.

On-disk layout is a JSON manifest plus one binary feature file per task:

    magic "TMXF" | version u32 | n u32 | D u32 | C u32
    then n records of [label u32][D x f32], all little-endian.
"""

from __future__ import annotations

import csv
import json
import os
import struct
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .rng import PURPOSE_SPLIT, substream

MAGIC = b"TMXF"
FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIIII")

ROLE_META_TRAIN = "meta_train"
ROLE_META_TEST = "meta_test"
ROLES = (ROLE_META_TRAIN, ROLE_META_TEST)

SPLIT_NAMES = ("train", "validation", "test")
# Tasks without explicit splits are split 70/10/20 per class, each from the
# split substream of (SPLIT_SEED, task id).
SPLIT_FRACTIONS = (0.7, 0.1, 0.2)
SPLIT_SEED = 1234


@dataclass
class Task:
    id: str
    role: str
    n_classes: int
    features: np.ndarray  # [n, D] float32
    labels: np.ndarray  # [n] int64, values in [0, n_classes)
    splits: dict[str, np.ndarray]  # SPLIT_NAMES -> int64 example indices
    class_weights: np.ndarray  # [C_max] float64, zero beyond n_classes

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Batch:
    """One sampled training unit: features, soft labels, class weights.

    A stack of units carries leading unit axes on all three arrays, e.g.
    x [G, B, D], y [G, B, C_max] and w [G, C_max].
    """

    x: np.ndarray  # [B, D]
    y: np.ndarray  # [B, C_max], rows sum to 1
    w: np.ndarray  # [C_max]

    def units(self, index) -> Batch:
        """Unit `index` (an int) or units (a slice) of a stack; views, not copies."""
        return Batch(self.x[index], self.y[index], self.w[index])


@dataclass
class Dataset:
    tasks: list[Task]
    dim: int
    c_max: int

    @property
    def meta_train_tasks(self) -> list[Task]:
        return [t for t in self.tasks if t.role == ROLE_META_TRAIN]

    @property
    def meta_test_tasks(self) -> list[Task]:
        return [t for t in self.tasks if t.role == ROLE_META_TEST]


# ---------------------------------------------------------------------------
# Class weights
# ---------------------------------------------------------------------------


def compute_class_weights(labels: np.ndarray, n_classes: int, c_max: int) -> np.ndarray:
    """Inverse class frequency, normalized so uniform data gives weight 1.0.

    w_c = n / (C * n_c) for the task's own classes, zero-padded to c_max.
    Weighted counts then sum back to n, keeping loss scale comparable across
    tasks of different size and class count.
    """
    labels = np.asarray(labels)
    counts = np.bincount(labels, minlength=n_classes)
    if len(counts) > n_classes:
        raise DataError(f"label {labels.max()} out of range for {n_classes} classes")
    if (counts == 0).any():
        missing = int(np.flatnonzero(counts == 0)[0])
        raise DataError(
            f"class {missing} has no examples; inverse-frequency weight would be infinite"
        )
    weights = np.zeros(c_max, dtype=np.float64)
    weights[:n_classes] = len(labels) / (n_classes * counts)
    return weights


def one_hot(labels: np.ndarray, width: int, dtype=np.float32, out=None) -> np.ndarray:
    """Labels of any shape [...] as rows of the identity, [..., width];
    written into out if given. Labels must lie in [0, width)."""
    # mode "clip" lets np.take write straight into out; "raise" fills a copy first
    return np.take(np.eye(width, dtype=dtype), labels, axis=0, out=out, mode="clip")


# ---------------------------------------------------------------------------
# Binary task files
# ---------------------------------------------------------------------------


def write_task_file(path, features: np.ndarray, labels: np.ndarray, n_classes: int) -> None:
    features = np.ascontiguousarray(features, dtype="<f4")
    labels = np.asarray(labels)
    n, dim = features.shape
    record = np.dtype([("label", "<u4"), ("feat", "<f4", (dim,))])
    body = np.empty(n, dtype=record)
    body["label"] = labels
    body["feat"] = features
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, n, dim, n_classes))
        fh.write(body.tobytes())


def _nonfinite_row(features: np.ndarray) -> int | None:
    """Index of the first row holding a NaN or an infinity; None if there is none."""
    bad = np.flatnonzero(~np.isfinite(features).all(axis=1))
    return int(bad[0]) if bad.size else None


def read_task_file(path) -> tuple[np.ndarray, np.ndarray, int]:
    """Returns (features [n, D] f32, labels [n] i64, n_classes)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read task file ({exc.strerror})") from exc
    if len(raw) < _HEADER.size:
        raise DataError(f"{path}: truncated header")
    magic, version, n, dim, n_classes = _HEADER.unpack_from(raw)
    if magic != MAGIC:
        raise DataError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported version {version}")
    if dim == 0:
        raise DataError(f"{path}: feature dimension is 0")
    if n_classes > n:  # every class needs a train example
        raise DataError(f"{path}: header claims {n_classes} classes for {n} records")
    # sized here, not by np.dtype, which raises ValueError for a record past a C int
    expected = _HEADER.size + n * 4 * (1 + dim)
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, found {len(raw)}")
    record = np.dtype([("label", "<u4"), ("feat", "<f4", (dim,))])
    body = np.frombuffer(raw, dtype=record, count=n, offset=_HEADER.size)
    labels = body["label"].astype(np.int64)
    if n and labels.max() >= n_classes:
        raise DataError(f"{path}: label {labels.max()} >= n_classes {n_classes}")
    features = body["feat"].astype(np.float32).reshape(n, dim)
    row = _nonfinite_row(features)
    if row is not None:
        raise DataError(f"{path}: record {row} has a non-finite feature")
    return features, labels, int(n_classes)


# ---------------------------------------------------------------------------
# Splits
# ---------------------------------------------------------------------------


def largest_remainders(shares, n: int) -> np.ndarray:
    """Integer counts summing to n in proportion to shares (which sum to 1):
    the floor of each share of n, then one more for each of the largest
    remainders, ties going to the earlier share."""
    quotas = np.asarray(shares, dtype=np.float64) * n
    counts = np.floor(quotas).astype(np.int64)
    counts[np.argsort(counts - quotas, kind="stable")[: n - int(counts.sum())]] += 1
    return counts


def auto_split(labels: np.ndarray, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Stratified 70/10/20 train/validation/test split, deterministic per rng state.

    Per-class allocation uses largest remainders, with ties going to the
    train split. A class needs 3 examples, but that does not fill every
    split: classes of 3, 4 and 5 examples split 2/0/1, 3/0/1 and 4/0/1. A
    task whose split comes out empty is rejected by build_task.
    """
    buckets: list[list[np.ndarray]] = [[], [], []]
    # np.bincount, not np.unique, which imports numpy.ma (about 1 MB of RSS) to check for a mask
    for c in np.flatnonzero(np.bincount(labels)):
        idx = rng.permutation(np.flatnonzero(labels == c))
        n_c = len(idx)
        if n_c < 3:
            raise DataError(f"class {int(c)} has {n_c} examples, fewer than the 3 splits")
        pos = 0
        for bucket, count in zip(buckets, largest_remainders(SPLIT_FRACTIONS, n_c)):
            bucket.append(idx[pos : pos + count])
            pos += count

    return {
        name: np.sort(np.concatenate(b)).astype(np.int64) if b else np.empty(0, dtype=np.int64)
        for name, b in zip(SPLIT_NAMES, buckets)
    }


def _given_splits(given, n: int) -> dict[str, np.ndarray]:
    """A manifest's explicit splits: three lists of integer indices in [0, n)
    that are disjoint and cover all n examples."""
    missing = [name for name in SPLIT_NAMES if not isinstance(given, dict) or name not in given]
    if missing:
        raise DataError(f"splits lack {', '.join(map(repr, missing))}")
    for name in SPLIT_NAMES:
        idx = given[name]
        if not isinstance(idx, list) or not all(type(i) is int and 0 <= i < n for i in idx):
            raise DataError(f"split {name!r} must list integer indices in [0, {n})")
    splits = {name: np.asarray(given[name], dtype=np.int64) for name in SPLIT_NAMES}
    seen = np.concatenate(list(splits.values()))
    # np.bincount, not np.unique, which imports numpy.ma (about 1 MB of RSS) to check for a mask
    if len(seen) != n or not np.bincount(seen, minlength=n).all():
        raise DataError(f"splits must be disjoint and cover all {n} examples")
    return splits


# ---------------------------------------------------------------------------
# Manifest + dataset assembly
# ---------------------------------------------------------------------------


def read_manifest(path: Path) -> dict:
    """The parsed manifest at path, checked: an object whose 'tasks' is a list
    of objects, each with a unique string 'id', a 'role' in ROLES and a
    string 'file', and whose 'dim', if present, is an integer >= 1. The task
    files themselves are not read."""
    manifest = read_json(path)
    if not isinstance(manifest, dict) or not isinstance(manifest.get("tasks"), list):
        raise DataError(f"{path}: manifest must be an object with a 'tasks' list")
    ids = set()
    for entry in manifest["tasks"]:
        if not isinstance(entry, dict):
            raise DataError(f"{path}: task entry {entry!r} is not an object")
        for key in ("id", "role", "file"):
            if key not in entry:
                raise DataError(f"{path}: task entry missing {key!r}")
        where = f"{path}: task {entry['id']!r}"
        for key in ("id", "file"):
            if not isinstance(entry[key], str):
                raise DataError(f"{where}: {key!r} must be a string")
        if entry["id"] in ids:
            raise DataError(f"{where}: id appears more than once")
        ids.add(entry["id"])
        if entry["role"] not in ROLES:
            raise DataError(f"{where}: role must be one of {ROLES}, got {entry['role']!r}")
    dim = manifest.get("dim", 1)
    if type(dim) is not int or dim < 1:
        raise DataError(f"{path}: 'dim' must be an integer >= 1, got {dim!r}")
    return manifest


def manifest_dim(manifest: dict, widths) -> int | None:
    """A checked manifest's feature dimension: its 'dim' if it has one, else
    the first of widths, the feature widths of its task files in listed order
    (an iterable, read no further); None for a manifest with neither."""
    if "dim" in manifest:
        return manifest["dim"]
    return next(iter(widths), None)


def load_dataset(manifest_path) -> Dataset:
    """Load and fully validate a dataset from its manifest (see assemble_dataset)."""
    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DataError(f"manifest not found: {manifest_path}")
    manifest = read_manifest(manifest_path)
    if not manifest["tasks"]:
        raise DataError(f"{manifest_path}: manifest has no tasks")

    records = []
    for entry in manifest["tasks"]:
        features, labels, n_classes = read_task_file(manifest_path.parent / entry["file"])
        if not records:
            dim = manifest_dim(manifest, [features.shape[1]])
        if features.shape[1] != dim:
            raise DataError(f"{manifest_path}: task {entry['id']!r}: feature dimension "
                            f"{features.shape[1]} != dataset dim {dim}")
        records.append({**entry, "n_classes": n_classes, "features": features, "labels": labels})
    return assemble_dataset(records, dim, manifest_path)


def assemble_dataset(records: Iterable[dict], dim: int, source) -> Dataset:
    """The Dataset of task records, each a manifest entry ("id", "role", and
    "splits" unless auto_split is to make them) with its task file's
    "n_classes", "features" and "labels", each made by build_task with class
    weights zero-padded to the largest class count."""
    records = list(records)
    c_max = max(record["n_classes"] for record in records)
    tasks = [build_task(record, c_max, source) for record in records]
    if not any(t.role == ROLE_META_TRAIN for t in tasks):
        raise DataError("dataset has no meta-training tasks")
    return Dataset(tasks=tasks, dim=int(dim), c_max=int(c_max))


def build_task(record: dict, c_max: int, source) -> Task:
    """The Task of one task record (see assemble_dataset), checked as loading
    checks it; errors name source and the task.

    Splits given as lists of indices are checked; missing ones come from
    auto_split, keyed by SPLIT_SEED and the task id. A split the task's role
    needs must not be empty. Class weights come from the train split,
    zero-padded to c_max.
    """
    where = f"{source}: task {record['id']!r}"
    labels, n_classes = record["labels"], record["n_classes"]
    try:
        if n_classes > len(labels):  # before any array is sized by a label
            raise DataError(f"{n_classes} classes for {len(labels)} examples; "
                            f"every class needs a train example")
        if "splits" in record:
            splits = _given_splits(record["splits"], len(labels))
        else:
            splits = auto_split(labels, substream(SPLIT_SEED, PURPOSE_SPLIT, record["id"]))
        # meta-training evaluates on validation; meta-test also scores on test
        needed = SPLIT_NAMES if record["role"] == ROLE_META_TEST else SPLIT_NAMES[:2]
        empty = [name for name in needed if len(splits[name]) == 0]
        if empty:
            raise DataError(f"{record['role']} task has an empty {empty[0]} split")
        weights = compute_class_weights(labels[splits["train"]], n_classes, c_max)
    except DataError as exc:
        raise DataError(f"{where}: {exc}") from None
    return Task(
        id=record["id"],
        role=record["role"],
        n_classes=n_classes,
        features=record["features"],
        labels=labels,
        splits=splits,
        class_weights=weights,
    )


def write_dataset(records: Iterable[dict], dim: int, out_dir) -> Path:
    """Write each task record (see assemble_dataset) to a TMXF file as it
    arrives, then the manifest of all of them. A record's keys other than its
    file's contents, such as synth's "centroids", go into its manifest entry.

    An existing manifest is removed first, so a write interrupted over an
    older corpus leaves no manifest, not the old one over some new tasks."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_path = out_dir / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    entries = []
    for record in records:
        entry = {k: v for k, v in record.items() if k not in ("n_classes", "features", "labels")}
        entry["file"] = f"{record['id']}.tmxf"
        write_task_file(out_dir / entry["file"], record["features"], record["labels"],
                        record["n_classes"])
        entries.append(entry)
        del record  # free this task before the next is drawn
    manifest = {"dim": dim, "tasks": entries}
    write_text_atomic(manifest_path, json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


def read_json(path: Path, error=DataError):
    """The parsed JSON of the file at path. error (an exception class) naming
    path if the file cannot be read or is not UTF-8 JSON."""
    try:
        return json.loads(path.read_text())
    except OSError as exc:  # a directory, say
        raise error(f"{path}: cannot read ({exc.strerror})") from exc
    except ValueError as exc:  # JSONDecodeError or UnicodeDecodeError
        raise error(f"{path}: invalid JSON ({exc})") from exc


def write_text_atomic(path: Path, text: str) -> None:
    """Write to a temp file in the same directory, then rename it over path:
    an interrupted run leaves the old file or none, never a truncated one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def empty_batch(task: Task, rows_shape: tuple, units: tuple = ()) -> Batch:
    """Unfilled arrays for batches of a task's shape: x [*units, *rows_shape, D],
    y [*units, *rows_shape, C_max] and w [*units, C_max]."""
    width = len(task.class_weights)
    return Batch(
        x=np.empty((*units, *rows_shape, task.dim), task.features.dtype),
        y=np.empty((*units, *rows_shape, width), np.float32),
        w=np.empty((*units, width), np.float32),
    )


def gather_batch(task: Task, rows: np.ndarray, out: Batch | None = None) -> Batch:
    """The given rows (indices of any shape) of a task: x [*rows.shape, D], y
    one-hot to C_max width, w the class weights in float32. Written into out's
    arrays if given, one pass each.

    The rows must index the task: sample_rows and the splits that load_dataset
    checked give only such indices.
    """
    if out is None:
        out = empty_batch(task, rows.shape)
    np.take(task.features, rows, axis=0, out=out.x, mode="clip")  # "clip": see one_hot
    one_hot(task.labels[rows], len(task.class_weights), out=out.y)
    out.w[...] = task.class_weights
    return out


def sample_rows(
    task: Task, split: str, batch_size: int, rng: np.random.Generator
) -> np.ndarray:
    """batch_size row indices drawn uniformly, with replacement, from the split."""
    pool = task.splits[split]
    return pool[rng.integers(0, len(pool), size=int(batch_size))]


def full_split_batch(task: Task, split: str) -> Batch:
    """The entire split as one batch; used for rng-free evaluation passes."""
    return gather_batch(task, task.splits[split])


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def read_csv_features(csv_path) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse `label,f0,...,f{D-1}` rows into (features, labels, n_classes)."""
    csv_path = Path(csv_path)
    try:
        fh = open(csv_path, newline="", errors="replace")  # U+FFFD fails every field's check
    except OSError as exc:
        raise DataError(f"{csv_path}: cannot read CSV file ({exc.strerror})") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{csv_path}: empty file") from None
        if not header or header[0] != "label":
            raise DataError(f"{csv_path}: first column must be 'label'")
        dim = len(header) - 1
        if dim < 1 or header[1:] != [f"f{i}" for i in range(dim)]:
            raise DataError(f"{csv_path}: feature columns must be f0..f{dim - 1}")
        labels, rows = [], []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != dim + 1:
                raise DataError(f"{csv_path}:{line_no}: expected {dim + 1} fields, got {len(row)}")
            try:
                labels.append(int(row[0]))
                rows.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise DataError(f"{csv_path}:{line_no}: non-numeric value ({exc})") from exc
            if not 0 <= labels[-1] < 2**32 - 1:  # n_classes = max label + 1 is a u32
                raise DataError(f"{csv_path}:{line_no}: label {labels[-1]} is negative or "
                                f"too large")
    if not rows:
        raise DataError(f"{csv_path}: no data rows")
    labels_arr = np.asarray(labels, dtype=np.int64)
    with np.errstate(over="ignore"):  # out-of-range values become inf, rejected below
        features = np.asarray(rows, dtype=np.float32)
    row = _nonfinite_row(features)
    if row is not None:
        raise DataError(f"{csv_path}:{row + 2}: feature value is not a finite float32")
    return features, labels_arr, int(labels_arr.max()) + 1
