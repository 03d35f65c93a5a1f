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
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError, UsageError

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
class Splits:
    train: np.ndarray
    validation: np.ndarray
    test: np.ndarray

    def get(self, name: str) -> np.ndarray:
        if name not in SPLIT_NAMES:
            raise UsageError(f"unknown split {name!r}")
        return getattr(self, name)

    def as_lists(self) -> dict[str, list[int]]:
        return {name: [int(i) for i in self.get(name)] for name in SPLIT_NAMES}


@dataclass
class Task:
    id: str
    role: str
    n_classes: int
    features: np.ndarray  # [n, D] float32
    labels: np.ndarray  # [n] int64, values in [0, n_classes)
    splits: Splits
    class_weights: np.ndarray  # [C_max] float64, zero beyond n_classes
    metadata: dict = field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


@dataclass
class Batch:
    """One sampled training unit: features, soft labels, class weights."""

    x: np.ndarray  # [B, D]
    y: np.ndarray  # [B, C_max], rows sum to 1
    w: np.ndarray  # [C_max]


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


def one_hot(labels: np.ndarray, width: int, dtype=np.float32) -> np.ndarray:
    out = np.zeros((len(labels), width), dtype=dtype)
    out[np.arange(len(labels)), labels] = 1.0
    return out


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
    record = np.dtype([("label", "<u4"), ("feat", "<f4", (dim,))])
    expected = _HEADER.size + n * record.itemsize
    if len(raw) != expected:
        raise DataError(f"{path}: expected {expected} bytes, found {len(raw)}")
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


def auto_split(labels: np.ndarray, rng: np.random.Generator) -> Splits:
    """Stratified 70/10/20 train/validation/test split, deterministic per rng state.

    Per-class allocation uses largest remainders, with ties going to the
    train split; a class needs at least one example per split.
    """
    buckets: list[list[np.ndarray]] = [[], [], []]
    for c in np.unique(labels):
        idx = rng.permutation(np.flatnonzero(labels == c))
        n_c = len(idx)
        if n_c < 3:
            raise DataError(f"class {int(c)} has {n_c} examples, fewer than the 3 splits")
        base = [int(np.floor(f * n_c)) for f in SPLIT_FRACTIONS]
        remainders = [f * n_c - b for f, b in zip(SPLIT_FRACTIONS, base)]
        for _ in range(n_c - sum(base)):
            k = int(np.argmax(remainders))
            base[k] += 1
            remainders[k] = -1.0
        pos = 0
        for k in range(3):
            buckets[k].append(idx[pos : pos + base[k]])
            pos += base[k]

    parts = [
        np.sort(np.concatenate(b)) if b else np.empty(0, dtype=np.int64)
        for b in buckets
    ]
    return Splits(*[p.astype(np.int64) for p in parts])


def _given_splits(given, n: int, where: str) -> Splits:
    """A manifest's explicit splits: three lists of integer indices in [0, n)
    that are disjoint and cover all n examples."""
    missing = [name for name in SPLIT_NAMES if not isinstance(given, dict) or name not in given]
    if missing:
        raise DataError(f"{where}: splits lack {', '.join(map(repr, missing))}")
    for name in SPLIT_NAMES:
        idx = given[name]
        if not isinstance(idx, list) or not all(type(i) is int and 0 <= i < n for i in idx):
            raise DataError(f"{where}: split {name!r} must list integer indices in [0, {n})")
    splits = Splits(*[np.asarray(given[name], dtype=np.int64) for name in SPLIT_NAMES])
    seen = np.concatenate([splits.train, splits.validation, splits.test])
    if len(seen) != n or len(np.unique(seen)) != n:
        raise DataError(f"{where}: splits must be disjoint and cover all {n} examples")
    return splits


# ---------------------------------------------------------------------------
# Manifest + dataset assembly
# ---------------------------------------------------------------------------


def load_dataset(manifest_path) -> Dataset:
    """Load and fully validate a dataset from its manifest.

    Tasks without explicit splits in the manifest are split here (see
    auto_split), keyed by SPLIT_SEED and the task id. Class weights are
    always recomputed from the train split.
    """
    from .rng import PURPOSE_SPLIT, substream

    manifest_path = Path(manifest_path)
    if not manifest_path.exists():
        raise DataError(f"manifest not found: {manifest_path}")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{manifest_path}: invalid JSON ({exc})") from exc
    if not isinstance(manifest, dict) or "tasks" not in manifest:
        raise DataError(f"{manifest_path}: manifest must be an object with a 'tasks' list")

    entries = manifest["tasks"]
    if not isinstance(entries, list) or not entries:
        raise DataError(f"{manifest_path}: manifest has no tasks")
    dim = manifest.get("dim")

    raw_tasks, ids = [], set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise DataError(f"{manifest_path}: task entry {entry!r} is not an object")
        for key in ("id", "role", "file"):
            if key not in entry:
                raise DataError(f"{manifest_path}: task entry missing {key!r}")
        where = f"{manifest_path}: task {entry['id']!r}"
        for key in ("id", "file"):
            if not isinstance(entry[key], str):
                raise DataError(f"{where}: {key!r} must be a string")
        if entry["id"] in ids:
            raise DataError(f"{where}: id appears more than once")
        ids.add(entry["id"])
        if entry["role"] not in ROLES:
            raise DataError(f"{where}: role must be one of {ROLES}, got {entry['role']!r}")
        features, labels, n_classes = read_task_file(manifest_path.parent / entry["file"])
        if dim is None:
            dim = features.shape[1]
        if features.shape[1] != dim:
            raise DataError(
                f"{where}: feature dimension {features.shape[1]} != dataset dim {dim}"
            )
        raw_tasks.append((entry, where, features, labels, n_classes))

    c_max = max(n_classes for *_, n_classes in raw_tasks)

    tasks = []
    for entry, where, features, labels, n_classes in raw_tasks:
        if "splits" in entry:
            splits = _given_splits(entry["splits"], len(labels), where)
        else:
            splits = auto_split(labels, substream(SPLIT_SEED, PURPOSE_SPLIT, entry["id"]))
        # meta-training evaluates on validation; meta-test also scores on test
        needed = SPLIT_NAMES if entry["role"] == ROLE_META_TEST else SPLIT_NAMES[:2]
        empty = [name for name in needed if len(splits.get(name)) == 0]
        if empty:
            raise DataError(f"{where}: {entry['role']} task has an empty {empty[0]} split")
        weights = compute_class_weights(labels[splits.train], n_classes, c_max)
        metadata = {
            k: entry[k] for k in ("language", "domain") if k in entry
        }
        tasks.append(
            Task(
                id=entry["id"],
                role=entry["role"],
                n_classes=n_classes,
                features=features,
                labels=labels,
                splits=splits,
                class_weights=weights,
                metadata=metadata,
            )
        )

    if not any(t.role == ROLE_META_TRAIN for t in tasks):
        raise DataError("dataset has no meta-training tasks")
    return Dataset(tasks=tasks, dim=int(dim), c_max=int(c_max))


def write_dataset(dataset: Dataset, out_dir) -> Path:
    """Write one TMXF file per task plus a manifest carrying explicit splits."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    entries = []
    for task in dataset.tasks:
        filename = f"{task.id}.tmxf"
        write_task_file(out_dir / filename, task.features, task.labels, task.n_classes)
        entry = {
            "id": task.id,
            "role": task.role,
            "file": filename,
            "splits": task.splits.as_lists(),
        }
        entry.update(task.metadata)
        entries.append(entry)
    manifest = {"dim": dataset.dim, "tasks": entries}
    manifest_path = out_dir / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True))
    return manifest_path


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def sample_batch(
    task: Task, split: str, batch_size: int, rng: np.random.Generator
) -> Batch:
    """Uniform draw with replacement; labels one-hot encoded to C_max width."""
    pool = task.splits.get(split)
    if len(pool) == 0:
        raise UsageError(f"task {task.id}: split {split!r} is empty")
    rows = pool[rng.integers(0, len(pool), size=int(batch_size))]
    width = len(task.class_weights)
    return Batch(
        x=task.features[rows],
        y=one_hot(task.labels[rows], width),
        w=task.class_weights.astype(np.float32),
    )


def full_split_batch(task: Task, split: str) -> Batch:
    """The entire split as one batch; used for rng-free evaluation passes."""
    pool = task.splits.get(split)
    if len(pool) == 0:
        raise UsageError(f"task {task.id}: split {split!r} is empty")
    width = len(task.class_weights)
    return Batch(
        x=task.features[pool],
        y=one_hot(task.labels[pool], width),
        w=task.class_weights.astype(np.float32),
    )


# ---------------------------------------------------------------------------
# CSV ingestion
# ---------------------------------------------------------------------------


def read_csv_features(csv_path) -> tuple[np.ndarray, np.ndarray, int]:
    """Parse `label,f0,...,f{D-1}` rows into (features, labels, n_classes)."""
    csv_path = Path(csv_path)
    try:
        fh = open(csv_path, newline="")
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
