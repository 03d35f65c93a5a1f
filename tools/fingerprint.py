"""Bit-identity fingerprint of the engine's training results.

    python3 tools/fingerprint.py

Trains on two tiny synthetic corpora (an easy and a noisy one: the tasks of
`synth.task_records`, built into a dataset by `data.assemble_dataset`) and
prints one sha256 per case, then a total over all cases. A training case
hashes the exact bytes of what a stage returns: the trained parameter vector,
the history records, stopped_at, best_step and best_value. Cases:

  * the corpus: the name and bytes of every file `data.write_dataset` writes
    for the corpus's spec (into a temporary directory, removed after);
  * meta_train for every augmentation x grad_mode, at hidden [] (head only),
    [8] and [8, 6, 5], with patience 3 and 1;
  * mtl_train;
  * finetune of each meta-test task from the meta-trained and the initial
    parameters;
  * run_method for every method under both grad modes. Macro F1 on these
    tiny test splits is coarse (on the easy corpus every method scores the
    same), so a case hashes the trial's seed record together with the
    parameter vector of every model it scores. It guards the trial's
    wiring: the training phase and augmentation each method runs, that
    fine-tuning starts from its result, and that each held-out task is
    fine-tuned and scored. mtl and vanilla ignore grad_mode, so their two
    lines agree.

Two source trees give the same results exactly when they print the same
lines, so run it before and after a change that must not move any number.
It takes no flags and leaves no files behind.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from taskmix.config import AUGMENTATIONS, METHODS, from_dict  # noqa: E402
from taskmix import evaluation  # noqa: E402
from taskmix.data import assemble_dataset, write_dataset  # noqa: E402
from taskmix.nn import GRAD_MODES  # noqa: E402
from taskmix.synth import SynthSpec, task_records  # noqa: E402
from taskmix.training import finetune, initial_params, meta_train, mtl_train  # noqa: E402

CORPORA = {
    "easy": dict(noise_scale=0.4, seed=7),
    "noisy": dict(noise_scale=2.0, seed=8),
}


def corpus_spec(noise_scale: float, seed: int) -> SynthSpec:
    return SynthSpec(n_train_tasks=3, n_test_tasks=2, classes_min=2, classes_max=3,
                     examples_per_task=48, dim=6, palette_size=4,
                     noise_scale=noise_scale, seed=seed)


def config(hidden=(8,), patience=3, grad_mode="first_order", augmentation="none"):
    cfg = from_dict({
        "model": {"hidden": list(hidden)},
        "meta": {"inner_lr": 0.05, "inner_steps": 2, "batch_size": 16, "max_steps": 12,
                 "eval_every": 2, "patience": patience, "grad_mode": grad_mode,
                 "augmentation": augmentation},
        "schedule": {"lr_max": 0.01, "lr_min": 0.0, "max_step": 12},
        "finetune": {"lr": 0.02, "max_steps": 20, "eval_every": 5, "patience": 4},
    })
    cfg.validate()
    return cfg


def digest(*parts) -> str:
    """sha256 of raw bytes and of JSON (floats as their exact repr) for the rest."""
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else json.dumps(part, sort_keys=True).encode())
    return h.hexdigest()


def corpus_digest(spec: SynthSpec) -> str:
    """sha256 of the name and bytes of each file write_dataset writes for spec."""
    with tempfile.TemporaryDirectory() as tmp:
        write_dataset(task_records(spec), spec.dim, tmp)
        return digest(*(part for path in sorted(Path(tmp).iterdir())
                        for part in (path.name, path.read_bytes())))


def model_digest(model) -> str:
    flat = model.params.flat
    return digest(flat.dtype.str, flat.tobytes(), model.history, model.stopped_at,
                  model.best_step, model.best_value)


def trial_digest(ds, method: str, cfg) -> str:
    """sha256 of run_method's seed record and of every model it scores."""
    scored = []
    score = evaluation.evaluate_model

    def recording_score(params, task):
        scored.append(params.flat.tobytes())
        return score(params, task)

    evaluation.evaluate_model = recording_score
    try:
        record = evaluation.run_method(ds, method, cfg, seed=1)
    finally:
        evaluation.evaluate_model = score
    return digest(record["seed"], record["per_task"], record["average_macro_f1"], *scored)


def cases():
    """(name, sha256) of every case, in a fixed order."""
    for name, kwargs in CORPORA.items():
        spec = corpus_spec(**kwargs)
        yield f"{name} corpus", corpus_digest(spec)
        ds = assemble_dataset(task_records(spec), spec.dim, f"synth seed {spec.seed}")
        for hidden in ((), (8,), (8, 6, 5)):
            for patience in (3, 1):
                for grad_mode in GRAD_MODES:
                    for aug in AUGMENTATIONS:
                        cfg = config(hidden, patience, grad_mode, aug)
                        model = meta_train(ds, cfg, seed=0)
                        tag = f"{name} meta_train hidden={list(hidden)} patience={patience}"
                        yield f"{tag} {grad_mode} {aug}", model_digest(model)
        cfg = config()
        yield f"{name} mtl_train", model_digest(mtl_train(ds, cfg, seed=0))
        starts = {"trained": meta_train(ds, cfg, seed=0).params,
                  "initial": initial_params(ds, cfg, seed=0)}
        for start, theta in starts.items():
            for task in ds.meta_test_tasks:
                yield f"{name} finetune {start} {task.id}", model_digest(finetune(theta, task, cfg))
        for grad_mode in GRAD_MODES:
            for method in METHODS:
                yield (f"{name} run_method {method} {grad_mode}",
                       trial_digest(ds, method, config(grad_mode=grad_mode)))


def main() -> int:
    total = hashlib.sha256()
    for name, sha in cases():
        print(f"{sha}  {name}")
        total.update(sha.encode())
    print(f"{total.hexdigest()}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
