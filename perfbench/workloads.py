"""The benchmark's workloads: corpus, configuration and one measured round each.

All three are closed loops in one process: one cell runs after another and
the next round starts when the previous one has returned its scores. A
workload seed s names ``corpora`` corpus seeds (s*corpora ... s*corpora +
corpora-1); each is turned into a corpus by ``taskmix synth`` and also
seeds training on it, so the workload seed fixes every input. Averaging
quality over a few corpora keeps one odd corpus from setting ``macro_f1``.

A round runs one corpus; round r uses corpus r mod ``corpora``. Its
``wall_s`` runs from "dataset ready" to "final scores on disk or in hand".
A round that repeats a corpus must reproduce its scores bit for bit.

Sizes are cut from the desk configuration of ``tests/test_acceptance.py``
so that several rounds fit in one run: meta-training runs the first few
outer steps of the desk schedule (200-step cosine), not hundreds; the
evaluation cadence does not change the trajectory. Where a workload
measures throughput rather than the stopping rule, its patience is larger
than its evaluation count, so the rule is evaluated at every check but each
round does the same work whatever the seed.
"""

from __future__ import annotations

import copy
import io
import json
import math
import shutil
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

METHODS = (
    "mtl",
    "vanilla",
    "maml",
    "maml+metamix",
    "maml+taskmix",
    "maml+metamix+taskmix",
)

# The acceptance suite's desk configuration ([64,64], B=128).
DESK = {
    "model": {"hidden": [64, 64]},
    "meta": {
        "inner_lr": 0.01,
        "inner_steps": 5,
        "batch_size": 128,
        "grad_mode": "first_order",
        "max_steps": 200,
        "eval_every": 20,
        "patience": 5,
    },
    "schedule": {"lr_max": 0.003, "lr_min": 0.0, "max_step": 200},
    "finetune": {"lr": 0.01, "max_steps": 150, "eval_every": 10, "patience": 6},
    "mix": {"eta": 0.5},
}

# Toy size for the harness self-check: every code path, almost no work.
TOY = {
    "model": {"hidden": [8]},
    "meta": {"inner_steps": 2, "batch_size": 16, "max_steps": 2, "eval_every": 1, "patience": 1},
    "finetune": {"max_steps": 3, "eval_every": 1, "patience": 1},
}


def _merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict):
            out[key] = _merge(out.get(key, {}), value)
        else:
            out[key] = value
    return out


@dataclass
class Round:
    """One measured pass: time to result plus every score it produced."""

    wall_s: float
    # "cell" -> its average macro F1, "cell/task" -> that task's macro F1
    scores: dict[str, float] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def cells(self) -> dict[str, float]:
        return {key: value for key, value in self.scores.items() if "/" not in key}


@dataclass
class Context:
    """The inputs of one corpus, shared by every round that runs it."""

    seed: int
    work: Path
    manifest: Path
    dataset: object
    config: dict
    config_path: Path


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    scale: float
    why: str
    corpora: int
    overrides: dict
    run_round: Callable[[Context], Round]

    def corpus_seeds(self, seed: int) -> list[int]:
        return [seed * self.corpora + k for k in range(self.corpora)]

    def config(self, seed: int, toy: bool) -> dict:
        cfg = _merge(DESK, self.overrides)
        if toy:
            cfg = _merge(cfg, TOY)
        cfg["seeds"] = [seed]
        return cfg


def synth_corpus(preset: str, scale: float, seed: int, out: Path) -> Path:
    """`taskmix synth` in process; returns the manifest path."""
    from taskmix import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(["synth", "--preset", preset, "--scale", str(scale),
                         "--seed", str(seed), "--out", str(out)])
    if code != 0:
        raise RuntimeError(f"taskmix synth exited {code}: {err.getvalue().strip()}")
    return out / "manifest.json"


def _matrix_round(ctx: Context) -> Round:
    """`taskmix experiment` over all six methods and one seed, as a user runs it."""
    from taskmix import cli

    out = ctx.work / "experiment"
    shutil.rmtree(out, ignore_errors=True)  # a leftover cell would be resumed, not rerun
    argv = ["experiment", "--methods", ",".join(METHODS), "--config", str(ctx.config_path),
            "--dataset", str(ctx.manifest), "--out", str(out)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments this way
            code = exc.code
        wall = time.perf_counter() - start
    result = Round(wall_s=wall)
    if code != 0:
        result.failures.append(f"experiment exited {code}: {err.getvalue().strip()}")
        return result
    try:
        rows = json.loads((out / "report.json").read_text())
        reported = sorted(row["method"] for row in rows)
        if reported != sorted(METHODS):
            result.failures.append(f"report rows {reported} != one per method {sorted(METHODS)}")
        for method in METHODS:
            cell = json.loads((out / "results" / method / f"seed_{ctx.seed}.json").read_text())
            result.scores[method] = cell["average_macro_f1"]
            for task_id, score in cell["per_task"].items():
                result.scores[f"{method}/{task_id}"] = score
    except (OSError, ValueError, KeyError, TypeError) as exc:
        result.failures.append(f"unreadable experiment output: {exc!r}")
    shutil.rmtree(out, ignore_errors=True)
    return result


def _driver_round(ctx: Context) -> Round:
    """meta_train, then finetune + evaluate_model per meta-test task."""
    from taskmix import config, metrics, training

    cfg = config.from_dict(ctx.config)
    cfg.validate()
    cell = ctx.config["method"]
    start = time.perf_counter()
    model = training.meta_train(ctx.dataset, cfg, ctx.seed)
    per_task = {}
    for task in ctx.dataset.meta_test_tasks:
        tuned = training.finetune(model.params, task, cfg)
        per_task[task.id] = metrics.evaluate_model(tuned.params, task)
    wall = time.perf_counter() - start
    average = sum(per_task.values()) / len(per_task) if per_task else math.nan
    scores = {cell: average, **{f"{cell}/{k}": v for k, v in per_task.items()}}
    return Round(wall_s=wall, scores=scores)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long-matrix",
            preset="long",
            scale=0.05,
            why=("The user's path: taskmix experiment, 6 methods x 1 seed on the long corpus "
                 "with early stopping in force; cli, config, cell I/O, mtl, vanilla, "
                 "24 fine-tunes."),
            corpora=4,
            # desk config cut to 20 outer steps so four to six matrices fit in a run;
            # the meta-train rule is checked every 4 steps and can stop a cell from step
            # 15. Fine-tunes stop early, so their work varies by corpus: four corpora
            # average it out.
            overrides={
                "meta": {"max_steps": 20, "eval_every": 4, "patience": 3},
            },
            run_round=_matrix_round,
        ),
        Workload(
            name="wide-taskmix",
            preset="wide",
            scale=0.05,
            why=("maml+taskmix on the wide corpus (54 train tasks, 108 units per outer step) at "
                 "desk shape: per-call Python overhead dominates; flat buffer and task batching "
                 "move it."),
            corpora=2,
            # patience above the number of evaluations: same work every round
            overrides={
                "method": "maml+taskmix",
                "meta": {"augmentation": "taskmix", "max_steps": 10, "eval_every": 5,
                         "patience": 3},
                "finetune": {"patience": 16},
            },
            run_round=_driver_round,
        ),
        Workload(
            name="long-exact",
            preset="long",
            scale=0.05,
            why=("maml+metamix, grad_mode=exact, [256,256], B=512 on the long corpus: the only "
                 "loss_hvp path; array-bound, so call-overhead work stays flat and array work "
                 "moves it."),
            corpora=3,
            # one outer step (about 2.3 s on a 2-core x86 VM); fine-tune runs all 150 steps
            overrides={
                "method": "maml+metamix",
                "model": {"hidden": [256, 256]},
                "meta": {"batch_size": 512, "grad_mode": "exact", "augmentation": "metamix",
                         "max_steps": 1, "eval_every": 1, "patience": 2},
                "finetune": {"patience": 16},
            },
            run_round=_driver_round,
        ),
    )
}
