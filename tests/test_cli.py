"""Command-line behavior: files written, exit codes, overrides, resume."""

import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import taskmix
from taskmix import cli, data
from taskmix.cli import _resolve_config, build_parser, main
from taskmix.config import RunConfig, from_dict, leaf_types, to_dict
from taskmix.data import load_dataset, read_task_file, write_task_file
from taskmix.evaluation import train_phase

from util import tiny_config, write_tiny


def write_config(tmp_path: Path, **sections) -> Path:
    cfg = tiny_config(**sections)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(to_dict(cfg)))
    return path


def write_tiny_dataset(tmp_path: Path, seed=30) -> Path:
    return write_tiny(tmp_path / "data", seed=seed)


def read_bytes_map(root: Path) -> dict:
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_synth_writes_reproducible_dataset(tmp_path, capsys):
    argv = ["synth", "--preset", "long", "--scale", "0.05", "--seed", "0"]
    assert main(argv + ["--out", str(tmp_path / "a")]) == 0
    assert main(argv + ["--out", str(tmp_path / "b")]) == 0
    printed = capsys.readouterr().out.splitlines()
    assert printed[0].endswith("manifest.json")

    a = read_bytes_map(tmp_path / "a")
    b = read_bytes_map(tmp_path / "b")
    assert list(a) == list(b)
    assert all(a[k] == b[k] for k in a)

    ds = load_dataset(tmp_path / "a" / "manifest.json")
    assert len(ds.tasks) == 11
    assert ds.dim == 64


def test_synth_rejects_unknown_preset(tmp_path):
    with pytest.raises(SystemExit) as err:
        main(["synth", "--preset", "tall", "--out", str(tmp_path)])
    assert err.value.code == 2


@pytest.mark.parametrize("scale", ["0", "1.5", "0.001"])
def test_synth_rejects_a_scale_outside_the_budget_or_too_small(tmp_path, scale):
    # (0, 1] is preset's range; 0.001 leaves the long corpus 7 rows a task,
    # fewer than its splits need
    assert main(["synth", "--preset", "long", "--scale", scale,
                 "--out", str(tmp_path / "d")]) == 2
    assert not (tmp_path / "d").exists()


def test_synth_holds_one_task_at_a_time(tmp_path):
    # the 11 tasks of long at scale 0.2 write 3.9 MB of features; making them
    # all before writing any peaked at 1.8 times that
    out = tmp_path / "d"
    tracemalloc.start()
    try:
        assert main(["synth", "--preset", "long", "--scale", "0.2", "--seed", "0",
                     "--out", str(out)]) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    written = sum(read_task_file(path)[0].nbytes for path in out.glob("*.tmxf"))
    assert peak < written


def test_interrupted_synth_over_a_corpus_leaves_no_manifest(tmp_path, monkeypatch, capsys):
    # the old manifest outlived the interruption and loaded seed 1's first
    # three tasks under seed 0's splits, as one corpus
    out = tmp_path / "d"
    argv = ["synth", "--preset", "long", "--out", str(out)]
    assert main(argv + ["--seed", "0"]) == 0
    written = []

    def write_three(path, *arrays):
        if len(written) == 3:
            raise KeyboardInterrupt
        write_task_file(path, *arrays)
        written.append(path)

    monkeypatch.setattr(data, "write_task_file", write_three)
    with pytest.raises(KeyboardInterrupt):
        main(argv + ["--seed", "1"])
    monkeypatch.undo()
    capsys.readouterr()
    assert main(["train", "--config", str(write_config(tmp_path)), "--meta.max_steps", "0",
                 "--dataset", str(out / "manifest.json"), "--out", str(tmp_path / "run")]) == 3
    assert "manifest not found" in capsys.readouterr().err


def csv_text(rows):
    return "\n".join(["label,f0,f1"] + rows) + "\n"


def loadable_rows(width=2):
    """CSV body rows of a task that loads in either role: two classes of six
    rows, which split 4/1/1 each."""
    return [",".join([str(i % 2), *(f"{i + f}.5" for f in range(width))]) for i in range(12)]


@pytest.mark.parametrize("role", ["meta_train", "meta_test"])
@pytest.mark.parametrize("labels, message", [
    ([0, 7] * 20, "class 1 has no examples"),
    ([0] * 20 + [1] * 2, "class 1 has 2 examples, fewer than the 3 splits"),
], ids=["class-skipped", "class-of-two"])
def test_convert_rejects_a_task_that_loading_rejects(tmp_path, capsys, role, labels, message):
    # such a task would enter a corpus that no load then reads
    csv = tmp_path / "task.csv"
    csv.write_text(csv_text([f"{label},{i}.0,{i}.5" for i, label in enumerate(labels)]))
    out = tmp_path / "ds"
    assert main(["convert", "--csv", str(csv), "--id", "t0", "--role", role,
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{csv}: task 't0': " in err and message in err
    assert not out.exists()  # nothing written, --out not made


def test_convert_with_more_classes_than_rows_is_rejected_before_sizing_by_label(tmp_path,
                                                                               capsys):
    # n_classes is the largest label + 1: auto_split's bincount would take
    # 34 GB here, so the class count is checked against the rows first
    csv = tmp_path / "task.csv"
    csv.write_text(csv_text([f"{label},0.0,0.5" for label in (0, 4294967294, 0, 0)]))
    out = tmp_path / "ds"
    assert main(["convert", "--csv", str(csv), "--id", "t0", "--role", "meta_train",
                 "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert f"{csv}: task 't0': 4294967295 classes for 4 examples" in err
    assert not out.exists()


def test_convert_roundtrip(tmp_path, capsys):
    csv = tmp_path / "task.csv"
    csv.write_text(csv_text(loadable_rows()))
    out = tmp_path / "ds"
    code = main(["convert", "--csv", str(csv), "--id", "t0", "--role", "meta_train",
                 "--out", str(out)])
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["dim"] == 2
    assert manifest["tasks"][0] == {"id": "t0", "role": "meta_train", "file": "t0.tmxf"}

    # same id again is refused
    code = main(["convert", "--csv", str(csv), "--id", "t0", "--role", "meta_train",
                 "--out", str(out)])
    assert code == 3

    # a second task with another width is refused
    wide = tmp_path / "wide.csv"
    wide.write_text("label,f0,f1,f2\n0,1,2,3\n1,4,5,6\n")
    code = main(["convert", "--csv", str(wide), "--id", "t1", "--role", "meta_test",
                 "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert "dimension" in err


@pytest.mark.parametrize("task_id", ["", ".", "..", "sub/x", "../escaped", "x/"])
def test_convert_id_must_be_a_plain_file_name(tmp_path, capsys, task_id):
    csv = tmp_path / "task.csv"
    csv.write_text(csv_text(["0,1.0,2.0", "1,3.0,4.0", "0,5.0,6.0", "1,0.5,0.25"]))
    code = main(["convert", "--csv", str(csv), "--id", task_id, "--role", "meta_train",
                 "--out", str(tmp_path / "ds")])
    assert code == 2
    assert "--id" in capsys.readouterr().err
    assert [p.name for p in tmp_path.rglob("*")] == ["task.csv"]  # nothing written


def test_convert_reports_line_numbers(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text(csv_text(["0,1.0,2.0", "1,oops,4.0"]))
    code = main(["convert", "--csv", str(csv), "--id", "x", "--role", "meta_train",
                 "--out", str(tmp_path / "ds")])
    assert code == 3
    assert ":3:" in capsys.readouterr().err


def history_lines(out: Path) -> list[str]:
    """history.jsonl's lines, each checked to be one step record in sorted-key
    JSON, and the records numbered 0, 1, ... in order."""
    lines = (out / "history.jsonl").read_text().splitlines()
    assert all(line == json.dumps(json.loads(line), sort_keys=True) for line in lines)
    assert [json.loads(line)["step"] for line in lines] == list(range(len(lines)))
    return lines


def test_train_writes_model_and_history(tmp_path):
    manifest = write_tiny_dataset(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    argv = ["train", "--config", str(cfg), "--dataset", str(manifest),
            "--out", str(out), "--method", "maml"]
    code = main(argv)
    assert code == 0
    model = json.loads((out / "model.json").read_text())
    assert {"layers", "head"} <= set(model)
    assert len(model["layers"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "maml"
    assert "stopped_at" in summary
    saved = json.loads((out / "config.json").read_text())
    assert saved["method"] == "maml"
    # model.json's arrays in layout order are the trained float32 vector, exactly
    arrays = [layer[k] for layer in model["layers"] for k in ("weight", "bias", "slope")]
    arrays += [model["head"]["weight"], model["head"]["bias"]]
    saved_vector = np.concatenate([np.ravel(a) for a in arrays])
    params = train_phase(load_dataset(manifest), "maml", from_dict(saved), summary["seed"]).params
    assert params.flat.dtype == np.float32
    assert np.array_equal(saved_vector, params.flat)
    # one line per step run
    assert len(history_lines(out)) == summary["stopped_at"] > 0
    # no steps: an empty history
    assert main(argv + ["--meta.max_steps", "0"]) == 0
    assert (out / "history.jsonl").read_text() == ""


@pytest.mark.parametrize("source", ["file", "flag"])
def test_partial_schedule_section_fills_in_defaults(tmp_path, source):
    manifest = write_tiny_dataset(tmp_path, seed=33)
    data = to_dict(tiny_config())
    if source == "file":
        data["schedule"] = {"max_step": 8}
        flags = []
    else:
        del data["schedule"]
        flags = ["--schedule.max_step", "8"]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--dataset", str(manifest),
                 "--out", str(out), "--method", "maml", *flags])
    assert code == 0
    saved = json.loads((out / "config.json").read_text())
    assert saved["schedule"] == {"lr_max": 0.001, "lr_min": 0.0, "max_step": 8}


def test_train_mtl_branch(tmp_path):
    manifest = write_tiny_dataset(tmp_path, seed=31)
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--dataset", str(manifest),
                 "--out", str(out), "--method", "mtl"])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "mtl"
    # the same bookkeeping as the meta-learning methods
    assert {"stopped_at", "best_step", "best_value"} <= set(summary)
    assert summary["stopped_at"] == len((out / "history.jsonl").read_text().splitlines())


def test_train_vanilla_has_no_training_phase(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=32)
    cfg = write_config(tmp_path)
    code = main(["train", "--config", str(cfg), "--dataset", str(manifest),
                 "--out", str(tmp_path / "run"), "--method", "vanilla"])
    assert code == 2
    assert "vanilla" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_train_requires_dataset(tmp_path, capsys):
    cfg = write_config(tmp_path)
    code = main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "dataset" in capsys.readouterr().err


def test_unknown_config_key_is_named(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"meta": {"iner_lr": 0.1}}))
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "meta.iner_lr" in capsys.readouterr().err
    # the removed coefficient pin is an unknown key like any other
    bad.write_text(json.dumps({"mix": {"force_lambda": 1.0}}))
    code = main(["train", "--config", str(bad), "--out", str(tmp_path / "run")])
    assert code == 2
    assert "mix.force_lambda" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["train", "--config", str(tmp_path / "absent.json")])
    assert code == 2
    assert "not found" in capsys.readouterr().err


def test_override_flags_are_typed(tmp_path):
    manifest = write_tiny_dataset(tmp_path, seed=33)
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--dataset", str(manifest),
                 "--out", str(out), "--method", "maml",
                 "--meta.inner_lr", "0.02", "--model.hidden", "4,4",
                 "--mix.n_synthetic", "none", "--seeds", "1"])
    assert code == 0
    saved = json.loads((out / "config.json").read_text())
    assert saved["meta"]["inner_lr"] == 0.02
    assert saved["model"]["hidden"] == [4, 4]
    assert saved["mix"]["n_synthetic"] is None
    assert saved["seeds"] == [1]
    assert json.loads((out / "summary.json").read_text())["seed"] == 1


def test_override_flag_type_error(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=34)
    code = main(["train", "--dataset", str(manifest), "--out", str(tmp_path / "r"),
                 "--meta.max_steps", "1.5"])
    assert code == 2
    assert "meta.max_steps" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["meta.patience", "finetune.patience"])
def test_patience_below_one_is_a_config_error(tmp_path, capsys, key):
    # the early stopper trusts its patience; config validation is what checks it
    manifest = write_tiny_dataset(tmp_path, seed=35)
    code = main(["train", "--dataset", str(manifest), "--out", str(tmp_path / "r"),
                 f"--{key}", "0"])
    assert code == 2
    assert key in capsys.readouterr().err


def test_invalid_config_value_rejected(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=35)
    code = main(["train", "--dataset", str(manifest), "--out", str(tmp_path / "r"),
                 "--mix.eta", "-0.5"])
    assert code == 2
    assert "mix.eta" in capsys.readouterr().err
    code = main(["train", "--dataset", str(manifest), "--out", str(tmp_path / "r"),
                 "--meta.grad_mode", "second_order"])
    assert code == 2
    assert "meta.grad_mode" in capsys.readouterr().err
    code = main(["train", "--dataset", str(manifest), "--out", str(tmp_path / "r"),
                 "--model.hidden", "4,0"])
    assert code == 2
    assert "model.hidden" in capsys.readouterr().err
    # each method sets its own augmentation; another one would be ignored
    code = main(["train", "--config", str(write_config(tmp_path)), "--dataset", str(manifest),
                 "--out", str(tmp_path / "r"), "--method", "maml",
                 "--meta.augmentation", "taskmix"])
    assert code == 2
    assert "meta.augmentation" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("meta.inner_lr", "nan"),  # exited 4: a non-finite loss at step 0
    ("finetune.lr", "nan"),  # exited 0: train never reads it
    ("schedule.lr_max", "inf"),  # exited 4: a non-finite update at step 0
    ("mix.eta", "inf"),
])
def test_non_finite_config_value_is_a_config_error(tmp_path, capsys, key, value):
    manifest = write_tiny_dataset(tmp_path, seed=35)
    code = main(["train", "--config", str(write_config(tmp_path)), "--dataset", str(manifest),
                 "--out", str(tmp_path / "r"), f"--{key}", value])
    assert code == 2
    assert key.split(".")[-1] in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("key, value", [
    # both exited 1 with a numpy traceback; the sizes are past the address
    # space, so numpy refuses them before touching any memory
    ("meta.batch_size", "100000000000000"),
    ("model.hidden", "10000000000000"),
])
def test_size_beyond_memory_is_a_config_error(tmp_path, capsys, key, value):
    manifest = write_tiny_dataset(tmp_path, seed=35)
    code = main(["train", "--config", str(write_config(tmp_path)), "--dataset", str(manifest),
                 "--out", str(tmp_path / "r"), f"--{key}", value])
    assert code == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "does not fit in memory" in err


def test_bundled_presets_resolve(tmp_path, capsys):
    # bundled names parse and validate; full-size runs are not attempted here
    code = main(["train", "--config", "long", "--out", str(tmp_path / "r")])
    assert code == 2  # fails on the missing dataset, not on the preset
    assert "dataset" in capsys.readouterr().err


def test_presets_are_the_defaults_with_their_trunk(tmp_path, monkeypatch):
    def resolved(name):
        return to_dict(_resolve_config(build_parser().parse_args(["train", "--config", name])))

    monkeypatch.chdir(tmp_path)
    wide, long = resolved("wide"), resolved("long")
    assert wide == to_dict(RunConfig())
    assert long["model"]["hidden"] == [128] * 6
    assert {k: v for k, v in long.items() if k != "model"} == {
        k: v for k, v in wide.items() if k != "model"
    }
    # an existing file of a preset's name wins over the preset
    (tmp_path / "long").write_text(json.dumps({"model": {"hidden": [3]}}))
    assert resolved("long")["model"]["hidden"] == [3]
    # and resolving never edits the preset itself
    resolved_twice = to_dict(_resolve_config(build_parser().parse_args(
        ["train", "--config", "wide", "--model.hidden", "5"])))
    assert resolved_twice["model"]["hidden"] == [5] and resolved("wide") == wide


def test_config_file_must_be_valid_on_its_own(tmp_path, capsys):
    # a flag sets its key on the config built from the file, so it no longer
    # hides a wrongly typed file value
    manifest = write_tiny_dataset(tmp_path, seed=36)
    data = to_dict(tiny_config())
    data["meta"]["max_steps"] = "12"
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    code = main(["train", "--config", str(cfg), "--dataset", str(manifest),
                 "--out", str(tmp_path / "run"), "--meta.max_steps", "0"])
    assert code == 2
    assert "'meta.max_steps' expects an integer" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_flag_into_a_section_the_file_sets_to_a_value(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"meta": 5}))
    code = main(["train", "--config", str(cfg), "--meta.inner_lr", "0.1",
                 "--out", str(tmp_path / "run")])
    assert code == 2
    assert "config section 'meta' must be an object, got 5" in capsys.readouterr().err


def test_an_override_may_mend_an_invalid_file_value(tmp_path):
    # every value is validated once, after the flags
    manifest = write_tiny_dataset(tmp_path, seed=36)
    cfg = write_config(tmp_path)
    data = json.loads(cfg.read_text())
    data["meta"]["patience"] = 0
    cfg.write_text(json.dumps(data))
    out = tmp_path / "run"
    assert main(["train", "--config", str(cfg), "--dataset", str(manifest), "--out", str(out),
                 "--meta.max_steps", "0", "--meta.patience", "3"]) == 0
    assert json.loads((out / "config.json").read_text())["meta"]["patience"] == 3


def experiment_argv(manifest, cfg, out, methods, seeds="0,1"):
    return ["experiment", "--config", str(cfg), "--dataset", str(manifest),
            "--out", str(out), "--methods", methods, "--seeds", seeds]


def test_experiment_writes_cells_and_report(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=36)
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    assert main(experiment_argv(manifest, cfg, out, "vanilla,mtl")) == 0
    table = capsys.readouterr().out
    assert "avg_macro_f1" in table

    for method in ("vanilla", "mtl"):
        for seed in (0, 1):
            payload = json.loads((out / "results" / method / f"seed_{seed}.json").read_text())
            assert payload["method"] == method
            assert payload["seed"] == seed
            assert set(payload["per_task"]) == {"test_00", "test_01"}

    report = json.loads((out / "report.json").read_text())
    assert {entry["method"] for entry in report} == {"vanilla", "mtl"}
    text = (out / "report.txt").read_text()
    assert len(text.splitlines()) == 3


def test_experiment_resumes_existing_cells(tmp_path):
    manifest = write_tiny_dataset(tmp_path, seed=37)
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    assert main(experiment_argv(manifest, cfg, out, "vanilla", seeds="0")) == 0

    cell = out / "results" / "vanilla" / "seed_0.json"
    payload = json.loads(cell.read_text())
    payload["average_macro_f1"] = 0.999
    cell.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    # rerun: the tampered cell is trusted, not recomputed, and new cells appear
    assert main(experiment_argv(manifest, cfg, out, "vanilla,mtl", seeds="0")) == 0
    report = json.loads((out / "report.json").read_text())
    vanilla = next(e for e in report if e["method"] == "vanilla")
    assert vanilla["mean"] == 0.999
    assert (out / "results" / "mtl" / "seed_0.json").exists()


def test_experiment_report_covers_the_cells_of_earlier_runs(tmp_path):
    manifest = write_tiny_dataset(tmp_path, seed=37)
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    for methods in ("vanilla", "mtl"):
        assert main(experiment_argv(manifest, cfg, out, methods, seeds="0")) == 0
    written = {name: (out / name).read_bytes() for name in ("report.txt", "report.json")}
    assert sorted(e["method"] for e in json.loads(written["report.json"])) == ["mtl", "vanilla"]
    assert main(["report", "--in", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in written} == written


def test_experiment_checks_every_cell_before_training(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=37)
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    cell = write_cell(out, "mtl/seed_0.json", '{"method": "mtl", "seed": 0, "average_')
    assert main(experiment_argv(manifest, cfg, out, "vanilla,mtl", seeds="0")) == 3
    assert_one_error_line(capsys, cell)
    assert read_bytes_map(out) == {Path("results/mtl/seed_0.json"): cell.read_bytes()}


def test_experiment_rejects_unknown_method(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=38)
    cfg = write_config(tmp_path)
    code = main(experiment_argv(manifest, cfg, tmp_path / "e", "maml,protonet"))
    assert code == 2
    assert "protonet" in capsys.readouterr().err


def test_experiment_with_separator_only_methods_is_a_config_error(tmp_path, capsys):
    # an empty value names no method either; it once ran the whole matrix
    manifest = write_tiny_dataset(tmp_path, seed=38)
    cfg = write_config(tmp_path)
    out = tmp_path / "e"
    for methods in (",,", ""):
        assert main(experiment_argv(manifest, cfg, out, methods)) == 2
        assert "--methods" in capsys.readouterr().err
        assert not out.exists()


def test_experiment_cells_are_byte_identical_across_runs(tmp_path):
    manifest = write_tiny_dataset(tmp_path, seed=39)
    cfg = write_config(tmp_path)
    for name in ("e1", "e2"):
        assert main(experiment_argv(manifest, cfg, tmp_path / name, "maml", seeds="0")) == 0
    cell = Path("results") / "maml" / "seed_0.json"
    assert (tmp_path / "e1" / cell).read_bytes() == (tmp_path / "e2" / cell).read_bytes()
    assert (tmp_path / "e1" / "report.json").read_bytes() == (
        tmp_path / "e2" / "report.json"
    ).read_bytes()


def test_experiment_without_a_meta_test_task_is_a_data_error(tmp_path, capsys):
    rows = [f"{i % 2},{i % 3}.5,{i % 5}.25" for i in range(40)]
    csv_path = tmp_path / "t.csv"
    csv_path.write_text(csv_text(rows))
    data_dir = tmp_path / "data"
    assert main(["convert", "--csv", str(csv_path), "--id", "only", "--role", "meta_train",
                 "--out", str(data_dir)]) == 0
    capsys.readouterr()
    assert main(experiment_argv(data_dir / "manifest.json", write_config(tmp_path),
                                tmp_path / "exp", "maml", seeds="0")) == 3
    assert "evaluation requires at least one meta_test task" in capsys.readouterr().err


def test_report_rerenders_from_cells(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=40)
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    assert main(experiment_argv(manifest, cfg, out, "vanilla", seeds="0,1")) == 0
    original = {name: (out / name).read_bytes() for name in ("report.txt", "report.json")}
    for name in original:
        (out / name).unlink()
    assert main(["report", "--in", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in original} == original


@pytest.mark.parametrize("methods, seeds, repeated", [
    ("vanilla", "0,0", "0"),
    ("vanilla,vanilla", "0", "'vanilla'"),
])
def test_experiment_with_repeated_seed_or_method_is_a_config_error(
    tmp_path, capsys, methods, seeds, repeated
):
    # a repeated cell was run once but counted twice in report.json, which
    # `report` then rebuilt with one copy
    manifest = write_tiny_dataset(tmp_path, seed=41)
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    assert main(experiment_argv(manifest, cfg, out, methods, seeds=seeds)) == 2
    assert f"{repeated} more than once" in capsys.readouterr().err
    assert not out.exists()

    # a clean matrix, seeds out of order: `report` rebuilds both files exactly
    assert main(experiment_argv(manifest, cfg, out, "vanilla,mtl", seeds="1,0")) == 0
    original = {name: (out / name).read_bytes() for name in ("report.txt", "report.json")}
    assert main(["report", "--in", str(out)]) == 0
    assert {name: (out / name).read_bytes() for name in original} == original


def write_cell(root: Path, place: str, text: str) -> Path:
    cell = root / "results" / place
    cell.parent.mkdir(parents=True, exist_ok=True)
    cell.write_text(text)
    return cell


def reading_cells_argv(command: str, tmp_path: Path, out: Path) -> list[str]:
    """`report --in out`, or a vanilla seed-0 matrix resumed into out: both
    read and check every cell under out/results before anything else."""
    if command == "report":
        return ["report", "--in", str(out)]
    return experiment_argv(write_tiny_dataset(tmp_path, seed=44), write_config(tmp_path),
                           out, "vanilla", seeds="0")


def assert_bad_cell_exit(capsys, argv, out: Path, cell: Path, *problems) -> None:
    """Exit 3 with stderr naming the cell and each problem, no report, no cell written."""
    cells = read_bytes_map(out / "results")
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert str(cell) in err and all(problem in err for problem in problems)
    assert not (out / "report.json").exists()
    assert read_bytes_map(out / "results") == cells


COMMANDS = ["report", "experiment"]


@pytest.mark.parametrize("place", ["vanilla/seed_1.json", "mtl/seed_0.json"])
@pytest.mark.parametrize("command", COMMANDS)
def test_misfiled_cell_is_a_data_error(tmp_path, capsys, command, place):
    # a copy of vanilla's seed-0 cell under another seed or another method
    record = {"method": "vanilla", "seed": 0, "average_macro_f1": 0.5, "per_task": {"t": 0.5}}
    for name in ("vanilla/seed_0.json", place):
        cell = write_cell(tmp_path, name, json.dumps(record))
    assert_bad_cell_exit(capsys, reading_cells_argv(command, tmp_path, tmp_path), tmp_path,
                         cell, "misfiled")


# json.loads parses NaN and Infinity, and json.dumps writes them back; an
# integer too large for a float64 would overflow the report's mean
@pytest.mark.parametrize("average, score", [
    (math.nan, math.nan), (math.inf, 0.5), (0.5, -math.inf), (0.5, 1.5), (10**400, 0.5),
], ids=["nan", "inf", "-inf", "above-1", "huge-int"])
@pytest.mark.parametrize("command", COMMANDS)
def test_cell_with_score_outside_unit_interval_is_a_data_error(tmp_path, capsys, command,
                                                               average, score):
    record = {"method": "vanilla", "seed": 0, "average_macro_f1": average, "per_task": {"t": score}}
    cell = write_cell(tmp_path, "vanilla/seed_0.json", json.dumps(record))
    assert_bad_cell_exit(capsys, reading_cells_argv(command, tmp_path, tmp_path), tmp_path,
                         cell, "[0, 1]")


@pytest.mark.parametrize("method, per_task, problem", [
    ("protonet", {"t": 0.5}, "unknown method"),
    ("vanilla", {}, "per-task"),
    ("vanilla", {"t": True}, "mistypes per_task"),
], ids=["unknown-method", "no-per-task-score", "bool-per-task-score"])
def test_report_with_unknown_method_or_no_scores_is_a_data_error(
        tmp_path, capsys, method, per_task, problem):
    record = {"method": method, "seed": 0, "average_macro_f1": 0.5, "per_task": per_task}
    cell = write_cell(tmp_path, f"{method}/seed_0.json", json.dumps(record))
    assert main(["report", "--in", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert str(cell) in err and problem in err
    assert not (tmp_path / "report.json").exists()


def test_report_without_cells_is_a_data_error(tmp_path, capsys):
    assert main(["report", "--in", str(tmp_path)]) == 3
    assert "no result cells" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_exit_code(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=41)
    cfg = write_config(tmp_path)
    code = main(["train", "--config", str(cfg), "--dataset", str(manifest),
                 "--out", str(tmp_path / "run"), "--method", "maml",
                 "--meta.inner_lr", "1e30"])
    assert code == 4
    assert "step" in capsys.readouterr().err
    # the history holds the records of the steps before the diverging one
    code = main(["train", "--config", str(cfg), "--dataset", str(manifest),
                 "--out", str(tmp_path / "run"), "--method", "maml",
                 "--schedule.lr_max", "1e30"])
    assert code == 4
    k = int(re.search(r"^error: .* at step (\d+)$", capsys.readouterr().err, re.M).group(1))
    assert k > 0
    assert len(history_lines(tmp_path / "run")) == k
    # one overflowing fine-tune update must not be scored as a model
    code = main(experiment_argv(manifest, cfg, tmp_path / "exp", "vanilla", seeds="0")
                + ["--finetune.lr", "1e200", "--finetune.max_steps", "1",
                   "--finetune.eval_every", "1"])
    assert code == 4
    assert "non-finite validation_macro_f1 at step 0" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_leaves_only_files_of_its_own_run(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=41)
    cfg = write_config(tmp_path)
    out = tmp_path / "reuse"
    base = ["train", "--config", str(cfg), "--dataset", str(manifest), "--out", str(out)]
    assert main(base + ["--method", "maml"]) == 0
    finished = read_bytes_map(out)
    # a run that fails before training writes nothing
    assert main(base + ["--method", "vanilla"]) == 2
    assert read_bytes_map(out) == finished
    # a diverged run leaves its config and history, and no earlier run's model
    assert main(base + ["--method", "mtl", "--schedule.lr_max", "1e30"]) == 4
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "history.jsonl"]
    assert json.loads((out / "config.json").read_text())["method"] == "mtl"
    assert "at step 1" in capsys.readouterr().err
    assert len(history_lines(out)) == 1


@pytest.mark.parametrize("interrupted", range(4), ids=["model", "summary", "history", "config"])
def test_interrupted_train_leaves_only_files_of_its_own_run(tmp_path, monkeypatch, capsys,
                                                            interrupted):
    # the k-th of train's four writes is interrupted; a train that removed no
    # file first left the earlier maml run's files beside the new mtl run's
    manifest = write_tiny_dataset(tmp_path, seed=41)
    out = tmp_path / "reuse"
    base = ["train", "--config", str(write_config(tmp_path)), "--dataset", str(manifest),
            "--out", str(out)]
    assert main(base + ["--method", "maml", "--seeds", "0"]) == 0
    earlier = read_bytes_map(out)
    writes = []

    def write_some(path, text):
        if len(writes) == interrupted:
            raise KeyboardInterrupt
        data.write_text_atomic(path, text)
        writes.append(path)

    monkeypatch.setattr(cli, "write_text_atomic", write_some)
    with pytest.raises(KeyboardInterrupt):
        main(base + ["--method", "mtl", "--seeds", "1"])
    monkeypatch.undo()
    left = read_bytes_map(out)
    assert len(left) == interrupted
    assert main(base + ["--method", "mtl", "--seeds", "1"]) == 0
    finished = read_bytes_map(out)
    capsys.readouterr()
    for name, content in left.items():
        assert content == finished[name]
        assert content != earlier[name]


def test_augmentation_must_match_every_method_run(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=42)
    cfg = write_config(tmp_path, meta={"max_steps": 0}, finetune={"max_steps": 0})
    base = ["--config", str(cfg), "--dataset", str(manifest), "--out", str(tmp_path / "run")]
    for argv in (["train", "--method", "mtl"],
                 ["experiment", "--methods", "maml+taskmix,maml+metamix"],
                 ["experiment"]):
        assert main(argv + base + ["--meta.augmentation", "taskmix"]) == 2
        assert "meta.augmentation 'taskmix'" in capsys.readouterr().err
    assert main(["train", "--method", "maml+taskmix", "--meta.augmentation", "taskmix"]
                + base) == 0
    assert main(["experiment", "--methods", "maml+taskmix", "--meta.augmentation", "taskmix"]
                + base) == 0


@pytest.mark.parametrize("command", COMMANDS)
def test_truncated_cell_is_a_data_error(tmp_path, capsys, command):
    cell = write_cell(tmp_path, "vanilla/seed_0.json", '{"method": "vanilla", "seed": 0, "average_')
    assert_bad_cell_exit(capsys, reading_cells_argv(command, tmp_path, tmp_path), tmp_path,
                         cell, "invalid JSON")


def test_report_with_cell_missing_seed_is_a_data_error(tmp_path, capsys):
    cell = tmp_path / "results" / "vanilla" / "seed_0.json"
    cell.parent.mkdir(parents=True)
    cell.write_text(json.dumps(
        {"method": "vanilla", "average_macro_f1": 0.5, "per_task": {"t": 0.5}}
    ))
    assert main(["report", "--in", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert str(cell) in err and "seed" in err


def test_convert_with_malformed_manifest_is_a_data_error(tmp_path, capsys):
    csv = tmp_path / "task.csv"
    csv.write_text(csv_text(["0,1.0,2.0", "1,3.0,4.0", "0,5.0,6.0", "1,0.5,0.25"]))
    out = tmp_path / "ds"
    out.mkdir()
    argv = ["convert", "--csv", str(csv), "--id", "t0", "--role", "meta_train",
            "--out", str(out)]
    for bad in ('{"dim": 2, "tasks": [', '["not", "an", "object"]', '{"dim": 2, "tasks": [1]}'):
        (out / "manifest.json").write_text(bad)
        assert main(argv) == 3
        assert "manifest.json" in capsys.readouterr().err
        assert (out / "manifest.json").read_text() == bad  # left as found


def test_interrupted_cell_write_leaves_no_cell_behind(tmp_path, monkeypatch):
    manifest = write_tiny_dataset(tmp_path, seed=43)
    cfg = write_config(tmp_path)
    reference = tmp_path / "ref"
    assert main(experiment_argv(manifest, cfg, reference, "vanilla", seeds="0")) == 0

    def interrupted(src, dst):
        raise KeyboardInterrupt

    out = tmp_path / "exp"
    monkeypatch.setattr(os, "replace", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(experiment_argv(manifest, cfg, out, "vanilla", seeds="0"))
    monkeypatch.undo()
    cell_dir = out / "results" / "vanilla"
    assert list(cell_dir.iterdir()) == []  # neither a cell nor a temp file

    # the resumed run computes the cell afresh, byte for byte as a clean run
    assert main(experiment_argv(manifest, cfg, out, "vanilla", seeds="0")) == 0
    for name in ("results/vanilla/seed_0.json", "report.txt", "report.json"):
        assert (out / name).read_bytes() == (reference / name).read_bytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_experiment_names_the_failing_cell(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=27)
    cfg = write_config(tmp_path, meta={"inner_lr": 1e30, "inner_steps": 3})
    out = tmp_path / "exp"
    assert main(experiment_argv(manifest, cfg, out, "vanilla,maml", seeds="0")) == 4
    err = capsys.readouterr().err
    assert "method 'maml', seed 0" in err and "step" in err
    assert (out / "results" / "vanilla" / "seed_0.json").exists()
    assert not (out / "results" / "maml" / "seed_0.json").exists()

    assert main(experiment_argv(manifest, cfg, out, "vanilla", seeds="")) == 2
    assert "seeds" in capsys.readouterr().err


def manifest_with(tmp_path, edit) -> Path:
    """The tiny dataset's manifest after `edit(manifest dict)`."""
    path = write_tiny_dataset(tmp_path, seed=44)
    manifest = json.loads(path.read_text())
    edit(manifest)
    path.write_text(json.dumps(manifest))
    return path


def train_exit_code(tmp_path, manifest) -> int:
    return main(["train", "--config", str(write_config(tmp_path)), "--dataset", str(manifest),
                 "--out", str(tmp_path / "run")])


def test_train_with_missing_task_file_is_a_data_error(tmp_path, capsys):
    def drop_file(manifest):
        manifest["tasks"][0]["file"] = "absent.tmxf"

    assert train_exit_code(tmp_path, manifest_with(tmp_path, drop_file)) == 3
    assert "absent.tmxf" in capsys.readouterr().err


def test_train_with_non_object_task_entry_is_a_data_error(tmp_path, capsys):
    def scalar_entry(manifest):
        manifest["tasks"][1] = 7

    assert train_exit_code(tmp_path, manifest_with(tmp_path, scalar_entry)) == 3
    assert "manifest.json" in capsys.readouterr().err


@pytest.mark.parametrize("split", ["train", "validation", "test"])
def test_train_with_incomplete_splits_is_a_data_error(tmp_path, capsys, split):
    def drop_split(manifest):
        del manifest["tasks"][0]["splits"][split]

    assert train_exit_code(tmp_path, manifest_with(tmp_path, drop_split)) == 3
    err = capsys.readouterr().err
    assert "manifest.json" in err and f"splits lack {split!r}" in err


def test_convert_with_missing_csv_is_a_data_error(tmp_path, capsys):
    missing = tmp_path / "absent.csv"
    code = main(["convert", "--csv", str(missing), "--id", "t0", "--role", "meta_train",
                 "--out", str(tmp_path / "ds")])
    assert code == 3
    assert str(missing) in capsys.readouterr().err


def test_convert_with_non_finite_feature_is_a_data_error(tmp_path, capsys):
    # 1e39 parses as a float but is infinite as float32
    for bad in ("nan", "inf", "1e39"):
        csv = tmp_path / "task.csv"
        csv.write_text(csv_text(["0,1.0,2.0", f"1,3.0,{bad}", "0,5.0,6.0", "1,0.5,0.25"]))
        code = main(["convert", "--csv", str(csv), "--id", "t0", "--role", "meta_train",
                     "--out", str(tmp_path / "ds")])
        assert code == 3
        assert f"{csv}:3:" in capsys.readouterr().err
        assert not (tmp_path / "ds" / "manifest.json").exists()


def test_convert_with_a_csv_that_is_not_utf8_is_a_data_error(tmp_path, capsys):
    # found by the mutated CSVs: reading it raised UnicodeDecodeError
    csv = tmp_path / "task.csv"
    csv.write_bytes(csv_text(["0,1.0,2.0", "1,3.0,4.0"]).encode().replace(b"4.0", b"4.\xb3"))
    code = main(["convert", "--csv", str(csv), "--id", "t0", "--role", "meta_train",
                 "--out", str(tmp_path / "ds")])
    assert code == 3
    assert f"{csv}:3: non-numeric value" in capsys.readouterr().err
    assert not (tmp_path / "ds" / "manifest.json").exists()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
def test_train_with_non_finite_feature_is_a_data_error(tmp_path, capsys, value):
    manifest = write_tiny_dataset(tmp_path, seed=45)
    # a meta_test task: `train` never samples it
    entry = json.loads(manifest.read_text())["tasks"][-1]
    assert entry["role"] == "meta_test"
    path = manifest.parent / entry["file"]
    features, labels, n_classes = read_task_file(path)
    features[len(features) // 2, 1] = value
    write_task_file(path, features, labels, n_classes)
    assert train_exit_code(tmp_path, manifest) == 3
    assert str(path) in capsys.readouterr().err


# a float index is refused, not truncated to the integer below it
@pytest.mark.parametrize("spoil", [lambda i: "a", str, lambda i: i + 0.5],
                         ids=["letter", "digit-string", "float"])
def test_train_with_non_integer_split_indices_is_a_data_error(tmp_path, capsys, spoil):
    def replace_index(manifest):
        validation = manifest["tasks"][0]["splits"]["validation"]
        validation[0] = spoil(validation[0])

    assert train_exit_code(tmp_path, manifest_with(tmp_path, replace_index)) == 3
    err = capsys.readouterr().err
    assert "manifest.json" in err and "split 'validation' must list integer indices" in err


@pytest.mark.parametrize("key", ["file", "id"])
def test_train_with_non_string_task_field_is_a_data_error(tmp_path, capsys, key):
    def number(manifest):
        manifest["tasks"][0][key] = 5

    assert train_exit_code(tmp_path, manifest_with(tmp_path, number)) == 3
    assert f"{key!r} must be a string" in capsys.readouterr().err


def test_train_with_zero_width_features_is_a_data_error(tmp_path, capsys):
    def zero_width(manifest):
        for entry in manifest["tasks"]:
            path = tmp_path / "data" / entry["file"]
            features, labels, n_classes = read_task_file(path)
            write_task_file(path, features[:, :0], labels, n_classes)

    manifest = manifest_with(tmp_path, zero_width)
    assert train_exit_code(tmp_path, manifest) == 3
    first = json.loads(manifest.read_text())["tasks"][0]["file"]
    assert f"{first}: feature dimension is 0" in capsys.readouterr().err


@pytest.mark.parametrize("dim", [2**29, 2**32 - 1])
def test_train_with_a_header_dim_numpy_cannot_size_is_a_data_error(tmp_path, capsys, dim):
    # a record of that width does not fit numpy's C-int dtype size: the file's
    # length must be checked first, or np.dtype raises ValueError
    manifest = write_tiny_dataset(tmp_path, seed=46)
    path = manifest.parent / json.loads(manifest.read_text())["tasks"][0]["file"]
    raw = path.read_bytes()
    path.write_bytes(raw[:12] + dim.to_bytes(4, "little") + raw[16:])
    assert train_exit_code(tmp_path, manifest) == 3
    assert_one_error_line(capsys, path)


def test_train_with_duplicate_task_ids_is_a_data_error(tmp_path, capsys):
    def duplicate(manifest):
        manifest["tasks"][-1]["id"] = manifest["tasks"][-2]["id"]

    assert train_exit_code(tmp_path, manifest_with(tmp_path, duplicate)) == 3
    assert "appears more than once" in capsys.readouterr().err


@pytest.mark.parametrize("role,split", [
    ("meta_test", "train"), ("meta_test", "validation"), ("meta_test", "test"),
    ("meta_train", "train"), ("meta_train", "validation"),
])
def test_train_with_empty_split_is_a_data_error(tmp_path, capsys, role, split):
    def empty(manifest):
        splits = next(t for t in manifest["tasks"] if t["role"] == role)["splits"]
        other = "test" if split != "test" else "train"
        splits[other] += splits[split]
        splits[split] = []

    assert train_exit_code(tmp_path, manifest_with(tmp_path, empty)) == 3
    assert f"{role} task has an empty {split} split" in capsys.readouterr().err


def test_converted_tasks_too_small_to_split_are_a_data_error(tmp_path, capsys):
    # No manifest splits: loading splits 70/10/20 per class, and a class of 4
    # rows goes 3/0/1, leaving the validation split empty. convert makes the
    # same check, so the task never enters the corpus.
    csv = tmp_path / "task.csv"
    csv.write_text(csv_text([f"{i % 2},{i}.0,{i}.5" for i in range(8)]))
    out = tmp_path / "ds"
    for task_id, role in (("a", "meta_train"), ("b", "meta_test")):
        assert main(["convert", "--csv", str(csv), "--id", task_id, "--role", role,
                     "--out", str(out)]) == 3
        assert "empty validation split" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


# A path of the wrong kind on the file system: one `error:` line naming it.


def assert_one_error_line(capsys, path: Path) -> None:
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]


def test_config_that_is_a_directory_is_a_config_error(tmp_path, capsys):
    assert main(["train", "--config", str(tmp_path)]) == 2
    assert_one_error_line(capsys, tmp_path)


@pytest.mark.parametrize("flag, code", [("--config", 2), ("--dataset", 3)])
def test_json_file_that_is_not_utf8_is_named(tmp_path, capsys, flag, code):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe{")
    argv = ["train", "--config", str(write_config(tmp_path)), "--dataset", str(tmp_path),
            "--out", str(tmp_path / "run"), flag, str(bad)]  # the last one given wins
    assert main(argv) == code
    assert_one_error_line(capsys, bad)


@pytest.mark.parametrize("command", ["train", "experiment"])
def test_dataset_that_is_a_directory_is_a_data_error(tmp_path, capsys, command):
    cfg = write_config(tmp_path)
    dataset = tmp_path / "data"
    dataset.mkdir()
    method = ["--method", "maml"] if command == "train" else ["--methods", "vanilla"]
    argv = [command, "--config", str(cfg), "--dataset", str(dataset),
            "--out", str(tmp_path / "out"), *method]
    assert main(argv) == 3
    assert_one_error_line(capsys, dataset)


@pytest.mark.parametrize("command", COMMANDS)
def test_result_cell_that_is_a_directory_is_a_data_error(tmp_path, capsys, command):
    out = tmp_path / "exp"
    cell = out / "results" / "vanilla" / "seed_0.json"
    cell.mkdir(parents=True)
    assert main(reading_cells_argv(command, tmp_path, out)) == 3
    assert_one_error_line(capsys, cell)


def out_argv(command: str, tmp_path: Path, out: Path) -> list[str]:
    if command == "synth":
        return ["synth", "--preset", "long", "--out", str(out)]
    if command == "convert":
        csv = tmp_path / "task.csv"
        csv.write_text(csv_text(loadable_rows()))
        return ["convert", "--csv", str(csv), "--id", "t0", "--role", "meta_train",
                "--out", str(out)]
    manifest, cfg = write_tiny_dataset(tmp_path, seed=45), write_config(tmp_path)
    if command == "train":
        return ["train", "--config", str(cfg), "--dataset", str(manifest), "--out", str(out),
                "--method", "maml"]
    return experiment_argv(manifest, cfg, out, "vanilla", seeds="0")


@pytest.mark.parametrize("command", ["synth", "convert", "train", "experiment"])
def test_out_that_is_a_file_is_a_config_error(tmp_path, capsys, command):
    out = tmp_path / "taken"
    out.write_text("kept\n")
    assert main(out_argv(command, tmp_path, out)) == 2
    assert_one_error_line(capsys, out)
    assert out.read_text() == "kept\n"


def test_synth_onto_a_directory_named_manifest_is_a_config_error(tmp_path, capsys):
    # write_dataset removes an old manifest first, which fails on a directory
    out = tmp_path / "ds"
    (out / "manifest.json").mkdir(parents=True)
    assert main(out_argv("synth", tmp_path, out)) == 2
    assert_one_error_line(capsys, out / "manifest.json")


def test_convert_with_a_directory_as_manifest_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "ds"
    (out / "manifest.json").mkdir(parents=True)
    assert main(out_argv("convert", tmp_path, out)) == 3
    assert_one_error_line(capsys, out / "manifest.json")
    assert not (out / "t0.tmxf").exists()


# Each file a command writes in its output directory, as it writes them.
WRITTEN = {
    "train": ("model.json", "summary.json", "history.jsonl", "config.json"),
    "experiment": ("config.json", "report.txt", "report.json"),
    "report": ("report.txt", "report.json"),
}


@pytest.mark.parametrize("command, name", [(c, n) for c, names in WRITTEN.items() for n in names])
def test_directory_where_a_command_writes_a_file_is_a_config_error(tmp_path, capsys, command,
                                                                   name):
    # checked before any training: the run once trained, then raised on it
    out = tmp_path / "out"
    if command == "report":  # cells to report on, from an earlier experiment
        assert main(out_argv("experiment", tmp_path, out)) == 0
        argv = ["report", "--in", str(out)]
    else:
        argv = out_argv(command, tmp_path, out)
    for other in WRITTEN[command]:  # an earlier run's files
        (out / other).parent.mkdir(parents=True, exist_ok=True)
        (out / other).write_text("old\n")
    (out / name).unlink()
    (out / name).mkdir()
    (out / name / "kept").write_text("kept\n")
    before = read_bytes_map(out)
    capsys.readouterr()
    assert main(argv) == 2
    assert_one_error_line(capsys, out / name)
    assert read_bytes_map(out) == before


TASK_ENTRY = {"id": "a", "role": "meta_train", "file": "a.tmxf"}


@pytest.mark.parametrize("manifest", [
    {"dim": 2, "tasks": [{"id": "a", "role": "meta_train"}]},
    {"dim": 2, "tasks": [TASK_ENTRY, {**TASK_ENTRY, "file": "b.tmxf"}]},
    {"dim": 2, "tasks": [{**TASK_ENTRY, "role": "bogus"}]},
    {"dim": 2, "tasks": [{**TASK_ENTRY, "file": 7}]},
    {"dim": 2},
], ids=["no-file", "duplicate-id", "bogus-role", "non-string-file", "no-tasks"])
def test_convert_onto_malformed_manifest_is_a_data_error(tmp_path, capsys, manifest):
    # convert extended each of these (exit 0) into a manifest load_dataset rejects
    out = tmp_path / "ds"
    out.mkdir()
    path = out / "manifest.json"
    path.write_text(json.dumps(manifest))
    before = path.read_bytes()
    assert main(out_argv("convert", tmp_path, out)) == 3
    assert_one_error_line(capsys, path)
    assert path.read_bytes() == before
    assert not (out / "t0.tmxf").exists()



def test_convert_onto_manifest_without_dim_takes_its_tasks_width(tmp_path, capsys):
    # load_dataset's rule: the first listed task file's width, or with no task
    # the CSV's own
    out = tmp_path / "ds"
    path = out / "manifest.json"

    def convert(task_id: str, header: str) -> int:
        csv = tmp_path / f"{task_id}.csv"
        csv.write_text("\n".join([header, *loadable_rows(3)]) + "\n")
        return main(["convert", "--csv", str(csv), "--id", task_id, "--role", "meta_train",
                     "--out", str(out)])

    out.mkdir()
    path.write_text(json.dumps({"tasks": []}))
    assert convert("a", "label,f0,f1,f2") == 0
    assert json.loads(path.read_text()) == {"tasks": [
        {"id": "a", "role": "meta_train", "file": "a.tmxf"}]}
    assert convert("b", "label,f0,f1,f2") == 0
    assert [t["id"] for t in json.loads(path.read_text())["tasks"]] == ["a", "b"]
    capsys.readouterr()
    assert convert("c", "label,f0,f1,f2,f3") == 3
    assert_one_error_line(capsys, tmp_path / "c.csv")


@pytest.mark.parametrize("dim", ["64", 64.0, True, 0], ids=["string", "float", "bool", "zero"])
def test_manifest_dim_that_is_not_a_positive_integer_is_a_data_error(tmp_path, capsys, dim):
    manifest = write_tiny(tmp_path / "data", seed=44, dim=64)
    spoilt = json.loads(manifest.read_text())
    assert spoilt["dim"] == 64
    spoilt["dim"] = dim
    manifest.write_text(json.dumps(spoilt))
    assert train_exit_code(tmp_path, manifest) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(manifest) in lines[0] and "'dim'" in lines[0]

# What a mutated cell field becomes: type swaps (bool included), NaN, the
# infinities, an integer too large for a float64, negatives, in-range scores.
MUTANT_VALUES = [True, False, None, "0.5", [0.5], {"t": 0.5}, math.nan, math.inf, -math.inf,
                 10**400, -1, -0.25, 0, 1.0, 0.25]


def mutate(rng: random.Random, text: str) -> bytes:
    """A cell's text with one seeded mutation: a top-level or per_task field
    replaced, removed or added, the bytes truncated, or one bit flipped."""
    kind = rng.choice(["replace", "remove", "add", "truncate", "flip"])
    raw = text.encode()
    if kind == "truncate":
        return raw[:rng.randrange(len(raw))]
    if kind == "flip":
        flipped = bytearray(raw)
        flipped[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    cell = json.loads(text)
    fields = rng.choice([cell, cell["per_task"]])
    if kind == "add":
        fields["extra"] = rng.choice(MUTANT_VALUES)
    elif kind == "remove":
        del fields[rng.choice(sorted(fields))]
    else:
        fields[rng.choice(sorted(fields))] = rng.choice(MUTANT_VALUES)
    return json.dumps(cell).encode()


def test_mutated_cells_exit_0_or_3_and_report_rebuilds(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=40)
    out = tmp_path / "exp"
    resume = experiment_argv(manifest, write_config(tmp_path), out, "vanilla", seeds="0,1")
    assert main(resume) == 0
    originals = {cell: cell.read_text() for cell in sorted(out.glob("results/*/*.json"))}
    rng = random.Random(15)
    codes = set()
    for _ in range(200):
        for cell, text in originals.items():
            cell.write_text(text)
        cell = rng.choice(sorted(originals))
        cell.write_bytes(mutate(rng, originals[cell]))
        cells = read_bytes_map(out / "results")
        code = main(["report", "--in", str(out)])
        assert code in (0, 3)
        assert main(resume) == code  # one cell reader: a resume never trains here
        assert read_bytes_map(out / "results") == cells
        if code == 0:
            written = {name: (out / name).read_bytes() for name in ("report.txt", "report.json")}
            assert main(["report", "--in", str(out)]) == 0
            assert {name: (out / name).read_bytes() for name in written} == written
        codes.add(code)
    capsys.readouterr()
    assert codes == {0, 3}


# What a mutated manifest field becomes: the cell values, plus sizes past a
# u32 or an int64, a role, and another task's id and file.
MANIFEST_VALUES = MUTANT_VALUES + [2**32, 2**63, "meta_test", "train_01", "train_01.tmxf"]


def mutate_manifest(rng: random.Random, text: str) -> bytes:
    """A manifest's text with one seeded mutation: a top-level, task-entry,
    split or split-index value replaced, removed, added or duplicated, the
    bytes truncated, or one bit flipped."""
    kind = rng.choice(["replace", "remove", "add", "duplicate", "truncate", "flip"])
    raw = text.encode()
    if kind == "truncate":
        return raw[:rng.randrange(len(raw))]
    if kind == "flip":
        flipped = bytearray(raw)
        flipped[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    manifest = json.loads(text)
    entry = rng.choice(manifest["tasks"])
    split = entry["splits"][rng.choice(sorted(entry["splits"]))]
    fields = rng.choice([manifest, entry, entry["splits"], split])
    if kind == "duplicate":  # a task entry, a split index or a value of another task
        if fields is split:
            split.append(rng.choice(split))
        elif fields is manifest:
            manifest["tasks"].append(entry)
        else:
            other = rng.choice(manifest["tasks"])
            other = other if fields is entry else other["splits"]
            key = rng.choice(sorted(fields))
            fields[key] = other[key]
    elif kind == "add":
        if fields is split:
            split.append(rng.choice(MANIFEST_VALUES))
        else:
            fields["extra"] = rng.choice(MANIFEST_VALUES)
    elif fields is split:
        index = rng.randrange(len(split))
        if kind == "remove":
            del split[index]
        else:
            split[index] = rng.choice(MANIFEST_VALUES)
    elif kind == "remove":
        del fields[rng.choice(sorted(fields))]
    else:
        fields[rng.choice(sorted(fields))] = rng.choice(MANIFEST_VALUES)
    return json.dumps(manifest).encode()


def mutate_task_file(rng: random.Random, raw: bytes) -> bytes:
    """A task file's bytes with one seeded mutation: a header field (magic,
    version, n, D or C) replaced, the bytes truncated or extended, or one bit
    flipped, in the header or anywhere."""
    kind = rng.choice(["field", "truncate", "extend", "flip"])
    header = 20  # five 4-byte fields
    if kind == "truncate":
        return raw[:rng.randrange(rng.choice([header, len(raw)]))]
    if kind == "extend":
        return raw + bytes(rng.randrange(1, 64))
    if kind == "flip":
        flipped = bytearray(raw)
        flipped[rng.randrange(rng.choice([header, len(raw)]))] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    field = rng.randrange(5)
    old = int.from_bytes(raw[4 * field:4 * field + 4], "little")
    value = rng.choice([0, 1, 2, 3, old - 1, old + 1, 2 * old, 2**29, 2**31, 2**32 - 1])
    return raw[:4 * field] + (value % 2**32).to_bytes(4, "little") + raw[4 * field + 4:]


def test_mutated_manifests_and_task_files_exit_0_or_3(tmp_path, capsys):
    # every run loads the whole dataset and trains, fine-tunes and scores with
    # step budgets of 0, so no case trains however its input was mutated; sizes
    # come from the task files on disk, which hold at most a few kB
    manifest = write_tiny_dataset(tmp_path, seed=46)
    files = sorted(manifest.parent.glob("*.tmxf"))
    originals = {path: path.read_bytes() for path in [manifest, *files]}
    argv = ["experiment", "--config", str(write_config(tmp_path)), "--dataset", str(manifest),
            "--methods", "maml", "--seeds", "0", "--meta.max_steps", "0",
            "--finetune.max_steps", "0"]
    rng = random.Random(20)
    codes = set()
    for case in range(400):
        for path, raw in originals.items():
            path.write_bytes(raw)
        if rng.random() < 0.5:
            manifest.write_bytes(mutate_manifest(rng, originals[manifest].decode()))
        else:
            path = rng.choice(files)
            path.write_bytes(mutate_task_file(rng, originals[path]))
        code = main(argv + ["--out", str(tmp_path / f"run{case}")])
        assert code in (0, 2, 3, 4)
        codes.add(code)
    capsys.readouterr()
    assert codes == {0, 3}


# What a mutated config value becomes: the cell values, plus words that some
# keys accept, an empty list and two sizes. A size is tiny or past the address
# space, which numpy refuses before it touches any memory (as in
# test_size_beyond_memory_is_a_config_error); never one like 2**32, which
# numpy may try to allocate.
CONFIG_VALUES = MUTANT_VALUES + [2, 10**13, "none", "maml", "exact", "taskmix", []]

# What a mutated flag value becomes: the command line's words for none, lists,
# non-finite and malformed numbers, and the same sizes.
FLAG_VALUES = ["", "none", "null", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "1", ".5",
               "1.5", "2", "10000000000000", "1,,2", ",", "maml", "exact", "taskmix"]

# The step budgets end every command line, so argparse keeps them; a mutated
# budget is never a count of steps to run.
BUDGET_VALUES = ["0", "-1", "", "none", "x", "1.5", "nan"]


def mutate_config(rng: random.Random, text: str) -> bytes:
    """A config's text with one seeded mutation: the document, a section, a
    leaf or a list entry replaced, a key removed or added, the bytes
    truncated, or one bit flipped."""
    kind = rng.choice(["document", "replace", "remove", "add", "entry", "truncate", "flip"])
    raw = text.encode()
    if kind == "truncate":
        return raw[:rng.randrange(len(raw))]
    if kind == "flip":
        flipped = bytearray(raw)
        flipped[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    if kind == "document":
        return json.dumps(rng.choice(CONFIG_VALUES)).encode()
    cfg = json.loads(text)
    if kind == "entry":
        entries = rng.choice([cfg["seeds"], cfg["model"]["hidden"]])
        entries[rng.randrange(len(entries))] = rng.choice(CONFIG_VALUES)
        return json.dumps(cfg).encode()
    fields = rng.choice([cfg, *(v for v in cfg.values() if isinstance(v, dict))])
    if kind == "add":
        fields["extra"] = rng.choice(CONFIG_VALUES)
    elif kind == "remove":
        del fields[rng.choice(sorted(fields))]
    else:
        fields[rng.choice(sorted(fields))] = rng.choice(CONFIG_VALUES)
    return json.dumps(cfg).encode()


def test_mutated_configs_and_flags_exit_0_2_or_3(tmp_path, capsys, monkeypatch):
    # a mutated out or dataset may be a relative path
    monkeypatch.chdir(tmp_path)
    manifest = write_tiny_dataset(tmp_path, seed=47)
    cfg = tmp_path / "config.json"
    original = json.dumps({**to_dict(tiny_config()), "dataset": str(manifest)})
    keys = list(leaf_types())
    rng = random.Random(21)
    codes = set()
    for case in range(1200):
        cfg.write_text(original)
        kind = rng.choice(["file", "flag", "budget"])
        flags = []
        if kind == "file":
            cfg.write_bytes(mutate_config(rng, original))
        elif kind == "flag":
            flags = [f"--{rng.choice(keys)}={rng.choice(FLAG_VALUES)}"]
        budgets = [rng.choice(BUDGET_VALUES) if kind == "budget" else "0" for _ in range(2)]
        code = main(["experiment", "--config", str(cfg), "--methods", "maml",
                     "--out", f"run{case}", *flags,
                     f"--meta.max_steps={budgets[0]}", f"--finetune.max_steps={budgets[1]}"])
        assert code in (0, 2, 3, 4)
        codes.add(code)
    assert codes == {0, 2, 3}
    errors = capsys.readouterr().err
    for check in ["method must", "meta.inner_steps must", "meta.batch_size must",
                  "meta.augmentation must", "meta.max_steps must", "meta.eval_every must",
                  "finetune.max_steps must", "finetune.eval_every must", "expects a list",
                  "expects a number", "expects an integer", "expects a string",
                  "must be an object", "config must be a JSON object"]:
        assert check in errors


# What a mutated CSV field becomes: empty, malformed, non-finite and
# out-of-range numbers, labels past the rows or a u32, and header words.
CSV_VALUES = ["", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "1", "2", "7", " 1", "1.5",
              str(2**32 - 2), str(2**32), "label", "f0"]


def mutate_csv(rng: random.Random, text: str) -> bytes:
    """A CSV's text with one seeded mutation: a field (header or body)
    replaced, a field added or removed, a row removed or duplicated, a column
    removed, the bytes truncated, or one bit flipped."""
    kind = rng.choice(["replace", "add", "remove", "drop_row", "duplicate_row", "drop_column",
                       "truncate", "flip"])
    raw = text.encode()
    if kind == "truncate":
        return raw[:rng.randrange(len(raw))]
    if kind == "flip":
        flipped = bytearray(raw)
        flipped[rng.randrange(len(raw))] ^= 1 << rng.randrange(8)
        return bytes(flipped)
    rows = [line.split(",") for line in text.splitlines()]
    row = rng.randrange(len(rows))
    if kind == "drop_row":
        del rows[row]
    elif kind == "drop_column":  # the rest is a well-formed CSV one feature narrower
        column = rng.randrange(len(rows[0]))
        rows = [fields[:column] + fields[column + 1:] for fields in rows]
    elif kind == "duplicate_row":
        rows.insert(row, rows[rng.randrange(len(rows))])
    elif kind == "add":
        rows[row].insert(rng.randrange(len(rows[row]) + 1), rng.choice(CSV_VALUES))
    elif kind == "remove":
        del rows[row][rng.randrange(len(rows[row]))]
    else:
        rows[row][rng.randrange(len(rows[row]))] = rng.choice(CSV_VALUES)
    return "".join(",".join(fields) + "\n" for fields in rows).encode()


def test_mutated_csvs_exit_0_or_3(tmp_path, capsys):
    # convert adds the CSV's task to a corpus, which an experiment with step
    # budgets of 0 then loads, fine-tunes and scores; every size comes from
    # the CSV's rows, and a label past them fails the load's class count
    manifest = write_tiny_dataset(tmp_path, seed=50)
    corpus = {path: path.read_bytes() for path in manifest.parent.iterdir()}
    features, labels, _ = read_task_file(manifest.parent / "train_00.tmxf")
    rows = [["label", *(f"f{i}" for i in range(features.shape[1]))]]
    rows += [[str(label), *map(repr, row.tolist())] for label, row in zip(labels, features)]
    original = "".join(",".join(fields) + "\n" for fields in rows)
    csv_path = tmp_path / "t.csv"
    argv = ["experiment", "--config", str(write_config(tmp_path)), "--dataset", str(manifest),
            "--methods", "maml", "--seeds", "0", "--meta.max_steps", "0",
            "--finetune.max_steps", "0"]
    rng = random.Random(22)
    codes = set()
    for case in range(600):
        for path in set(manifest.parent.iterdir()) - set(corpus):
            path.unlink()
        for path, raw in corpus.items():
            path.write_bytes(raw)
        csv_path.write_bytes(mutate_csv(rng, original))
        code = main(["convert", "--csv", str(csv_path), "--id", rng.choice(["added", "test_00"]),
                     "--role", rng.choice(["meta_train", "meta_test"]),
                     "--out", str(manifest.parent)])
        assert code in (0, 3)
        if code == 0:
            code = main(argv + ["--out", str(tmp_path / f"run{case}")])
            assert code in (0, 2, 3, 4)
        codes.add(code)
    capsys.readouterr()
    assert codes == {0, 3}


# Defects the mutated configs found. Each exited 1 with a traceback.


@pytest.mark.parametrize("seed", [str(10**300), str(2**63)], ids=["10**300", "2**63"])
def test_seed_past_64_bits_is_a_config_error(tmp_path, capsys, seed):
    # 10**300 made a cell file name too long to write (OSError); 2**63 runs
    # the streams of seed -2**63, since rng.substream keeps 64 bits
    manifest = write_tiny_dataset(tmp_path, seed=48)
    argv = experiment_argv(manifest, write_config(tmp_path), tmp_path / "exp", "vanilla",
                           seeds=seed)
    assert main(argv) == 2
    assert "seeds entries must be 64-bit integers" in capsys.readouterr().err
    assert not (tmp_path / "exp").exists()


@pytest.mark.parametrize("seed", [2**64, 2**70, 2**64 - 1, -(2**63) - 1],
                         ids=["2**64", "2**70", "2**64-1", "-2**63-1"])
def test_synth_seed_past_64_bits_is_a_config_error(tmp_path, capsys, seed):
    # synth masked the seed to 64 bits: 2**64 and 2**70 wrote seed 0's
    # corpus and 2**64 - 1 seed -1's
    out = tmp_path / "d"
    assert main(["synth", "--preset", "long", "--seed", str(seed), "--out", str(out)]) == 2
    assert "seed must be a 64-bit integer" in capsys.readouterr().err
    assert not out.exists()


def test_integer_past_float_range_is_a_config_error(tmp_path, capsys):
    # float() raised OverflowError
    data = to_dict(tiny_config())
    data["meta"]["inner_lr"] = 10**400
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(data))
    assert main(["train", "--config", str(cfg), "--out", str(tmp_path / "run")]) == 2
    assert "'meta.inner_lr' expects a number" in capsys.readouterr().err


@pytest.mark.parametrize("method, key, value", [
    ("vanilla", "model.hidden", str(10**20)),
    ("mtl", "model.hidden", "10000000000,10000000000"),
    ("mtl", "meta.batch_size", str(10**20)),
    ("maml", "meta.batch_size", str(2**62)),
    ("maml+taskmix", "meta.inner_steps", str(10**20)),
])
def test_size_past_numpy_index_range_is_a_config_error(tmp_path, capsys, method, key, value):
    # numpy raised ValueError, not MemoryError, for an array of more bytes
    # than it can index; it refuses it before touching any memory
    manifest = write_tiny_dataset(tmp_path, seed=49)
    argv = experiment_argv(manifest, write_config(tmp_path), tmp_path / "exp", method,
                           seeds="0")
    assert main(argv + [f"--{key}", value]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "does not fit in memory" in err


def package_env() -> dict:
    """The environment with this checkout's taskmix first on PYTHONPATH, for
    a fresh Python process."""
    src = str(Path(taskmix.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_no_command_imports_numpy_ma(tmp_path):
    # numpy.ma costs every process about 1 MB of RSS and 10-15 ms to import, and
    # np.unique imports it; a fresh process runs synth and an experiment of
    # every method, then lists its modules
    script = """
import sys
from taskmix.cli import main
data, cfg, out = sys.argv[1:]
assert main(["synth", "--preset", "long", "--scale", "0.05", "--seed", "0", "--out", data]) == 0
assert main(["experiment", "--config", cfg, "--dataset", data + "/manifest.json", "--out", out,
             "--methods", "vanilla,mtl,maml,maml+taskmix,maml+metamix,maml+metamix+taskmix",
             "--seeds", "0"]) == 0
print("numpy.ma" in sys.modules)
"""
    cfg = write_config(tmp_path, meta={"max_steps": 2}, finetune={"max_steps": 2})
    done = subprocess.run([sys.executable, "-c", script, str(tmp_path / "data"), str(cfg),
                           str(tmp_path / "exp")], env=package_env(), capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def test_python_m_taskmix_cli_runs_the_command(tmp_path):
    # without a __main__ guard the module was imported, ran nothing and exited 0
    out = tmp_path / "d"
    done = subprocess.run([sys.executable, "-m", "taskmix.cli", "synth", "--preset", "long",
                           "--out", str(out)], env=package_env(), capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (out / "manifest.json").is_file()
