"""Command-line behavior: files written, exit codes, overrides, resume."""

import json
import math
import os
import random
import re
from pathlib import Path

import numpy as np
import pytest

from taskmix.cli import _resolve_config, build_parser, main
from taskmix.config import RunConfig, from_dict, to_dict
from taskmix.data import load_dataset, read_task_file, write_dataset, write_task_file
from taskmix.evaluation import train_phase

from util import tiny_config, tiny_dataset


def write_config(tmp_path: Path, **sections) -> Path:
    cfg = tiny_config(**sections)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(to_dict(cfg)))
    return path


def write_tiny_dataset(tmp_path: Path, seed=30) -> Path:
    return write_dataset(tiny_dataset(seed=seed), tmp_path / "data")


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


def csv_text(rows):
    return "\n".join(["label,f0,f1"] + rows) + "\n"


def test_convert_roundtrip(tmp_path, capsys):
    csv = tmp_path / "task.csv"
    csv.write_text(csv_text(["0,1.0,2.0", "1,3.0,4.0", "0,5.0,6.0",
                             "1,0.5,0.25", "0,2.5,1.5", "1,9.0,8.0"]))
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
    manifest = write_tiny_dataset(tmp_path, seed=38)
    cfg = write_config(tmp_path)
    out = tmp_path / "e"
    assert main(experiment_argv(manifest, cfg, out, ",,")) == 2
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
        manifest["dim"] = 0
        for entry in manifest["tasks"]:
            path = tmp_path / "data" / entry["file"]
            features, labels, n_classes = read_task_file(path)
            write_task_file(path, features[:, :0], labels, n_classes)

    manifest = manifest_with(tmp_path, zero_width)
    assert train_exit_code(tmp_path, manifest) == 3
    first = json.loads(manifest.read_text())["tasks"][0]["file"]
    assert f"{first}: feature dimension is 0" in capsys.readouterr().err


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
    # No manifest splits: load_dataset splits 70/10/20 per class, and a class of
    # 4 rows goes 3/0/1, leaving the validation split empty.
    csv = tmp_path / "task.csv"
    csv.write_text(csv_text([f"{i % 2},{i}.0,{i}.5" for i in range(8)]))
    out = tmp_path / "ds"
    for task_id, role in (("a", "meta_train"), ("b", "meta_test")):
        assert main(["convert", "--csv", str(csv), "--id", task_id, "--role", role,
                     "--out", str(out)]) == 0
    assert train_exit_code(tmp_path, out / "manifest.json") == 3
    assert "empty validation split" in capsys.readouterr().err


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
        csv.write_text(csv_text(["0,1.0,2.0", "1,3.0,4.0"]))
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


def test_convert_with_a_directory_as_manifest_is_a_data_error(tmp_path, capsys):
    out = tmp_path / "ds"
    (out / "manifest.json").mkdir(parents=True)
    assert main(out_argv("convert", tmp_path, out)) == 3
    assert_one_error_line(capsys, out / "manifest.json")
    assert not (out / "t0.tmxf").exists()


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
