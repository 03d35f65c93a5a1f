"""Command-line behavior: files written, exit codes, overrides, resume."""

import json
from pathlib import Path

import numpy as np
import pytest

from taskmix.cli import _resolve_config, build_parser, main
from taskmix.config import RunConfig, to_dict
from taskmix.data import load_dataset, read_task_file, write_dataset, write_task_file

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


def test_convert_reports_line_numbers(tmp_path, capsys):
    csv = tmp_path / "bad.csv"
    csv.write_text(csv_text(["0,1.0,2.0", "1,oops,4.0"]))
    code = main(["convert", "--csv", str(csv), "--id", "x", "--role", "meta_train",
                 "--out", str(tmp_path / "ds")])
    assert code == 3
    assert ":3:" in capsys.readouterr().err


def test_train_writes_model_and_history(tmp_path):
    manifest = write_tiny_dataset(tmp_path)
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    code = main(["train", "--config", str(cfg), "--dataset", str(manifest),
                 "--out", str(out), "--method", "maml"])
    assert code == 0
    assert (out / "history.jsonl").exists()
    model = json.loads((out / "model.json").read_text())
    assert {"layers", "head"} <= set(model)
    assert len(model["layers"]) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["method"] == "maml"
    assert "stopped_at" in summary
    saved = json.loads((out / "config.json").read_text())
    assert saved["method"] == "maml"


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


def test_experiment_rejects_unknown_method(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=38)
    cfg = write_config(tmp_path)
    code = main(experiment_argv(manifest, cfg, tmp_path / "e", "maml,protonet"))
    assert code == 2
    assert "protonet" in capsys.readouterr().err


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
    original = (out / "report.txt").read_bytes()
    (out / "report.txt").unlink()
    (out / "report.json").unlink()
    assert main(["report", "--in", str(out)]) == 0
    assert (out / "report.txt").read_bytes() == original


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
    # one overflowing fine-tune update must not be scored as a model
    code = main(experiment_argv(manifest, cfg, tmp_path / "exp", "vanilla", seeds="0")
                + ["--finetune.lr", "1e200", "--finetune.max_steps", "1",
                   "--finetune.eval_every", "1"])
    assert code == 4
    assert "non-finite validation_macro_f1 at step 0" in capsys.readouterr().err


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


def test_experiment_resume_with_truncated_cell_is_a_data_error(tmp_path, capsys):
    manifest = write_tiny_dataset(tmp_path, seed=42)
    cfg = write_config(tmp_path)
    out = tmp_path / "exp"
    assert main(experiment_argv(manifest, cfg, out, "vanilla", seeds="0")) == 0
    cell = out / "results" / "vanilla" / "seed_0.json"
    cell.write_text(cell.read_text()[:20])
    assert main(experiment_argv(manifest, cfg, out, "vanilla", seeds="0")) == 3
    assert str(cell) in capsys.readouterr().err


def test_report_with_truncated_cell_is_a_data_error(tmp_path, capsys):
    cell = tmp_path / "results" / "vanilla" / "seed_0.json"
    cell.parent.mkdir(parents=True)
    cell.write_text('{"method": "vanilla", "seed": 0, "average_')
    assert main(["report", "--in", str(tmp_path)]) == 3
    assert str(cell) in capsys.readouterr().err


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
    import taskmix.cli as cli

    manifest = write_tiny_dataset(tmp_path, seed=43)
    cfg = write_config(tmp_path)
    reference = tmp_path / "ref"
    assert main(experiment_argv(manifest, cfg, reference, "vanilla", seeds="0")) == 0

    def interrupted(src, dst):
        raise KeyboardInterrupt

    out = tmp_path / "exp"
    monkeypatch.setattr(cli.os, "replace", interrupted)
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
