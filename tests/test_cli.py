"""Command-line behavior: files written, exit codes, overrides, resume."""

import json
from pathlib import Path

import numpy as np
import pytest

from taskmix.cli import main
from taskmix.config import to_dict
from taskmix.data import load_dataset, write_dataset

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
    assert json.loads((out / "summary.json").read_text())["method"] == "mtl"


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


def test_bundled_presets_resolve(tmp_path, capsys):
    # bundled names parse and validate; full-size runs are not attempted here
    code = main(["train", "--config", "long", "--out", str(tmp_path / "r")])
    assert code == 2  # fails on the missing dataset, not on the preset
    assert "dataset" in capsys.readouterr().err


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
