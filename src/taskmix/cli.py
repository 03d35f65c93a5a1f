"""Command-line front door.

Commands: synth (generate a task family), convert (CSV feature dump to the
binary task format), train (one training phase), experiment (methods x
seeds matrix with resumable cells), report (re-render a results directory).

Every configuration key is overridable by a flag of the same dotted name
(for example --meta.inner_lr 0.02); `--config` accepts a JSON file path or
a preset name (long, wide). Exit codes: 0 success, 2 configuration
error (ConfigError, or a configured size too large to allocate), 3 data
error (DataError), 4 training divergence (TrainingDivergedError).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import (
    AUG_NONE,
    METHOD_AUGMENTATION,
    METHODS,
    RunConfig,
    from_dict,
    leaf_types,
    parse_flag_value,
    set_dotted,
    to_dict,
)
from .data import (
    ROLES,
    build_task,
    load_dataset,
    manifest_dim,
    read_csv_features,
    read_json,
    read_manifest,
    read_task_file,
    write_dataset,
    write_task_file,
    write_text_atomic,
)
from .errors import ConfigError, DataError, TaskMixError, TrainingDivergedError
from .evaluation import read_cell, render_report, run_method, summarize, train_phase
from .nn import ModelParams
from .synth import preset, task_records

# `--config` names usable in place of a file: full-scale hyperparameters (the
# RunConfig defaults) matched to the two synthetic corpus shapes.
PRESETS = {"wide": {}, "long": {"model": {"hidden": [128] * 6}}}


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="JSON config file, or a preset name (long, wide)")
    for dotted in leaf_types():
        parser.add_argument(f"--{dotted}", dest=dotted, metavar="V", default=None,
                            help=f"override config key {dotted}")


def _read_config(name: str) -> RunConfig:
    """The config of a JSON file, or else of a preset of that name."""
    path = Path(name)
    if not path.exists():
        if name in PRESETS:
            return from_dict(PRESETS[name])
        raise ConfigError(f"config file not found: {name}")
    data = read_json(path, ConfigError)
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: config must be a JSON object")
    return from_dict(data)


def _resolve_config(args: argparse.Namespace, methods=None) -> RunConfig:
    """The config of the file or preset with each override flag set, validated.

    Each method trains with its own augmentation, so meta.augmentation must be
    none or that of every method run (methods, default [cfg.method]).
    """
    cfg = _read_config(args.config) if args.config else RunConfig()
    flags = vars(args)
    for dotted, tp in leaf_types().items():
        raw = flags.get(dotted)
        if raw is not None:
            set_dotted(cfg, dotted, parse_flag_value(raw, tp, dotted))
    cfg.validate()
    for method in methods or [cfg.method]:
        if cfg.meta.augmentation not in (AUG_NONE, METHOD_AUGMENTATION.get(method)):
            raise ConfigError(f"meta.augmentation {cfg.meta.augmentation!r} does not match "
                              f"method {method!r} (use 'none' or the method's own)")
    return cfg


def _require(cfg: RunConfig, key: str):
    value = getattr(cfg, key)
    if value is None:
        raise ConfigError(f"config key {key!r} is required (set it in the file or pass --{key})")
    return value


def _params_to_jsonable(params: ModelParams) -> dict:
    layers, (weight, bias) = params.layout.views(params.flat)
    return {
        "layers": [
            {"weight": w.tolist(), "bias": b.tolist(), "slope": s.tolist()}
            for w, b, s in layers
        ],
        "head": {"weight": weight.tolist(), "bias": bias.tolist()},
    }


def _write_json(path: Path, payload) -> None:
    write_text_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


# The files train writes in --out, and those of a report in its directory.
TRAIN_FILES = ("model.json", "summary.json", "history.jsonl", "config.json")
REPORT_FILES = ("report.txt", "report.json")


def _check_output_files(base, names) -> None:
    """A directory where the command will write one of the files names in
    base is a configuration error, raised before it trains or writes."""
    for path in (Path(base) / name for name in names):
        if path.is_dir():
            raise ConfigError(f"{path}: is a directory where the command writes a file")


def _output_dir(path) -> Path:
    """path as a directory, made with its parents if missing. A path that
    cannot be one (a file is in the way) is a configuration error."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"{path}: cannot make output directory ({exc.strerror})") from exc
    return path


def cmd_synth(args) -> int:
    spec = preset(args.preset, args.scale)
    spec.seed = args.seed
    records = task_records(spec)  # checks the spec before --out is made
    out = _output_dir(args.out)
    try:
        manifest_path = write_dataset(records, spec.dim, out)
    except (IsADirectoryError, NotADirectoryError) as exc:  # a path of the wrong kind
        raise ConfigError(f"{exc.filename or out}: cannot write ({exc.strerror})") from exc
    print(manifest_path)
    return 0


def cmd_convert(args) -> int:
    if args.task_id in ("", ".", "..") or Path(args.task_id).name != args.task_id:
        raise ConfigError(f"--id {args.task_id!r} must be a plain file name")
    features, labels, n_classes = read_csv_features(args.csv)
    out = Path(args.out)
    manifest_path = out / "manifest.json"
    manifest = {"dim": int(features.shape[1]), "tasks": []}
    if manifest_path.exists():  # load_dataset's dim, or with no task the CSV's width
        manifest = read_manifest(manifest_path)
        dim = manifest_dim(manifest, (read_task_file(out / t["file"])[0].shape[1]
                                      for t in manifest["tasks"]))
        if dim not in (None, features.shape[1]):
            raise DataError(f"{args.csv}: feature dimension {features.shape[1]} does not match "
                            f"manifest dimension {dim}")
    if any(t["id"] == args.task_id for t in manifest["tasks"]):
        raise DataError(f"task id {args.task_id!r} already present in {manifest_path}")
    # the checks loading makes of the task, before --out is made or written
    build_task({"id": args.task_id, "role": args.role, "n_classes": n_classes,
                "features": features, "labels": labels}, n_classes, args.csv)
    _output_dir(out)
    filename = f"{args.task_id}.tmxf"
    write_task_file(out / filename, features, labels, n_classes)
    manifest["tasks"].append({"id": args.task_id, "role": args.role, "file": filename})
    _write_json(manifest_path, manifest)
    print(manifest_path)
    return 0


def _write_run(out: Path, cfg: RunConfig, history: list[dict], model=None) -> None:
    """train's files in out: model.json and summary.json of the trained
    model (none after a divergence), history.jsonl, one JSON line per step
    record, and config.json. Every one of them an earlier run left there is
    removed first, so each file in out describes this run even when a write
    is interrupted."""
    for name in TRAIN_FILES:
        (out / name).unlink(missing_ok=True)
    if model is not None:
        _write_json(out / "model.json", _params_to_jsonable(model.params))
        _write_json(out / "summary.json", {
            "method": cfg.method,
            "seed": cfg.seeds[0],
            "stopped_at": model.stopped_at,
            "best_step": model.best_step,
            "best_value": model.best_value,
        })
    write_text_atomic(out / "history.jsonl",
                      "".join(json.dumps(r, sort_keys=True) + "\n" for r in history))
    _write_json(out / "config.json", to_dict(cfg))


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    if cfg.method == "vanilla":  # checked before the corpus is read or --out made
        raise ConfigError(f"method {cfg.method!r} has no training phase")
    dataset = load_dataset(_require(cfg, "dataset"))
    _check_output_files(_require(cfg, "out"), TRAIN_FILES)
    out = _output_dir(cfg.out)
    try:
        model = train_phase(dataset, cfg.method, cfg, cfg.seeds[0])
    except TrainingDivergedError as exc:
        _write_run(out, cfg, exc.history)
        raise
    _write_run(out, cfg, model.history, model)
    print(out / "model.json")
    return 0


def _read_cells(base: Path) -> dict:
    """{(method, seed): seed record} of every result cell under base/results,
    each checked by read_cell."""
    cells = {}
    for path in sorted((base / "results").glob("*/seed_*.json")):
        method, record = read_cell(read_json(path), path)
        cells[method, record["seed"]] = record
    return cells


def _publish_report(base: Path, cells: dict) -> None:
    """Summarize each method's records in seed order, write report.txt and
    report.json, print the table."""
    if not cells:
        raise DataError(f"no result cells found under {base / 'results'}")
    by_method: dict[str, list[dict]] = {}
    for (method, _), record in sorted(cells.items()):
        by_method.setdefault(method, []).append(record)
    text, ordered = render_report([summarize(m, records) for m, records in by_method.items()])
    write_text_atomic(base / "report.txt", text)
    _write_json(base / "report.json", ordered)
    print(text, end="")


def _reject_repeats(name: str, values) -> None:
    """A matrix runs each method and seed once, so `report` can rebuild it."""
    seen = set()
    for value in values:
        if value in seen:
            raise ConfigError(f"{name} lists {value!r} more than once")
        seen.add(value)


def cmd_experiment(args) -> int:
    if args.methods is not None:
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
        if not methods:
            raise ConfigError(f"--methods {args.methods!r} names no method")
    else:
        methods = list(METHODS)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    _reject_repeats("--methods", methods)
    cfg = _resolve_config(args, methods)
    _reject_repeats("seeds", cfg.seeds)
    dataset = load_dataset(_require(cfg, "dataset"))
    _check_output_files(_require(cfg, "out"), ("config.json", *REPORT_FILES))
    out = _output_dir(cfg.out)
    cells = _read_cells(out)  # every existing cell is checked before any training
    for method in methods:
        for seed in cfg.seeds:
            if (method, seed) in cells:
                continue
            cell = _output_dir(out / "results" / method) / f"seed_{seed}.json"
            try:
                record = run_method(dataset, method, cfg, seed)
            except TaskMixError as exc:
                exc.args = (f"method {method!r}, seed {seed}: {exc}",)
                raise
            _write_json(cell, {"method": method, **record})
            cells[method, seed] = record
    _write_json(out / "config.json", to_dict(cfg))
    _publish_report(out, cells)
    return 0


def cmd_report(args) -> int:
    base = Path(args.in_dir)
    _check_output_files(base, REPORT_FILES)
    _publish_report(base, _read_cells(base))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taskmix",
        description="Meta-learning training engine over precomputed embedding features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic task family")
    p_synth.add_argument("--preset", choices=["long", "wide"], required=True)
    p_synth.add_argument("--scale", type=float, default=0.05,
                         help="fraction of the full per-task example budget (default 0.05)")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out", required=True, help="output directory")
    p_synth.set_defaults(func=cmd_synth)

    p_convert = sub.add_parser("convert", help="ingest a CSV feature dump as one task")
    p_convert.add_argument("--csv", required=True, help="CSV with header label,f0,...,f{D-1}")
    p_convert.add_argument("--id", dest="task_id", required=True,
                           help="task id, a plain file name (written as <id>.tmxf)")
    p_convert.add_argument("--role", choices=list(ROLES), required=True)
    p_convert.add_argument("--out", dest="out", required=True,
                           help="dataset directory (manifest is created or extended)")
    p_convert.set_defaults(func=cmd_convert)

    p_train = sub.add_parser("train", help="run one training phase and save the model")
    _add_override_flags(p_train)
    p_train.set_defaults(func=cmd_train)

    p_exp = sub.add_parser("experiment", help="run a methods x seeds matrix and report")
    p_exp.add_argument("--methods", default=None,
                       help=f"comma-separated subset of {','.join(METHODS)} (default: all)")
    _add_override_flags(p_exp)
    p_exp.set_defaults(func=cmd_experiment)

    p_rep = sub.add_parser("report", help="re-render the report for a results directory")
    p_rep.add_argument("--in", dest="in_dir", required=True, help="experiment output directory")
    p_rep.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        # the large arrays are sized by the configuration: batch size, layer widths
        print(f"error: a configured size does not fit in memory ({exc})", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
