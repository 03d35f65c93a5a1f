"""Command-line front door.

Commands: synth (generate a task family), convert (CSV feature dump to the
binary task format), train (one training phase), experiment (methods x
seeds matrix with resumable cells), report (re-render a results directory).

Every configuration key is overridable by a flag of the same dotted name
(for example --meta.inner_lr 0.02); `--config` accepts a JSON file path or
a preset name (long, wide). Exit codes: 0 success, 2 configuration
error, 3 data error, 4 training divergence.
"""

from __future__ import annotations

import argparse
import copy
import json
import os
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
from .data import ROLES, load_dataset, read_csv_features, write_dataset, write_task_file
from .errors import (
    ConfigError,
    DataError,
    ShapeError,
    TaskMixError,
    TrainingDivergedError,
    UsageError,
)
from .evaluation import MetricsReport, render_report, run_method, summarize, train_phase
from .nn import ModelParams
from .synth import generate, preset

# `--config` names usable in place of a file: full-scale hyperparameters (the
# RunConfig defaults) matched to the two synthetic corpus shapes.
PRESETS = {"wide": {}, "long": {"model": {"hidden": [128] * 6}}}


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="JSON config file, or a preset name (long, wide)")
    for dotted in leaf_types():
        parser.add_argument(f"--{dotted}", dest=dotted, metavar="V", default=None,
                            help=f"override config key {dotted}")


def _read_config(name: str) -> dict:
    """The config dict of a JSON file, or else of a preset of that name."""
    path = Path(name)
    if not path.exists():
        if name in PRESETS:
            return copy.deepcopy(PRESETS[name])
        raise ConfigError(f"config file not found: {name}")
    try:
        data = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{name}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{name}: config must be a JSON object")
    return data


def _resolve_config(args: argparse.Namespace, methods=None) -> RunConfig:
    """The config of the file or preset, the override flags, then validated.

    Each method trains with its own augmentation, so meta.augmentation must be
    none or that of every method run (methods, default [cfg.method]).
    """
    data = _read_config(args.config) if args.config else {}
    flags = vars(args)
    for dotted, tp in leaf_types().items():
        raw = flags.get(dotted)
        if raw is not None:
            set_dotted(data, dotted, parse_flag_value(raw, tp, dotted))
    cfg = from_dict(data)
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
    return {
        "layers": [
            {
                "weight": layer.weight.tolist(),
                "bias": layer.bias.tolist(),
                "slope": layer.slope.tolist(),
            }
            for layer in params.layers
        ],
        "head": {
            "weight": params.head.weight.tolist(),
            "bias": params.head.bias.tolist(),
        },
    }


def _write_text(path: Path, text: str) -> None:
    """Write to a temp file in the same directory, then rename it over path:
    an interrupted run leaves the old file or none, never a truncated one."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_json(path: Path, payload) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _read_json(path: Path):
    try:
        return json.loads(path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: invalid JSON ({exc})") from exc


def cmd_synth(args) -> int:
    spec = preset(args.preset, args.scale)
    spec.seed = args.seed
    dataset = generate(spec)
    manifest = write_dataset(dataset, args.out)
    print(manifest)
    return 0


def cmd_convert(args) -> int:
    features, labels, n_classes = read_csv_features(args.csv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = out / "manifest.json"
    manifest = {"dim": int(features.shape[1]), "tasks": []}
    if manifest_path.exists():
        manifest = _read_json(manifest_path)
        tasks = manifest.get("tasks", []) if isinstance(manifest, dict) else None
        if not isinstance(tasks, list) or not all(isinstance(t, dict) for t in tasks):
            raise DataError(f"{manifest_path}: manifest must be an object with a 'tasks' list")
        if manifest.get("dim") != features.shape[1]:
            raise DataError(
                f"{args.csv}: feature dimension {features.shape[1]} does not match "
                f"manifest dimension {manifest.get('dim')}"
            )
        manifest.setdefault("tasks", [])
    if any(t.get("id") == args.task_id for t in manifest["tasks"]):
        raise DataError(f"task id {args.task_id!r} already present in {manifest_path}")
    filename = f"{args.task_id}.tmxf"
    write_task_file(out / filename, features, labels, n_classes)
    manifest["tasks"].append({"id": args.task_id, "role": args.role, "file": filename})
    _write_json(manifest_path, manifest)
    print(manifest_path)
    return 0


def cmd_train(args) -> int:
    cfg = _resolve_config(args)
    dataset = load_dataset(_require(cfg, "dataset"))
    out = Path(_require(cfg, "out"))
    out.mkdir(parents=True, exist_ok=True)
    seed = cfg.seeds[0]
    model = train_phase(dataset, cfg.method, cfg, seed, out / "history.jsonl")
    summary = {
        "method": cfg.method,
        "seed": seed,
        "stopped_at": model.stopped_at,
        "best_step": model.best_step,
        "best_value": model.best_value,
    }
    _write_json(out / "model.json", _params_to_jsonable(model.params))
    _write_json(out / "summary.json", summary)
    _write_json(out / "config.json", to_dict(cfg))
    print(out / "model.json")
    return 0


def _cell_payload(report: MetricsReport, method: str) -> dict:
    return {
        "method": method,
        "seed": report.seed,
        "average_macro_f1": report.average_macro_f1,
        "per_task": dict(sorted(report.per_task.items())),
    }


_CELL_FIELDS = {"method": str, "seed": int, "average_macro_f1": (int, float), "per_task": dict}


def _read_cell(path: Path) -> tuple[str, MetricsReport]:
    """(method, report) of one result cell; DataError naming the file if malformed."""
    cell = _read_json(path)
    cell = cell if isinstance(cell, dict) else {}
    bad = [k for k, tp in _CELL_FIELDS.items()
           if not isinstance(cell.get(k), tp) or isinstance(cell.get(k), bool)]
    if bad or not all(isinstance(v, (int, float)) for v in cell["per_task"].values()):
        raise DataError(f"{path}: result cell lacks or mistypes {', '.join(bad) or 'per_task'}")
    report = MetricsReport(cell["seed"], cell["per_task"], cell["average_macro_f1"])
    return cell["method"], report


def cmd_experiment(args) -> int:
    if args.methods:
        methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    else:
        methods = list(METHODS)
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; choose from {METHODS}")
    cfg = _resolve_config(args, methods)
    dataset = load_dataset(_require(cfg, "dataset"))
    out = Path(_require(cfg, "out"))
    results = out / "results"
    summaries = []
    for method in methods:
        reports = []
        for seed in cfg.seeds:
            cell_dir = results / method
            cell_dir.mkdir(parents=True, exist_ok=True)
            cell = cell_dir / f"seed_{seed}.json"
            if cell.exists():
                report = _read_cell(cell)[1]
            else:
                try:
                    report = run_method(dataset, method, cfg, seed)
                except TaskMixError as exc:
                    exc.args = (f"method {method!r}, seed {seed}: {exc}",)
                    raise
                _write_json(cell, _cell_payload(report, method))
            reports.append(report)
        summaries.append(summarize(method, reports))
    text, doc = render_report(summaries)
    _write_text(out / "report.txt", text)
    _write_text(out / "report.json", doc)
    _write_json(out / "config.json", to_dict(cfg))
    print(text, end="")
    return 0


def cmd_report(args) -> int:
    base = Path(args.in_dir)
    cells = sorted((base / "results").glob("*/seed_*.json"))
    if not cells:
        raise DataError(f"no result cells found under {base / 'results'}")
    by_method: dict[str, list[MetricsReport]] = {}
    for cell in cells:
        method, report = _read_cell(cell)
        by_method.setdefault(method, []).append(report)
    summaries = [
        summarize(method, sorted(reports, key=lambda r: r.seed))
        for method, reports in sorted(by_method.items())
    ]
    text, doc = render_report(summaries)
    _write_text(base / "report.txt", text)
    _write_text(base / "report.json", doc)
    print(text, end="")
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
    p_convert.add_argument("--id", dest="task_id", required=True, help="task id")
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
    except (ConfigError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (TrainingDivergedError, ShapeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


def entry() -> None:
    raise SystemExit(main())
