"""Run configuration: nested dataclasses, strict JSON loading, dotted keys.

A run is fully described by one JSON document with sections (model, meta,
schedule, finetune, mix) plus top-level keys (dataset, method, seeds, out).
Loading is strict: unknown keys and wrongly typed values are rejected with
the offending dotted key named, so a typo never silently falls back to a
default. Every leaf is addressable by its dotted name, which is what the
command line exposes as override flags.
"""

from __future__ import annotations

import dataclasses
import types
import typing
from dataclasses import dataclass, field

from .errors import ConfigError
from .mixing import MixConfig
from .nn import GRAD_MODES
from .optim import Schedule

AUG_NONE = "none"
AUG_METAMIX = "metamix"
AUG_TASKMIX = "taskmix"
AUG_BOTH = "both"
AUGMENTATIONS = (AUG_NONE, AUG_METAMIX, AUG_TASKMIX, AUG_BOTH)

METHODS = (
    "mtl",
    "vanilla",
    "maml",
    "maml+metamix",
    "maml+taskmix",
    "maml+metamix+taskmix",
)

# method name -> augmentation mode for the meta-training phase
METHOD_AUGMENTATION = {
    "maml": AUG_NONE,
    "maml+metamix": AUG_METAMIX,
    "maml+taskmix": AUG_TASKMIX,
    "maml+metamix+taskmix": AUG_BOTH,
}


@dataclass
class ModelConfig:
    hidden: list[int] = field(default_factory=lambda: [768, 768, 768])


@dataclass
class MetaConfig:
    """Outer/inner loop hyperparameters for meta-training (and MTL, which
    reuses batch size, step budget, and early stopping)."""

    inner_lr: float = 0.01
    inner_steps: int = 5
    batch_size: int = 1024
    grad_mode: str = "first_order"
    augmentation: str = AUG_NONE
    max_steps: int = 5000
    eval_every: int = 50
    patience: int = 10


@dataclass
class FinetuneConfig:
    lr: float = 0.001
    max_steps: int = 1000
    eval_every: int = 10
    patience: int = 10


@dataclass
class RunConfig:
    dataset: str | None = None
    method: str = "maml"
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    out: str | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    schedule: Schedule = field(default_factory=lambda: Schedule(lr_max=0.001))
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    mix: MixConfig = field(default_factory=MixConfig)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list")
        for h in self.model.hidden:
            if h < 1:
                raise ConfigError(f"model.hidden entries must be >= 1, got {h}")
        m = self.meta
        if m.inner_lr <= 0:
            raise ConfigError(f"meta.inner_lr must be positive, got {m.inner_lr}")
        if m.inner_steps < 0:
            raise ConfigError(f"meta.inner_steps must be >= 0, got {m.inner_steps}")
        if m.batch_size < 1:
            raise ConfigError(f"meta.batch_size must be >= 1, got {m.batch_size}")
        if m.grad_mode not in GRAD_MODES:
            raise ConfigError(
                f"meta.grad_mode must be one of {GRAD_MODES}, got {m.grad_mode!r}"
            )
        if m.augmentation not in AUGMENTATIONS:
            raise ConfigError(
                f"meta.augmentation must be one of {AUGMENTATIONS}, got {m.augmentation!r}"
            )
        if m.max_steps < 0:
            raise ConfigError(f"meta.max_steps must be >= 0, got {m.max_steps}")
        if m.eval_every < 1:
            raise ConfigError(f"meta.eval_every must be >= 1, got {m.eval_every}")
        if m.patience < 1:
            raise ConfigError(f"meta.patience must be >= 1, got {m.patience}")
        f = self.finetune
        if f.lr <= 0:
            raise ConfigError(f"finetune.lr must be positive, got {f.lr}")
        if f.max_steps < 0:
            raise ConfigError(f"finetune.max_steps must be >= 0, got {f.max_steps}")
        if f.eval_every < 1:
            raise ConfigError(f"finetune.eval_every must be >= 1, got {f.eval_every}")
        if f.patience < 1:
            raise ConfigError(f"finetune.patience must be >= 1, got {f.patience}")
        self.mix.validate()
        # Schedule validates itself on construction.


# ---------------------------------------------------------------------------
# Strict construction from plain dicts
# ---------------------------------------------------------------------------


def _type_name(tp) -> str:
    return getattr(tp, "__name__", str(tp))


def _is_union(origin) -> bool:
    return origin is typing.Union or origin is types.UnionType


def _coerce(value, tp, path: str):
    origin = typing.get_origin(tp)
    if _is_union(origin):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if value is None:
            if len(args) < len(typing.get_args(tp)):
                return None
            raise ConfigError(f"config key {path!r} must not be null")
        return _coerce(value, args[0], path)
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, path)
    if origin is list:
        if not isinstance(value, list):
            raise ConfigError(f"config key {path!r} expects a list, got {value!r}")
        (elem_tp,) = typing.get_args(tp)
        return [_coerce(v, elem_tp, f"{path}[{i}]") for i, v in enumerate(value)]
    if tp is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"config key {path!r} expects a number, got {value!r}")
        return float(value)
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {path!r} expects an integer, got {value!r}")
        return int(value)
    if tp is str:
        if not isinstance(value, str):
            raise ConfigError(f"config key {path!r} expects a string, got {value!r}")
        return value
    raise ConfigError(f"config key {path!r} has unsupported type {_type_name(tp)}")


def _build(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path or 'root'!r} must be an object, got {data!r}")
    hints = typing.get_type_hints(cls)
    known = {f.name for f in dataclasses.fields(cls)}
    for key in data:
        if key not in known:
            dotted = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key {dotted!r}")
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data:
            dotted = f"{path}.{f.name}" if path else f.name
            kwargs[f.name] = _coerce(data[f.name], hints[f.name], dotted)
    return cls(**kwargs)


def from_dict(data: dict) -> RunConfig:
    """Build a RunConfig from a nested dict, rejecting unknown keys."""
    return _build(RunConfig, data, "")


# ---------------------------------------------------------------------------
# Dotted-key utilities (single source of truth for CLI override flags)
# ---------------------------------------------------------------------------


def leaf_types() -> dict[str, object]:
    """Map every dotted config key to its leaf type, in declaration order."""
    out: dict[str, object] = {}

    def walk(cls, prefix: str):
        hints = typing.get_type_hints(cls)
        for f in dataclasses.fields(cls):
            dotted = f"{prefix}.{f.name}" if prefix else f.name
            tp = hints[f.name]
            if dataclasses.is_dataclass(tp):
                walk(tp, dotted)
            else:
                out[dotted] = tp

    walk(RunConfig, "")
    return out


def to_dict(cfg: RunConfig) -> dict:
    """Plain nested dict of a config, suitable for JSON round-tripping."""
    return dataclasses.asdict(cfg)


def set_dotted(data: dict, dotted: str, value) -> None:
    """Set a (possibly nested) key in a plain config dict."""
    parts = dotted.split(".")
    node = data
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"config key {dotted!r} clashes with a non-section value")
    node[parts[-1]] = value


def parse_flag_value(text: str, tp, dotted: str):
    """Parse a command-line override string into the leaf's declared type."""
    origin = typing.get_origin(tp)
    if _is_union(origin):
        args = [a for a in typing.get_args(tp) if a is not type(None)]
        if text.lower() in ("none", "null"):
            return None
        return parse_flag_value(text, args[0], dotted)
    if origin is list:
        (elem_tp,) = typing.get_args(tp)
        items = [s for s in text.split(",") if s != ""]
        return [parse_flag_value(s, elem_tp, dotted) for s in items]
    try:
        if tp is int:
            return int(text)
        if tp is float:
            return float(text)
        if tp is str:
            return text
    except ValueError:
        raise ConfigError(
            f"flag --{dotted} expects {_type_name(tp)}, got {text!r}"
        ) from None
    raise ConfigError(f"flag --{dotted} has unsupported type {_type_name(tp)}")
