"""Run configuration: nested dataclasses, strict JSON loading, dotted keys.

A run is fully described by one JSON document with sections (model, meta,
schedule, finetune, mix) plus top-level keys (dataset, method, seeds, out).
Loading is strict: unknown keys and wrongly typed values are rejected with
the offending dotted key named, so a typo never silently falls back to a
default. Every leaf is addressable by its dotted name: the command line's
override flag of that name sets it on the config built from the file.
"""

from __future__ import annotations

import dataclasses
import math
import typing
from dataclasses import dataclass, field

from .errors import ConfigError
from .nn import GRAD_MODES
from .rng import in_seed_range

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

MAX_SYNTHETIC = 1 << 16  # mix.n_synthetic's bound: over 1,000x the wide preset's 54 tasks


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
class Schedule:
    """Cosine-annealed outer learning rate (optim.cosine_lr)."""

    lr_max: float = 0.001
    lr_min: float = 0.0
    max_step: int = 5000


@dataclass
class MixConfig:
    """Augmentation knobs shared by query mixup and synthetic tasks.

    n_synthetic None means "as many synthetic tasks as real training tasks";
    0 disables synthesis entirely.
    """

    eta: float = 0.5
    n_synthetic: int | None = None

    def synthetic_count(self, n_tasks: int) -> int:
        """Synthetic tasks per outer step beside n_tasks real ones."""
        return n_tasks if self.n_synthetic is None else int(self.n_synthetic)


@dataclass
class RunConfig:
    dataset: str | None = None
    method: str = "maml"
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2])
    out: str | None = None
    model: ModelConfig = field(default_factory=ModelConfig)
    meta: MetaConfig = field(default_factory=MetaConfig)
    schedule: Schedule = field(default_factory=Schedule)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    mix: MixConfig = field(default_factory=MixConfig)

    def validate(self) -> None:
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}, got {self.method!r}")
        if not self.seeds:
            raise ConfigError("seeds must be a non-empty list")
        for seed in self.seeds:  # a result cell's file name holds it too
            if not in_seed_range(seed):
                raise ConfigError(f"seeds entries must be 64-bit integers, got {seed}")
        for h in self.model.hidden:
            if h < 1:
                raise ConfigError(f"model.hidden entries must be >= 1, got {h}")
        m = self.meta
        if not (math.isfinite(m.inner_lr) and m.inner_lr > 0):
            raise ConfigError(f"meta.inner_lr must be positive and finite, got {m.inner_lr}")
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
        s = self.schedule
        # NaN fails every comparison; the finite lr_max bounds lr_min too
        if not (math.isfinite(s.lr_max) and s.lr_max >= s.lr_min >= 0.0):
            raise ConfigError(
                f"schedule requires finite lr_max >= lr_min >= 0, got {s.lr_max}, {s.lr_min}"
            )
        if s.max_step <= 0:
            raise ConfigError(f"schedule.max_step must be > 0, got {s.max_step}")
        f = self.finetune
        if not (math.isfinite(f.lr) and f.lr > 0):
            raise ConfigError(f"finetune.lr must be positive and finite, got {f.lr}")
        if f.max_steps < 0:
            raise ConfigError(f"finetune.max_steps must be >= 0, got {f.max_steps}")
        if f.eval_every < 1:
            raise ConfigError(f"finetune.eval_every must be >= 1, got {f.eval_every}")
        if f.patience < 1:
            raise ConfigError(f"finetune.patience must be >= 1, got {f.patience}")
        mix = self.mix
        if not (math.isfinite(mix.eta) and mix.eta > 0):
            raise ConfigError(f"mix.eta must be positive and finite, got {mix.eta}")
        if mix.n_synthetic is not None and not 0 <= mix.n_synthetic <= MAX_SYNTHETIC:
            raise ConfigError(f"mix.n_synthetic must be 0..{MAX_SYNTHETIC}, got {mix.n_synthetic}")


# ---------------------------------------------------------------------------
# Strict construction from plain dicts
# ---------------------------------------------------------------------------


def _optional(tp):
    """(X, True) for a type `X | None`, else (tp, False): the one rule by which
    a file's null and a flag's none or null set an optional key."""
    args = typing.get_args(tp)
    return (args[0], True) if type(None) in args else (tp, False)


def _coerce(value, tp, path: str):
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, path)
    tp, optional = _optional(tp)
    if value is None and optional:
        return None
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"config key {path!r} expects a list, got {value!r}")
        (elem_tp,) = typing.get_args(tp)
        return [_coerce(v, elem_tp, f"{path}[{i}]") for i, v in enumerate(value)]
    if tp is float:  # an int of 1,024 bits or more is refused: float() may overflow on it
        if not (isinstance(value, float) or type(value) is int and value.bit_length() < 1024):
            raise ConfigError(f"config key {path!r} expects a number, got {value!r}")
        return float(value)
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"config key {path!r} expects an integer, got {value!r}")
        return int(value)
    if not isinstance(value, str):
        raise ConfigError(f"config key {path!r} expects a string, got {value!r}")
    return value


def _build(cls, data, path: str):
    if not isinstance(data, dict):
        raise ConfigError(f"config section {path or 'root'!r} must be an object, got {data!r}")
    hints = typing.get_type_hints(cls)  # each field's type, so also the known keys
    kwargs = {}
    for key, value in data.items():
        dotted = f"{path}.{key}" if path else key
        if key not in hints:
            raise ConfigError(f"unknown config key {dotted!r}")
        kwargs[key] = _coerce(value, hints[key], dotted)
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


def set_dotted(cfg: RunConfig, dotted: str, value) -> None:
    """Set a leaf of a built config by its dotted key."""
    *sections, key = dotted.split(".")
    node = cfg
    for section in sections:
        node = getattr(node, section)
    setattr(node, key, value)


def parse_flag_value(text: str, tp, dotted: str):
    """Parse a command-line override string into the leaf's declared type."""
    tp, optional = _optional(tp)
    if optional and text.lower() in ("none", "null"):
        return None
    if typing.get_origin(tp) is list:
        (elem_tp,) = typing.get_args(tp)
        items = [s for s in text.split(",") if s != ""]
        return [parse_flag_value(s, elem_tp, dotted) for s in items]
    if tp is str:
        return text
    try:
        return tp(text)
    except ValueError:
        raise ConfigError(f"flag --{dotted} expects {tp.__name__}, got {text!r}") from None
