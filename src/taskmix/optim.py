"""Update rules and schedules: inner-loop SGD, outer-loop Adam with bias
correction, cosine-annealed learning rate, and patience-based early stopping.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .errors import ConfigError

MINIMIZE = "minimize"
MAXIMIZE = "maximize"


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """p' = p - lr * g over one flat parameter vector."""
    return params - lr * grads


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: np.ndarray  # first moment, same layout as the parameter vector
    v: np.ndarray  # second moment
    t: int = 0

    @classmethod
    def init(cls, params: np.ndarray):
        return cls(m=np.zeros_like(params), v=np.zeros_like(params), t=0)


def adam_step(state: AdamState, params: np.ndarray, grads: np.ndarray, lr: float):
    """One bias-corrected Adam update of a flat vector; returns (new_state, new_params)."""
    t = state.t + 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m = b1 * state.m + (1.0 - b1) * grads
    v = b2 * state.v + (1.0 - b2) * grads * grads
    mc = 1.0 - b1**t
    vc = 1.0 - b2**t
    new_params = params - lr * (m / mc) / (np.sqrt(v / vc) + ADAM_EPS)
    return AdamState(m=m, v=v, t=t), new_params


@dataclass
class Schedule:
    lr_max: float
    lr_min: float = 0.0
    max_step: int = 5000

    def __post_init__(self):
        if not (self.lr_max >= self.lr_min >= 0.0):
            raise ConfigError(
                f"schedule requires lr_max >= lr_min >= 0, got {self.lr_max}, {self.lr_min}"
            )
        if self.max_step <= 0:
            raise ConfigError(f"schedule.max_step must be > 0, got {self.max_step}")


def cosine_lr(step: int, schedule: Schedule) -> float:
    """Cosine annealing from lr_max to lr_min, clamped beyond max_step."""
    s = min(step, schedule.max_step)
    span = schedule.lr_max - schedule.lr_min
    return schedule.lr_min + 0.5 * span * (1.0 + math.cos(math.pi * s / schedule.max_step))


@dataclass
class EarlyStopper:
    """Stops after `patience` consecutive non-improving evaluations.

    Keeps a copy of the best-scoring parameters (anything with a `.copy()`
    that owns its memory: a flat vector or ModelParams); the snapshot is the
    training result, never the last step's parameters.
    """

    patience: int
    direction: str = MINIMIZE
    best_value: float | None = None
    best_step: int = -1
    best_params: Any = None
    bad_count: int = field(default=0)

    def __post_init__(self):
        if self.direction not in (MINIMIZE, MAXIMIZE):
            raise ConfigError(f"unknown direction {self.direction!r}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")

    def _improved(self, value: float) -> bool:
        if self.best_value is None:
            return True
        if self.direction == MINIMIZE:
            return value < self.best_value
        return value > self.best_value

    def update(self, value: float, step: int, params) -> bool:
        """Record one evaluation; returns True when training should stop."""
        if self._improved(value):
            self.best_value = float(value)
            self.best_step = int(step)
            self.best_params = params.copy()
            self.bad_count = 0
            return False
        self.bad_count += 1
        return self.bad_count >= self.patience
