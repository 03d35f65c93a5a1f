"""Update rules and schedules: inner-loop SGD, outer-loop Adam with bias
correction, cosine-annealed learning rate, and patience-based early stopping.
Adam keeps no state: its moment vectors are the caller's, written in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .config import Schedule

MINIMIZE = "minimize"
MAXIMIZE = "maximize"


def sgd_step(params: np.ndarray, grads: np.ndarray, lr: float) -> np.ndarray:
    """p' = p - lr * g over one flat parameter vector."""
    return params - lr * grads


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def adam_step(m: np.ndarray, v: np.ndarray, t: int, params: np.ndarray, grads: np.ndarray,
              lr: float) -> np.ndarray:
    """Step t (counted from 1) of bias-corrected Adam on a flat vector;
    returns the new parameters. The moments m and v, zeros before step 1,
    are the caller's and are written in place. The float operations and
    their order are those of the textbook formula
    params - lr * (m / mc) / (sqrt(v / vc) + eps).
    """
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    m *= b1
    m += (1.0 - b1) * grads
    v *= b2
    v += (1.0 - b2) * grads * grads
    mc = 1.0 - b1**t
    vc = 1.0 - b2**t
    step = m / mc
    step *= lr
    denom = v / vc
    np.sqrt(denom, out=denom)
    denom += ADAM_EPS
    step /= denom
    return params - step


def cosine_lr(step: int, schedule: Schedule) -> float:
    """Cosine annealing from lr_max to lr_min, clamped beyond max_step."""
    s = min(step, schedule.max_step)
    span = schedule.lr_max - schedule.lr_min
    return schedule.lr_min + 0.5 * span * (1.0 + math.cos(math.pi * s / schedule.max_step))


@dataclass
class EarlyStopper:
    """Stops after `patience` (>= 1, as config validation ensures)
    consecutive non-improving evaluations, toward MINIMIZE or MAXIMIZE.

    Keeps a copy of the best-scoring flat parameter vector; the snapshot is
    the training result, never the last step's parameters.
    """

    patience: int
    direction: str = MINIMIZE
    best_value: float | None = None
    best_step: int = -1
    best_params: Any = None
    bad_count: int = field(default=0)

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
