"""Update rules and schedules: inner-loop SGD, outer-loop Adam with bias
correction, and cosine-annealed learning rate. Nothing here keeps state:
Adam's moment vectors are the caller's, written in place, and the training
loop (`training._fit`) owns them along with early stopping's best snapshot
and patience count.
"""

from __future__ import annotations

import math

import numpy as np

from .config import Schedule


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
