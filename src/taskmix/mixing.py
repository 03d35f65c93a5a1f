"""Convex-combination augmentation: within-task mixup and cross-task blends.

Two uses share the same primitive mix(a, b, lam) = lam*a + (1-lam)*b:

  * metamix_augment blends a task's query batch with a shuffled copy of
    itself, giving each task an extra smoothed gradient term;
  * taskmix_synthesize blends the support/query batches of two randomly
    chosen training tasks into a synthetic task, a (support batches, query
    batch) pair shaped like a real task's, widening the task distribution
    the learner adapts to.

Mixing coefficients are Beta(eta, eta) draws. Sampling goes through
Marsaglia-Tsang gamma generation so coefficient streams are fully owned by
this package and stable across numpy versions. All augmentation draws use
dedicated RNG substreams, so disabling augmentation (or setting the
synthetic count to zero) leaves the base training trajectory bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Batch
from .errors import ConfigError


@dataclass
class MixConfig:
    """Augmentation knobs shared by query mixup and synthetic tasks.

    n_synthetic None means "as many synthetic tasks as real training tasks";
    0 disables synthesis entirely.
    """

    eta: float = 0.5
    n_synthetic: int | None = None

    def validate(self) -> None:
        if not (self.eta > 0):
            raise ConfigError(f"mix.eta must be positive, got {self.eta}")
        if self.n_synthetic is not None and self.n_synthetic < 0:
            raise ConfigError(f"mix.n_synthetic must be >= 0, got {self.n_synthetic}")


def sample_gamma(shape_param: float, rng: np.random.Generator) -> tuple[float, float]:
    """One Gamma(shape_param, 1) draw and its logarithm, via Marsaglia-Tsang
    squeeze rejection.

    Shapes below 1 are boosted through Gamma(a+1) times U^(1/a). For small
    shapes that product can underflow to 0; its logarithm, log Gamma(a+1) +
    log(U)/a, stays finite.
    """
    a = float(shape_param)
    if a < 1.0:
        u = rng.random()
        g, log_g = sample_gamma(a + 1.0, rng)
        return g * u ** (1.0 / a), log_g + (math.log(u) if u else -math.inf) / a
    d = a - 1.0 / 3.0
    c = 1.0 / math.sqrt(9.0 * d)
    while True:
        x = rng.standard_normal()
        v = 1.0 + c * x
        if v <= 0:
            continue
        v = v * v * v
        u = rng.random()
        if u < 1.0 - 0.0331 * x * x * x * x:
            break
        if math.log(u) < 0.5 * x * x + d * (1.0 - v + math.log(v)):
            break
    return d * v, math.log(d * v)


def sample_beta(eta: float, rng: np.random.Generator) -> float:
    """Beta(eta, eta) as g1 / (g1 + g2) of two gamma draws.

    For small eta both draws can underflow to 0; the ratio then comes from
    their logarithms, as the logistic function of log g1 - log g2.
    """
    g1, log_g1 = sample_gamma(eta, rng)
    g2, log_g2 = sample_gamma(eta, rng)
    if g1 + g2 > 0:
        return g1 / (g1 + g2)
    return 0.5 * (1.0 + math.tanh(0.5 * (log_g1 - log_g2)))


def mix_arrays(a: np.ndarray, b: np.ndarray, lam: float) -> np.ndarray:
    """lam*a + (1-lam)*b with exact endpoints.

    Written as b + lam*(a - b) so lam=0 reproduces b bit for bit and mixing
    an array with itself is the identity; lam=1 is special-cased because
    b + (a - b) re-rounds.
    """
    if lam == 1.0:
        return a.copy()
    return b + lam * (a - b)


def mix_batches(a: Batch, b: Batch, lam: float) -> Batch:
    """Features, soft labels, and class weights all mixed with the same lam."""
    return Batch(
        x=mix_arrays(a.x, b.x, lam),
        y=mix_arrays(a.y, b.y, lam),
        w=mix_arrays(a.w, b.w, lam),
    )


def metamix_augment(batch: Batch, cfg: MixConfig, rng: np.random.Generator) -> Batch:
    """Blend a batch with a row-shuffled copy of itself.

    One permutation and one coefficient per call, drawn in that order; the
    weight vector is untouched since both operands share it. A single-row
    batch can only pair with itself and comes back unchanged.
    """
    perm = rng.permutation(batch.x.shape[0])
    lam = sample_beta(cfg.eta, rng)
    partner = Batch(x=batch.x[perm], y=batch.y[perm], w=batch.w)
    return mix_batches(batch, partner, lam)


def taskmix_synthesize(
    per_task: list[tuple[list[Batch], Batch]],
    cfg: MixConfig,
    rng: np.random.Generator,
) -> list[tuple[list[Batch], Batch]]:
    """Blend random pairs of this step's real task batches into new tasks.

    per_task holds each real task's (support batches, query batch) for the
    current outer step, and each synthetic task comes back in that same
    shape. Every synthetic task draws an independent source pair i, j (a
    task may pair with itself), then a single coefficient lam, and mixes
    support-with-support (stepwise) and query-with-query. All draws come
    from the one stream passed in, which nothing else consumes; a synthetic
    count of zero therefore draws nothing and changes nothing.
    """
    n_syn = len(per_task) if cfg.n_synthetic is None else int(cfg.n_synthetic)
    out = []
    for _ in range(n_syn):
        i = int(rng.integers(0, len(per_task)))
        j = int(rng.integers(0, len(per_task)))
        lam = sample_beta(cfg.eta, rng)
        support_i, query_i = per_task[i]
        support_j, query_j = per_task[j]
        support = [mix_batches(a, b, lam) for a, b in zip(support_i, support_j)]
        out.append((support, mix_batches(query_i, query_j, lam)))
    return out
