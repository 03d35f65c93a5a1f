"""Convex-combination augmentation: within-task mixup and cross-task blends.

Two uses share the same primitive mix(a, b, lam) = lam*a + (1-lam)*b:

  * metamix_augment blends each task's query batch with a shuffled copy of
    itself, giving each task an extra smoothed gradient term;
  * taskmix_synthesize blends the support/query batches of two randomly
    chosen training tasks into a synthetic task shaped like a real task's,
    widening the task distribution the learner adapts to. It gathers each
    source task's batches from their row indices when it mixes them.

metamix_augment returns a stack of task units (a Batch with a leading unit
axis, as `nn` takes them); taskmix_synthesize fills one unit of such a stack.

Mixing coefficients are Beta(eta, eta) draws. Sampling goes through
Marsaglia-Tsang gamma generation so coefficient streams are fully owned by
this package and stable across numpy versions. All augmentation draws use
dedicated RNG substreams, so disabling augmentation (or setting the
synthetic count to zero) leaves the base training trajectory bit-identical.
"""

from __future__ import annotations

import math

import numpy as np

from .config import MixConfig
from .data import Batch, Task, gather_batch


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


def mix_arrays(a: np.ndarray, b: np.ndarray, lam: float, out=None) -> np.ndarray:
    """lam*a + (1-lam)*b with exact endpoints, written into out if given.

    Written as b + lam*(a - b) so lam=0 reproduces b bit for bit and mixing
    an array with itself is the identity; lam=1 is special-cased because
    b + (a - b) re-rounds.
    """
    if out is None:
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), np.result_type(a, b))
    if lam == 1.0:
        np.copyto(out, a)
    else:
        np.subtract(a, b, out=out)
        out *= lam
        out += b
    return out


def mix_batches(a: Batch, b: Batch, lam: float, out: Batch | None = None) -> Batch:
    """Features, soft labels, and class weights all mixed with the same lam,
    written into out's arrays if given."""
    slots = (None, None, None) if out is None else (out.x, out.y, out.w)
    return Batch(*(mix_arrays(p, q, lam, o)
                   for p, q, o in zip((a.x, a.y, a.w), (b.x, b.y, b.w), slots)))


def metamix_augment(batch: Batch, cfg: MixConfig, rngs) -> Batch:
    """Blend each unit of a stack of batches with a row-shuffled copy of itself.

    batch holds G units (x [G, B, D], y [G, B, C], w [G, C]) and rngs one
    generator per unit. Each unit draws one permutation and one coefficient
    from its own generator, in that order. The weight vectors are untouched
    since both operands share them. A single-row batch can only pair with
    itself and comes back unchanged.
    """
    x, y = np.empty_like(batch.x), np.empty_like(batch.y)
    for g, rng in enumerate(rngs):
        perm = rng.permutation(batch.x.shape[1])
        lam = sample_beta(cfg.eta, rng)
        mix_arrays(batch.x[g], batch.x[g][perm], lam, out=x[g])
        mix_arrays(batch.y[g], batch.y[g][perm], lam, out=y[g])
    return Batch(x=x, y=y, w=batch.w)


def taskmix_synthesize(tasks: list[Task], rows: np.ndarray, cfg: MixConfig,
                       rng: np.random.Generator, out: Batch) -> Batch:
    """Blend a random pair of this step's real tasks into one new task, in out.

    rows [T, S + 1, B] holds the row indices of every real task's batches of
    the current outer step: its S support batches, then its query batch. out
    is one unit's slot (x [S + 1, B, D], y [S + 1, B, C], w [C]). The call
    draws a source pair i, j (a task may pair with itself), then a single
    coefficient lam; it gathers the two tasks' batches (data.gather_batch)
    and mixes every batch of task i with the same batch of task j. All draws
    come from the one stream passed in, which nothing else consumes, so
    consecutive calls continue one sequence.
    """
    i = int(rng.integers(0, len(tasks)))
    j = int(rng.integers(0, len(tasks)))
    lam = sample_beta(cfg.eta, rng)
    # task i is gathered into the slot and mixed there: mix_arrays reads each
    # element before it writes it
    gather_batch(tasks[i], rows[i], out=out)
    return mix_batches(out, gather_batch(tasks[j], rows[j]), lam, out=out)
