"""Mixup primitive identities, Beta sampling moments, and task synthesis."""

import numpy as np
import pytest

from taskmix import mixing
from taskmix.data import Batch, Task, one_hot
from taskmix.errors import ConfigError
from taskmix.mixing import (
    MixConfig,
    metamix_augment,
    mix_arrays,
    mix_batches,
    sample_beta,
    sample_gamma,
    taskmix_synthesize,
)
from taskmix.rng import substream

from util import random_batch, stacked


def test_mix_arrays_endpoint_identities():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 4))
    assert np.array_equal(mix_arrays(a, b, 0.0), b)
    assert np.array_equal(mix_arrays(a, b, 1.0), a)


def test_mix_arrays_self_mix_is_identity():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((5, 3))
    for lam in rng.random(20):
        assert np.array_equal(mix_arrays(a, a, float(lam)), a)


def test_mix_arrays_commutation():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4))
    for lam in rng.random(10):
        lam = float(lam)
        assert np.allclose(
            mix_arrays(a, b, lam), mix_arrays(b, a, 1.0 - lam), rtol=1e-12, atol=1e-12
        )


def test_mix_batches_preserves_label_normalization():
    a = random_batch(3, b=16, c=5, d=4)
    b = random_batch(4, b=16, c=5, d=4)
    rng = np.random.default_rng(5)
    for lam in rng.random(10):
        mixed = mix_batches(a, b, float(lam))
        assert np.abs(mixed.y.sum(axis=1) - 1.0).max() <= 1e-6


def test_mix_into_out_equals_fresh_mix():
    a = random_batch(8, b=8, c=3, d=2)
    b = random_batch(9, b=8, c=3, d=2)
    for lam in (0.0, 0.3, 1.0):
        out = Batch(np.full_like(a.x, np.nan), np.full_like(a.y, np.nan), np.full_like(a.w, np.nan))
        got = mix_batches(a, b, lam, out=out)
        fresh = mix_batches(a, b, lam)
        assert got.x is out.x and got.y is out.y and got.w is out.w
        assert all(np.array_equal(p, q) for p, q in zip((got.x, got.y, got.w),
                                                        (fresh.x, fresh.y, fresh.w)))


def test_mix_batches_same_lambda_everywhere():
    a = random_batch(6, b=8, c=3, d=2)
    b = random_batch(7, b=8, c=3, d=2)
    mixed = mix_batches(a, b, 0.25)
    assert np.allclose(mixed.x, b.x + 0.25 * (a.x - b.x), rtol=1e-15)
    assert np.allclose(mixed.y, b.y + 0.25 * (a.y - b.y), rtol=1e-15)
    assert np.allclose(mixed.w, b.w + 0.25 * (a.w - b.w), rtol=1e-15)


def test_beta_moments_eta_half():
    rng = substream(123, "beta", "moments")
    draws = np.array([sample_beta(0.5, rng) for _ in range(100_000)])
    assert draws.min() >= 0.0 and draws.max() <= 1.0
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 0.125) < 0.005


def test_beta_moments_eta_two():
    # Beta(2,2): mean 1/2, var 1/20
    rng = substream(7, "beta", "moments2")
    draws = np.array([sample_beta(2.0, rng) for _ in range(20_000)])
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 0.05) < 0.004


def test_gamma_moments():
    rng = substream(11, "beta", "gamma")
    for shape, tol in ((0.5, 0.03), (2.0, 0.06), (5.0, 0.1)):
        draws = np.array([sample_gamma(shape, rng)[0] for _ in range(20_000)])
        assert draws.min() > 0.0
        assert abs(draws.mean() - shape) < tol
        assert abs(draws.var() - shape) < 6.0 * tol


def test_beta_small_eta_survives_gamma_underflow():
    # At eta = 1e-3 both gamma draws often underflow to 0 (U^(1/eta) with
    # 1/eta = 1000); the coefficient then comes from their logarithms.
    # Beta(eta, eta) puts its mass at 0 and 1: mean 1/2, var 1/(4(2 eta + 1)).
    rng = substream(12, "beta", "small-eta")
    draws = np.array([sample_beta(1e-3, rng) for _ in range(2_000)])
    assert np.isfinite(draws).all() and draws.min() >= 0.0 and draws.max() <= 1.0
    assert abs(draws.mean() - 0.5) < 0.05
    assert abs(draws.var() - 0.25 / 1.002) < 0.01
    assert np.mean(np.minimum(draws, 1.0 - draws) < 0.01) > 0.95
    # where the draw is representable, its logarithm is the log of the draw
    for _ in range(200):
        g, log_g = sample_gamma(0.3, rng)
        if g > 0:
            assert log_g == pytest.approx(np.log(g), rel=1e-12, abs=1e-12)


def test_mix_config_validation_names_keys():
    with pytest.raises(ConfigError, match="mix.eta"):
        MixConfig(eta=0.0).validate()
    with pytest.raises(ConfigError, match="mix.n_synthetic"):
        MixConfig(n_synthetic=-1).validate()
    # meta_step lists a key for every synthetic unit before it runs one
    with pytest.raises(ConfigError, match="mix.n_synthetic"):
        MixConfig(n_synthetic=mixing.MAX_SYNTHETIC + 1).validate()
    MixConfig(n_synthetic=mixing.MAX_SYNTHETIC).validate()
    MixConfig().validate()  # defaults are fine


def test_metamix_single_row_is_identity():
    batch = stacked(random_batch(1, b=1, c=4, d=3))
    out = metamix_augment(batch, MixConfig(), [np.random.default_rng(3)])
    assert np.array_equal(out.x, batch.x)
    assert np.array_equal(out.y, batch.y)


def test_metamix_forced_lambda_one_is_identity(monkeypatch):
    batch = stacked(random_batch(2, b=12, c=4, d=3), random_batch(3, b=12, c=4, d=3))
    monkeypatch.setattr(mixing, "sample_beta", lambda eta, rng: 1.0)
    out = metamix_augment(batch, MixConfig(), [np.random.default_rng(4), np.random.default_rng(5)])
    assert np.array_equal(out.x, batch.x)
    assert np.array_equal(out.y, batch.y)
    assert np.array_equal(out.w, batch.w)


def test_metamix_matches_manual_reconstruction():
    # each unit of the stack mixes with its own stream
    units = [random_batch(5 + g, b=10, c=3, d=4) for g in range(3)]
    cfg = MixConfig(eta=0.5)
    out = metamix_augment(stacked(*units), cfg, [substream(21, "beta", g) for g in range(3)])
    for g, batch in enumerate(units):
        # replay the same stream: permutation first, coefficient second
        rng = substream(21, "beta", g)
        perm = rng.permutation(10)
        lam = sample_beta(0.5, rng)
        assert np.array_equal(out.x[g], mix_arrays(batch.x, batch.x[perm], lam))
        assert np.array_equal(out.y[g], mix_arrays(batch.y, batch.y[perm], lam))
        assert np.array_equal(out.w[g], batch.w)


def test_metamix_rows_stay_in_convex_hull():
    batch = stacked(random_batch(6, b=20, c=4, d=5))
    rng = np.random.default_rng(0)
    for _ in range(5):
        out = metamix_augment(batch, MixConfig(), [rng])
        assert out.x.min() >= batch.x.min() - 1e-12
        assert out.x.max() <= batch.x.max() + 1e-12
        assert out.y.min() >= -1e-12
        assert out.y.max() <= 1.0 + 1e-12


def episode_stack(n_tasks, n_batches, seed0=100):
    """n_tasks tasks and the row indices [T, n_batches, B] of their batches of
    one step; also those batches gathered, as one stack (x [T, n_batches, B, D],
    w [T, C]) and per task. A task's batches share its class weights."""
    rng = np.random.default_rng(seed0)
    tasks = [Task(id=f"t{t}", role="meta_train", n_classes=4,
                  features=rng.standard_normal((20, 3)), labels=rng.integers(0, 4, size=20),
                  splits={}, class_weights=rng.uniform(0.5, 2.0, size=4))
             for t in range(n_tasks)]
    rows = rng.integers(0, 20, size=(n_tasks, n_batches, 6))
    per_task = [[Batch(task.features[r], one_hot(task.labels[r], 4),
                       task.class_weights.astype(np.float32)) for r in task_rows]
                for task, task_rows in zip(tasks, rows)]
    episodes = stacked(*(stacked(*batches) for batches in per_task))
    return (tasks, rows), Batch(episodes.x, episodes.y, episodes.w[:, 0]), per_task


def test_taskmix_zero_returns_empty_without_draws():
    (tasks, rows), episodes, _ = episode_stack(3, 2)
    rng = np.random.default_rng(6)
    before = rng.bit_generator.state
    out = taskmix_synthesize(tasks, rows, 0, MixConfig(), rng)
    assert out.x.shape == (0, *episodes.x.shape[1:]) and out.w.shape == (0, 4)
    assert rng.bit_generator.state == before


def test_taskmix_default_count_equals_task_count():
    assert MixConfig().synthetic_count(4) == 4
    assert MixConfig(n_synthetic=9).synthetic_count(4) == 9
    assert MixConfig(n_synthetic=0).synthetic_count(4) == 0
    (tasks, rows), episodes, _ = episode_stack(4, 2)
    out = taskmix_synthesize(tasks, rows, 9, MixConfig(), np.random.default_rng(7))
    assert out.x.shape == (9, *episodes.x.shape[1:])


def test_taskmix_provenance_and_shared_lambda():
    (tasks, rows), _, per_task = episode_stack(5, 3)
    out = taskmix_synthesize(tasks, rows, 5, MixConfig(), np.random.default_rng(8))
    twin = np.random.default_rng(8)  # replays each task's draws: i, j, then lam
    for k in range(5):
        i, j = int(twin.integers(0, 5)), int(twin.integers(0, 5))
        lam = sample_beta(MixConfig().eta, twin)
        assert 0 <= i < 5 and 0 <= j < 5
        assert 0.0 <= lam <= 1.0
        # the pair's one coefficient reproduces every mixed batch exactly
        for step, (a, b) in enumerate(zip(per_task[i], per_task[j])):
            rebuilt = mix_batches(a, b, lam)
            assert np.array_equal(out.x[k, step], rebuilt.x)
            assert np.array_equal(out.y[k, step], rebuilt.y)
            assert np.array_equal(out.w[k], rebuilt.w)


def test_taskmix_deterministic_per_stream():
    (tasks, rows), _, _ = episode_stack(3, 2)
    a = taskmix_synthesize(tasks, rows, 3, MixConfig(), substream(5, "beta", "taskmix"))
    b = taskmix_synthesize(tasks, rows, 3, MixConfig(), substream(5, "beta", "taskmix"))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y) and np.array_equal(a.w, b.w)
    # consecutive calls continue one sequence of draws
    rng = substream(5, "beta", "taskmix")
    first, rest = (taskmix_synthesize(tasks, rows, n, MixConfig(), rng) for n in (2, 1))
    assert np.array_equal(np.concatenate([first.x, rest.x]), a.x)
    assert np.array_equal(np.concatenate([first.w, rest.w]), a.w)

