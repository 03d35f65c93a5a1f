"""Mixup primitive identities, Beta sampling moments, and task synthesis."""

import numpy as np
import pytest

from taskmix import mixing
from taskmix.data import Batch
from taskmix.errors import ConfigError, UsageError
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

from util import random_batch


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


def test_mix_batches_same_lambda_everywhere():
    a = random_batch(6, b=8, c=3, d=2)
    b = random_batch(7, b=8, c=3, d=2)
    mixed = mix_batches(a, b, 0.25)
    assert np.allclose(mixed.x, b.x + 0.25 * (a.x - b.x), rtol=1e-15)
    assert np.allclose(mixed.y, b.y + 0.25 * (a.y - b.y), rtol=1e-15)
    assert np.allclose(mixed.w, b.w + 0.25 * (a.w - b.w), rtol=1e-15)


def test_mix_batches_shape_mismatch():
    a = random_batch(1, b=4, c=3, d=2)
    b = random_batch(2, b=5, c=3, d=2)
    with pytest.raises(UsageError):
        mix_batches(a, b, 0.5)


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


def test_sampler_guards():
    rng = np.random.default_rng(0)
    with pytest.raises(UsageError):
        sample_gamma(0.0, rng)
    with pytest.raises(ConfigError):
        sample_beta(-1.0, rng)


def test_mix_config_validation_names_keys():
    with pytest.raises(ConfigError, match="mix.eta"):
        MixConfig(eta=0.0).validate()
    with pytest.raises(ConfigError, match="mix.n_synthetic"):
        MixConfig(n_synthetic=-1).validate()
    MixConfig().validate()  # defaults are fine


def test_metamix_single_row_is_identity():
    batch = random_batch(1, b=1, c=4, d=3)
    out = metamix_augment(batch, MixConfig(), np.random.default_rng(3))
    assert np.array_equal(out.x, batch.x)
    assert np.array_equal(out.y, batch.y)


def test_metamix_forced_lambda_one_is_identity(monkeypatch):
    batch = random_batch(2, b=12, c=4, d=3)
    monkeypatch.setattr(mixing, "sample_beta", lambda eta, rng: 1.0)
    out = metamix_augment(batch, MixConfig(), np.random.default_rng(4))
    assert np.array_equal(out.x, batch.x)
    assert np.array_equal(out.y, batch.y)
    assert np.array_equal(out.w, batch.w)


def test_metamix_matches_manual_reconstruction():
    batch = random_batch(5, b=10, c=3, d=4)
    cfg = MixConfig(eta=0.5)
    out = metamix_augment(batch, cfg, substream(21, "beta", "m"))
    # replay the same stream: permutation first, coefficient second
    rng = substream(21, "beta", "m")
    perm = rng.permutation(10)
    lam = sample_beta(0.5, rng)
    assert np.array_equal(out.x, mix_arrays(batch.x, batch.x[perm], lam))
    assert np.array_equal(out.y, mix_arrays(batch.y, batch.y[perm], lam))
    assert np.array_equal(out.w, batch.w)


def test_metamix_rows_stay_in_convex_hull():
    batch = random_batch(6, b=20, c=4, d=5)
    rng = np.random.default_rng(0)
    for _ in range(5):
        out = metamix_augment(batch, MixConfig(), rng)
        assert out.x.min() >= batch.x.min() - 1e-12
        assert out.x.max() <= batch.x.max() + 1e-12
        assert out.y.min() >= -1e-12
        assert out.y.max() <= 1.0 + 1e-12


def per_task_batches(n_tasks, n_support, seed0=100):
    out = []
    for t in range(n_tasks):
        support = [random_batch(seed0 + 10 * t + k, b=6, c=4, d=3) for k in range(n_support)]
        query = random_batch(seed0 + 10 * t + 9, b=6, c=4, d=3)
        out.append((support, query))
    return out


def test_taskmix_zero_returns_empty_without_draws():
    per_task = per_task_batches(3, 2)
    rng = np.random.default_rng(6)
    before = rng.bit_generator.state
    out = taskmix_synthesize(per_task, MixConfig(n_synthetic=0), rng)
    assert out == []
    assert rng.bit_generator.state == before


def test_taskmix_default_count_equals_task_count():
    per_task = per_task_batches(4, 2)
    out = taskmix_synthesize(per_task, MixConfig(), np.random.default_rng(7))
    assert len(out) == 4
    explicit = taskmix_synthesize(
        per_task, MixConfig(n_synthetic=9), np.random.default_rng(7)
    )
    assert len(explicit) == 9


def test_taskmix_provenance_and_shared_lambda():
    per_task = per_task_batches(5, 3)
    out = taskmix_synthesize(per_task, MixConfig(), np.random.default_rng(8))
    for syn in out:
        i, j, lam = syn.provenance
        assert 0 <= i < 5 and 0 <= j < 5
        assert 0.0 <= lam <= 1.0
        assert len(syn.support) == 3
        # the pair's one coefficient reproduces every mixed batch exactly
        sup_i, q_i = per_task[i]
        sup_j, q_j = per_task[j]
        rebuilt_q = mix_batches(q_i, q_j, lam)
        assert np.array_equal(syn.query.x, rebuilt_q.x)
        assert np.array_equal(syn.query.y, rebuilt_q.y)
        for got, a, b in zip(syn.support, sup_i, sup_j):
            rebuilt = mix_batches(a, b, lam)
            assert np.array_equal(got.x, rebuilt.x)
            assert np.array_equal(got.y, rebuilt.y)
            assert np.array_equal(got.w, rebuilt.w)


def test_taskmix_deterministic_per_stream():
    per_task = per_task_batches(3, 1)
    a = taskmix_synthesize(per_task, MixConfig(), substream(5, "beta", "taskmix"))
    b = taskmix_synthesize(per_task, MixConfig(), substream(5, "beta", "taskmix"))
    assert [s.provenance for s in a] == [s.provenance for s in b]


def test_taskmix_empty_input_raises():
    with pytest.raises(UsageError):
        taskmix_synthesize([], MixConfig(n_synthetic=2), np.random.default_rng(0))


def test_taskmix_mismatched_support_counts_raise():
    a = per_task_batches(1, 2)[0]
    b = per_task_batches(1, 3, seed0=200)[0]
    with pytest.raises(UsageError):
        taskmix_synthesize([a, b], MixConfig(n_synthetic=20), np.random.default_rng(1))
