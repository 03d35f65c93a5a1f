"""Release gate: every shipping requirement checked end to end, each with
its stated tolerance and time budget. The unit suite covers the parts;
this file covers the promises."""

import json
import re
import time
from pathlib import Path

import numpy as np
import pytest

from taskmix import mixing
from taskmix.cli import main
from taskmix.config import METHODS, from_dict
from taskmix.data import compute_class_weights
from taskmix.metrics import macro_f1
from taskmix.mixing import mix_arrays, mix_batches, sample_beta
from taskmix.nn import (
    EXACT,
    backward,
    forward,
    weighted_ce,
)
from taskmix.rng import substream
from taskmix.training import inner_adapt, meta_train, unit_gradient

from util import (
    fd_gradient,
    oracle_macro_f1,
    random_batch,
    rel_err,
    small_net,
    tiny_config,
    tiny_dataset,
    trees_equal,
)

# A configuration sized so the full method/seed matrix finishes on a laptop
# while every directional comparison below still resolves.
DESK_CONFIG = {
    "model": {"hidden": [64, 64]},
    "meta": {
        "inner_lr": 0.01,
        "inner_steps": 5,
        "batch_size": 128,
        "grad_mode": "first_order",
        "max_steps": 200,
        "eval_every": 20,
        "patience": 5,
    },
    "schedule": {"lr_max": 0.003, "lr_min": 0.0, "max_step": 200},
    "finetune": {"lr": 0.01, "max_steps": 150, "eval_every": 10, "patience": 6},
    "mix": {"eta": 0.5},
    "seeds": [0, 1, 2],
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("release")


@pytest.fixture(scope="module")
def desk_config_path(workdir):
    path = workdir / "desk.json"
    path.write_text(json.dumps(DESK_CONFIG))
    return path


@pytest.fixture(scope="module")
def long_manifest(workdir):
    out = workdir / "data_long"
    code = main(["synth", "--preset", "long", "--scale", "0.05", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    return out / "manifest.json"


@pytest.fixture(scope="module")
def wide_manifest(workdir):
    out = workdir / "data_wide"
    code = main(["synth", "--preset", "wide", "--scale", "0.05", "--seed", "0",
                 "--out", str(out)])
    assert code == 0
    return out / "manifest.json"


@pytest.fixture(scope="module")
def long_run(workdir, desk_config_path, long_manifest):
    """The full 6-method x 3-seed matrix on the long-format corpus,
    exercised through the command line exactly as a user would run it."""
    out = workdir / "exp_long"
    start = time.monotonic()
    code = main(["experiment", "--config", str(desk_config_path),
                 "--dataset", str(long_manifest), "--out", str(out)])
    elapsed = time.monotonic() - start
    assert code == 0
    return out, elapsed


def report_means(out: Path) -> dict:
    entries = json.loads((out / "report.json").read_text())
    return {e["method"]: e["mean"] for e in entries}


def test_c1_gradients_match_finite_differences():
    start = time.monotonic()

    # analytic backward vs central differences: [4 -> 3 -> 2], 64-bit
    worst_backward = 0.0
    for seed in range(10):
        params = small_net(seed, dims=(4, 3, 2))
        batch = random_batch(1000 + seed, b=8, d=4, c=2)
        _, grads = backward(params, batch)

        def loss_at(vec):
            p = params.like(vec)
            return weighted_ce(forward(p, batch.x), batch.y, batch.w)

        fd = fd_gradient(loss_at, params.flat.copy(), h=1e-6)
        worst_backward = max(worst_backward, rel_err(grads.flat, fd))
    assert worst_backward < 1e-5

    # curvature-aware meta-gradient vs differencing the whole inner loop
    worst_meta = 0.0
    exact_cfg = from_dict({"meta": {"inner_lr": 0.05, "grad_mode": EXACT}})
    for n_steps in (1, 2, 3):
        for seed in (0, 1, 2):
            theta = small_net(seed, dims=(4, 3, 2))
            support = [random_batch(700 + 10 * seed + k, 8, 4, 2) for k in range(n_steps)]
            query = random_batch(900 + seed, 8, 4, 2)
            _, exact = unit_gradient(theta, support, query, exact_cfg, None)

            def objective(vec):
                p = theta.like(vec)
                adapted = inner_adapt(p, support, 0.05, record=False).adapted
                return weighted_ce(forward(adapted, query.x), query.y, query.w)

            fd = fd_gradient(objective, theta.flat.copy(), h=1e-6)
            worst_meta = max(worst_meta, rel_err(exact.flat, fd))
    assert worst_meta < 1e-4

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    print(f"c1 PASS: backward rel err {worst_backward:.2e}, "
          f"meta rel err {worst_meta:.2e}, {elapsed:.1f}s")


def test_c2_reductions_are_bit_exact(monkeypatch):
    start = time.monotonic()
    ds = tiny_dataset(seed=50)

    plain = meta_train(ds, tiny_config(), seed=0).params

    # batch mixing asked to synthesize zero tasks changes nothing
    no_synth = tiny_config(meta={"augmentation": "taskmix"}, mix={"n_synthetic": 0})
    assert trees_equal(meta_train(ds, no_synth, seed=0).params, plain)

    # label mixing with the coefficient pinned to 1 collapses to the plain path
    with monkeypatch.context() as patch:
        patch.setattr(mixing, "sample_beta", lambda eta, rng: 1.0)
        pinned = tiny_config(meta={"augmentation": "metamix"})
        assert trees_equal(meta_train(ds, pinned, seed=0).params, plain)

    # without inner steps the two gradient modes are the same computation
    first = meta_train(ds, tiny_config(meta={"inner_steps": 0}), seed=0).params
    exact = meta_train(
        ds, tiny_config(meta={"inner_steps": 0, "grad_mode": "exact"}), seed=0
    ).params
    assert trees_equal(first, exact)

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"c2 PASS: three reductions bit-exact, {elapsed:.1f}s")


def test_c3_mixing_and_metric_identities():
    start = time.monotonic()
    rng = np.random.default_rng(9)

    # endpoints are exact, not approximate
    a = rng.standard_normal((6, 4))
    b = rng.standard_normal((6, 4))
    assert np.array_equal(mix_arrays(a, b, 1.0), a)
    assert np.array_equal(mix_arrays(a, b, 0.0), b)

    # mixed soft labels stay a distribution per row
    for trial in range(20):
        p = random_batch(200 + trial, 8, 4, 3)
        q = random_batch(300 + trial, 8, 4, 3)
        lam = float(rng.uniform())
        mixed = mix_batches(p, q, lam)
        assert np.all(np.abs(mixed.y.sum(axis=1) - 1.0) <= 1e-6)
        assert np.all(mixed.y >= -1e-12)

    # the mixing coefficient really follows Beta(0.5, 0.5)
    beta_rng = substream(0, "beta")
    draws = np.array([sample_beta(0.5, beta_rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.5) < 0.01
    assert abs(draws.var() - 0.125) < 0.005

    # the score agrees with brute-force confusion-matrix enumeration
    case_rng = np.random.default_rng(2024)
    for _ in range(1000):
        c = int(case_rng.integers(2, 6))
        n = int(case_rng.integers(1, 21))
        y_true = case_rng.integers(0, c, size=n)
        y_pred = case_rng.integers(0, c, size=n)
        assert macro_f1(y_true, y_pred, c) == oracle_macro_f1(y_true, y_pred, c)

    # inverse-frequency weights, scaled by class count, padded to c_max
    w = compute_class_weights(np.array([0, 0, 0, 1]), n_classes=2, c_max=3)
    assert np.allclose(w, [2.0 / 3.0, 2.0, 0.0])
    w = compute_class_weights(np.array([0, 1, 2, 0, 1, 2]), n_classes=3, c_max=3)
    assert np.allclose(w, [1.0, 1.0, 1.0])

    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    print(f"c3 PASS: identities hold, beta mean {draws.mean():.4f} "
          f"var {draws.var():.4f}, {elapsed:.1f}s")


def test_c4_experiment_matrix_end_to_end(long_run):
    out, elapsed = long_run
    assert elapsed < 600.0

    lines = (out / "report.txt").read_text().splitlines()
    assert len(lines) == 1 + len(METHODS)
    assert lines[0].split() == ["method", "avg_macro_f1"]
    for line in lines[1:]:
        assert re.search(r"\d\.\d{3} ± \d\.\d{3}$", line)

    means = report_means(out)
    assert set(means) == set(METHODS)

    for method in METHODS:
        for seed in (0, 1, 2):
            cell = json.loads(
                (out / "results" / method / f"seed_{seed}.json").read_text()
            )
            assert cell["method"] == method
            assert cell["seed"] == seed
            assert len(cell["per_task"]) == 4
            for score in cell["per_task"].values():
                assert 0.0 <= score <= 1.0

    print(f"c4 PASS: 6 methods x 3 seeds in {elapsed:.1f}s")


def test_c5_batch_mixing_never_hurts(long_run, wide_manifest, desk_config_path, workdir):
    means = report_means(long_run[0])
    long_gap = means["maml+taskmix"] - means["maml"]
    assert long_gap >= -0.02, f"long-format gap {long_gap:.3f}"

    # same comparison on the second corpus shape
    start = time.monotonic()
    out = workdir / "exp_wide"
    code = main(["experiment", "--config", str(desk_config_path),
                 "--dataset", str(wide_manifest), "--out", str(out),
                 "--methods", "maml,maml+taskmix"])
    assert code == 0
    wide = report_means(out)
    wide_gap = wide["maml+taskmix"] - wide["maml"]
    assert wide_gap >= -0.02, f"wide-format gap {wide_gap:.3f}"

    print(f"c5 PASS: gaps long {long_gap:+.3f}, wide {wide_gap:+.3f} "
          f"(wide pair {time.monotonic() - start:.1f}s)")


def test_c6_batch_mixing_vs_label_mixing(long_run):
    means = report_means(long_run[0])
    gap = means["maml+taskmix"] - means["maml+metamix"]
    assert gap >= -0.02, f"gap {gap:.3f}"
    print(f"c6 PASS: taskmix {means['maml+taskmix']:.3f} vs "
          f"metamix {means['maml+metamix']:.3f}, gap {gap:+.3f}")


def test_c7_cells_reproduce_byte_identically(long_run, desk_config_path, long_manifest, workdir):
    out2 = workdir / "exp_rerun"
    code = main(["experiment", "--config", str(desk_config_path),
                 "--dataset", str(long_manifest), "--out", str(out2),
                 "--methods", "maml+metamix+taskmix", "--seeds", "0"])
    assert code == 0
    cell = Path("results") / "maml+metamix+taskmix" / "seed_0.json"
    first = (long_run[0] / cell).read_bytes()
    second = (out2 / cell).read_bytes()
    assert first == second
    print(f"c7 PASS: rerun cell identical ({len(first)} bytes)")
