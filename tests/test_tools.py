"""The repository's command-line tools under tools/."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_record(seed: int, digest: str, wall: float, **values) -> dict:
    metrics = {"setup_s": 0.3, "wall_s": wall, "finetune_eval_s": 1.0,
               "meta_units_per_s": 10.0, "peak_rss_mb": 56.0, "macro_f1": 0.75, **values}
    env = {"nproc": 2, "python": "3", "numpy": "2", "blas": "openblas", "blas_threads": 1,
           "seed": seed, "source_digest": digest}
    return {"workload": "long-exact", "trace": 0, "seconds": 38, "env": env,
            "metrics": metrics, "attempted": 4, "failed": 0}


def test_bench_json_seeds_select_one_run_set(tmp_path):
    # two run sets of one source tree in one results directory: an old one on
    # seeds 0-2 and a new one on seeds 10-12, with different wall times
    results = tmp_path / "results"
    results.mkdir()
    for seeds, wall in ((range(0, 3), 5.0), (range(10, 13), 2.0)):
        for seed in seeds:
            path = results / f"long-exact_seed{seed}_trace0.json"
            path.write_text(json.dumps(bench_record(seed, "abc", wall)))
    bench_json = load_tool("bench_json")

    def summary(*args):
        out = tmp_path / "bench.json"
        assert bench_json.main(["--results", str(results), "--digest", "abc",
                                "-o", str(out), *args]) == 0
        return json.loads(out.read_text())["workloads"]["long-exact"]

    pooled = summary()
    assert pooled["runs"] == 6 and pooled["wall_s"]["median"] == 3.5
    new = summary("--seeds", "10-12")
    assert new["seeds"] == [10, 11, 12] and new["wall_s"]["median"] == 2.0
    both = summary("--seeds", "0-0", "10-12")
    assert both["seeds"] == [0, 10, 11, 12]

    # a requested seed without a record is an error, not a smaller summary
    assert bench_json.main(["--results", str(results), "--digest", "abc",
                            "--seeds", "10-13"]) == 1


def test_bench_json_against_pairs_runs_by_seed(tmp_path, capsys):
    # ten seeds a side: the change lowers peak_rss_mb on 9 of them (ties on
    # none), keeps macro_f1 exactly, and is 10% slower in wall_s (bound 0.25)
    # and 30% slower in meta_units_per_s (bound 0.25)
    results = tmp_path / "results"
    results.mkdir()
    for seed in range(10):
        jitter = 0.1 * (seed % 3)
        sides = {
            "parent": bench_record(seed, "parent", 2.0, peak_rss_mb=55.8 + jitter),
            "change": bench_record(seed, "change", 2.2, meta_units_per_s=7.0,
                                   peak_rss_mb=56.5 if seed == 4 else 54.0 + jitter),
        }
        for name, record in sides.items():
            (results / f"{name}_{seed}.json").write_text(json.dumps(record))
    bench_json = load_tool("bench_json")
    metrics = json.loads((TOOLS.parent / "BENCHMARK.json").read_text())["end_to_end"]
    records = bench_json.load_records([results])
    side = {d: [r for r in records if r["env"]["source_digest"] == d]
            for d in ("change", "parent")}

    rows = bench_json.compare(side["change"], side["parent"], metrics)["long-exact"]
    assert rows["pairs"] == 10 and rows["seeds"] == list(range(10))
    rss = rows["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["losses"]) == (9, 1)
    assert rss["change_median"] == pytest.approx(54.1)
    assert (rss["parent_q1"], rss["parent_median"], rss["parent_q3"]) == pytest.approx(
        (55.8, 55.9, 56.0))
    assert rss["gain"] and rss["within_bound"]
    f1 = rows["metrics"]["macro_f1"]
    assert (f1["wins"], f1["losses"]) == (0, 0) and not f1["gain"] and f1["within_bound"]
    wall = rows["metrics"]["wall_s"]
    assert (wall["wins"], wall["losses"]) == (0, 10) and wall["within_bound"]
    assert not rows["metrics"]["meta_units_per_s"]["within_bound"]

    # one win short of 9/10 is no gain, however large the median gap
    worse = [r for r in side["change"] if r["env"]["seed"] != 0]
    worse.append(bench_record(0, "change", 2.2, peak_rss_mb=56.0))
    rows = bench_json.compare(worse, side["parent"], metrics)["long-exact"]
    assert rows["metrics"]["peak_rss_mb"]["wins"] == 8
    assert not rows["metrics"]["peak_rss_mb"]["gain"]

    argv = ["--results", str(results), "--digest", "change", "--against", "parent"]
    assert bench_json.main(argv) == 0
    printed = capsys.readouterr().out
    assert "long-exact: 10 pairs" in printed
    assert [line.split()[:3] for line in printed.splitlines()
            if line.strip().startswith("peak_rss_mb")] == [["peak_rss_mb", "lower", "9-1"]]

    # a seed with a run on one side only cannot be paired
    (results / "change_10.json").write_text(json.dumps(bench_record(10, "change", 2.2)))
    assert bench_json.main(argv) == 1
    assert "without a partner" in capsys.readouterr().err
    assert bench_json.main(argv + ["--seeds", "0-9"]) == 0


def test_fingerprint_prints_one_hash_per_case_then_the_total():
    # hashes are not pinned: the bits are the same on one machine only
    done = subprocess.run([sys.executable, str(TOOLS / "fingerprint.py")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) > 1
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    labels = [line[66:] for line in lines]
    assert len(set(labels)) == len(labels)
    assert labels[-1] == "total"
