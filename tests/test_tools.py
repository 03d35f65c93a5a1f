"""The repository's command-line tools under tools/."""

import importlib.util
import json
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_record(seed: int, digest: str, wall: float) -> dict:
    metrics = {"setup_s": 0.3, "wall_s": wall, "finetune_eval_s": 1.0,
               "meta_units_per_s": 10.0, "peak_rss_mb": 56.0, "macro_f1": 0.75}
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
