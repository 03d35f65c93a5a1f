"""Fast self-check of the benchmark harness at toy size (about half a minute).

    python3 perfbench/selfcheck.py

For every workload it runs the benchmark command with ``--toy`` and checks
that the last output line carries exactly the metrics BENCHMARK.json names,
each with its unit, that every check passed, and that the seed reaches
corpus generation (same seed, same corpus; another seed, another corpus).
It also checks that the command refuses to run, without printing a result,
in a directory holding only BENCHMARK.json and the benchmark's files.
Exit code 0 when all of that holds.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def run(cwd: Path, workload: str, seed: int, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--toy"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def corpus_of(stdout: str) -> str:
    for line in stdout.splitlines():
        if line.startswith("# corpus "):
            return line.split()[-1]
    return ""


def check_result(done, expected: dict, label: str) -> list[str]:
    if done.returncode != 0:
        return [f"{label}: exit {done.returncode}\n{done.stdout[-2000:]}{done.stderr[-2000:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{label}: result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"{label}: attempted={result.get('attempted')!r}")
    metrics = result.get("metrics", {})
    if sorted(metrics) != sorted(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"{label}: missing metrics {missing}, unexpected {extra}")
    for name, unit in expected.items():
        entry = metrics.get(name, {})
        value = entry.get("value")
        if entry.get("unit") != unit:
            problems.append(f"{label}: {name} unit {entry.get('unit')!r} != {unit!r}")
        if not (isinstance(value, (int, float)) and math.isfinite(value)):
            problems.append(f"{label}: {name} value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    declared = {w["name"]: w["why"] for w in spec["workloads"]}
    if declared != {name: w.why for name, w in WORKLOADS.items()}:
        problems.append("BENCHMARK.json workloads differ from perfbench/workloads.py")

    for name in WORKLOADS:
        first = run(ROOT, name, 1, 0)
        problems += check_result(first, end_to_end, f"{name} seed 1 trace 0")
        other = run(ROOT, name, 2, 0)
        problems += check_result(other, end_to_end, f"{name} seed 2 trace 0")
        traced = run(ROOT, name, 1, 1)
        problems += check_result(traced, per_layer, f"{name} seed 1 trace 1")
        digests = [corpus_of(p.stdout) for p in (first, other, traced)]
        if not digests[0] or digests[0] != digests[2] or digests[0] == digests[1]:
            problems.append(f"{name}: seed does not reach corpus generation (digests {digests})")
        print(f"{name}: corpus digests {digests}", flush=True)

    bare = ROOT / ".perfbench" / "selfcheck_bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    done = run(bare, next(iter(WORKLOADS)), 1, 0)
    if done.returncode == 0 or done.stdout.strip():
        problems.append(f"bare directory: exit {done.returncode}, stdout {done.stdout[-200:]!r}")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck ok" if not problems else f"selfcheck: {len(problems)} problems")
    return 0 if not problems else 1


if __name__ == "__main__":
    raise SystemExit(main())
