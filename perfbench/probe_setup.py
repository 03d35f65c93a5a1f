"""One set-up in a fresh process: imports, `taskmix synth`, `load_dataset`.

One corpus per seed. Prints one JSON line {"ready": <CLOCK_MONOTONIC
seconds>}. The parent notes the same clock just before it starts this
process, so the difference is process start to every dataset ready.

    python3 perfbench/probe_setup.py --preset long --scale 0.05 --seeds 0,1 --out DIR
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--preset", required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated corpus seeds")
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "perfbench"))
    from taskmix import data
    from workloads import synth_corpus

    datasets = [
        data.load_dataset(synth_corpus(args.preset, args.scale, int(seed), Path(args.out) / seed))
        for seed in args.seeds.split(",")
    ]
    ready = time.monotonic()
    print(json.dumps({"ready": ready, "tasks": sum(len(d.tasks) for d in datasets)}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
