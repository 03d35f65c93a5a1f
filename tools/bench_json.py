"""Summarize perfbench records into a BENCH_<n>.json file.

    python3 tools/bench_json.py [--results DIR ...] [--digest D] [--seeds LO-HI ...]
                                [-o BENCH_n.json]

Reads every end-to-end record (`perfbench/run.py --trace 0`) in the results
directories (default `.perfbench/results`) and groups the records by the
digest of `src/taskmix` that each one stores in `env.source_digest`, so runs
of different source trees never mix. Per group and workload it writes the
median and quartiles of every end-to-end metric that BENCHMARK.json
declares, with the number of runs, their seeds and the failed share. Without
--digest it prints every group; with it, only that group.

A results directory keeps every run ever made, so one digest may hold several
run sets. --seeds keeps only the workload seeds in the given inclusive ranges
(e.g. `--seeds 930-939 940-942`), so one BENCH file summarizes exactly one
run set; a requested seed with no record in a printed group is an error
(exit 1).
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_range(text: str) -> range:
    """"LO-HI" (or one seed "S") as an inclusive range of workload seeds."""
    lo, _, hi = text.partition("-")
    try:
        first, last = int(lo), int(hi or lo)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a seed range LO-HI: {text!r}") from None
    if last < first:
        raise argparse.ArgumentTypeError(f"empty seed range: {text!r}")
    return range(first, last + 1)


def load_records(dirs: list[Path]) -> list[dict]:
    records = []
    for directory in dirs:
        for path in sorted(directory.glob("*.json")):
            record = json.loads(path.read_text())
            if record.get("trace") == 0 and "metrics" in record:
                records.append(record)
    return records


def summarize(records: list[dict], metrics: list[dict]) -> dict:
    """One digest's records -> per-workload medians and quartiles."""
    first = records[0]["env"]
    out = {
        "source_digest": first["source_digest"],
        "machine": {key: first[key] for key in ("nproc", "python", "numpy", "blas",
                                                "blas_threads")},
        "seconds": sorted({r["seconds"] for r in records}),
        "workloads": {},
    }
    for name in sorted({r["workload"] for r in records}):
        runs = [r for r in records if r["workload"] == name]
        attempted = sum(r["attempted"] for r in runs)
        summary = {
            "runs": len(runs),
            "seeds": sorted(r["env"]["seed"] for r in runs),
            "failed_share": sum(r["failed"] for r in runs) / max(attempted, 1),
        }
        for metric in metrics:
            values = sorted(r["metrics"][metric["name"]] for r in runs)
            q1, median, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                              else values * 3)
            summary[metric["name"]] = {"unit": metric["unit"], "better": metric["better"],
                                       "median": median, "q1": q1, "q3": q3}
        out["workloads"][name] = summary
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results", type=Path, nargs="+",
                        default=[ROOT / ".perfbench" / "results"])
    parser.add_argument("--digest", help="summarize only this source digest")
    parser.add_argument("--seeds", type=seed_range, nargs="+", metavar="LO-HI",
                        help="keep only records of workload seeds in these ranges")
    parser.add_argument("-o", "--out", type=Path, help="write here instead of stdout")
    args = parser.parse_args(argv)

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    wanted = None if args.seeds is None else {s for seeds in args.seeds for s in seeds}
    groups: dict[str, list[dict]] = {}
    for record in load_records(args.results):
        if wanted is None or record["env"]["seed"] in wanted:
            groups.setdefault(record["env"]["source_digest"], []).append(record)
    if args.digest is not None:
        if args.digest not in groups:
            print(f"no end-to-end records with source digest {args.digest}; found "
                  f"{sorted(groups)}", file=sys.stderr)
            return 1
        groups = {args.digest: groups[args.digest]}
    for digest, group in sorted(groups.items()):
        missing = sorted((wanted or set()) - {r["env"]["seed"] for r in group})
        if missing:
            print(f"source digest {digest} has no end-to-end record of seeds {missing}",
                  file=sys.stderr)
            return 1
    summaries = [summarize(group, metrics) for _, group in sorted(groups.items())]
    doc = summaries[0] if args.digest is not None else summaries
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if args.out is None:
        print(text, end="")
    else:
        args.out.write_text(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
