"""Summarize perfbench records into a BENCH_<n>.json file.

    python3 tools/bench_json.py [--results DIR ...] [--digest D] [--seeds LO-HI ...]
                                [-o BENCH_n.json]
    python3 tools/bench_json.py --digest D --against PARENT_DIGEST [--results DIR ...]
                                [--seeds LO-HI ...] [-o FILE]

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

--against PARENT_DIGEST compares the --digest runs with the parent's instead.
It pairs the two sides' runs by workload and workload seed and prints, per
workload and end-to-end metric: the pair wins of each side (ties count for
neither), both medians and the parent's quartiles, whether a gain can be
claimed (the change wins at least 9 of every 10 pairs and its median beats
the parent's by more than the parent's interquartile range), and whether the
change's median stays within the metric's BENCHMARK.json bound (a fraction
of the parent's median). A seed run on one side only, or more than once on a
side, is an error (exit 1): narrow the runs with --seeds.
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
            q1, median, q3 = quartiles([r["metrics"][metric["name"]] for r in runs])
            summary[metric["name"]] = {"unit": metric["unit"], "better": metric["better"],
                                       "median": median, "q1": q1, "q3": q3}
        out["workloads"][name] = summary
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the values, as summarize reports them."""
    values = sorted(values)
    return tuple(statistics.quantiles(values, n=4)) if len(values) > 1 else (values[0],) * 3


def pair_runs(change: list[dict], parent: list[dict]) -> dict:
    """{workload: [(change record, parent record), ...] in seed order}; raises
    ValueError for a seed run on one side only or more than once on a side."""
    sides = []
    for records in (change, parent):
        by_run: dict[tuple, dict] = {}
        for record in records:
            key = (record["workload"], record["env"]["seed"])
            if key in by_run:
                raise ValueError(f"{key[0]} seed {key[1]} has more than one record of digest "
                                 f"{record['env']['source_digest']}")
            by_run[key] = record
        sides.append(by_run)
    unpaired = sorted(set(sides[0]) ^ set(sides[1]))
    if unpaired:
        raise ValueError(f"runs without a partner on the other side: {unpaired}")
    pairs: dict[str, list] = {}
    for key in sorted(sides[0]):
        pairs.setdefault(key[0], []).append((sides[0][key], sides[1][key]))
    return pairs


def compare(change: list[dict], parent: list[dict], metrics: list[dict]) -> dict:
    """Per workload and end-to-end metric, the change's paired runs against
    the parent's: wins, medians, the parent's quartiles and the two verdicts."""
    out = {}
    for name, pairs in pair_runs(change, parent).items():
        rows = {}
        for metric in metrics:
            sign = 1 if metric["better"] == "higher" else -1
            values = [(c["metrics"][metric["name"]], p["metrics"][metric["name"]])
                      for c, p in pairs]
            wins = sum(sign * (c - p) > 0 for c, p in values)
            losses = sum(sign * (c - p) < 0 for c, p in values)
            change_median = statistics.median(c for c, _ in values)
            q1, parent_median, q3 = quartiles([p for _, p in values])
            rows[metric["name"]] = {
                "better": metric["better"],
                "wins": wins,
                "losses": losses,
                "change_median": change_median,
                "parent_median": parent_median,
                "parent_q1": q1,
                "parent_q3": q3,
                "gain": (10 * wins >= 9 * len(pairs)
                         and sign * (change_median - parent_median) > q3 - q1),
                "bound": metric["bound"],
                "within_bound": (sign * (change_median - parent_median)
                                 >= -metric["bound"] * abs(parent_median)),
            }
        out[name] = {"pairs": len(pairs), "seeds": [c["env"]["seed"] for c, _ in pairs],
                     "metrics": rows}
    return out


def render_comparison(comparison: dict, change_digest: str, parent_digest: str) -> str:
    lines = [f"change {change_digest} against parent {parent_digest}"]
    header = (f"  {'metric':<17} {'better':<6} {'wins':>7} {'change':>10} {'parent':>10} "
              f"{'parent q1..q3':>21}  gain  within bound")
    for name, workload in sorted(comparison.items()):
        lines += [f"{name}: {workload['pairs']} pairs, seeds {workload['seeds']}", header]
        for metric, row in workload["metrics"].items():
            quartile_range = f"{row['parent_q1']:.4g}..{row['parent_q3']:.4g}"
            lines.append(
                f"  {metric:<17} {row['better']:<6} {row['wins']:>3}-{row['losses']:<3} "
                f"{row['change_median']:>10.4g} {row['parent_median']:>10.4g} "
                f"{quartile_range:>21}  {'yes' if row['gain'] else 'no':<4}  "
                f"{'yes' if row['within_bound'] else 'NO'} ({row['bound']:g})")
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--results", type=Path, nargs="+",
                        default=[ROOT / ".perfbench" / "results"])
    parser.add_argument("--digest", help="summarize only this source digest")
    parser.add_argument("--seeds", type=seed_range, nargs="+", metavar="LO-HI",
                        help="keep only records of workload seeds in these ranges")
    parser.add_argument("--against", metavar="PARENT_DIGEST",
                        help="compare the --digest runs with this digest's, paired by seed")
    parser.add_argument("-o", "--out", type=Path, help="write here instead of stdout")
    args = parser.parse_args(argv)
    if args.against is not None and args.digest is None:
        parser.error("--against needs --digest")

    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    wanted = None if args.seeds is None else {s for seeds in args.seeds for s in seeds}
    groups: dict[str, list[dict]] = {}
    for record in load_records(args.results):
        if wanted is None or record["env"]["seed"] in wanted:
            groups.setdefault(record["env"]["source_digest"], []).append(record)
    if args.digest is not None:
        picked = [args.digest] + ([args.against] if args.against is not None else [])
        for digest in picked:
            if digest not in groups:
                print(f"no end-to-end records with source digest {digest}; found "
                      f"{sorted(groups)}", file=sys.stderr)
                return 1
        groups = {digest: groups[digest] for digest in picked}
    for digest, group in sorted(groups.items()):
        missing = sorted((wanted or set()) - {r["env"]["seed"] for r in group})
        if missing:
            print(f"source digest {digest} has no end-to-end record of seeds {missing}",
                  file=sys.stderr)
            return 1
    if args.against is not None:
        try:
            comparison = compare(groups[args.digest], groups[args.against], metrics)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 1
        text = render_comparison(comparison, args.digest, args.against)
    else:
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
