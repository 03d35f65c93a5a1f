"""Benchmark command for the taskmix engine.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it imports ``src/taskmix``). One
process per run, one BLAS thread. The run

1. times set-up (process start to every corpus of the workload ready) in
   SETUP_PROBES fresh processes and keeps the median;
2. sets up once in process, then runs the workload's rounds, one corpus
   after another, until ``--seconds`` are used (at least one round per
   corpus);
3. checks every score and trained parameter, and that every round (traced
   or not) reproduces the scores of the first round on its corpus bit for
   bit;
4. prints a few ``#`` lines (machine, corpus, rounds, checks) and, last,
   one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off; round timings are composed from medians over like pieces
(see ``typical_times``). With ``--trace 1`` the first half of the time
runs untraced rounds, the second half traced ones, and the metrics are per
layer: one traced set-up plus the median traced round. Records go to
``.perfbench/results/``. Exit code 0 when every check passes, 1 when a
check fails, 2 when the command cannot run here.
"""

import os

# Threads must be fixed before numpy loads: one BLAS thread, so the process
# never runs more threads than cores and timings stay comparable.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import hashlib
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

SETUP_PROBES = 9
MAX_ROUNDS = 50


def parse_args(argv=None) -> argparse.Namespace:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the harness self-check only")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


# ---------------------------------------------------------------------------
# Machine record
# ---------------------------------------------------------------------------


def _blas_threads() -> int | None:
    """OpenBLAS's own thread count, read from the loaded library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "taskmix").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment(seed: int, load_at_start: tuple) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_version = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version,
        "blas_threads": _blas_threads(),
        "blas_threads_requested": BLAS_THREADS,
        "loadavg_at_start": [round(x, 2) for x in load_at_start],
        "seed": seed,
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


@dataclass
class Pass:
    """One round as measured: its result, what the phase probe saw, its
    span range in the tracer and the corpus it ran."""

    result: object
    totals: object
    segment: tuple[int, int]
    corpus: int


def probe_setup(workload, seeds: list[int], out: Path) -> float:
    """Process start to every dataset ready, in a fresh interpreter."""
    argv = [sys.executable, str(HERE / "probe_setup.py"), "--preset", workload.preset,
            "--scale", str(workload.scale), "--seeds", ",".join(map(str, seeds)),
            "--out", str(out)]
    start = time.monotonic()
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe exited {done.returncode}: {done.stderr.strip()}")
    ready = json.loads(done.stdout.strip().splitlines()[-1])["ready"]
    shutil.rmtree(out, ignore_errors=True)
    return ready - start


def set_up(workload, seeds: list[int], toy: bool, work: Path, tag: str):
    """One context per corpus seed: corpus, loaded dataset, config file.

    Returns (contexts, digest over every corpus file)."""
    from taskmix import data
    from workloads import Context, synth_corpus

    contexts, digest = [], hashlib.sha256()
    for seed in seeds:
        corpus = work / f"corpus_{tag}_{seed}"
        manifest = synth_corpus(workload.preset, workload.scale, seed, corpus)
        config = workload.config(seed, toy)
        config_path = work / f"config_{seed}.json"
        config_path.write_text(json.dumps(config, indent=2))
        contexts.append(Context(seed=seed, work=work, manifest=manifest,
                                dataset=data.load_dataset(manifest), config=config,
                                config_path=config_path))
        for path in sorted(corpus.iterdir()):
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    return contexts, digest.hexdigest()[:16]


def run_rounds(workload, contexts, probe, deadline: float, min_rounds: int,
               tracer=None) -> list[Pass]:
    """Rounds over the corpora in turn until the next one would end past the
    deadline; stops early at a failed round."""
    from tracing import PhaseTotals
    from workloads import Round

    passes: list[Pass] = []
    while len(passes) < MAX_ROUNDS:
        corpus = len(passes) % len(contexts)
        probe.totals = PhaseTotals()
        lo = len(tracer) if tracer is not None else 0
        try:
            result = workload.run_round(contexts[corpus])
        except Exception:  # the round is the unit that fails; report, do not crash
            result = Round(wall_s=math.nan, failures=[traceback.format_exc(limit=4).strip()])
        hi = len(tracer) if tracer is not None else 0
        passes.append(Pass(result, probe.totals, (lo, hi), corpus))
        if result.failures:
            break
        if len(passes) >= min_rounds and time.monotonic() + result.wall_s > deadline:
            break
    return passes


def check_rounds(passes: list[Pass], reference: dict, label: str) -> tuple[int, int, list[str]]:
    """(attempted, failed, problems) over cells.

    A cell fails on a non-finite or out-of-range score, on a score that
    differs from the first round of the same corpus, or with its round. The
    first good round of each corpus not yet in `reference` becomes its
    reference."""
    attempted = failed = 0
    problems: list[str] = []
    for k, p in enumerate(passes):
        result = p.result
        cells = result.cells or {"round": math.nan}
        attempted += len(cells)
        round_problems = list(result.failures)
        if p.totals.nonfinite:
            round_problems.append(f"{p.totals.nonfinite} trained parameter sets are not finite")
        if round_problems:
            failed += len(cells)
            problems += [f"{label} round {k}: {msg}" for msg in round_problems]
            continue
        bad = set()
        for key, score in result.scores.items():
            if not (isinstance(score, float) and math.isfinite(score) and 0.0 <= score <= 1.0):
                bad.add(key.split("/")[0])
                problems.append(f"{label} round {k}: score {key} = {score!r} outside [0, 1]")
        expected = reference.setdefault(p.corpus, result.scores)
        if result.scores != expected:
            differing = sorted(key for key in set(result.scores) | set(expected)
                               if result.scores.get(key) != expected.get(key))
            bad.update(key.split("/")[0] for key in differing)
            problems.append(f"{label} round {k}: scores differ from the first round of "
                            f"corpus {p.corpus} at {differing[:5]}")
        failed += len(bad & set(cells))
    return attempted, failed, problems


def _median(values) -> float:
    values = [v for v in values if math.isfinite(v)]
    return statistics.median(values) if values else 0.0


def typical_times(by_corpus: dict[int, list[Pass]]) -> list[dict[str, float]]:
    """Each corpus's round at the run's median speed: {stage: seconds}, with
    "rest" for the round outside every stage.

    Rounds on one corpus repeat the same calls (their scores are checked to
    be bit-identical). Within a group of pieces that do the same work per
    unit (see tracing.PhaseTotals) the median seconds per unit over every
    piece of the run, times the group's work in one round, is the group's
    time. The groups of tracing.POOLED stages do the same work per unit on
    every corpus of the workload, so they pool over the corpora. A median
    over hundreds of like pieces spread over the whole run is far steadier
    than one over the few whole rounds that fit in it: the shared host runs
    the same code up to 1.5x slower for stretches of seconds to minutes."""
    from tracing import POOLED, stage_of

    def key(corpus: int, group: str):
        return group if stage_of(group) in POOLED else (corpus, group)

    per_unit: dict = {}
    for corpus, rounds in by_corpus.items():
        for p in rounds:
            staged = sum(seconds for _, seconds, _ in p.totals.pieces)
            for group, seconds, work in p.totals.pieces + [("rest", p.result.wall_s - staged, 1)]:
                per_unit.setdefault(key(corpus, group), []).append(seconds / work)
    rate = {k: statistics.median(v) for k, v in per_unit.items()}
    typical = []
    for corpus, rounds in by_corpus.items():
        out = {"rest": rate[(corpus, "rest")]}
        for group, _, work in rounds[0].totals.pieces:
            stage = stage_of(group)
            out[stage] = out.get(stage, 0.0) + work * rate[key(corpus, group)]
        typical.append(out)
    return typical


def end_to_end(setups, passes: list[Pass], corpora: int) -> dict:
    """Per corpus its round at the run's median speed (see `typical_times`);
    timings are averaged over the corpora, so each corpus weighs the same."""
    from tracing import FINETUNE_EVAL_STAGES, META_STAGES

    good = [p for p in passes if not p.result.failures]
    by_corpus: dict[int, list[Pass]] = {}
    for p in good:
        by_corpus.setdefault(p.corpus, []).append(p)
    typical = typical_times(by_corpus)
    # repeats of a corpus reproduce its first round exactly (checked)
    firsts = [rounds[0] for rounds in by_corpus.values()]

    def within(t: dict, stages) -> float:
        return sum(seconds for stage, seconds in t.items() if stage in stages)

    rates = [p.totals.meta_units / within(t, META_STAGES)
             for p, t in zip(firsts, typical) if within(t, META_STAGES) > 0]

    def mean(values) -> float:
        values = list(values)
        return statistics.fmean(values) if values else 0.0

    return {
        "setup_s": _median(setups),
        "wall_s": mean(sum(t.values()) for t in typical),
        "finetune_eval_s": mean(within(t, FINETUNE_EVAL_STAGES) for t in typical),
        "meta_units_per_s": mean(rates),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "macro_f1": (mean(statistics.fmean(p.result.cells.values()) for p in firsts)
                     if len(firsts) == corpora else 0.0),
    }


def per_layer(tracer, setup_segment, passes: list[Pass], untraced: list[Pass]):
    """Per wrapped function: one traced set-up plus the median traced round.

    Returns (metrics, spans, number of meta_step samples)."""
    from tracing import SELF_ONLY, percentile

    spans = tracer.arrays()
    good = [p for p in passes if not p.result.failures]
    base = tracer.segment(spans, *setup_segment)
    per_round = [tracer.segment(spans, *p.segment) for p in good]

    def total(dotted: str, stat: str) -> float:
        return base[dotted][stat] + _median(seg[dotted][stat] for seg in per_round)

    metrics = {}
    for dotted in tracer.names:
        if dotted not in SELF_ONLY:
            metrics[f"{dotted}.calls"] = int(total(dotted, "calls"))
        metrics[f"{dotted}.self_s"] = total(dotted, "self_s")
    metrics["nn.backward.rows"] = int(total("nn.backward", "amount"))
    step_ms = tracer.durations_ms(spans, "training.meta_step", [p.segment for p in good])
    metrics["training.meta_step.ms_p50"] = percentile(step_ms, 50)
    metrics["training.meta_step.ms_p90"] = percentile(step_ms, 90)
    metrics["training.useful_step_ratio"] = _median(p.totals.useful_step_ratio() for p in good)
    # same corpus traced and untraced; corpora differ in work
    overheads = []
    for corpus in sorted({p.corpus for p in good}):
        plain = [p.result.wall_s for p in untraced
                 if p.corpus == corpus and not p.result.failures]
        if plain:
            overheads.append(_median(p.result.wall_s for p in good if p.corpus == corpus)
                             - _median(plain))
    metrics["trace.overhead_s"] = statistics.fmean(overheads) if overheads else 0.0
    return metrics, spans, len(step_ms)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    if not (SRC / "taskmix" / "__init__.py").is_file():
        print(f"perfbench: no taskmix sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    load_at_start = os.getloadavg()

    from tracing import PhaseProbe, Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    seeds = workload.corpus_seeds(args.seed)
    work = OUT / "work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    record = {"workload": workload.name, "why": workload.why, "corpus_seeds": seeds,
              "config": workload.config(seeds[0], args.toy), "trace": args.trace,
              "seconds": args.seconds,
              "env": environment(args.seed, load_at_start)}
    reference: dict = {}
    try:
        setups = [probe_setup(workload, seeds, work / f"probe_{k}") for k in range(SETUP_PROBES)]
        probe = PhaseProbe()
        contexts, digest = set_up(workload, seeds, args.toy, work, "untraced")
        probe.install()
        start = time.monotonic()
        if args.trace:
            untraced = run_rounds(workload, contexts, probe, start + args.seconds / 2, 1)
        else:
            untraced = run_rounds(workload, contexts, probe, start + args.seconds,
                                  workload.corpora)
        attempted, failed, problems = check_rounds(untraced, reference, "untraced")
        record.update(corpus_digest=digest, setup_s=setups, probe_absent=probe.absent,
                      untraced_walls=[p.result.wall_s for p in untraced],
                      untraced_pieces=[[p.corpus, p.result.wall_s, p.totals.pieces]
                                       for p in untraced])

        if args.trace:
            tracer = Tracer()
            tracer.install()
            lo = len(tracer)
            traced_contexts, traced_digest = set_up(workload, seeds, args.toy, work, "traced")
            setup_segment = (lo, len(tracer))
            traced = run_rounds(workload, traced_contexts, probe, start + args.seconds, 1,
                                tracer)
            a, f, p = check_rounds(traced, reference, "traced")
            attempted, failed, problems = attempted + a, failed + f, problems + p
            if traced_digest != digest:
                problems.append(f"traced corpus {traced_digest} != untraced corpus {digest}")
            metrics, spans, step_samples = per_layer(tracer, setup_segment, traced, untraced)
            record.update(absent=tracer.absent, traced_walls=[p.result.wall_s for p in traced],
                          meta_step_samples=step_samples)
        else:
            metrics = end_to_end(setups, untraced, workload.corpora)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not problems and failed == 0
    record.update(metrics=metrics, attempted=attempted, failed=failed, problems=problems)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload.name}_seed{args.seed}_trace{args.trace}_{os.getpid()}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=2, default=str) + "\n")
    if args.trace:
        import numpy as np

        np.savez_compressed(results / f"{stem}_spans.npz", names=np.array(tracer.names), **spans)

    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# workload {workload.name}: {workload.why}")
    print(f"# corpus seeds {seeds} digest {digest}")
    print(f"# rounds untraced {len(untraced)} walls "
          f"{[round(w, 4) for w in record['untraced_walls']]}"
          + (f" traced {len(record['traced_walls'])} absent {record['absent']}"
             if args.trace else ""))
    print(f"# failed_share {failed / max(attempted, 1)} fraction ({failed} of {attempted} cells)")
    for problem in problems[:10]:
        print(f"# FAILED {problem}")
    if len(problems) > 10:
        print(f"# FAILED ... {len(problems) - 10} more in the record")
    for name, value in metrics.items():
        print(f"# {name} {value} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
