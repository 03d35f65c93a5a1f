"""Wrappers installed from outside the package: a phase probe and a span tracer.

Both rebind a function at every import site inside the ``taskmix`` package:
each module attribute that *is* the original function object is replaced
by the wrapper, so ``from .nn import backward`` in ``training`` and
``nn.backward`` itself are both covered. Nothing under ``src/`` changes.

* ``PhaseProbe`` times every call of the round's stages
  (``training.meta_train``, ``training.meta_step``, ``training.mtl_train``,
  ``training.finetune``, ``metrics.evaluate_model``). It is installed in
  every run, traced or not; it adds a few microseconds per call to calls
  that last milliseconds to seconds. It also checks that every trained
  parameter array is finite.
* ``Tracer`` wraps every function named in ``TRACED`` and records one span
  per call: name, start, end, parent span. It is installed only in the
  traced run. A target that no longer exists is listed as absent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import math
import sys
import time
from array import array

import numpy as np

PACKAGE = "taskmix"

# layer -> wrapped functions; "Class.method" names a method
TRACED = {
    "cli": ["main"],
    "synth": ["generate"],
    "data": ["sample_batch", "full_split_batch", "load_dataset", "write_dataset"],
    "nn": ["forward", "backward", "weighted_ce", "loss_hvp", "backprop_through_trace"],
    "optim": ["sgd_step", "adam_step", "EarlyStopper.update"],
    "mixing": ["taskmix_synthesize", "metamix_augment"],
    "training": ["meta_step", "inner_adapt", "meta_train", "finetune", "mtl_train"],
    "metrics": ["split_loss", "split_macro_f1", "evaluate_model"],
    "evaluation": ["run_method"],
}

# spans whose call count is not reported (only self time)
SELF_ONLY = {"cli.main", "synth.generate"}


def _lookup(dotted: str):
    """(owner, attribute, object) for 'module.fn' or 'module.Class.method';
    None when the module or any attribute on the way is missing."""
    module_name, *attrs = dotted.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{module_name}")
    except ImportError:
        return None
    for attr in attrs[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    obj = getattr(owner, attrs[-1], None)
    if obj is None or not callable(obj):
        return None
    return owner, attrs[-1], obj


def rebind(dotted: str, make_wrapper) -> bool:
    """Replace the function named by `dotted` everywhere in the package.

    Returns False (and changes nothing) when the target does not exist.
    """
    found = _lookup(dotted)
    if found is None:
        return False
    owner, attr, original = found
    wrapper = functools.wraps(original)(make_wrapper(original))
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return True
    for name, module in list(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
    return True


def arrays_in(obj, _depth: int = 0):
    """Every numpy array reachable from obj through containers, dataclass
    fields and instance attributes (layout-agnostic parameter walk)."""
    if _depth > 8 or obj is None:
        return
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from arrays_in(item, _depth + 1)
    elif isinstance(obj, dict):
        for item in obj.values():
            yield from arrays_in(item, _depth + 1)
    elif dataclasses.is_dataclass(obj):
        for field in dataclasses.fields(obj):
            yield from arrays_in(getattr(obj, field.name), _depth + 1)
    elif hasattr(obj, "__dict__"):
        for item in vars(obj).values():
            yield from arrays_in(item, _depth + 1)


def params_finite(params) -> bool:
    arrays = list(arrays_in(params))
    return bool(arrays) and all(np.isfinite(a).all() for a in arrays)


def meta_units_per_step(dataset, cfg) -> int:
    """Task units adapted and differentiated per outer step: one per real
    meta-train task plus one per synthetic taskmix task."""
    real = len(dataset.meta_train_tasks)
    if cfg.meta.augmentation not in ("taskmix", "both"):
        return real
    return real + (real if cfg.mix.n_synthetic is None else int(cfg.mix.n_synthetic))


# The probe's stages. Each call of one is a timed piece of the round; a
# stage nested in another is taken out of the outer one, so the pieces of a
# round never overlap. The untraced run needs only the stable entry points;
# an optional stage that a later commit removes is listed as absent, and its
# time then counts in its caller's piece.
STABLE_STAGES = ("training.meta_train", "training.finetune", "metrics.evaluate_model")
OPTIONAL_STAGES = ("training.meta_step", "training.mtl_train")
META_STAGES = frozenset(("training.meta_train", "training.meta_step"))
FINETUNE_EVAL_STAGES = frozenset(("training.finetune", "metrics.evaluate_model"))
# Stages whose work per unit is set by the preset and the config alone (array
# shapes), not by the corpus seed: their groups pool over a workload's corpora.
POOLED = frozenset(("training.meta_step", "training.finetune", "metrics.evaluate_model"))


@dataclasses.dataclass
class PhaseTotals:
    """What the phase probe saw during one round.

    ``pieces`` holds (group, self seconds, work) per probed call. The calls
    of one group do the same work per unit: the outer steps of one
    meta-train call (group ``training.meta_step#k`` for the k-th meta_train
    of the round), every fine-tune step of the round (``training.finetune``,
    work = steps run; meta-test tasks share their shapes), every test-split
    evaluation (``metrics.evaluate_model``). Other calls are groups of their
    own (``training.meta_train#k``: its time outside its steps)."""

    pieces: list = dataclasses.field(default_factory=list)
    meta_units: int = 0
    best_steps: list = dataclasses.field(default_factory=list)
    stopped_at: list = dataclasses.field(default_factory=list)
    nonfinite: int = 0
    calls: dict = dataclasses.field(default_factory=dict)

    def useful_step_ratio(self) -> float:
        """(best_step + 1) / stopped_at, summed over meta-train stages."""
        total = sum(self.stopped_at)
        return sum(b + 1 for b in self.best_steps) / total if total else 0.0


def stage_of(group: str) -> str:
    return group.split("#")[0]


class PhaseProbe:
    """Times every call of the stages into `totals` (see PhaseTotals),
    counts meta-train units and checks that trained parameters are
    finite."""

    def __init__(self):
        self.totals = PhaseTotals()
        self.absent: list[str] = []
        self._children = [0.0]

    def install(self) -> None:
        for dotted in STABLE_STAGES:
            if not rebind(dotted, functools.partial(self._wrap, dotted)):
                raise RuntimeError(f"stable entry point {PACKAGE}.{dotted} is missing")
        for dotted in OPTIONAL_STAGES:
            if not rebind(dotted, functools.partial(self._wrap, dotted)):
                self.absent.append(dotted)

    def _group(self, dotted: str) -> str:
        calls = self.totals.calls
        if dotted in ("training.meta_train", "training.mtl_train"):
            calls[dotted] = calls.get(dotted, -1) + 1
            return f"{dotted}#{calls[dotted]}"
        if dotted == "training.meta_step":
            return f"{dotted}#{calls.get('training.meta_train', 0)}"
        return dotted

    def _wrap(self, dotted: str, fn):
        children = self._children
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            group = self._group(dotted)
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                children[-1] += elapsed
            work = max(result.stopped_at, 1) if dotted == "training.finetune" else 1
            self.totals.pieces.append((group, elapsed - nested, work))
            self._observe(dotted, args, result)
            return result
        return wrapper

    def _observe(self, dotted: str, args, result) -> None:
        totals = self.totals
        if dotted == "training.meta_train":
            dataset, cfg = args[0], args[1]
            totals.meta_units += result.stopped_at * meta_units_per_step(dataset, cfg)
            totals.best_steps.append(result.best_step)
            totals.stopped_at.append(result.stopped_at)
            totals.nonfinite += not params_finite(result.params)
        elif dotted == "training.finetune":
            totals.nonfinite += not params_finite(result.params)
        elif dotted == "training.mtl_train":
            totals.nonfinite += not params_finite(result)


def _batch_rows(args) -> float:
    """Rows of the batch passed as second argument (all leading axes)."""
    x = getattr(args[1], "x", None) if len(args) > 1 else None
    if isinstance(x, np.ndarray) and x.ndim >= 2:
        return float(x.size // x.shape[-1])
    return 0.0


# the one span whose batch rows are summed, as that span's "amount"
ROWS_COUNTED = "nn.backward"


class Tracer:
    """Span recorder. Spans live in flat arrays until the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self.absent: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_amount = array("d")
        self._open = [-1]

    def install(self) -> None:
        for module, functions in TRACED.items():
            for fn in functions:
                dotted = f"{module}.{fn}"
                index = len(self.names)
                self.names.append(dotted)
                amount = _batch_rows if dotted == ROWS_COUNTED else None
                if not rebind(dotted, functools.partial(self._wrap, index, amount)):
                    self.absent.append(dotted)

    def _wrap(self, index: int, amount, fn):
        names, parents = self.span_name, self.span_parent
        starts, ends, amounts = self.span_start, self.span_end, self.span_amount
        stack = self._open
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            span = len(names)
            names.append(index)
            parents.append(stack[-1])
            amounts.append(amount(args) if amount is not None else 0.0)
            ends.append(0.0)
            stack.append(span)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
        return wrapper

    def __len__(self) -> int:
        return len(self.span_name)

    def arrays(self) -> dict[str, np.ndarray]:
        name = np.frombuffer(self.span_name, dtype=np.int32).copy()
        parent = np.frombuffer(self.span_parent, dtype=np.int32).copy()
        start = np.frombuffer(self.span_start, dtype=np.float64).copy()
        end = np.frombuffer(self.span_end, dtype=np.float64).copy()
        amount = np.frombuffer(self.span_amount, dtype=np.float64).copy()
        duration = end - start
        has_parent = parent >= 0
        covered = np.bincount(
            parent[has_parent], weights=duration[has_parent], minlength=len(name)
        )
        return {
            "name": name,
            "parent": parent,
            "start": start,
            "end": end,
            "amount": amount,
            "self": duration - covered,
        }

    def segment(self, spans: dict, lo: int, hi: int) -> dict[str, dict[str, float]]:
        """Per function: calls, self seconds and amount over spans [lo, hi)."""
        k = len(self.names)
        name = spans["name"][lo:hi]
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=spans["self"][lo:hi], minlength=k)
        amount = np.bincount(name, weights=spans["amount"][lo:hi], minlength=k)
        return {
            dotted: {"calls": int(calls[i]), "self_s": float(self_s[i]), "amount": float(amount[i])}
            for i, dotted in enumerate(self.names)
        }

    def durations_ms(self, spans: dict, dotted: str, segments) -> list[float]:
        """Inclusive durations of one function's spans within the segments."""
        index = self.names.index(dotted)
        out: list[float] = []
        for lo, hi in segments:
            mask = spans["name"][lo:hi] == index
            out.extend(((spans["end"][lo:hi] - spans["start"][lo:hi])[mask] * 1e3).tolist())
        return out


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]
