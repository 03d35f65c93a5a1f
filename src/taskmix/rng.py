"""Deterministic random-stream management.

Every consumer of randomness (model init, per-task batch sampling, mixing
coefficients, synthetic-task inputs, splits) owns a dedicated substream derived
from one root seed. Enabling or disabling a feature therefore never perturbs
the draws seen by an unrelated consumer, which is what makes the
"augmentation off == augmentation with zero strength" trajectory identities
hold bit-for-bit.
"""

from __future__ import annotations

import hashlib

import numpy as np

# Stream purposes used by the engine.
PURPOSE_INIT = "init"
PURPOSE_SPLIT = "split"
PURPOSE_BATCH = "batch"
PURPOSE_BETA = "beta"
PURPOSE_SYNTH = "synth"


def _stable_hash(*parts: object) -> int:
    """64-bit hash of the textual key, stable across processes and platforms."""
    text = "\x1f".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, purpose: str, *keys: object) -> np.random.Generator:
    """Fresh generator for (seed, purpose, keys), independent of all others."""
    entropy = (int(seed) & 0xFFFFFFFFFFFFFFFF, _stable_hash(purpose, *keys))
    return np.random.default_rng(np.random.SeedSequence(entropy=entropy))


class StreamBundle:
    """Lazy cache of substreams for one run.

    Streams are created on first use and then persist, so successive draws by
    the same consumer advance its stream while leaving every other stream
    untouched.
    """

    def __init__(self, seed: int):
        self.seed = int(seed)
        self._streams: dict[tuple[str, str], np.random.Generator] = {}

    def get(self, purpose: str, key: str = "") -> np.random.Generator:
        k = (purpose, key)
        if k not in self._streams:
            self._streams[k] = substream(self.seed, purpose, key)
        return self._streams[k]

    def init(self) -> np.random.Generator:
        return self.get(PURPOSE_INIT)

    def batch(self, task_id: str) -> np.random.Generator:
        return self.get(PURPOSE_BATCH, task_id)

    def beta(self, consumer: str) -> np.random.Generator:
        return self.get(PURPOSE_BETA, consumer)
