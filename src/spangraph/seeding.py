"""Deterministic RNG stream derivation.

Every source of randomness in a run is drawn from a stream derived from
(run seed, context tags), so sampling, dropping, and truncation within an
epoch are independently reproducible.  Tags may be ints or short strings;
strings are folded to ints with crc32, which is stable across platforms
and interpreter runs (unlike the builtin hash()).
"""

from __future__ import annotations

import zlib

import numpy as np

_MASK64 = (1 << 64) - 1


def _tag_to_int(tag: int | str) -> int:
    if isinstance(tag, str):
        return zlib.crc32(tag.encode("utf-8"))
    return int(tag) & _MASK64


def spawn_rng(seed: int, *tags: int | str) -> np.random.Generator:
    """Return a Generator for the stream identified by (seed, *tags)."""
    entropy = [int(seed) & _MASK64] + [_tag_to_int(t) for t in tags]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *tags: int | str) -> int:
    """Fold (seed, *tags) into a single 63-bit integer seed."""
    entropy = [int(seed) & _MASK64] + [_tag_to_int(t) for t in tags]
    state = np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0]
    return int(state) & ((1 << 63) - 1)


def as_rng(seed) -> np.random.Generator:
    """Pass a Generator through; seed a new one from anything else."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)
