"""Deterministic RNG stream derivation.

A single 64-bit master seed plus a path of small integers (trial index,
tau index, ...) identifies every random stream in the package, so whole
experiments are reproducible from one number and independent trials can
be generated in any order.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

# Fixed tags so different kinds of streams derived from the same master
# seed never collide.  Values are arbitrary but frozen.
STREAM_DATA = 0x11
STREAM_SPIKE_SUPPORT = 0x22
STREAM_SPIKE_COEF = 0x23
STREAM_TRIAL = 0x41
STREAM_SCALING = 0x51
STREAM_LANCZOS = 0x61

_WORD = 2**64


def derive_rng(master_seed: int, *path: int | tuple[int, ...]) -> np.random.Generator:
    """A Generator for the stream identified by (master_seed, *path); tuple
    entries of the path are spliced in, so (tag, (ti, t)) names the same
    stream as (tag, ti, t).  Its SeedSequence's entropy is the seed, the
    path's length and the path, each as two 32-bit words.  SeedSequence
    splits a Python integer into as many words as it needs and pads short
    entropy with zeros, so without the fixed width a seed of 2^32 would
    share the stream of seed 0 with path (1,), and without the length a
    path would share the stream of its zero-extension."""
    if not (0 <= master_seed < _WORD):
        raise ConfigError(f"master seed must fit in 64 bits, got {master_seed}")
    words = [int(x) for part in path for x in (part if isinstance(part, tuple) else (part,))]
    if not all(0 <= w < _WORD for w in words):
        raise ConfigError(f"stream path words must fit in 64 bits, got {words}")
    entropy = [h for w in (int(master_seed), len(words), *words) for h in (w & 0xFFFFFFFF, w >> 32)]
    return np.random.default_rng(np.random.SeedSequence(np.array(entropy, dtype=np.uint32)))
