"""Deterministic RNG stream derivation.

A single 64-bit master seed plus a path of small integers (trial index,
tau index, ...) identifies every random stream in the package, so whole
experiments are reproducible from one number and independent trials can
be generated in any order.
"""

from __future__ import annotations

import numpy as np

# Fixed tags so different kinds of streams derived from the same master
# seed never collide.  Values are arbitrary but frozen.
STREAM_DATA = 0x11
STREAM_SPIKE_SUPPORT = 0x22
STREAM_SPIKE_COEF = 0x23
STREAM_GUE = 0x31
STREAM_WISHART = 0x32
STREAM_TRIAL = 0x41


def derive_rng(master_seed: int, *path: int | tuple[int, ...]) -> np.random.Generator:
    """Return a Generator for the stream identified by (master_seed, *path);
    tuple entries of the path are spliced in, so (tag, (ti, t)) names the
    same stream as (tag, ti, t)."""
    if not (0 <= master_seed < 2**64):
        raise ValueError(f"master seed must fit in 64 bits, got {master_seed}")
    words = [int(x) for part in path for x in (part if isinstance(part, tuple) else (part,))]
    ss = np.random.SeedSequence([int(master_seed), *words])
    return np.random.default_rng(ss)
