"""Deterministic, splittable random streams for reproducible Monte Carlo.

Chunks draw from counter-based Philox generators keyed by (seed, index),
so any chunk of work can be recomputed independently and merge order is
fixed by the chunk index.  Results are therefore bit-identical for a
given seed and chunk layout.
"""

from __future__ import annotations

import numpy as np

CHUNK = 1 << 16


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator number ``index`` of the family keyed by seed."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, index))))


def chunk_sizes(total: int, chunk: int = CHUNK) -> list[int]:
    """Fixed partition of a workload into chunks of at most ``chunk`` items."""
    if total < 0:
        raise ValueError("total must be non-negative")
    full, rest = divmod(total, chunk)
    return [chunk] * full + ([rest] if rest else [])
