"""Deterministic, splittable random streams for reproducible Monte Carlo.

Chunk ``index`` of a run draws from its own SFC64 generator, seeded by
``SeedSequence((seed, index))``, so any chunk of work can be recomputed
independently and merge order is fixed by the chunk index.  Each caller
fixes its own chunk size, so its results are bit-identical for a given
seed.  This is the
only module that builds a bit generator.  ``run_chunks`` runs the chunks
of one call at the same time, on the CPUs the process may use; a caller
that merges by chunk index, or sums integer counts, gets the same bits
whatever the CPU count.
"""

from __future__ import annotations

import numpy as np

from .errors import integer_arg

CHUNK = 1 << 16


def substream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator number ``index`` of the family keyed by seed.

    SeedSequence hashes the key ``(seed, index)`` into the generator's
    state, so distinct keys give independent streams with no jump-ahead.
    Every stream of the package is keyed here, so this is where ``seed``
    is checked: a non-negative integer (Python or numpy, not a bool),
    else ValueError naming it.
    """
    seed = integer_arg(seed, "seed")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got {seed}")
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, index))))


def chunk_sizes(total: int, chunk: int) -> list[int]:
    """Fixed partition of a workload into chunks of at most ``chunk`` items."""
    full, rest = divmod(total, chunk)
    return [chunk] * full + ([rest] if rest else [])


def allowed_cpus() -> int:
    """Number of CPUs this process may run on."""
    # a local import leaves the cost of importing the package unchanged
    import os

    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def run_chunks(count: int, drain) -> list:
    """Run ``drain(take)`` on the calling thread and on one worker thread
    per further CPU this process may use, with no more threads than chunks.

    ``take()`` hands out each chunk index 0..count-1 once, to whichever
    thread asks first, and then None.  Returns the drains' results, the
    calling thread's first.  With one CPU or one chunk no thread starts.
    If a drain raises, no further index is handed out, every thread is
    joined, and the first exception is raised to the caller.
    """
    # a local import leaves the cost of importing the package unchanged
    import threading

    width = min(allowed_cpus(), count)
    indices = iter(range(count))
    lock = threading.Lock()
    stop = threading.Event()
    results: list = [None] * max(width, 1)
    failures: list[BaseException] = []

    def take():
        with lock:
            return None if stop.is_set() else next(indices, None)

    def guarded(slot: int) -> None:
        try:
            results[slot] = drain(take)
        except BaseException as exc:  # re-raised on the calling thread below
            failures.append(exc)
            stop.set()

    started = []
    try:
        for slot in range(1, width):
            worker = threading.Thread(target=guarded, args=(slot,))
            worker.start()
            started.append(worker)
        guarded(0)
    finally:
        # also stops the workers when a start fails or the caller is interrupted
        stop.set()
        for worker in started:
            worker.join()
    if failures:
        raise failures[0]
    return results
