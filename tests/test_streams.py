"""Keyed random streams, the chunk layout, and the chunk runner."""

import os
import threading

import numpy as np
import pytest

from cfrenewal.limitlaw import empirical_pn
from cfrenewal.mixing import BoxSpec, correlation_estimate
from cfrenewal.streams import chunk_sizes, run_chunks, substream


def test_a_stream_gives_the_same_doubles_on_every_call():
    assert np.array_equal(substream(3, 5).random(1000), substream(3, 5).random(1000))


def test_indices_and_seeds_key_different_streams():
    firsts = {substream(seed, index).random() for seed in range(4) for index in range(4)}
    assert len(firsts) == 16


def test_the_first_doubles_of_the_zero_stream_are_pinned():
    # a change of bit generator or of its keying fails here first
    assert substream(0, 0).random(4).tolist() == [
        0.5686892493917326,
        0.23483041728695253,
        0.39642143170337907,
        0.10163677903901869,
    ]


@pytest.mark.parametrize(
    "seed, message",
    [
        (True, "seed must be an integer, got True"),
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be non-negative, got -1"),
    ],
)
def test_every_stream_refuses_a_bad_seed(seed, message):
    # unchecked, both engines took seed=True and returned it in their
    # result, 1.5 raised numpy's bare TypeError and -1 numpy's own message
    with pytest.raises(ValueError, match=message):
        substream(seed, 0)
    with pytest.raises(ValueError, match=message):
        empirical_pn(R=1e4, M=1000, seed=seed)
    with pytest.raises(ValueError, match=message):
        correlation_estimate(BoxSpec((1,)), BoxSpec((2,)), 1.0, M=1000, seed=seed)


def test_a_numpy_integer_seed_keys_the_same_stream():
    assert substream(np.int64(3), 5).random() == substream(3, 5).random()


@pytest.mark.parametrize("total, chunk", [(0, 4), (3, 4), (8, 4), (10, 4), (10, 1), (7, 100)])
def test_chunk_sizes_partition_the_total(total, chunk):
    sizes = chunk_sizes(total, chunk)
    assert sum(sizes) == total
    assert all(0 < size <= chunk for size in sizes)
    assert all(size == chunk for size in sizes[:-1])


def _force_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))


def test_every_index_is_handed_out_once_over_two_threads(monkeypatch):
    _force_cpus(monkeypatch, 2)

    def drain(take):
        return [(idx, threading.get_ident()) for idx in iter(take, None)]

    results = run_chunks(50, drain)
    assert len(results) == 2
    taken = sorted(idx for part in results for idx, _ in part)
    assert taken == list(range(50))
    assert {ident for _, ident in results[0]} <= {threading.get_ident()}


def test_the_first_failure_is_raised_and_the_workers_are_joined(monkeypatch):
    _force_cpus(monkeypatch, 2)
    first = RuntimeError("worker failed")

    def drain(take):
        if threading.current_thread() is not threading.main_thread():
            raise first
        # the calling thread runs until the worker's failure stops the hand-out
        while take() is not None:
            pass
        raise RuntimeError("calling thread failed second")

    before = threading.active_count()
    with pytest.raises(RuntimeError) as info:
        run_chunks(1 << 40, drain)
    assert info.value is first
    assert threading.active_count() == before
