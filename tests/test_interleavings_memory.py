"""Deterministic interleaving tests for the DMA buffer pool (§6.2).

The pool picked up its mutex and ``yield_point`` instrumentation when
ddslint flagged its freelist edits and stats counters (DDS101/DDS102 —
the pool is shared between the offload engine's intake path and the
completion path's releases).  These tests drive competing allocators
and reclaimers through the interleaving harness and check the byte
accounting at every schedule point; the double-free check, now inside
the pool lock, is exercised by racing releases of the same buffer.
"""

import threading

import pytest

from repro.concurrency import Scenario, explore_bounded, explore_random
from repro.structures import BufferPool


def _pool_scenario(monkeypatch, total_bytes=4096):
    monkeypatch.setattr(BufferPool, "MAX_CLASS", 2048)

    def build():
        pool = BufferPool(total_bytes)
        live = []

        def allocator():
            for size in (100, 600, 900):
                buffer = pool.allocate(size)
                if buffer is not None:
                    live.append(buffer)

        def churner():
            for _round in range(3):
                buffer = pool.allocate(300)
                if buffer is not None:
                    buffer.release()

        def check(_record=None):
            # Yield points sit outside the pool lock, so whenever every
            # controlled thread is parked the accounting is consistent.
            stats = pool.stats
            assert 0 <= stats.bytes_in_use <= pool.total_bytes
            assert stats.bytes_in_use <= stats.peak_bytes
            assert stats.allocations >= stats.frees
            assert stats.frees + len(live) >= stats.allocations - 3

        def on_done():
            for buffer in live:
                buffer.release()
            assert pool.stats.bytes_in_use == 0
            assert pool.stats.allocations == pool.stats.frees
            assert pool.bytes_available == pool.total_bytes

        tasks = [
            ("alloc-a", allocator),
            ("alloc-b", allocator),
            ("churn", churner),
        ]
        return (tasks, check, on_done)

    return Scenario("buffer-pool", build)


def test_buffer_pool_random_schedules(monkeypatch):
    stats = explore_random(_pool_scenario(monkeypatch), schedules=600)
    assert stats.schedules == 600


def test_buffer_pool_exhaustion_schedules(monkeypatch):
    # A pool that only fits one 512-byte class at a time: allocators
    # mostly fail, exercising the failure/backpressure accounting.
    stats = explore_random(_pool_scenario(monkeypatch, total_bytes=512), schedules=300)
    assert stats.schedules == 300


def test_buffer_pool_bounded_exploration(monkeypatch):
    stats = explore_bounded(
        _pool_scenario(monkeypatch), preemption_bound=2, max_schedules=300
    )
    assert stats.schedules > 0


# ----------------------------------------------------------------------
# double-free detection (the check now lives inside the pool lock)
# ----------------------------------------------------------------------
def test_double_release_raises():
    pool = BufferPool(2048)
    buffer = pool.allocate(64)
    buffer.release()
    with pytest.raises(RuntimeError, match="released twice"):
        buffer.release()
    assert pool.stats.frees == 1


def test_racing_releases_raise_exactly_once():
    # Two threads race to release the same buffer.  The check-then-act
    # window is closed by the pool lock, so exactly one release wins and
    # the loser always gets the RuntimeError — never a silent
    # double-insert onto the freelist.
    for _attempt in range(50):
        pool = BufferPool(2048)
        buffer = pool.allocate(64)
        errors = []
        barrier = threading.Barrier(2)

        def release():
            barrier.wait()
            try:
                buffer.release()
            except RuntimeError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=release) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(errors) == 1
        assert pool.stats.frees == 1
        assert pool.stats.bytes_in_use == 0


def test_freelist_reuses_released_buffers(monkeypatch):
    monkeypatch.setattr(BufferPool, "MAX_CLASS", 512)
    pool = BufferPool(1024)
    first = pool.allocate(100)
    second = pool.allocate(100)
    assert pool.allocate(100) is None  # carved region exhausted
    first.release()
    third = pool.allocate(200)  # same class: served from the freelist
    assert third is first
    assert third.size == 200
    assert pool.stats.failures == 1
    second.release()
    third.release()
