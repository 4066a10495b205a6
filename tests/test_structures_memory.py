"""Tests for the pre-allocated DMA buffer pool (§6.2)."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.structures import AtomicCounter, BufferPool


class TestBufferPool:
    def test_allocate_rounds_to_size_class(self):
        pool = BufferPool(1 << 20)
        buf = pool.allocate(700)
        assert buf.class_size == 1024 and buf.size == 700

    def test_release_recycles_via_freelist(self):
        pool = BufferPool(1 << 20)
        a = pool.allocate(512)
        a.release()
        b = pool.allocate(512)
        assert b is a  # same slab reused
        assert pool.stats.allocations == 2 and pool.stats.frees == 1

    def test_exhaustion_returns_none(self):
        pool = BufferPool(1024)
        assert pool.allocate(512) is not None
        assert pool.allocate(512) is not None
        assert pool.allocate(512) is None
        assert pool.stats.failures == 1

    def test_release_makes_space_again(self, monkeypatch):
        monkeypatch.setattr(BufferPool, "MIN_CLASS", 1024)
        pool = BufferPool(1024)
        buf = pool.allocate(1000)
        assert pool.allocate(1000) is None
        buf.release()
        assert pool.allocate(1000) is not None

    def test_double_release_rejected(self):
        pool = BufferPool(1 << 16)
        buf = pool.allocate(100)
        buf.release()
        with pytest.raises(RuntimeError):
            buf.release()

    def test_leases_commit_no_slab_memory(self):
        """A lease is accounting: 1,000 live 64 KiB leases (62.5 MiB of
        declared slabs) allocate well under 1 MiB."""
        pool = BufferPool(256 << 20)
        tracemalloc.start()
        try:
            leases = [pool.allocate(64 << 10) for _ in range(1000)]
            allocated, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(lease is not None for lease in leases)
        assert pool.stats.bytes_in_use == 1000 * (64 << 10)
        assert allocated < 1 << 20

    def test_request_above_max_class_rejected(self, monkeypatch):
        monkeypatch.setattr(BufferPool, "MAX_CLASS", 4096)
        pool = BufferPool(1 << 20)
        with pytest.raises(ValueError):
            pool.allocate(8192)

    def test_invalid_construction(self, monkeypatch):
        with pytest.raises(ValueError):
            BufferPool(100)
        monkeypatch.setattr(BufferPool, "MIN_CLASS", 500)
        with pytest.raises(ValueError):
            BufferPool(1 << 20)  # not a power of two

    def test_peak_accounting(self):
        pool = BufferPool(1 << 20)
        bufs = [pool.allocate(512) for _ in range(4)]
        assert pool.stats.peak_bytes == 4 * 512
        for b in bufs:
            b.release()
        assert pool.stats.bytes_in_use == 0
        assert pool.stats.peak_bytes == 4 * 512

    @given(st.lists(st.integers(min_value=1, max_value=8192), max_size=80))
    @settings(max_examples=60, deadline=None)
    def test_property_never_over_budget(self, sizes):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(BufferPool, "MAX_CLASS", 8192)
            self._never_over_budget(sizes)

    @staticmethod
    def _never_over_budget(sizes):
        pool = BufferPool(64 << 10)
        live = []
        for size in sizes:
            buf = pool.allocate(size)
            if buf is None:
                if live:
                    live.pop(0).release()
                continue
            live.append(buf)
            assert buf.class_size >= size
            assert pool.stats.bytes_in_use <= pool.total_bytes
        for buf in live:
            buf.release()
        assert pool.stats.bytes_in_use == 0
        assert pool.bytes_available == pool.total_bytes


class TestAtomicCounter:
    def test_load_store(self):
        counter = AtomicCounter(5)
        assert counter.load() == 5
        counter.store(9)
        assert counter.load() == 9

    def test_cas_success_and_failure(self):
        counter = AtomicCounter(1)
        assert counter.compare_and_swap(1, 2)
        assert not counter.compare_and_swap(1, 3)
        assert counter.load() == 2

    def test_fetch_add_returns_previous(self):
        counter = AtomicCounter(10)
        assert counter.fetch_add(5) == 10
        assert counter.load() == 15

    def test_threaded_fetch_add_is_atomic(self):
        import threading

        counter = AtomicCounter(0)

        def bump():
            for _ in range(10_000):
                counter.fetch_add(1)

        threads = [threading.Thread(target=bump) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.load() == 80_000
