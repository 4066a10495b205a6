"""Pre-allocated DMA-accessible buffer pool (§6.2, Figure 12).

The offload engine never allocates on the data path: it reserves a pool
of huge pages up front and carves read buffers from it.  Each buffer is
sized to hold both the read data and the (indirect) packet placeholders,
which is what lets the engine pass the same memory to the storage driver
as the I/O destination and to the traffic director as the packet payload
— zero copies end to end.

The pool is a size-class slab allocator: power-of-two classes with
per-class freelists, carving fresh slabs from the remaining region only
when a freelist is empty.  ``allocate`` returning None signals pool
exhaustion, which the engine treats as backpressure (the request falls
back to the host, like a full context ring).

Concurrency: the pool is shared between the offload engine (allocate on
intake) and the completion path (release), so freelist edits and the
stats counters run under a pool mutex — like :class:`~repro.structures.
rings.LockRing`, the critical section contains no yield points, and the
``yield_point`` schedule hook sits *outside* the lock so the
deterministic interleaving harness can context-switch between competing
allocators without parking a lock holder.  Double release is detected
under the same lock, closing the check-then-act window a racing pair of
``release()`` calls would otherwise have.
"""

from __future__ import annotations

import mmap
import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.concurrency.hooks import yield_point

__all__ = ["PoolStats", "DmaBuffer", "BufferPool", "zero_buffer"]

#: Buffers at or above this size are backed by anonymous mmap.
_MMAP_THRESHOLD = 1 << 20

ZeroBuffer = Union[bytearray, mmap.mmap]


def zero_buffer(size: int) -> ZeroBuffer:
    """A zero-filled writable buffer supporting slice reads and writes.

    Large buffers (disk images, host rings) are backed by anonymous mmap:
    the kernel hands out lazily-faulted zero pages, so a multi-hundred-MB
    "allocation" costs microseconds and only pages actually written ever
    consume memory.  Small buffers stay plain ``bytearray``.
    """
    if size >= _MMAP_THRESHOLD:
        return mmap.mmap(-1, size)
    return bytearray(size)


@dataclass
class PoolStats:
    """Allocation counters for a buffer pool (mutated under its lock)."""

    allocations: int = 0
    frees: int = 0
    failures: int = 0
    bytes_in_use: int = 0
    peak_bytes: int = 0


class DmaBuffer:
    """A lease of ``size`` bytes in a ``class_size`` slab (accounting only:
    the device returns the read's bytes and the offload context carries
    them)."""

    __slots__ = ("pool", "class_size", "size", "_free")

    def __init__(self, pool: "BufferPool", class_size: int, size: int):
        self.pool = pool
        self.class_size = class_size
        self.size = size
        self._free = False

    def release(self) -> None:
        """Return the buffer to its pool (idempotence is an error)."""
        self.pool._reclaim(self)


class BufferPool:
    """Fixed-budget size-class allocator over a pre-registered region."""

    #: Smallest and largest size classes (powers of two, in bytes).
    MIN_CLASS = 512
    MAX_CLASS = 1 << 20

    def __init__(self, total_bytes: int) -> None:
        min_class, max_class = self.MIN_CLASS, self.MAX_CLASS
        if total_bytes < min_class:
            raise ValueError("pool smaller than the minimum size class")
        if min_class & (min_class - 1) or max_class & (max_class - 1):
            raise ValueError("size classes must be powers of two")
        if min_class > max_class:
            raise ValueError("MIN_CLASS must not exceed MAX_CLASS")
        self.total_bytes = total_bytes
        self._remaining = total_bytes
        self._freelists: Dict[int, List[DmaBuffer]] = {}
        self._lock = threading.Lock()
        self._key = ("pool", id(self))
        self.stats = PoolStats()

    def class_for(self, size: int) -> int:
        """Smallest size class that fits ``size`` bytes."""
        if size < 1:
            raise ValueError("size must be positive")
        if size > self.MAX_CLASS:
            raise ValueError(
                f"request of {size} bytes exceeds max class {self.MAX_CLASS}"
            )
        cls = self.MIN_CLASS
        while cls < size:
            cls <<= 1
        return cls

    def allocate(self, size: int) -> Optional[DmaBuffer]:
        """Lease a buffer of at least ``size`` bytes; None when exhausted."""
        cls = self.class_for(size)
        yield_point("pool.alloc", self._key)
        with self._lock:
            freelist = self._freelists.setdefault(cls, [])
            if freelist:
                buffer = freelist.pop()
                buffer.size = size
                buffer._free = False
            elif self._remaining >= cls:
                self._remaining -= cls
                buffer = DmaBuffer(self, cls, size)
            else:
                self.stats.failures += 1
                return None
            self.stats.allocations += 1
            self.stats.bytes_in_use += cls
            self.stats.peak_bytes = max(
                self.stats.peak_bytes, self.stats.bytes_in_use
            )
            return buffer

    def _reclaim(self, buffer: DmaBuffer) -> None:
        yield_point("pool.reclaim", self._key)
        with self._lock:
            if buffer._free:
                raise RuntimeError("buffer released twice")
            buffer._free = True
            self._freelists.setdefault(buffer.class_size, []).append(
                buffer
            )
            self.stats.frees += 1
            self.stats.bytes_in_use -= buffer.class_size

    @property
    def bytes_available(self) -> int:
        """Uncarved bytes plus bytes parked on freelists."""
        yield_point("pool.available", self._key)
        with self._lock:
            parked = sum(
                cls * len(buffers)
                for cls, buffers in self._freelists.items()
            )
            return self._remaining + parked
