"""Disk data planes.

:class:`RamDisk` holds the actual bytes (so filesystem correctness,
metadata persistence, and recovery are all testable for real), while
:class:`~repro.hardware.ssd.NvmeDevice` models the timing.
:class:`SpdkBdev` composes the two into the userspace asynchronous block
device the DPU file service drives (§4.3, §7: SPDK's ``spdk_bdev_read``/
``write`` against the NVMe driver).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Generator, List, Optional, Tuple

from ..hardware.ssd import NvmeDevice
from ..sim import Environment
from ..structures.memory import zero_buffer

__all__ = ["RamDisk", "SpdkBdev"]


#: Largest never-written read answered with a shared object: with the
#: eight sizes kept, the most memory the sharing itself can pin.
_SHARED_ZEROS_MAX = 1 << 20


@lru_cache(maxsize=8)
def _zeros(size: int) -> bytes:
    """What a never-written range reads as: one immutable object per
    size (a workload reads few distinct sizes) instead of an allocation
    and its first-touch page faults per read."""
    return bytes(size)


class RamDisk:
    """The byte content of a simulated SSD.

    Backed by :func:`~repro.structures.memory.zero_buffer`, so a
    multi-GB disk costs nothing until blocks are actually written, and
    the disk remembers which extents ever were, so that copying an
    image (:meth:`~repro.storage.filesystem.DdsFileSystem.clone_into`)
    touches only those.
    """

    #: Granularity of the ever-written map: a memory page, so a read
    #: beside a small write stays on the never-written path (a read
    #: fault in the shared anonymous buffer is a real page).
    EXTENT_BYTES = 4 << 10

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("disk size must be positive")
        self.size = size
        self._data = zero_buffer(size)
        #: One byte per extent: 1 once any byte of it has been written.
        self._written = bytearray(-(-size // self.EXTENT_BYTES))

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset``."""
        self._check(offset, size)
        extent = self.EXTENT_BYTES
        stop = -(-(offset + size) // extent)
        if self._written.find(1, offset // extent, stop) < 0:
            # Never written: zeros, without faulting the buffer's pages.
            return _zeros(size) if size <= _SHARED_ZEROS_MAX else bytes(size)
        return bytes(self._data[offset : offset + size])

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``."""
        size = len(data)
        self._check(offset, size)
        if not size:
            return
        self._data[offset : offset + size] = data
        first = offset // self.EXTENT_BYTES
        last = (offset + size - 1) // self.EXTENT_BYTES
        if first == last:
            self._written[first] = 1
        else:
            self._written[first : last + 1] = b"\x01" * (last + 1 - first)

    def written_runs(self, offset: int, size: int) -> List[Tuple[int, int]]:
        """The parts of ``[offset, offset + size)`` that may be non-zero.

        ``(offset, length)`` runs, in order, covering every ever-written
        extent the range overlaps (clipped to the range); everything
        outside them still reads as zeros.
        """
        self._check(offset, size)
        extent = self.EXTENT_BYTES
        written = self._written
        end = offset + size
        stop = -(-end // extent)
        runs: List[Tuple[int, int]] = []
        index = written.find(1, offset // extent, stop)
        while index >= 0:
            after = written.find(0, index, stop)
            if after < 0:
                after = stop
            start = max(offset, index * extent)
            runs.append((start, min(end, after * extent) - start))
            index = written.find(1, after, stop)
        return runs

    def _check(self, offset: int, size: int) -> None:
        if offset < 0 or size < 0 or offset + size > self.size:
            raise ValueError(
                f"access [{offset}, {offset + size}) outside disk "
                f"of {self.size} bytes"
            )


class SpdkBdev:
    """Userspace async block device: timing (NVMe model) plus data (RamDisk).

    All operations are process generators completing when the simulated
    device does; reads return the bytes.  This is the only layer that
    touches both the timing model and the data plane, so everything above
    it (file service, offload engine) is automatically consistent.
    """

    def __init__(
        self,
        env: Environment,
        disk: RamDisk,
        device: Optional[NvmeDevice] = None,
    ) -> None:
        self.env = env
        self.disk = disk
        self.device = device if device is not None else NvmeDevice(env)

    def read(self, offset: int, size: int) -> Generator:
        """Async read; yields until the device completes, returns bytes."""
        yield from self.device.read(size)
        return self.disk.read(offset, size)

    def write(self, offset: int, data: bytes) -> Generator:
        """Async write; yields until the device completes."""
        yield from self.device.write(len(data))
        self.disk.write(offset, data)

    def submit_read(self, offset: int, size: int):
        """Fire-and-forget read returning the completion event."""
        return self.env.process(self.read(offset, size))

    def submit_write(self, offset: int, data: bytes):
        """Fire-and-forget write returning the completion event."""
        return self.env.process(self.write(offset, data))
