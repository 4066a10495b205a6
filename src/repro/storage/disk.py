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
from itertools import groupby
from typing import Dict, Generator, List, Optional, Sequence, Tuple

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

    A packed block store: a block (:attr:`BLOCK_BYTES`) gets a slot in
    one :func:`~repro.structures.memory.zero_buffer` the first time any
    byte of it is written, slots handed out in first-write order.  So a
    multi-GB disk costs nothing until blocks are actually written, and
    then one block per block written: a scattered 1 KiB write holds
    1 KiB, not the 4 KiB page it would fault in on a disk-sized buffer.
    The disk also remembers which extents ever were written, so that
    copying an image
    (:meth:`~repro.storage.filesystem.DdsFileSystem.clone_into`)
    touches only those.
    """

    #: Granularity of the ever-written map: a memory page, so a read
    #: beside a small write stays on the never-written path without
    #: looking up a single block.
    EXTENT_BYTES = 4 << 10

    #: Granularity of the store: the paper's request size (1 KiB reads
    #: and writes, §8), so a request-sized write holds its own bytes.
    BLOCK_BYTES = 1 << 10

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("disk size must be positive")
        self.size = size
        block = self.BLOCK_BYTES
        #: The written blocks, packed in first-write order.
        self._data = zero_buffer(-(-size // block) * block)
        #: Block index → its slot in ``_data``.  Slots are never freed,
        #: so the next fresh one is ``len(_slots)``.
        self._slots: Dict[int, int] = {}
        #: One byte per extent: 1 once any byte of it has been written.
        self._written = bytearray(-(-size // self.EXTENT_BYTES))

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset``."""
        self._check(offset, size)
        extent = self.EXTENT_BYTES
        stop = -(-(offset + size) // extent)
        if not size or self._written.find(1, offset // extent, stop) < 0:
            # Never written: zeros, without faulting the buffer's pages.
            return _zeros(size) if size <= _SHARED_ZEROS_MAX else bytes(size)
        block = self.BLOCK_BYTES
        first = offset // block
        slots = list(
            map(self._slots.get, range(first, (offset + size - 1) // block + 1))
        )
        data = self._data
        slot = slots[0]
        if slot is not None and (
            len(slots) == 1 or slots == list(range(slot, slot + len(slots)))
        ):
            at = slot * block + offset - first * block
            return bytes(data[at : at + size])
        return b"".join(
            bytes(stop - start) if at is None else data[at : at + stop - start]
            for at, start, stop in self._runs(offset, size, slots)
        )

    def write(self, offset: int, data: bytes) -> None:
        """Write ``data`` at ``offset``."""
        size = len(data)
        self._check(offset, size)
        if not size:
            return
        block = self.BLOCK_BYTES
        first = offset // block
        blocks = range(first, (offset + size - 1) // block + 1)
        index = self._slots
        slots = list(map(index.get, blocks))
        fresh = len(index)
        if slots.count(None) == len(slots):
            # All new: one run of fresh slots, so one copy.
            slots = list(range(fresh, fresh + len(slots)))
            index.update(zip(blocks, slots))
        elif None in slots:
            for position, slot in enumerate(slots):
                if slot is None:
                    slots[position] = index[first + position] = fresh
                    fresh += 1
        slot = slots[0]
        if len(slots) == 1 or slots == list(range(slot, slot + len(slots))):
            at = slot * block + offset - first * block
            self._data[at : at + size] = data
        else:
            view = memoryview(data)
            for at, start, stop in self._runs(offset, size, slots):
                self._data[at : at + stop - start] = view[start:stop]
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
        if not size:
            return []
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

    def _runs(
        self, offset: int, size: int, slots: Sequence[Optional[int]]
    ) -> List[Tuple[Optional[int], int, int]]:
        """Split ``[offset, offset + size)`` wherever its blocks' slots
        (``slots``, one per block) stop being consecutive.

        ``(at, start, stop)`` per run: ``start``/``stop`` relative to
        ``offset``, ``at`` where byte ``start`` sits in ``_data``, or
        None for a run of blocks never written.
        """
        block = self.BLOCK_BYTES
        skew = offset % block
        runs: List[Tuple[Optional[int], int, int]] = []
        start = blocks = 0
        # Consecutive slots share ``slot - position``.
        for key, group in groupby(
            None if slot is None else slot - position
            for position, slot in enumerate(slots)
        ):
            blocks += sum(1 for _ in group)
            stop = min(size, blocks * block - skew)
            runs.append(
                (None if key is None else key * block + skew + start, start, stop)
            )
            start = stop
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
    it (file service, offload engine) is automatically consistent.  The
    data plane costs the simulator memory per block ever written, never
    per byte of the device, so a bdev over a multi-GB disk is cheap.
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
