"""Disk data planes.

:class:`RamDisk` holds the actual bytes (so filesystem correctness,
metadata persistence, and recovery are all testable for real), while
:class:`~repro.hardware.ssd.NvmeDevice` models the timing.
:class:`SpdkBdev` composes the two into the userspace asynchronous block
device the DPU file service drives (§4.3, §7: SPDK's ``spdk_bdev_read``/
``write`` against the NVMe driver).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from itertools import groupby
from typing import (
    Dict, Generator, Iterator, List, Optional, Sequence, Tuple, Union,
)

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


def _zero_piece(size: int) -> bytes:
    """``size`` zeros: the shared object up to the sharing limit."""
    return _zeros(size) if size <= _SHARED_ZEROS_MAX else bytes(size)


#: What an adopted run points into: immutable bytes, or a read-only
#: view of them.
_Source = Union[bytes, memoryview]

#: An adopted run: blocks ``[start, stop)`` are ``source[at:]``.
_Run = Tuple[int, int, _Source, int]


def _immutable(data) -> bool:
    """``bytes``, or a flat read-only byte view whose owner is ``bytes``:
    what no later write by anyone can change under the disk."""
    if isinstance(data, bytes):
        return True
    return (
        isinstance(data, memoryview)
        and data.readonly
        and data.contiguous
        and data.format == "B"
        and isinstance(data.obj, bytes)
    )


class RamDisk:
    """The byte content of a simulated SSD.

    A packed block store: a block (:attr:`BLOCK_BYTES`) gets a slot in
    one :func:`~repro.structures.memory.zero_buffer` the first time any
    byte of it is written, slots handed out in first-write order.  So a
    multi-GB disk costs nothing until blocks are actually written, and
    then one block per block written: a scattered 1 KiB write holds
    1 KiB, not the 4 KiB page it would fault in on a disk-sized buffer.

    A setup-time :meth:`load` of immutable bytes is *adopted* instead:
    its whole blocks become a run that reads straight out of the
    caller's object, so nine disks loaded from one table hold one
    table.  A later :meth:`write` over an adopted block is copy-on-write:
    the block takes a slot (the untouched bytes of a partly overwritten
    one copied in first) and leaves the run, and a source no run still
    covers is dropped.  A block is a slot, an adopted block or never
    written, never two of these.  The disk also remembers which extents
    ever were written, so that copying an image
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
        #: The adopted runs, sorted and disjoint, and their first blocks
        #: (the bisect key).  No run covers a block that has a slot.
        self._adopted: List[_Run] = []
        self._adopted_starts: List[int] = []

    def read(self, offset: int, size: int) -> bytes:
        """Read ``size`` bytes at ``offset``."""
        self._check(offset, size)
        extent = self.EXTENT_BYTES
        stop = -(-(offset + size) // extent)
        if not size or self._written.find(1, offset // extent, stop) < 0:
            # Never written: zeros, without faulting the buffer's pages.
            return _zero_piece(size)
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
        if self._adopted:
            return self._read_adopted(offset, size, slots)
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
            if self._adopted:
                self._copy_on_write(offset, size)
        elif None in slots:
            for position, slot in enumerate(slots):
                if slot is None:
                    slots[position] = index[first + position] = fresh
                    fresh += 1
            if self._adopted:
                self._copy_on_write(offset, size)
        slot = slots[0]
        if len(slots) == 1 or slots == list(range(slot, slot + len(slots))):
            at = slot * block + offset - first * block
            self._data[at : at + size] = data
        else:
            view = memoryview(data)
            for at, start, stop in self._runs(offset, size, slots):
                self._data[at : at + stop - start] = view[start:stop]
        self._mark_written(offset, size)

    def load(self, offset: int, data) -> None:
        """Setup-time write of ``data`` at ``offset``, by reference where
        it can be.

        The whole blocks of an immutable ``data`` (``bytes``, or a
        read-only view of ``bytes``) are adopted: the disk keeps a
        reference, never a copy, and never writes through it.  A
        ``bytearray``, a ragged edge, and a load over any block that
        already has a slot are copied, as :meth:`write` copies.
        """
        size = len(data)
        self._check(offset, size)
        block = self.BLOCK_BYTES
        first = -(-offset // block)
        stop = (offset + size) // block
        if (
            first >= stop
            or not _immutable(data)
            or not self._slots.keys().isdisjoint(range(first, stop))
        ):
            self.write(offset, data)
            return
        head = first * block - offset
        tail = stop * block - offset
        if head:
            self.write(offset, data[:head])
        if tail < size:
            self.write(stop * block, data[tail:])
        if isinstance(data, memoryview) and len(data) == len(data.obj):
            data = data.obj
        self._cut(first, stop)
        position = bisect_left(self._adopted_starts, first)
        self._adopted.insert(position, (first, stop, data, head))
        self._adopted_starts.insert(position, first)
        self._mark_written(offset, size)

    def _mark_written(self, offset: int, size: int) -> None:
        first = offset // self.EXTENT_BYTES
        last = (offset + size - 1) // self.EXTENT_BYTES
        if first == last:
            self._written[first] = 1
        else:
            self._written[first : last + 1] = b"\x01" * (last + 1 - first)

    def _overlapping(self, start: int, stop: int) -> Tuple[int, int]:
        """``runs[low:high]`` are the adopted runs that hold any block
        of ``[start, stop)``."""
        runs, starts = self._adopted, self._adopted_starts
        low = bisect_right(starts, start) - 1
        if low < 0 or runs[low][1] <= start:
            low += 1
        return low, bisect_left(starts, stop)

    def _cut(self, start: int, stop: int) -> None:
        """Take blocks ``[start, stop)`` out of every adopted run; a
        source left with no run is no longer referenced."""
        low, high = self._overlapping(start, stop)
        if low >= high:
            return
        runs = self._adopted
        kept: List[_Run] = []
        run_start, run_stop, source, at = runs[low]
        if run_start < start:
            kept.append((run_start, start, source, at))
        run_start, run_stop, source, at = runs[high - 1]
        if run_stop > stop:
            skip = (stop - run_start) * self.BLOCK_BYTES
            kept.append((stop, run_stop, source, at + skip))
        runs[low:high] = kept
        self._adopted_starts[low:high] = [run[0] for run in kept]

    def _run_at(self, block: int) -> Optional[_Run]:
        """The adopted run holding ``block``, if any."""
        low, high = self._overlapping(block, block + 1)
        return self._adopted[low] if low < high else None

    def _copy_on_write(self, offset: int, size: int) -> None:
        """Blocks of ``[offset, offset + size)`` just given slots leave
        their adopted runs; an edge block the write only partly covers
        first gets the bytes it keeps from its run."""
        block = self.BLOCK_BYTES
        first = offset // block
        last = (offset + size - 1) // block
        edges = []
        if offset % block:
            edges.append(first)
        if (offset + size) % block and last not in edges:
            edges.append(last)
        for edge in edges:
            run = self._run_at(edge)
            if run is not None:
                start, _stop, source, at = run
                at += (edge - start) * block
                slot = self._slots[edge] * block
                self._data[slot : slot + block] = source[at : at + block]
        self._cut(first, last + 1)

    def _read_adopted(
        self, offset: int, size: int, slots: Sequence[Optional[int]]
    ) -> bytes:
        """A read that is not one run of consecutive slots, on a disk
        holding adopted runs: one slice of the source if the range lies
        in one run, else slot, source and zero pieces joined as views."""
        block = self.BLOCK_BYTES
        if slots[0] is None:
            run = self._run_at(offset // block)
            if run is not None and run[1] * block >= offset + size:
                start, _stop, source, at = run
                at += offset - start * block
                piece = source[at : at + size]
                return piece if isinstance(piece, bytes) else piece.tobytes()
        data = memoryview(self._data)
        pieces: List[Union[bytes, memoryview]] = []
        for at, start, stop in self._runs(offset, size, slots):
            if at is None:
                pieces.extend(self._slotless(offset + start, offset + stop))
            else:
                pieces.append(data[at : at + stop - start])
        return b"".join(pieces)

    def _slotless(
        self, start: int, stop: int
    ) -> Iterator[Union[bytes, memoryview]]:
        """``[start, stop)``, no block of it in a slot: views into the
        adopted runs it crosses, zeros around them."""
        block = self.BLOCK_BYTES
        low, high = self._overlapping(start // block, -(-stop // block))
        cursor = start
        for run_start, run_stop, source, at in self._adopted[low:high]:
            begin = max(cursor, run_start * block)
            if begin > cursor:
                yield _zero_piece(begin - cursor)
            end = min(stop, run_stop * block)
            at += begin - run_start * block
            yield memoryview(source)[at : at + end - begin]
            cursor = end
        if cursor < stop:
            yield _zero_piece(stop - cursor)

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
