"""A FASTER-like key-value store [20] for the §9.2 integration.

FASTER stores records in a *hybrid log* that spans memory and secondary
storage.  The in-memory tail supports in-place updates; behind it lies a
read-only in-memory region, and everything older is flushed to storage
through the ``IDevice`` abstraction (``read(offset, size)`` /
``write(offset, data)`` generators raising ``FileSystemError``; the
OS-file and DDS-library pair lives in :mod:`repro.topology.stages`).
A hash index maps keys to their latest record address in the log.

This module implements the store for real — records are bytes on a
log whose disk portion lives in the DDS filesystem — plus the CPU cost
model that Figure 5 (host vs DPU RMW throughput) and Figures 25/26
(disaggregated service) are driven by.

Record layout on the log: ``key(8) | value(8)`` (the paper's YCSB setup
uses 8 B keys and 8 B values).
"""

from __future__ import annotations

import struct
from typing import Callable, Generator, Optional

from ..hardware.cpu import CpuPool
from ..hardware.specs import MICROSECOND
from ..sim import Environment

__all__ = ["RECORD", "FasterKv"]

#: On-log record encoding.
RECORD = struct.Struct("<QQ")


class FasterKv:
    """Hash index + hybrid log with in-place updates on the mutable tail."""

    #: CPU cost model (host-core-seconds per operation component),
    #: calibrated to FASTER's reported in-memory throughput scale.
    INDEX_COST = 0.25 * MICROSECOND
    INPLACE_COST = 0.30 * MICROSECOND
    APPEND_COST = 0.40 * MICROSECOND
    #: Extra per-byte memory traffic during RMW (reads+writes the value).
    MEMORY_COST_PER_BYTE = 0.002 * MICROSECOND

    #: Fraction of the in-memory region that is mutable (FASTER default).
    MUTABLE_FRACTION = 0.9
    #: Flush granularity to the device.
    PAGE_BYTES = 1 << 15
    #: Called with ``(offset, page)`` for every flushed log page.
    on_flush: Optional[Callable[[int, bytes], None]] = None

    def __init__(
        self,
        env: Environment,
        cpu: CpuPool,
        memory_budget: int,
        device=None,
        memory_cost_scale: float = 1.0,
    ) -> None:
        if memory_budget < 2 * self.PAGE_BYTES:
            raise ValueError("memory budget below two log pages")
        self.env = env
        self.cpu = cpu
        # Figure 5: RMW's random-access memory traffic hurts far more on
        # the DPU's small-cache A72 cores than raw core speed implies.
        self.memory_cost_scale = memory_cost_scale
        self.memory_budget = memory_budget
        self.device = device
        self.index: dict = {}
        self.tail_address = 0
        self.head_address = 0          # memory/disk boundary
        self._memory_log = bytearray()  # [head_address, tail_address)
        self._flushing = False          # one flush in flight at a time
        self.reads = 0
        self.reads_from_disk = 0
        self.upserts = 0
        self.rmws = 0
        self.flushes = 0

    # ------------------------------------------------------------------
    # region boundaries
    # ------------------------------------------------------------------
    @property
    def read_only_address(self) -> int:
        """Start of the mutable region: in-place updates above this."""
        mutable = int(self.memory_budget * self.MUTABLE_FRACTION)
        return max(self.head_address, self.tail_address - mutable)

    @property
    def bytes_in_memory(self) -> int:
        return self.tail_address - self.head_address

    def _address_in_memory(self, address: int) -> bool:
        return address >= self.head_address

    def _memory_record(self, address: int) -> tuple:
        start = address - self.head_address
        key, value = RECORD.unpack_from(self._memory_log, start)
        return key, value

    def _write_memory_record(self, address: int, key: int, value: int):
        start = address - self.head_address
        RECORD.pack_into(self._memory_log, start, key, value)

    # ------------------------------------------------------------------
    # operations (simulation-process generators)
    # ------------------------------------------------------------------
    def read(self, key: int) -> Generator:
        """Look up ``key``; returns the value or None."""
        yield from self.cpu.execute(self.INDEX_COST)
        self.reads += 1
        address = self.index.get(key)
        if address is None:
            return None
        if self._address_in_memory(address):
            _key, value = self._memory_record(address)
            return value
        if self.device is None:
            raise RuntimeError("record on disk but no IDevice attached")
        self.reads_from_disk += 1
        data = yield from self.device.read(address, RECORD.size)
        _key, value = RECORD.unpack(data)
        return value

    def upsert(self, key: int, value: int) -> Generator:
        """Insert or blind-update ``key``."""
        yield from self.cpu.execute(self.INDEX_COST)
        self.upserts += 1
        address = self.index.get(key)
        if address is not None and address >= self.read_only_address:
            # Hot record on the mutable tail: update in place.
            yield from self.cpu.execute(
                self.INPLACE_COST
                + RECORD.size * self.MEMORY_COST_PER_BYTE * self.memory_cost_scale
            )
            self._write_memory_record(address, key, value)
            return
        yield from self._append(key, value)

    def rmw(self, key: int, update: Callable[[int], int] = None) -> Generator:
        """Read-modify-write: the YCSB RMW operation of Figure 5."""
        yield from self.cpu.execute(self.INDEX_COST)
        self.rmws += 1
        update = update if update is not None else (lambda v: v + 1)
        address = self.index.get(key)
        if address is not None and address >= self.read_only_address:
            yield from self.cpu.execute(
                self.INPLACE_COST
                + 2 * RECORD.size * self.MEMORY_COST_PER_BYTE * self.memory_cost_scale
            )
            _key, value = self._memory_record(address)
            self._write_memory_record(address, key, update(value))
            return
        if address is None:
            current = 0
        elif self._address_in_memory(address):
            _key, current = self._memory_record(address)
        else:
            if self.device is None:
                raise RuntimeError("record on disk but no IDevice attached")
            self.reads_from_disk += 1
            data = yield from self.device.read(address, RECORD.size)
            _key, current = RECORD.unpack(data)
        yield from self._append(key, update(current))

    def _append(self, key: int, value: int) -> Generator:
        yield from self.cpu.execute(
            self.APPEND_COST + RECORD.size * self.MEMORY_COST_PER_BYTE * self.memory_cost_scale
        )
        address = self.tail_address
        self._memory_log.extend(RECORD.pack(key, value))
        self.tail_address += RECORD.size
        self.index[key] = address
        if self.bytes_in_memory > self.memory_budget and not self._flushing:
            yield from self._flush_page()

    def _flush_page(self) -> Generator:
        """Evict the oldest in-memory page to the device.

        At most one flush is in flight: without the guard, overlapping
        appends would both flush (and doubly advance past) the same
        page, losing the records behind it.  Appends arriving during a
        flush let memory exceed the budget transiently; the next append
        flushes again — also after a device write that raised, which
        leaves the page (its records' only copy) in memory.
        """
        self._flushing = True
        try:
            page = bytes(self._memory_log[: self.PAGE_BYTES])
            offset = self.head_address
            if self.device is not None:
                yield from self.device.write(offset, page)
            if self.on_flush is not None:
                self.on_flush(offset, page)
            del self._memory_log[: self.PAGE_BYTES]
            self.head_address += len(page)
            self.flushes += 1
        finally:
            self._flushing = False

    # ------------------------------------------------------------------
    # bulk load (no simulated time; used to set up experiments)
    # ------------------------------------------------------------------
    def load(self, key: int, value: int) -> Optional[tuple]:
        """Synchronously append one record; returns a flushed page if the
        memory budget overflowed (the caller persists it)."""
        address = self.tail_address
        self._memory_log.extend(RECORD.pack(key, value))
        self.tail_address += RECORD.size
        self.index[key] = address
        if self.bytes_in_memory > self.memory_budget:
            page = bytes(self._memory_log[: self.PAGE_BYTES])
            offset = self.head_address
            del self._memory_log[: self.PAGE_BYTES]
            self.head_address += len(page)
            self.flushes += 1
            if self.on_flush is not None:
                self.on_flush(offset, page)
            return offset, page
        return None
