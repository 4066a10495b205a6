"""The DPU file service (§4.3): file execution offloaded from the host.

Per the paper's resource budget (§7), the service owns two of the DPU's
Arm cores: a *DMA thread* that fetches request batches from host rings
and delivers response batches back, and an *SPDK worker* that submits
file I/O to the userspace NVMe driver and harvests completions.

The zero-copy discipline of §4.3 is modelled faithfully:

* the DPU-side request buffer is at least as large as the host ring, so
  request data is used in place (no request copies);
* response space is *pre-allocated* in a
  :class:`~repro.structures.response.ResponseBuffer` before I/O submission
  and filled asynchronously, with TailA/TailB/TailC preserving request
  order and batching DMA write-backs.

``copy_mode=True`` disables both optimizations and charges the memory
copies instead — the ablation Figure 18 plots.
"""

from __future__ import annotations

from itertools import islice
from typing import Generator, List, Optional

from ..hardware.cpu import CpuPool
from ..hardware.specs import MICROSECOND
from ..sim import Environment, Event, Store
from ..storage.filesystem import DdsFileSystem, FileSystemError
from ..structures.response import (
    PreallocatedResponse,
    ResponseBuffer,
    ResponseStatus,
)
from .api import ReadOp, WriteOp
from .dma_ring import POINTER_AREA_BYTES, DmaRingChannel
from .messages import IoRequest, IoResponse, OpCode

__all__ = ["DpuFileService", "submit_read"]


class DpuFileService:
    """DMA thread + SPDK worker executing file operations on the DPU."""

    #: Host-core-seconds to parse/dispatch one fetched request (DMA core).
    PARSE_COST = 0.20 * MICROSECOND
    #: Host-core-seconds to build and submit one bdev I/O (SPDK core).
    SUBMIT_COST = 0.35 * MICROSECOND
    #: copy_mode only: per-byte memory-copy cost (host-core-seconds), one
    #: copy per operation, plus a per-op transient allocation.
    COPY_COST_PER_BYTE = 0.15e-9
    COPY_ALLOC_COST = 0.20 * MICROSECOND
    #: DMA-thread sleep when a full polling cycle made no progress.
    POLL_INTERVAL = 2.0 * MICROSECOND
    #: Response-buffer capacity per channel and DMA write-back batch.
    RESPONSE_BUFFER_BYTES = 4 << 20
    DELIVERY_BATCH_BYTES = 4096

    def __init__(
        self,
        env: Environment,
        filesystem: DdsFileSystem,
        dma_core: CpuPool,
        spdk_core: CpuPool,
        copy_mode: bool = False,
    ) -> None:
        self.env = env
        self.filesystem = filesystem
        self.dma_core = dma_core
        self.spdk_core = spdk_core
        self.copy_mode = copy_mode
        self.channels: List[DmaRingChannel] = []
        self._response_buffers: dict = {}
        self._io_queue: Store = Store(env)
        self.requests_executed = 0
        self.request_errors = 0
        self._running = False
        self._callbacks = None
        self._cache_table = None
        #: Consecutive polling cycles that fetched and delivered nothing.
        self._idle_cycles = 0
        #: Pointer-area polls a parked DMA thread was credited with
        #: instead of executing (see :meth:`_park`).
        self.polls_elided = 0
        #: Set while the DMA thread is parked and nobody has woken it.
        self._wake: Optional[Event] = None
        #: The poller a parked DMA thread stands in for: the instant of
        #: the last checkpoint it passed and the one it is heading for
        #: (-1: the end of its sleep; k: the end of channel k's pointer
        #: read).  ``None`` while the thread polls for real.
        self._idle_time: Optional[float] = None
        self._idle_next = -1
        #: Tie-breaking rank of the thread's wake-ups, reserved where the
        #: polling thread would have scheduled its next sleep; kept until
        #: the thread next makes progress (see :meth:`_park`).
        self._lane: Optional[int] = None

    def set_offload_hooks(self, callbacks, cache_table) -> None:
        """Install the user's Cache/Invalidate hooks (§6.1, Table 2).

        The file service invokes ``cache`` for every host file write and
        ``invalidate`` for every host file read, maintaining the cache
        table the traffic director and offload engine consult.
        """
        self._callbacks = callbacks
        self._cache_table = cache_table

    def _apply_cache_hooks(self, request: IoRequest) -> None:
        if self._callbacks is None or self._cache_table is None:
            return
        if request.op is OpCode.WRITE and self._callbacks.cache is not None:
            items = self._callbacks.cache(
                WriteOp(
                    request.file_id,
                    request.offset,
                    request.size,
                    context=request.payload,
                )
            )
            for key, item in items or []:
                self._cache_table.insert(key, item)
        elif request.op is OpCode.READ and (
            self._callbacks.invalidate is not None
        ):
            keys = self._callbacks.invalidate(
                ReadOp(request.file_id, request.offset, request.size)
            )
            for key in keys or []:
                self._cache_table.delete(key)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_channel(self, channel: DmaRingChannel) -> None:
        """Attach one notification group's rings to this service."""
        # A parked DMA thread polled the old channel set up to now and
        # polls the new one from here on.
        self.settle_idle_polls()
        self.channels.append(channel)
        self._response_buffers[id(channel)] = ResponseBuffer(
            self.RESPONSE_BUFFER_BYTES, self.DELIVERY_BATCH_BYTES
        )
        channel.doorbell = self._ring_doorbell
        self._ring_doorbell()

    def start(self) -> None:
        """Spawn the DMA thread and the SPDK worker."""
        if self._running:
            raise RuntimeError("file service already started")
        self._running = True
        self.env.process(self._dma_thread())
        self.env.process(self._spdk_worker())

    # ------------------------------------------------------------------
    # DMA thread: fetch requests, deliver responses
    # ------------------------------------------------------------------
    def _dma_thread(self) -> Generator:
        # After a park, the channel whose pointer read the replay
        # already accounted for: the cycle resumes behind that read.
        polled = -1
        while True:
            progress = False
            for channel in islice(self.channels, max(polled, 0), None):
                if polled >= 0:
                    polled = -1
                    batch = yield from channel.fetch_polled()
                else:
                    batch = yield from channel.fetch_batch()
                if batch:
                    progress = True
                    yield from self.dma_core.execute(
                        self.PARSE_COST * len(batch)
                    )
                    for encoded in batch:
                        request = IoRequest.decode(encoded)
                        self._io_queue.try_put((channel, request))
            for channel in self.channels:
                delivered = yield from self._deliver(
                    channel, force=self._idle_cycles >= 2
                )
                progress = progress or delivered
            if progress:
                self._idle_cycles = 0
                self._lane = None
            else:
                self._idle_cycles += 1
                if self._can_park():
                    polled = yield from self._park()
                else:
                    yield self.env.now + self.POLL_INTERVAL

    # ------------------------------------------------------------------
    # idle-poll elision (DESIGN.md §11)
    # ------------------------------------------------------------------
    # An idle polling cycle is a POLL_INTERVAL sleep and one 64-byte
    # pointer read per channel, none of which can change anything while
    # every ring is empty and no response is waiting: nine scheduled
    # occurrences per cycle on a four-ring backend, every ~6 us of idle
    # simulated time.  Instead of executing them the thread parks, and
    # whoever ends the idle state (an insert, a completed response, a
    # new channel) wakes it.  It then *replays* the float additions the
    # skipped timeouts would have made and resumes at the checkpoint
    # (end of a sleep, or end of channel k's pointer read) the polling
    # thread would have reached first at or after the wake-up instant,
    # at that exact instant and position in the cycle.
    #
    # Precondition: the thread is the only issuer on its channels' DMA
    # engines (``fetch_batch`` and ``deliver_responses`` are called from
    # nowhere else), so the elided pointer reads never held a DMA
    # channel anyone else waited for.  ``_park`` checks it.

    def _can_park(self) -> bool:
        """True when polling can find nothing until a doorbell rings."""
        for channel in self.channels:
            # The replay models the one-read poll; tail-first polls with
            # two, exists for one ablation, and is simply polled.
            if (
                channel.pointer_layout != "progress-first"
                or channel.request_ring.pending_bytes
            ):
                return False
        for buffer in self._response_buffers.values():
            if not buffer.quiescent():
                return False
        return True

    def _park(self) -> Generator:
        """Stand in for the idle poller; returns where the cycle resumes.

        Returns -1 to start a polling cycle from the top (the wake-up
        checkpoint was the end of a sleep) or the index of the channel
        whose pointer read ended at the wake-up checkpoint.
        """
        for channel in self.channels:
            if channel.dma.in_flight:
                raise RuntimeError(
                    "DMA thread parked while another issuer uses its DMA "
                    "engine: idle-poll elision assumes a private engine"
                )
        self._idle_time = self.env.now
        self._idle_next = -1
        if self._lane is None:
            self._lane = self.env.reserve_seq()
        self._wake = self.env.event()
        yield self._wake
        # Ties: a checkpoint at exactly the wake-up instant has not
        # happened yet, so it sees what the waker did.  Threads of
        # different backends that idle in lockstep (all do from bring-up)
        # reach the same checkpoint at the same instant; the polling
        # threads would get there in the order they went to sleep in,
        # cycle after cycle, which is the order of their lanes.
        yield self.env.timeout_at(
            self._replay_idle_polls(self.env.now), seq=self._lane
        )
        polled = self._idle_next
        if polled >= 0:
            self._credit_polls(self.channels[polled], 1)
        self._idle_time = None
        return polled

    def _ring_doorbell(self) -> None:
        """Wake a parked DMA thread (a no-op while it polls)."""
        wake = self._wake
        if wake is not None:
            self._wake = None
            wake.succeed()

    def settle_idle_polls(self) -> None:
        """Bring a parked DMA thread's accounting up to the present.

        Elided polls are credited to ``DmaStats`` when the thread wakes;
        call this before reading the counters of a deployment that may
        be idle.
        """
        if self._idle_time is not None:
            self._replay_idle_polls(self.env.now)

    def _replay_idle_polls(self, now: float) -> float:
        """Pass every idle-poll checkpoint before ``now``.

        Repeats the additions the engine would have made for the
        skipped timeouts (``now + delay``, one at a time: sums of floats
        do not regroup), credits the pointer reads that completed, and
        returns the instant of the next checkpoint.
        """
        channels = self.channels
        count = len(channels)
        sleep = self.POLL_INTERVAL
        reads = [
            channel.dma.transfer_time(POINTER_AREA_BYTES)
            for channel in channels
        ]
        polls = [0] * count
        cycles = 0
        passed = self._idle_time
        heading = self._idle_next
        while True:
            after = passed + (sleep if heading < 0 else reads[heading])
            if after >= now:
                break
            passed = after
            if heading >= 0:
                polls[heading] += 1
            heading += 1
            if heading == count:
                heading = -1
                cycles += 1
        self._idle_time = passed
        self._idle_next = heading
        self._idle_cycles += cycles
        for channel, polled in zip(channels, polls):
            self._credit_polls(channel, polled)
        return after

    def _credit_polls(self, channel: DmaRingChannel, polls: int) -> None:
        stats = channel.dma.stats
        stats.reads += polls
        stats.bytes_read += polls * POINTER_AREA_BYTES
        self.polls_elided += polls

    def _deliver(self, channel: DmaRingChannel, force: bool) -> Generator:
        buffer = self._response_buffers[id(channel)]
        buffer.harvest()
        batch = buffer.take_delivery(force=force)
        if not batch:
            return False
        encoded = [self._encode_response(r) for r in batch]
        yield from channel.deliver_responses(encoded)
        buffer.mark_delivered(batch)
        return True

    @staticmethod
    def _encode_response(response: PreallocatedResponse) -> bytes:
        ok = response.status is ResponseStatus.SUCCESS
        return IoResponse(
            response.request_id, ok, response.payload if ok else None
        ).encode()

    # ------------------------------------------------------------------
    # SPDK worker: submit I/O, complete pre-allocated responses
    # ------------------------------------------------------------------
    def _spdk_worker(self) -> Generator:
        while True:
            channel, request = yield self._io_queue.get()
            yield from self.spdk_core.execute(self.SUBMIT_COST)
            if self.copy_mode:
                yield from self.spdk_core.execute(
                    self.COPY_ALLOC_COST
                    + self.COPY_COST_PER_BYTE * request.size
                )
            buffer = self._response_buffers[id(channel)]
            data_bytes = request.size if request.op is OpCode.READ else 0
            # A response the buffer can never hold is answered with its
            # header alone, as an error, in its place in the order.
            fits = buffer.response_size(data_bytes) <= buffer.capacity
            if not fits:
                data_bytes = 0
            response = buffer.allocate(request.request_id, data_bytes)
            while response is None:
                # Only the DMA thread's mark_delivered frees capacity.
                yield self.env.now + self.POLL_INTERVAL
                response = buffer.allocate(request.request_id, data_bytes)
            if fits:
                self.env.process(self._execute(request, response))
            else:
                response.complete(ResponseStatus.OUT_OF_RANGE)
                self.request_errors += 1
                self._ring_doorbell()

    def _execute(
        self, request: IoRequest, response: PreallocatedResponse
    ) -> Generator:
        """Asynchronous I/O execution filling the pre-allocated response."""
        self._apply_cache_hooks(request)
        try:
            if request.op is OpCode.READ:
                data = yield from self.filesystem.read(
                    request.file_id, request.offset, request.size
                )
                response.complete(ResponseStatus.SUCCESS, data)
            else:
                yield from self.filesystem.write(
                    request.file_id, request.offset, request.payload
                )
                response.complete(ResponseStatus.SUCCESS)
            self.requests_executed += 1
        except FileSystemError:
            response.complete(ResponseStatus.IO_ERROR)
            self.request_errors += 1
        self._ring_doorbell()

    # ------------------------------------------------------------------
    # direct path for the offload engine (§6.2)
    # ------------------------------------------------------------------
    def execute_offloaded(
        self, read_op: ReadOp, on_complete
    ) -> Generator:
        """Execute an offload-engine read, bypassing the host rings.

        The engine pre-allocated the destination buffer from its DMA pool;
        ``on_complete(status, data)`` fires when the device finishes.
        """
        yield from self.spdk_core.execute(self.SUBMIT_COST)
        if self.copy_mode:
            yield from self.spdk_core.execute(
                self.COPY_ALLOC_COST + self.COPY_COST_PER_BYTE * read_op.size
            )
        try:
            data = yield from self.filesystem.read(
                read_op.file_id, read_op.offset, read_op.size
            )
        except FileSystemError:
            self.request_errors += 1
            on_complete(ResponseStatus.IO_ERROR, None)
            return
        self.requests_executed += 1
        on_complete(ResponseStatus.SUCCESS, data)


def submit_read(
    spdk_core: CpuPool, filesystem: DdsFileSystem, file_id: int, offset: int,
    size: int,
) -> Generator:
    """One DPU-side read outside the host rings: the SPDK submit on
    ``spdk_core``, then the device-timed read; returns the bytes.  What
    a scan pays per page and a DPU cache per miss."""
    yield from spdk_core.execute(DpuFileService.SUBMIT_COST)
    return (yield from filesystem.read(file_id, offset, size))
