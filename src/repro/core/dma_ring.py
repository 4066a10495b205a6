"""DMA-backed ring channels between host and DPU (§4.1).

Two things live here:

* :class:`DmaRingChannel` — the storage-path transport used by the DDS
  file library / file service pair.  The host side inserts encoded
  requests into a *real* :class:`~repro.structures.rings.ProgressRing`;
  the DPU's DMA thread fetches batches with simulated DMA operations
  (pointer read, data read, head write-back) and delivers responses with
  batched DMA writes.  Data and timing flow through the same objects.

* :class:`RingTransferModel` — the Figure 17 microbenchmark apparatus:
  the three ring designs (progress-based lock-free, FaRM-style flags,
  lock-based) with their DMA-operation and host-contention cost models,
  used to regenerate the message-rate and latency comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, List, Optional

from ..hardware.cpu import CpuPool
from ..hardware.pcie import DmaEngine
from ..hardware.specs import DPU_CPU, MICROSECOND
from ..sim import Environment, SeededRng, Store
from ..structures.rings import FarmRing, LockRing, ProgressRing

__all__ = ["DmaRingChannel", "RingTransferModel", "RingTransferResult"]

#: Size of the pointer area fetched in a single DMA read.  Figure 7's
#: physical layout places progress immediately before tail precisely so
#: the consumer's equality check needs one read, not two.
POINTER_AREA_BYTES = 64


class DmaRingChannel:
    """One notification group's request/response transport.

    The request ring is host memory: producers (host threads) insert with
    purely local operations; the DPU reads it via DMA.  Responses travel
    the other way as DMA writes into the host's response ring, modelled
    as a :class:`~repro.sim.resources.Store` the host library polls.
    """

    #: Pointer-area layouts (Figure 7): ``progress-first`` packs the
    #: progress and tail pointers so one DMA read serves the consumer's
    #: equality check; ``tail-first`` (the rejected layout) forces two
    #: dependent reads — first the progress pointer, then the tail.
    LAYOUTS = ("progress-first", "tail-first")
    #: The request ring's maximum allowable progress (None: the whole
    #: ring, :class:`~repro.structures.rings.ProgressRing`'s default).
    MAX_PROGRESS: Optional[int] = None

    def __init__(
        self,
        env: Environment,
        dma: DmaEngine,
        ring_capacity: int = 1 << 20,
        pointer_layout: str = "progress-first",
    ) -> None:
        if pointer_layout not in self.LAYOUTS:
            raise ValueError(f"unknown pointer layout: {pointer_layout!r}")
        self.env = env
        self.dma = dma
        self.pointer_layout = pointer_layout
        self.request_ring = ProgressRing(ring_capacity, self.MAX_PROGRESS)
        self.responses: Store = Store(env)
        #: Called after every successful insert.  Not a modelled PCIe
        #: write (the paper's DPU polls precisely because the host has
        #: no cheap doorbell): it is how the simulator tells a consumer
        #: that parked instead of polling an empty ring that the ring
        #: is no longer empty (DESIGN.md §11, idle-poll elision).
        self.doorbell: Optional[Callable[[], None]] = None
        self.fetched_batches = 0
        self.fetched_requests = 0
        self.delivered_responses = 0

    # ------------------------------------------------------------------
    # host side
    # ------------------------------------------------------------------
    def try_insert(self, encoded_request: bytes) -> bool:
        """Host-thread insert: purely local memory (Figure 7 right)."""
        inserted = self.request_ring.try_enqueue(encoded_request)
        if inserted and self.doorbell is not None:
            self.doorbell()
        return inserted

    def poll_response(self):
        """Event yielding the next delivered response."""
        return self.responses.get()

    def try_poll_response(self):
        """Non-blocking poll (the library's non-blocking PollWait mode)."""
        return self.responses.try_get()

    # ------------------------------------------------------------------
    # DPU side (called from the file service's DMA thread)
    # ------------------------------------------------------------------
    def fetch_batch(self) -> Generator:
        """One fetch cycle: pointer DMA read, then batch DMA read.

        Returns the list of encoded requests (possibly empty).  Charges
        one pointer-area DMA read always (two dependent reads under the
        rejected tail-first layout), plus one data read and one head
        write-back when a batch was available — the operation count the
        progress-pointer layout is designed to minimize.
        """
        if self.pointer_layout == "progress-first":
            yield from self.dma.dma_read(POINTER_AREA_BYTES)
        else:
            # Tail-first: the progress check needs P, whose position is
            # only safe to interpret after T is known — two round trips.
            yield from self.dma.dma_read(POINTER_AREA_BYTES // 2)
            yield from self.dma.dma_read(POINTER_AREA_BYTES // 2)
        return (yield from self.fetch_polled())

    def fetch_polled(self) -> Generator:
        """The rest of :meth:`fetch_batch`, after its pointer-area read.

        Entered directly by a consumer that accounted for the pointer
        read itself (the file service's DMA thread resuming from a
        parked idle poll at the instant that read would have finished).
        """
        batch = self.request_ring.try_consume()
        if not batch:
            return []
        batch_bytes = sum(len(r) for r in batch)
        yield from self.dma.dma_read(batch_bytes)
        yield from self.dma.dma_write(POINTER_AREA_BYTES)  # head update
        self.fetched_batches += 1
        self.fetched_requests += len(batch)
        return batch

    def deliver_responses(self, encoded_responses: List[bytes]) -> Generator:
        """One DMA write delivers a batch of responses to the host ring."""
        if not encoded_responses:
            return
        total = sum(len(r) for r in encoded_responses) + POINTER_AREA_BYTES
        yield from self.dma.dma_write(total)
        for response in encoded_responses:
            self.responses.try_put(response)
        self.delivered_responses += len(encoded_responses)


# ----------------------------------------------------------------------
# Figure 17: ring design comparison
# ----------------------------------------------------------------------

@dataclass
class RingTransferResult:
    """Outcome of one ring microbenchmark run."""

    design: str
    producers: int
    messages: int
    elapsed: float
    median_latency: float

    @property
    def rate(self) -> float:
        """Messages per second."""
        return self.messages / self.elapsed if self.elapsed > 0 else 0.0


class RingTransferModel:
    """Host-threads-to-DPU message transfer with three ring designs.

    Host producers insert 8-byte messages (as in §8.5); the DPU consumer
    retrieves them via DMA.  The decisive difference between the designs
    is *what serializes on the host*:

    * ``lock`` — every insert holds one spinlock for the whole reserve +
      copy, and the effective critical section inflates with contending
      producers (cache-line bouncing), so the aggregate insert rate
      collapses from ~22 M/s at one producer to ~1.4 M/s at 64.
    * ``progress`` — only the CAS on the tail pointer serializes; its
      effective cost inflates far more gently under contention, holding
      ~6.5 M/s at 64 producers.  The consumer fetches whole batches with
      two DMA reads plus one DMA write.
    * ``farm`` — inserts are cheap, but the consumer pays a PCIe DMA
      poll + Arm handling + a release DMA write *per message*, flooring
      throughput at ~64 K msg/s with no batching at all.
    """

    MESSAGE_BYTES = 8
    RING_BYTES = 1 << 12
    #: Serialized host work per insert (reserve + copy + pointer update).
    INSERT_SERIAL = 45e-9
    #: Critical-section inflation per extra contending producer.
    CAS_CONTENTION = 0.035   # progress: only the CAS cacheline bounces
    LOCK_CONTENTION = 0.23   # lock: the whole section bounces
    #: Consumer-side per-message handling (host-equivalent core time).
    CONSUME_COST = 0.01 * MICROSECOND
    FARM_ARM_HANDLING = 2.0 * MICROSECOND  # host-equivalent per DMA op

    def __init__(self, env: Environment, design: str, producers: int) -> None:
        if design not in ("progress", "lock", "farm"):
            raise ValueError(f"unknown ring design: {design!r}")
        if producers < 1:
            raise ValueError("need at least one producer")
        self.env = env
        self.design = design
        self.producers = producers
        self.dma = DmaEngine(env)
        self.dpu_core = CpuPool(env, speed=DPU_CPU.speed)
        self.rng = SeededRng(17)
        if design == "progress":
            self.ring = ProgressRing(self.RING_BYTES)
        elif design == "lock":
            self.ring = LockRing(self.RING_BYTES)
        else:
            self.ring = FarmRing(slots=64, slot_size=64)
        from ..sim import Resource

        self._insert_path = Resource(env, capacity=1)
        self._consume_times: dict = {}

    # ------------------------------------------------------------------
    # cost model
    # ------------------------------------------------------------------
    def serialized_insert_time(self) -> float:
        """Host time the serialized part of one insert occupies."""
        extra = self.producers - 1
        if self.design == "progress":
            return self.INSERT_SERIAL * (1.0 + self.CAS_CONTENTION * extra)
        if self.design == "lock":
            return self.INSERT_SERIAL * (1.0 + self.LOCK_CONTENTION * extra)
        return self.INSERT_SERIAL  # farm: slot flag writes do not contend

    # ------------------------------------------------------------------
    # benchmark run
    # ------------------------------------------------------------------
    def run(self, messages_per_producer: int) -> RingTransferResult:
        """Drive producers and the DPU consumer; returns rate and latency."""
        total = messages_per_producer * self.producers
        done = self.env.event()
        consumed = [0]
        latencies: List[float] = []
        hold = self.serialized_insert_time()

        def producer(worker: int) -> Generator:
            for index in range(messages_per_producer):
                message = (worker * messages_per_producer + index).to_bytes(
                    self.MESSAGE_BYTES, "little"
                )
                # Transfer latency runs from the moment the thread starts
                # the insert (so waiting on the lock / CAS retries count).
                start = self.env.now
                while True:
                    yield self._insert_path.book(hold)
                    inserted = self.ring.try_enqueue(message)
                    if inserted:
                        self._consume_times[message] = start
                        break
                    # Ring full: back off roughly one consumer cycle.
                    backoff = self.rng.bounded_exponential(2 * MICROSECOND)
                    yield self.env.now + backoff

        def record(batch: List[bytes]) -> None:
            now = self.env.now
            for message in batch:
                latencies.append(now - self._consume_times.pop(message))
            consumed[0] += len(batch)
            if consumed[0] >= total and not done.triggered:
                done.succeed()

        def consumer_batched() -> Generator:
            while consumed[0] < total:
                yield from self.dma.dma_read(POINTER_AREA_BYTES)
                batch = self.ring.try_consume()
                if batch:
                    yield from self.dma.dma_read(
                        sum(len(m) for m in batch)
                    )
                    yield from self.dma.dma_write(POINTER_AREA_BYTES)
                    yield from self.dpu_core.execute(
                        self.CONSUME_COST * len(batch)
                    )
                    record(batch)
                else:
                    yield self.env.now + 0.5 * MICROSECOND

        def consumer_farm() -> Generator:
            while consumed[0] < total:
                # Poll the head slot: one DMA read + Arm handling.
                yield from self.dma.dma_read(64)
                yield from self.dpu_core.execute(self.FARM_ARM_HANDLING)
                message = self.ring.try_consume()
                if message is not None:
                    # Release the slot: the extra per-message DMA write.
                    yield from self.dma.dma_write(8)
                    yield from self.dpu_core.execute(self.FARM_ARM_HANDLING)
                    record([message])

        for worker in range(self.producers):
            self.env.process(producer(worker))
        if self.design == "farm":
            self.env.process(consumer_farm())
        else:
            self.env.process(consumer_batched())
        self.env.run(until=done)

        latencies.sort()
        median = latencies[len(latencies) // 2] if latencies else 0.0
        return RingTransferResult(
            design=self.design,
            producers=self.producers,
            messages=total,
            elapsed=self.env.now,
            median_latency=median,
        )
