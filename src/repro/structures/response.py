"""Zero-copy response buffer with three tail pointers (§4.3, Figure 10).

To avoid copying I/O results, the DPU file service *pre-allocates* the
response space for each request before submitting the I/O, and points the
storage driver's output at that space.  Because I/O completes out of
order but responses must be delivered in request order, the buffer tracks
three tails:

* ``TailA(llocated)`` — end of pre-allocated response space;
* ``TailB(uffered)`` — end of the *contiguous prefix* of responses whose
  I/O has finished (successfully or not);
* ``TailC(ompleted)`` — end of the responses already DMA-delivered to the
  host response ring.

``TailC <= TailB <= TailA`` always holds.  A DMA write is issued when
``TailB - TailC`` reaches the configured delivery batch size.

Pointer and queue mutations pass ``yield_point`` schedule hooks (no-ops
in production) so the deterministic interleaving harness in
:mod:`repro.concurrency` can interleave allocate / complete / harvest /
deliver steps and check the tail ordering at every point.  Completion
publishes the payload *before* the status flip: the status is the
linearization point the harvester polls, so a span must never be
harvestable while its payload is still unset.
"""

from __future__ import annotations

from collections import deque
from enum import IntEnum
from typing import Deque, List, Optional

from repro.concurrency.hooks import yield_point

__all__ = ["ResponseStatus", "PreallocatedResponse", "ResponseBuffer"]


class ResponseStatus(IntEnum):
    """Error-code field of a pre-allocated response."""

    PENDING = 0
    SUCCESS = 1
    IO_ERROR = 2
    OUT_OF_RANGE = 4


class PreallocatedResponse:
    """One reserved response span: header plus expected read data."""

    __slots__ = ("request_id", "offset", "size", "status", "payload")

    def __init__(self, request_id: int, offset: int, size: int) -> None:
        self.request_id = request_id
        self.offset = offset
        self.size = size
        self.status = ResponseStatus.PENDING
        self.payload: Optional[bytes] = None

    def complete(
        self,
        status: ResponseStatus = ResponseStatus.SUCCESS,
        payload: Optional[bytes] = None,
    ) -> None:
        """I/O completion callback: fill in the outcome (any order)."""
        if self.status is not ResponseStatus.PENDING:
            raise RuntimeError("response completed twice")
        if status is ResponseStatus.PENDING:
            raise ValueError("cannot complete a response as PENDING")
        # Payload first, status last: the status flip is what makes the
        # span harvestable, so it must publish a fully-written response.
        self.payload = payload
        yield_point("resp.complete", ("resp.span", id(self)))
        self.status = status


class ResponseBuffer:
    """Order-preserving pre-allocation buffer for file-service responses."""

    #: Fixed response-header bytes (Figure 9: response id, error code, size).
    HEADER_BYTES = 16

    _DDSLINT_EXEMPT = {
        "tail_allocated": (
            "single-writer: only the allocation path (request intake) "
            "advances TailA; readers tolerate a stale snapshot"
        ),
        "tail_buffered": (
            "single-writer: only the harvester advances TailB"
        ),
        "tail_completed": (
            "single-writer: only the DMA-completion path advances TailC"
        ),
        "_pending": (
            "SPSC deque: allocation appends, the harvester popleft-s; "
            "deque ends are GIL-atomic and the roles touch opposite ends"
        ),
        "_buffered": (
            "SPSC deque: the harvester appends, delivery popleft-s; "
            "deque ends are GIL-atomic and the roles touch opposite ends"
        ),
    }

    def __init__(self, capacity: int, delivery_batch: int = 1) -> None:
        if capacity <= self.HEADER_BYTES:
            raise ValueError("capacity too small for one response")
        if delivery_batch < 1:
            raise ValueError("delivery_batch must be >= 1")
        self.capacity = capacity
        self.delivery_batch = delivery_batch
        self.tail_allocated = 0  # TailA
        self.tail_buffered = 0   # TailB
        self.tail_completed = 0  # TailC
        self._pending: Deque[PreallocatedResponse] = deque()
        self._buffered: Deque[PreallocatedResponse] = deque()

    # ------------------------------------------------------------------
    # allocation (request arrival)
    # ------------------------------------------------------------------
    def response_size(self, data_bytes: int) -> int:
        """On-ring footprint of a response carrying ``data_bytes``."""
        return self.HEADER_BYTES + data_bytes

    def allocate(
        self, request_id: int, data_bytes: int
    ) -> Optional[PreallocatedResponse]:
        """Reserve response space ahead of I/O submission.

        Returns None when the buffer cannot hold the response until
        currently-undelivered responses drain (backpressure).
        """
        size = self.response_size(data_bytes)
        if size > self.capacity:
            raise ValueError("response exceeds buffer capacity")
        yield_point("resp.alloc", ("resp", id(self), "tailA"))
        if self.tail_allocated + size - self.tail_completed > self.capacity:
            return None
        response = PreallocatedResponse(request_id, self.tail_allocated, size)
        self.tail_allocated += size
        self._pending.append(response)
        return response

    # ------------------------------------------------------------------
    # harvesting (file-service periodic check)
    # ------------------------------------------------------------------
    def harvest(self) -> int:
        """Advance TailB over the completed prefix; returns spans moved."""
        moved = 0
        while self._pending and (
            self._pending[0].status is not ResponseStatus.PENDING
        ):
            yield_point("resp.harvest", ("resp", id(self), "tailB"))
            response = self._pending.popleft()
            self.tail_buffered += response.size
            self._buffered.append(response)
            moved += 1
        return moved

    # ------------------------------------------------------------------
    # delivery (DMA write back to the host response ring)
    # ------------------------------------------------------------------
    @property
    def deliverable_bytes(self) -> int:
        """TailB - TailC: bytes ready to DMA to the host."""
        return self.tail_buffered - self.tail_completed

    def quiescent(self) -> bool:
        """True when a harvest-and-deliver pass would find nothing.

        No completed span waits at the head of the pending queue (TailB
        is current) and everything buffered has been delivered (TailB ==
        TailC).  Only a completion can end this state, which is what
        lets the harvester stop polling until one happens.
        """
        return self.tail_buffered == self.tail_completed and not (
            self._pending
            and self._pending[0].status is not ResponseStatus.PENDING
        )

    def should_deliver(self) -> bool:
        """True when the buffered batch has reached the delivery size."""
        return self.deliverable_bytes >= self.delivery_batch

    def take_delivery(self, force: bool = False) -> List[PreallocatedResponse]:
        """Pop the batch for one DMA write (empty unless batch-ready).

        ``force`` delivers whatever is buffered regardless of batch size
        (used to flush on idle).  The caller advances TailC via
        :meth:`mark_delivered` once the DMA write completes.
        """
        if not force and not self.should_deliver():
            return []
        # Drain with popleft rather than snapshot-then-clear: a harvest
        # that lands between ``list(self._buffered)`` and ``.clear()``
        # would have its responses silently discarded (never delivered,
        # TailC stuck behind TailB forever).  popleft only removes what
        # this call will actually return.
        batch: List[PreallocatedResponse] = []
        while self._buffered:
            yield_point("resp.deliver", ("resp", id(self), "buffered"))
            batch.append(self._buffered.popleft())
        return batch

    def mark_delivered(self, batch: List[PreallocatedResponse]) -> None:
        """DMA-write completion: advance TailC past the batch."""
        for response in batch:
            if response.offset != self.tail_completed:
                raise RuntimeError("responses delivered out of order")
            yield_point("resp.mark", ("resp", id(self), "tailC"))
            self.tail_completed += response.size

    # ------------------------------------------------------------------
    # invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Assert TailC <= TailB <= TailA and capacity bounds."""
        if not (
            self.tail_completed
            <= self.tail_buffered
            <= self.tail_allocated
        ):
            raise AssertionError(
                "tail ordering violated: "
                f"C={self.tail_completed} B={self.tail_buffered} "
                f"A={self.tail_allocated}"
            )
        if self.tail_allocated - self.tail_completed > self.capacity:
            raise AssertionError("allocation overran buffer capacity")
