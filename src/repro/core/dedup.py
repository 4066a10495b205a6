"""Request-id dedup: at-most-once application of retried requests.

Client retries re-send the *same* request ids, so a retry racing its
original (or a chaos-duplicated message) must not apply a write twice.
:class:`RequestDedup` is the server-side table that makes retries
idempotent:

* ``cached(rid)`` — a completed request's response is replayed from the
  table (the retransmit pays transmit costs but not re-execution);
* ``begin(request)`` — registers a request as in flight; a duplicate of
  an in-flight request is silently absorbed (the original's response
  will reach the client through the shared ``on_response`` callback);
* ``complete(rid, response)`` — records a successful response for
  replay; failed responses are *abandoned* instead, so a retry may
  legitimately re-execute after a transient device error.

Servers call the two compositions of those rules: ``intake(requests,
replay)`` on the way in and ``record(response)`` on the way out.

Entries in flight longer than their TTL are presumed lost and reclaimed
so a retry can re-execute.  Reads can genuinely be lost that way — an
engine crash drops its context ring without responding — so their TTL
is short.  Writes always travel the host path, which either responds or
fails, so their TTL is an order of magnitude longer: reclaiming a live
write is the one hole through which a double-apply could slip, and the
table counts exactly that.  ``double_applies`` increments when the same
write id completes successfully twice; the
:class:`~repro.faults.invariants.InvariantChecker` asserts it is zero
after every chaos run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from ..sim import Environment
from .messages import IoRequest, IoResponse, OpCode

__all__ = ["RequestDedup"]


class RequestDedup:
    """Bounded request-id → response table shared by a deployment."""

    def __init__(
        self,
        env: Environment,
        capacity: int = 1 << 16,
        read_ttl: float = 2e-3,
        write_ttl: float = 20e-3,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if read_ttl <= 0 or write_ttl <= 0:
            raise ValueError("TTLs must be positive")
        self.env = env
        self.capacity = capacity
        self.read_ttl = read_ttl
        self.write_ttl = write_ttl
        self._completed: "OrderedDict[int, IoResponse]" = OrderedDict()
        #: request_id -> (registration time, is_write)
        self._in_flight: Dict[int, Tuple[float, bool]] = {}
        self._applied_writes: Set[int] = set()
        self.hits = 0
        self.absorbed = 0
        self.stale_reclaims = 0
        self.double_applies = 0

    # ------------------------------------------------------------------
    # intake
    # ------------------------------------------------------------------
    def cached(self, request_id: int) -> Optional[IoResponse]:
        """The replayable response for a completed request, if any."""
        response = self._completed.get(request_id)
        if response is not None:
            self.hits += 1
        return response

    def begin(self, request: IoRequest) -> bool:
        """Register a request; False means a duplicate was absorbed."""
        rid = request.request_id
        is_write = request.op is OpCode.WRITE
        entry = self._in_flight.get(rid)
        if entry is not None:
            ttl = self.write_ttl if entry[1] else self.read_ttl
            if self.env.now - entry[0] < ttl:
                self.absorbed += 1
                return False
            # Presumed lost (engine crash dropped it): reclaim so the
            # retry re-executes.
            self.stale_reclaims += 1
        self._in_flight[rid] = (self.env.now, is_write)
        return True

    def intake(
        self,
        requests: Sequence[IoRequest],
        replay: Callable[[IoResponse], None],
    ) -> List[IoRequest]:
        """Split retransmits from fresh work (the one intake rule).

        A completed request's recorded response goes to ``replay``
        (paying transmit but not re-execution); a duplicate of a request
        still in flight is absorbed — the original's response reaches
        the client through the shared callback.  Returns the requests
        to actually execute.
        """
        fresh: List[IoRequest] = []
        for request in requests:
            response = self.cached(request.request_id)
            if response is not None:
                replay(response)
            elif self.begin(request):
                fresh.append(request)
        return fresh

    # ------------------------------------------------------------------
    # completion
    # ------------------------------------------------------------------
    def record(self, response: IoResponse) -> None:
        """Record one executed request's outcome: a success is kept for
        replay, a failure was not applied and may re-execute cleanly."""
        if response.ok:
            self.complete(response.request_id, response)
        else:
            self.abandon(response.request_id)

    def complete(self, request_id: int, response: IoResponse) -> None:
        """Record a successful response for replay to later retries."""
        entry = self._in_flight.pop(request_id, None)
        if entry is not None and entry[1]:
            if request_id in self._applied_writes:
                self.double_applies += 1
            else:
                self._applied_writes.add(request_id)
        if request_id in self._completed:
            self._completed.move_to_end(request_id)
        self._completed[request_id] = response
        while len(self._completed) > self.capacity:
            self._completed.popitem(last=False)

    def abandon(self, request_id: int) -> None:
        """A request failed without being applied: allow a clean retry."""
        self._in_flight.pop(request_id, None)

    @property
    def in_flight(self) -> int:
        return len(self._in_flight)
