"""Shared-resource primitives for the simulation engine.

Two primitives cover every contention point in the models:

* :class:`Resource` — a counted FIFO server.  CPU cores, DMA channels,
  link arbitration and the SSD bus *book* their hold times
  (:meth:`Resource.hold`, one event per hold); SSD submission slots and
  SMB credits, held for a time not known up front, use
  ``request()``/``release()``.
* :class:`Store` — an unbounded (or bounded) FIFO of items with blocking
  ``get``.  Used for packet queues, request queues, and mailboxes between
  simulated threads.

All operations return :class:`~repro.sim.engine.Event` objects, so
processes compose them with ``yield``.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from typing import Any, Deque, List, Optional

from .engine import Environment, Event, SimulationError

__all__ = ["Resource", "Store"]


class Resource:
    """A counted resource with FIFO admission, used in one of two ways.

    *Booked*: when the holder knows up front how long it needs a unit,
    :meth:`hold` books the time and returns the one event that marks
    the end of the hold::

        yield resource.hold(duration)

    *Requested*: when the hold time depends on what happens while
    holding (an SSD slot held across a wait for the bus, an SMB credit
    held across a whole request), ``request()`` returns an event that
    triggers when a unit is granted and ``release()`` returns it::

        grant = resource.request()
        yield grant
        try:
            ... hold the resource ...
        finally:
            resource.release()

    A resource is one or the other for its whole life: a booking knows
    nothing of units handed out by ``request()`` and the reverse, so
    mixing the two raises :class:`SimulationError`.
    """

    def __init__(self, env: Environment, capacity: int = 1) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.env = env
        self.capacity = capacity
        self._in_use = 0
        self._waiting: Deque[Event] = deque()
        #: Booked mode: the instant each unit's last booking ends, kept
        #: sorted (which unit frees when never matters, only the
        #: instants; a heap would be ``heapq``, which DDS304 keeps in
        #: the engine).
        self._free_at: Optional[List[float]] = None

    @property
    def in_use(self) -> int:
        """Units granted and not yet released, or booked past now."""
        if self._free_at is not None:
            now = self.env.now
            return sum(1 for end in self._free_at if end > now)
        return self._in_use

    def book(self, duration: float) -> float:
        """Book the earliest-free unit for ``duration``; returns the end.

        The hold starts when every earlier booking that could delay it
        has finished (FIFO), or now.  The returned instant is the float
        a holder that waited for a grant and then slept ``duration``
        would wake at: the previous holder's end, or now, plus
        ``duration`` in one addition.
        """
        if duration < 0:
            raise ValueError(f"negative hold duration: {duration}")
        free_at = self._free_at
        if free_at is None:
            if self._in_use:
                raise SimulationError("hold() on a resource with requests")
            free_at = self._free_at = [self.env.now] * self.capacity
        start = free_at[0]
        now = self.env.now
        end = (start if start > now else now) + duration
        del free_at[0]
        insort(free_at, end)
        return end

    def hold(self, duration: float) -> Event:
        """Hold a unit for ``duration``, queueing FIFO; the event
        triggers at the end of the hold."""
        free_at = self._free_at
        if self.capacity != 1 or free_at is None or duration < 0:
            return self.env.timeout_at(self.book(duration))
        # One unit (every core, link and bus): :meth:`book` without the
        # re-sort — the same addition on the same two operands.
        env = self.env
        now = env.now
        start = free_at[0]
        free_at[0] = end = (start if start > now else now) + duration
        return env.timeout_at(end)

    def request(self) -> Event:
        """Return an event that triggers when a unit is granted."""
        if self._free_at is not None:
            raise SimulationError("request() on a resource with bookings")
        event = self.env.event()
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiting.append(event)
        return event

    def release(self) -> None:
        """Return one unit, waking the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError("release() without a matching request()")
        if self._waiting:
            waiter = self._waiting.popleft()
            waiter.succeed()
        else:
            self._in_use -= 1


class Store:
    """FIFO of items with blocking ``get`` and optionally bounded
    ``try_put``."""

    def __init__(self, env: Environment, capacity: Optional[int] = None):
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be >= 1 or None")
        self.env = env
        self.capacity = capacity
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    @property
    def items(self) -> tuple:
        """Snapshot of queued items (oldest first)."""
        return tuple(self._items)

    def try_put(self, item: Any) -> bool:
        """Non-blocking insert; returns False when the store is full."""
        if self._getters:
            self._getters.popleft().succeed(item)
            return True
        if self.capacity is not None and len(self._items) >= self.capacity:
            return False
        self._items.append(item)
        return True

    def get(self) -> Event:
        """Return an event that triggers with the oldest item."""
        event = self.env.event()
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event

    def try_get(self) -> Any:
        """Non-blocking pop; returns None when empty."""
        if not self._items:
            return None
        return self._items.popleft()
