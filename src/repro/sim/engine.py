"""Discrete-event simulation engine.

A small, dependency-free engine in the style of SimPy: simulation
*processes* are Python generators that ``yield`` :class:`Event` objects and
are resumed when those events trigger, or ``yield`` a float, the absolute
simulated instant at which they resume.  The :class:`Environment` owns the
virtual clock and the event queues.

The engine is the substrate on which every hardware and protocol model in
this repository runs (CPU cores, SSDs, DMA engines, network links, TCP).
It is deliberately minimal but complete: events carry values or failures,
processes are themselves events (so they can be awaited and composed), and
``AllOf``/``AnyOf`` provide fork/join.

Hot-path design (DESIGN.md §11)
-------------------------------
The engine orders every scheduled occurrence by ``(time, seq)`` where
``seq`` is a per-environment monotonically increasing int.  Two queues
realise that order:

* a **heap** of ``(time, seq, event, value, exception)`` tuples for
  delayed occurrences, and
* a **same-tick ready deque** for zero-delay occurrences (the vast
  majority: every ``succeed()``, every process resume).  Ready entries
  are always at the current simulated time, so they bypass ``heapq``
  entirely; a ready entry runs before the heap top unless the heap top
  shares the current timestamp with a smaller ``seq``.

Process bootstrap, the "poke" that resumes a process whose yielded
target already triggered, an interrupt and the wake-up of a timed wait
(a yielded float) are *direct continuations* — ``(seq, None, callable,
argument)`` ready entries, or ``(time, seq, None, callable, argument)``
heap entries — instead of throwaway ``Event`` objects.  Each consumes
one ``seq``, like the event it replaces, so everything that has an
effect keeps its historical order; what has none (the completion of a
process nobody waits on) is not scheduled at all.

Every class here carries ``__slots__``, events store their sole callback
inline (promoting to a list only on the second waiter), and ``run()`` is
the one loop.

Models report *domain* steps, not engine ones: a producer builds a typed
event (:mod:`repro.topology.events`) only while ``env.listeners`` is
non-empty and hands it to :meth:`Environment.emit`, a synchronous call
that schedules nothing.

Example
-------
>>> env = Environment()
>>> def hello(env):
...     yield env.now + 5
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
5.0
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "SimulationError",
]


class SimulationError(Exception):
    """Raised for misuse of the engine (e.g., re-triggering an event)."""


class _StopRun(Exception):
    """Ends :meth:`Environment.run` once the awaited event has triggered."""


def _stop_run(_arg: Any) -> None:
    raise _StopRun


#: The ready entry that stops a run (seq -1 outranks every other entry).
_STOP = (-1, None, _stop_run, None)


#: Sentinel distinguishing "no value yet" from a triggered ``None`` value.
_PENDING = object()


class Event:
    """A one-shot occurrence at a point in simulated time.

    An event starts *pending*, is *triggered* with either a value
    (:meth:`succeed`) or an exception (:meth:`fail`), and then fires its
    callbacks when the environment processes it.  Processes waiting on the
    event are resumed with the value, or have the exception thrown into
    them.

    Waiters register with :meth:`add_callback`; the single-waiter case
    (nearly every event) stores the callable inline with no list
    allocation.
    """

    __slots__ = ("env", "_cb", "_value", "_exception", "_scheduled")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self._cb: Any = None  # None | callable | list of callables
        self._value: Any = _PENDING
        self._exception: Optional[BaseException] = None
        self._scheduled = False

    # ------------------------------------------------------------------
    # state inspection
    # ------------------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has a value or an exception."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self.triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The event's value; raises if it failed or is still pending."""
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError("event value is not yet available")
        return self._value

    @property
    def callbacks(self) -> List[Callable[["Event"], None]]:
        """Snapshot of registered waiters (register via add_callback)."""
        cb = self._cb
        if cb is None:
            return []
        if cb.__class__ is list:
            return list(cb)
        return [cb]

    # ------------------------------------------------------------------
    # waiter registration
    # ------------------------------------------------------------------
    def add_callback(self, fn: Callable[["Event"], None]) -> None:
        """Register ``fn(event)`` to run when the event fires."""
        cb = self._cb
        if cb is None:
            self._cb = fn
        elif cb.__class__ is list:
            cb.append(fn)
        else:
            self._cb = [cb, fn]

    def remove_callback(self, fn: Callable[["Event"], None]) -> None:
        """Deregister a waiter registered with :meth:`add_callback`.

        Comparison is by equality, not identity: bound methods (like
        ``Process._resume``) are re-created on every attribute access,
        so two accesses are equal but never identical.
        """
        cb = self._cb
        if cb.__class__ is list:
            try:
                cb.remove(fn)
            except ValueError:
                pass
        elif cb is not None and (cb is fn or cb == fn):
            self._cb = None

    # ------------------------------------------------------------------
    # triggering
    # ------------------------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None or (
            self._scheduled
        ):
            raise SimulationError("event has already been triggered")
        self._scheduled = True
        self.env._schedule(self, value, None)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed with ``exception``."""
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if self._value is not _PENDING or self._exception is not None or (
            self._scheduled
        ):
            raise SimulationError("event has already been triggered")
        self._scheduled = True
        self.env._schedule(self, _PENDING, exception)
        return self

    def _apply(self, value: Any, exception: Optional[BaseException]) -> None:
        """Record the outcome and run callbacks (engine internal)."""
        self._value = value
        self._exception = exception
        cb = self._cb
        if cb is None:
            if exception is not None:
                # Nobody is waiting on this event: surface the failure
                # loudly instead of silently swallowing it (a failed
                # fire-and-forget process would otherwise hang the
                # simulation).
                raise exception
            return
        self._cb = None
        if cb.__class__ is list:
            for fn in cb:
                fn(self)
        else:
            cb(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<{type(self).__name__} {state} at t={self.env.now}>"


class Timeout(Event):
    """An event that triggers at a set simulated instant; built by
    :meth:`Environment.timeout` and :meth:`Environment.timeout_at`."""

    __slots__ = ()


#: What every new process is first resumed with: succeeded, with None.
_START = Event(None)  # type: ignore[arg-type]
_START._value = None


class Process(Event):
    """A running simulation process wrapping a generator.

    The generator yields :class:`Event` objects; the process resumes when
    each yielded event triggers.  It may also yield a float, the absolute
    instant at which it resumes (with ``None``): a timed wait that nothing
    else composes or shares needs no event.  The process is itself an
    event that triggers with the generator's return value (or its
    uncaught exception), so processes can wait on each other.

    A process that returns while nothing waits on it (fire-and-forget:
    most of them) takes its value at that instant, with no completion
    event, and a later waiter finds it triggered.  One that is waited
    on, or that fails, completes through the queue.
    """

    __slots__ = ("_generator", "name", "_target")

    def __init__(self, env: "Environment", generator: Generator) -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"process requires a generator, got {generator!r}")
        self.env = env
        self._cb = None
        self._value = _PENDING
        self._exception = None
        self._scheduled = False
        self._generator = generator
        self.name = getattr(generator, "__name__", "process")
        #: The event whose outcome the generator takes next: pending
        #: (registered on), triggered (a continuation is queued), the
        #: start signal or an interrupt; or, during a timed wait, the
        #: int ``seq`` of its queued wake-up.  Any other delivery is
        #: stale.
        self._target: Any = _START
        # Kick off execution at the current simulation time (an inlined
        # ``_schedule_call``: one queue trip per spawn, one frame).
        eid = env._eid
        env._eid = eid + 1
        env._ready.append((eid, None, self._resume, _START))

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw an :class:`Interrupt` into the process at the current time.

        It replaces whatever the process was about to receive: the
        process is *deregistered* from the event it waited on (no dead
        callback, no resume at a stale yield point when that fires) and
        a same-tick delivery on its way, an earlier interrupt included,
        is dropped.  Interrupted before its first resume, a process
        never runs: it fails with the interrupt.
        """
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError("cannot interrupt a finished process")
        if self._scheduled:
            return  # the generator has returned; its outcome is queued
        target = self._target
        if target.__class__ is not int:  # a timed wait registers nothing
            target.remove_callback(self._resume)
        signal = Event(self.env)
        signal._exception = Interrupt(cause)
        self._target = signal
        self.env._schedule_call(self._resume, signal)

    # ------------------------------------------------------------------
    # engine internals
    # ------------------------------------------------------------------
    def _wake(self, token: int) -> None:
        """End the timed wait whose wake-up took sequence number ``token``
        (the continuation :meth:`_resume` queues for a yielded float)."""
        if token is self._target:  # else an interrupt took its place
            self._target = _START
            self._resume(_START)

    def _resume(self, event: Event) -> None:
        """Deliver ``event``'s outcome to the generator and wait on what
        it yields next: the callback of a pending target, and the
        continuation that starts, pokes or interrupts the process."""
        if event is not self._target:
            return  # an interrupt took this delivery's place
        try:
            if event._exception is None:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._exception)
        except StopIteration as stop:
            self._target = None
            self._scheduled = True
            if self._cb is None:
                # Nobody waits, so a completion event would do nothing:
                # the value lands now.
                self._value = stop.value
            else:
                self.env._schedule(self, stop.value, None)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into waiters
            self._target = None
            self._scheduled = True
            self.env._schedule(self, _PENDING, exc)
            return

        if target.__class__ is float:
            # A timed wait: the wake-up is a direct continuation at that
            # instant, taking the seq ``timeout_at`` would have taken.
            env = self.env
            now = env._now
            if target >= now:  # also rejects NaN
                seq = env._eid
                env._eid = seq + 1
                self._target = seq
                if target == now:
                    env._ready.append((seq, None, self._wake, seq))
                else:
                    heapq.heappush(
                        env._heap, (target, seq, None, self._wake, seq)
                    )
                return
            # Thrown in at the yield, as ``timeout_at`` raises at its call.
            error = Event(env)
            error._exception = ValueError(
                f"timeout_at({target}) is in the past (now={now})"
            )
            target = error
        try:
            pending = target._exception is None and target._value is _PENDING
        except AttributeError:
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                "processes must yield Event instances or float instants"
            ) from None
        self._target = target
        if not pending:
            # Already triggered: resume at the same timestamp via a
            # same-tick continuation to keep scheduling fair with
            # respect to other ready processes.
            self.env._schedule_call(self._resume, target)
        elif target._cb is None:
            target._cb = self._resume
        else:
            target.add_callback(self._resume)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class AllOf(Event):
    """Triggers once every child event has triggered successfully.

    The value is the list of child values in the order given.  Fails as
    soon as any child fails.
    """

    __slots__ = ("_events", "_remaining")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        Event.__init__(self, env)
        self._events = list(events)
        self._remaining = len(self._events)
        if self._remaining == 0:
            self.succeed([])
            return
        for event in self._events:
            if event._value is not _PENDING or event._exception is not None:
                self._on_child(event)
            else:
                event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING or self._exception is not None or (
            self._scheduled
        ):
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed([child._value for child in self._events])


class AnyOf(Event):
    """Triggers as soon as any child event triggers.

    The value is a ``(event, value)`` tuple for the first child to fire.
    """

    __slots__ = ("_events",)

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        Event.__init__(self, env)
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        for event in self._events:
            if event._value is not _PENDING or event._exception is not None:
                self._on_child(event)
                break
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._value is not _PENDING or self._exception is not None or (
            self._scheduled
        ):
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            self.succeed((event, event._value))


class Environment:
    """The simulation world: a virtual clock plus the event queues.

    ``listeners`` are the callables :meth:`emit` hands each domain event
    to, in subscription order.
    """

    def __init__(self) -> None:
        self._now = 0.0
        #: Delayed occurrences: (time, seq, event, value, exception).
        self._heap: List[tuple] = []
        #: Same-tick occurrences: (seq, event, value, exception).  In
        #: both queues ``event is None`` marks a direct continuation,
        #: ``value`` the callable and ``exception`` its argument.  Ready
        #: entries are always at time ``_now``.
        self._ready: Deque[tuple] = deque()
        #: Next (time, seq) tiebreaker; also the count of everything
        #: ever scheduled (events + continuations) — the ``events`` the
        #: trajectory records pin exactly.
        self._eid = 0
        self.listeners: List[Callable[[Any], None]] = []

    @property
    def now(self) -> float:
        """Current simulated time (seconds by convention in this repo)."""
        return self._now

    @property
    def scheduled_count(self) -> int:
        """Total occurrences scheduled so far (events + continuations).

        The ``events`` field of the trajectory records
        (``repro.bench.trajectory``), which pin it exactly; comparable
        across engine versions because every schedule operation (and
        every :meth:`reserve_seq`) consumes exactly one sequence number.
        """
        return self._eid

    # ------------------------------------------------------------------
    # factories
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh, untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` simulated seconds from now."""
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        return self.timeout_at(self._now + delay, value)

    def reserve_seq(self) -> int:
        """Take the next sequence number without scheduling anything.

        Passed to :meth:`timeout_at` later, it orders that event among
        others at the same instant as if it had been scheduled now.
        """
        eid = self._eid
        self._eid = eid + 1
        return eid

    def timeout_at(
        self, when: float, value: Any = None, seq: Optional[int] = None
    ) -> Timeout:
        """An event that triggers at the absolute simulated time ``when``.

        For a process that skipped a run of timeouts and must land on
        the instant the last of them would have reached: accumulating
        the delays gives that float exactly, whereas
        ``timeout(when - now)`` schedules ``now + (when - now)``, which
        can differ from ``when`` in the last bit.  ``seq`` (from
        :meth:`reserve_seq`) gives the event the tie-breaking rank of
        the moment the number was reserved instead of a fresh one; no
        two pending events may share an instant and a ``seq``.
        """
        now = self._now
        if not when >= now:  # also rejects NaN
            raise ValueError(
                f"timeout_at({when}) is in the past (now={now})"
            )
        # The hottest schedule site: no constructor frame.
        event = Timeout.__new__(Timeout)
        event.env = self
        event._cb = None
        event._value = _PENDING
        event._exception = None
        event._scheduled = True
        if seq is None:
            seq = self._eid
            self._eid = seq + 1
            if when == now:
                self._ready.append((seq, event, value, None))
                return event
        # A reserved ``seq`` is older than the ready deque's, so it goes
        # through the heap even when due now.
        heapq.heappush(self._heap, (when, seq, event, value, None))
        return event

    def process(self, generator: Generator) -> Process:
        """Start a new process running ``generator``."""
        return Process(self, generator)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Join: an event that triggers when all ``events`` have."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Select: an event that triggers when any of ``events`` does."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------
    # scheduling and execution
    # ------------------------------------------------------------------
    def _schedule(
        self, event: Event, value: Any, exception: Optional[BaseException]
    ) -> None:
        """Trigger ``event`` at the current instant (a ready entry)."""
        eid = self._eid
        self._eid = eid + 1
        self._ready.append((eid, event, value, exception))

    def _schedule_call(self, fn: Callable[[Any], None], arg: Any) -> None:
        """Schedule ``fn(arg)`` as a same-tick continuation (no Event)."""
        eid = self._eid
        self._eid = eid + 1
        self._ready.append((eid, None, fn, arg))

    def emit(self, event: Any) -> None:
        """Hand a domain event to every listener, now.  Schedules
        nothing: a producer calls it only ``if env.listeners``."""
        for listener in self.listeners:
            listener(event)

    def peek(self) -> float:
        """Time of the next scheduled occurrence, or ``inf`` if none."""
        if self._ready:
            return self._now
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Any = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until no events remain), a number
        (run until that simulated time), or an :class:`Event` (run until it
        triggers, returning its value).
        """
        # Tight locals, one loop for every ``until``.  An awaited
        # event's callback puts the stop entry at the head of the ready
        # deque, so the loop leaves right after the event's step.  A
        # heap entry at the current timestamp with a smaller seq
        # predates everything in the ready deque.
        ready = self._ready
        heap = self._heap
        pop_heap = heapq.heappop
        pop_ready = ready.popleft
        awaited = isinstance(until, Event)
        if awaited:
            if until._value is not _PENDING or until._exception is not None:
                return until.value
            until.add_callback(self._queue_stop)
        deadline = float("inf") if until is None or awaited else float(until)
        try:
            while True:
                if ready:
                    if self._now > deadline:
                        break
                    top = heap[0] if heap else None
                    if (
                        top is not None
                        and top[0] <= self._now
                        and top[1] < ready[0][0]
                    ):
                        _t, _s, event, value, exception = pop_heap(heap)
                    else:
                        _s, event, value, exception = pop_ready()
                elif heap:
                    if heap[0][0] > deadline:
                        break
                    entry = pop_heap(heap)
                    self._now = entry[0]
                    event, value, exception = entry[2], entry[3], entry[4]
                else:
                    break
                if event is None:
                    value(exception)
                else:
                    event._apply(value, exception)
        except _StopRun:
            return until.value
        finally:
            if awaited:
                # Ended any other way: no callback left to stop a later run.
                until.remove_callback(self._queue_stop)
        if awaited:
            raise SimulationError(
                "simulation ran out of events before the awaited event "
                "triggered (deadlock?)"
            )
        if until is not None:
            self._now = max(self._now, deadline)
        return None

    def _queue_stop(self, _event: Event) -> None:
        self._ready.appendleft(_STOP)
