"""Eraser-style lockset + happens-before race sanitizer (DDS401).

The static checks prove the *conventions*; this module checks the
*executions*.  It piggybacks on the same ``yield_point(label, key)``
hook the deterministic interleaving harness uses (PR 2): while
installed, every instrumented shared access becomes an *event* the
sanitizer classifies and checks, so stress tests detect candidate races
even on schedules where the race never actually fires — Eraser's core
advantage over schedule exploration.

Model
-----
* Labels starting with ``atomic.`` are **synchronisation operations**
  (the :class:`~repro.structures.atomics.AtomicCounter` ops).  Each is
  conservatively treated as an acquire+release RMW on its location:
  the accessing thread's vector clock joins the location's clock and
  publishes back.  This over-approximates the happens-before order a
  relaxed atomic would give (it can only *hide* races ordered by weaker
  operations, never invent one), which is the right polarity for a
  sanitizer that must stay silent on the shipped structures.
* Locks created through :class:`TrackedLock` maintain each thread's
  **lockset** and carry a vector clock (release publishes, acquire
  joins) — the happens-before edges of mutual exclusion.
* Every other label is a **data access** on its ``key``.  Labels
  registered in ``READ_LABELS`` are reads; unknown labels default to
  writes (the conservative direction).  Labels in ``TOLERANT_LABELS``
  are deliberately racy reads whose safety the interleaving invariants
  prove (e.g. ``cuckoo.probe`` against the copy-on-write writer); the
  sanitizer skips them entirely.

Two accesses to the same key race (DDS401) when they come from
different threads, at least one is a write, their locksets are
disjoint, and neither happens-before the other.  Each report carries
both stack traces, captured at the two accesses involved.

The sanitizer serialises its own bookkeeping with an internal mutex, so
it works under free-running OS threads; verdicts depend only on the
lockset/vector-clock algebra, not on the observed interleaving.
"""

from __future__ import annotations

import threading
import traceback
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.concurrency import hooks

__all__ = ["AccessEvent", "RaceReport", "TrackedLock", "LocksetSanitizer"]

#: Labels whose accesses are reads (everything else defaults to write).
READ_LABELS = frozenset(
    {
        "cuckoo.probe",
        "ring.read_batch",
    }
)

#: Labels the sanitizer does not track (see DESIGN.md §"Static
#: analysis"), for two distinct reasons:
#:
#: * deliberately racy reads proven safe by the interleaving
#:   invariants — ``cuckoo.probe``: the single writer is copy-on-write
#:   / append-before-erase, so a concurrent probe always sees a
#:   consistent bucket (checked per schedule by
#:   CuckooVisibilityChecker);
#: * schedule points of mutex-guarded structures whose ``yield_point``
#:   sits deliberately *outside* the lock (so the interleaving
#:   scheduler never parks a lock holder) — the label marks a
#:   context-switch opportunity, not an unguarded access, and the
#:   mutation itself runs under a ``threading.Lock`` the sanitizer
#:   cannot see.
TOLERANT_LABELS = frozenset(
    {
        "cuckoo.probe",
        "pool.alloc",
        "pool.reclaim",
        "pool.available",
        "lockring.enqueue",
        "lockring.consume",
    }
)

#: Innermost frames kept per access in a report.
STACK_DEPTH = 6

_VectorClock = Dict[int, int]


def _join(into: _VectorClock, other: _VectorClock) -> None:
    for tid, tick in other.items():
        if tick > into.get(tid, 0):
            into[tid] = tick


@dataclass
class AccessEvent:
    """One recorded data access."""

    thread_id: int
    thread_name: str
    label: str
    is_write: bool
    epoch: int  # accessing thread's own clock component at the access
    lockset: FrozenSet[int]
    stack: List[str] = field(default_factory=list)


@dataclass
class RaceReport:
    """A candidate race: two conflicting, unordered, unlocked accesses."""

    key: Hashable
    first: AccessEvent
    second: AccessEvent

    def format(self) -> str:
        lines = [
            f"DDS401 candidate race on {self.key!r}:",
            f"  [1] {self.first.label} "
            f"({'write' if self.first.is_write else 'read'}) "
            f"in thread {self.first.thread_name}:",
        ]
        lines += [f"      {frame}" for frame in self.first.stack]
        lines += [
            f"  [2] {self.second.label} "
            f"({'write' if self.second.is_write else 'read'}) "
            f"in thread {self.second.thread_name}:",
        ]
        lines += [f"      {frame}" for frame in self.second.stack]
        return "\n".join(lines)


class _ThreadState:
    __slots__ = ("clock", "held")

    def __init__(self, clock: _VectorClock) -> None:
        self.clock = clock
        self.held: Set[int] = set()


class TrackedLock:
    """A mutex whose acquire/release the sanitizer can see.

    Use in stress tests (and new shared components) wherever a plain
    ``threading.Lock`` would hide the locking discipline from the
    sanitizer.  Supports the context-manager protocol.
    """

    def __init__(
        self, sanitizer: "LocksetSanitizer", name: str = "lock"
    ) -> None:
        self._sanitizer = sanitizer
        self._lock = threading.Lock()
        self.name = name
        self.clock: _VectorClock = {}

    def acquire(self) -> None:
        self._lock.acquire()
        self._sanitizer._on_lock_acquired(self)

    def release(self) -> None:
        self._sanitizer._on_lock_released(self)
        self._lock.release()

    def __enter__(self) -> "TrackedLock":
        self.acquire()
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()


class LocksetSanitizer:
    """Record yield-point events; report lockset/HB candidate races."""

    def __init__(self) -> None:
        self.reports: List[RaceReport] = []
        self._mutex = threading.Lock()
        self._threads: Dict[int, _ThreadState] = {}
        self._sync_clocks: Dict[Hashable, _VectorClock] = {}
        #: key -> thread id -> (last read, last write) events.
        self._accesses: Dict[
            Hashable,
            Dict[int, Tuple[Optional[AccessEvent], Optional[AccessEvent]]],
        ] = {}
        self._seen_pairs: Set[Tuple[Hashable, str, str]] = set()
        self._origin_clock: _VectorClock = {}
        self._previous_hook: Optional[hooks.SchedulerHook] = None
        self._installed = False

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> "LocksetSanitizer":
        """Start observing ``yield_point`` (chains any existing hook)."""
        if self._installed:
            raise RuntimeError("sanitizer already installed")
        origin = self._state_for(threading.get_ident())
        self._origin_clock = dict(origin.clock)
        self._previous_hook = hooks.get_scheduler_hook()
        hooks.set_scheduler_hook(self._hook)
        self._installed = True
        return self

    def uninstall(self) -> None:
        if self._installed:
            hooks.set_scheduler_hook(self._previous_hook)
            self._previous_hook = None
            self._installed = False

    def __enter__(self) -> "LocksetSanitizer":
        return self.install()

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def lock(self, name: str = "lock") -> TrackedLock:
        """A fresh :class:`TrackedLock` registered with this sanitizer."""
        return TrackedLock(self, name)

    # ------------------------------------------------------------------
    # event intake
    # ------------------------------------------------------------------
    def _hook(self, label: str, key: Hashable) -> None:
        try:
            if key is not None and label not in TOLERANT_LABELS:
                if label.startswith("atomic."):
                    self._on_sync(key)
                else:
                    self._on_data(label, key)
        finally:
            previous = self._previous_hook
            if previous is not None:
                previous(label, key)

    def _state_for(self, tid: int) -> _ThreadState:
        state = self._threads.get(tid)
        if state is None:
            # A thread first seen by the sanitizer starts ordered after
            # everything the installing thread had done at install time
            # (threads in our tests are created after installation).
            clock = dict(self._origin_clock)
            clock[tid] = clock.get(tid, 0) + 1
            state = _ThreadState(clock)
            self._threads[tid] = state
        return state

    def _on_sync(self, key: Hashable) -> None:
        """Acquire+release RMW on an atomic location."""
        with self._mutex:
            tid = threading.get_ident()
            state = self._state_for(tid)
            clock = self._sync_clocks.setdefault(key, {})
            _join(state.clock, clock)
            _join(clock, state.clock)
            state.clock[tid] = state.clock.get(tid, 0) + 1

    def _on_lock_acquired(self, lock: TrackedLock) -> None:
        with self._mutex:
            tid = threading.get_ident()
            state = self._state_for(tid)
            state.held.add(id(lock))
            _join(state.clock, lock.clock)

    def _on_lock_released(self, lock: TrackedLock) -> None:
        with self._mutex:
            tid = threading.get_ident()
            state = self._state_for(tid)
            _join(lock.clock, state.clock)
            state.clock[tid] = state.clock.get(tid, 0) + 1
            state.held.discard(id(lock))

    def _on_data(self, label: str, key: Hashable) -> None:
        with self._mutex:
            tid = threading.get_ident()
            state = self._state_for(tid)
            event = AccessEvent(
                thread_id=tid,
                thread_name=threading.current_thread().name,
                label=label,
                is_write=label not in READ_LABELS,
                epoch=state.clock.get(tid, 0),
                lockset=frozenset(state.held),
                stack=self._stack(),
            )
            per_thread = self._accesses.setdefault(key, {})
            for other_tid, (read, write) in per_thread.items():
                if other_tid == tid:
                    continue
                for other in (read, write):
                    if other is None:
                        continue
                    if not (event.is_write or other.is_write):
                        continue
                    if other.lockset & event.lockset:
                        continue
                    if other.epoch <= state.clock.get(other_tid, 0):
                        continue  # other happens-before this access
                    pair = (key, other.label, event.label)
                    if pair in self._seen_pairs:
                        continue
                    self._seen_pairs.add(pair)
                    self.reports.append(RaceReport(key, other, event))
            read, write = per_thread.get(tid, (None, None))
            if event.is_write:
                per_thread[tid] = (read, event)
            else:
                per_thread[tid] = (event, write)

    def _stack(self) -> List[str]:
        frames = traceback.extract_stack()
        # Drop the sanitizer's own frames from the top.  Exact-path
        # comparison: an endswith() match would also swallow frames
        # from files like test_sanitizer.py.
        trimmed = [
            frame
            for frame in frames
            if frame.filename != __file__
        ]
        summary = trimmed[-STACK_DEPTH:]
        return [
            f"{frame.filename}:{frame.lineno} in {frame.name}"
            for frame in summary
        ]
