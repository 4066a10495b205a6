"""Cooperative virtual scheduler for deterministic interleaving tests.

The scheduler runs N logical threads one at a time and decides, at every
schedule point, which one advances next.  Because at most one logical
thread executes Python between two schedule points, a schedule is fully
determined by the sequence of choices the strategy makes — so any failure
can be replayed exactly from the strategy's seed (or recorded choice
list).

Two task flavours:

* :class:`ThreadTask` — wraps a plain callable in a *gated* OS thread.
  The thread only runs while the scheduler has handed it the token, and
  parks itself whenever instrumented library code reaches
  :func:`repro.concurrency.hooks.yield_point`.  This is what lets yield
  points buried inside ``CuckooCacheTable._place`` or
  ``AtomicCounter.compare_and_swap`` act as context switches without
  rewriting the structures as coroutines.
* :class:`GeneratorTask` — wraps a generator; each ``yield`` is a
  schedule point.  Useful for coarse-grained drivers and for testing the
  scheduler itself.

A *step* runs one task from its current park point to its next one (or to
completion).  The trace entry for a step records the access the task was
parked at — i.e. the access that step executes first — which is what the
explorer's DPOR-lite independence check reasons about.
"""

from __future__ import annotations

import _thread
import random
import threading
from typing import Any, Callable, Hashable, Iterator, List, Optional, Sequence, Tuple

from .hooks import set_scheduler_hook

__all__ = [
    "DeadlockError",
    "GeneratorTask",
    "InterleavingScheduler",
    "RandomStrategy",
    "ReplayStrategy",
    "SchedulerError",
    "StepRecord",
    "TaskFailure",
    "ThreadTask",
]

#: One executed step: (task index, task name, label, key) of the access
#: released by the step.  ``key`` is None when the access is unknown or
#: deliberately treated as conflicting with everything.
StepRecord = Tuple[int, str, str, Hashable]


class SchedulerError(Exception):
    """Base class for scheduler-detected problems."""


class DeadlockError(SchedulerError):
    """A task failed to reach its next schedule point in time.

    Almost always means a logical thread blocked on a real lock held by a
    *suspended* logical thread.  The instrumented structures only hold a
    lock across a yield point in the cuckoo writer path, so scenarios must
    not run two cuckoo writers against one table.
    """


class TaskFailure(SchedulerError):
    """An exception escaped a task; carries the schedule for replay."""

    def __init__(self, task_name: str, cause: BaseException, trace: List[StepRecord]):
        self.task_name = task_name
        self.cause = cause
        self.trace = trace
        super().__init__(
            f"task {task_name!r} failed after {len(trace)} steps: "
            f"{type(cause).__name__}: {cause}"
        )


class _TaskCancelled(BaseException):
    """Raised inside a gated thread to unwind it when a run is abandoned."""


#: Set by each gated thread on entry so the global yield hook can find the
#: task it should park, without any scheduler-side registry (which would
#: race with the task's very first yield point).
_current_task = threading.local()


class _TaskBase:
    """Common bookkeeping for logical threads."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.index = -1  # assigned by the scheduler
        self.done = False
        self.error: Optional[BaseException] = None
        # The schedule point the task is parked at (executed by its next
        # step).  "start" until the task first runs.
        self.parked_label: str = "start"
        self.parked_key: Hashable = None

    def step(self, timeout: float) -> None:
        raise NotImplementedError

    def cancel(self) -> None:  # pragma: no cover - overridden when needed
        pass


class GeneratorTask(_TaskBase):
    """A logical thread defined by a generator; each ``yield`` is a point.

    The generator may yield ``None``, a label string, or a
    ``(label, key)`` tuple describing the access it is about to perform.
    """

    def __init__(self, name: str, gen: Iterator[Any]) -> None:
        super().__init__(name)
        self._gen = gen

    def step(self, timeout: float) -> None:
        try:
            value = next(self._gen)
        except StopIteration:
            self.done = True
            return
        except Exception as exc:  # deliberate: reported via TaskFailure
            self.done = True
            self.error = exc
            return
        if isinstance(value, tuple) and len(value) == 2:
            self.parked_label, self.parked_key = value
        elif isinstance(value, str):
            self.parked_label, self.parked_key = value, None
        else:
            self.parked_label, self.parked_key = "yield", None

    def cancel(self) -> None:
        self._gen.close()
        self.done = True


def _hand_off() -> Any:
    """A binary hand-off: a raw lock created held, so ``release()``
    passes the token and ``acquire()`` waits for it.  A
    ``Semaphore(0)`` does the same in Python code around a Condition."""
    lock = _thread.allocate_lock()
    lock.acquire()
    return lock


def _pass_token(lock: Any) -> None:
    """``release()`` unless the token is already waiting: a run abandoned
    after a deadlock can signal twice, which a lock, unlike a semaphore,
    refuses."""
    if lock.locked():
        lock.release()


class ThreadTask(_TaskBase):
    """A plain callable run on an OS thread gated by the scheduler.

    The thread executes only between ``step()`` handing it the token and
    the next ``yield_point()`` in instrumented code (or the callable
    returning).  All other logical threads are parked on their own
    hand-off locks meanwhile, so execution is single-threaded and
    deterministic regardless of GIL behaviour.
    """

    def __init__(self, name: str, fn: Callable[[], Any]) -> None:
        super().__init__(name)
        self._fn = fn
        self._resume = _hand_off()
        self._parked = _hand_off()
        self._cancelled = False
        self._thread = threading.Thread(target=self._body, name=name, daemon=True)
        self._started = False

    @property
    def ident(self) -> Optional[int]:
        return self._thread.ident

    def _body(self) -> None:
        _current_task.task = self
        self._resume.acquire()
        try:
            if not self._cancelled:
                self._fn()
        except _TaskCancelled:
            pass
        except BaseException as exc:  # deliberate: reported via TaskFailure
            self.error = exc
        finally:
            self.done = True
            _pass_token(self._parked)

    def park(self, label: str, key: Hashable) -> None:
        """Called (via the scheduler hook) from inside this task's thread."""
        if self._cancelled:
            raise _TaskCancelled()
        self.parked_label, self.parked_key = label, key
        self._parked.release()
        self._resume.acquire()
        if self._cancelled:
            raise _TaskCancelled()

    def step(self, timeout: float) -> None:
        if not self._started:
            self._started = True
            self._thread.start()
        self._resume.release()
        if not self._parked.acquire(timeout=timeout):
            raise DeadlockError(
                f"task {self.name!r} did not reach a schedule point within "
                f"{timeout}s — likely blocked on a lock held by a suspended "
                "task"
            )

    def cancel(self) -> None:
        if self._started and not self.done:
            self._cancelled = True
            _pass_token(self._resume)
            self._thread.join(timeout=1.0)
            self.done = True


class RandomStrategy:
    """Choose uniformly among runnable tasks with a private seeded RNG."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(
        self, runnable: Sequence[_TaskBase], trace: List[StepRecord]
    ) -> _TaskBase:
        return runnable[self._rng.randrange(len(runnable))]

    def describe(self) -> str:
        return f"RandomStrategy(seed={self.seed})"


class ReplayStrategy:
    """Follow a recorded list of task *indices*; then run first-runnable.

    Used by the bounded explorer: a schedule prefix is replayed exactly,
    after which the default policy (keep running the current task while it
    is runnable, else lowest index) extends the schedule.  The full choice
    list actually taken is recorded by the scheduler's trace.
    """

    def __init__(self, choices: Sequence[int]) -> None:
        self.choices = list(choices)
        self._cursor = 0
        self._last_index: Optional[int] = None

    def choose(
        self, runnable: Sequence[_TaskBase], trace: List[StepRecord]
    ) -> _TaskBase:
        if self._cursor < len(self.choices):
            wanted = self.choices[self._cursor]
            self._cursor += 1
            for task in runnable:
                if task.index == wanted:
                    self._last_index = wanted
                    return task
            raise SchedulerError(
                f"replay diverged: task index {wanted} not runnable"
            )
        # Default extension: stay on the current task when possible (this
        # makes preemption counting meaningful), else lowest index.
        if self._last_index is not None:
            for task in runnable:
                if task.index == self._last_index:
                    return task
        chosen = min(runnable, key=lambda t: t.index)
        self._last_index = chosen.index
        return chosen

    def describe(self) -> str:
        return f"ReplayStrategy(prefix={self.choices})"


class InterleavingScheduler:
    """Runs added tasks to completion under a strategy's choices."""

    def __init__(
        self,
        strategy: Any,
        step_limit: int = 20000,
        deadlock_timeout: float = 10.0,
    ) -> None:
        self.strategy = strategy
        self.step_limit = step_limit
        self.deadlock_timeout = deadlock_timeout
        self.tasks: List[_TaskBase] = []
        self.trace: List[StepRecord] = []

    # ------------------------------------------------------------------
    # task registration
    # ------------------------------------------------------------------
    def add(self, task: _TaskBase) -> _TaskBase:
        task.index = len(self.tasks)
        self.tasks.append(task)
        return task

    def spawn(self, fn: Callable[[], Any], name: Optional[str] = None) -> ThreadTask:
        return self.add(ThreadTask(name or f"task-{len(self.tasks)}", fn))

    def spawn_generator(
        self, gen: Iterator[Any], name: Optional[str] = None
    ) -> GeneratorTask:
        return self.add(GeneratorTask(name or f"task-{len(self.tasks)}", gen))

    # ------------------------------------------------------------------
    # the run loop
    # ------------------------------------------------------------------
    @staticmethod
    def _hook(label: str, key: Hashable) -> None:
        task = getattr(_current_task, "task", None)
        if task is not None:
            task.park(label, key)

    def run(
        self, on_step: Optional[Callable[[StepRecord], None]] = None
    ) -> List[StepRecord]:
        """Execute all tasks to completion; returns the step trace.

        ``on_step`` runs in the scheduler's own thread after every step,
        while every logical thread is parked — the place to check
        invariants that must hold at each schedule point.  Exceptions it
        raises abort the run and propagate wrapped in TaskFailure.
        """
        from . import hooks as _hooks

        previous_hook = _hooks.get_scheduler_hook()
        set_scheduler_hook(self._hook)
        try:
            steps = 0
            while True:
                runnable = [t for t in self.tasks if not t.done]
                if not runnable:
                    break
                if steps >= self.step_limit:
                    raise SchedulerError(
                        f"schedule exceeded {self.step_limit} steps "
                        "(livelock?)"
                    )
                task = self.strategy.choose(runnable, self.trace)
                record: StepRecord = (
                    task.index,
                    task.name,
                    task.parked_label,
                    task.parked_key,
                )
                task.step(self.deadlock_timeout)
                self.trace.append(record)
                steps += 1
                if task.error is not None:
                    raise TaskFailure(task.name, task.error, self.trace)
                if on_step is not None:
                    try:
                        on_step(record)
                    except Exception as exc:
                        raise TaskFailure(f"<on_step after {task.name}>", exc, self.trace)
            return self.trace
        finally:
            set_scheduler_hook(previous_hook)
            for task in self.tasks:
                task.cancel()
