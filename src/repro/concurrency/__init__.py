"""Deterministic concurrency testing for the lock-free structures.

The DDS paper's core contributions are concurrent protocols — the
progress-pointer ring (§4.1), the TailA/B/C response buffer (§4.3) and the
single-writer/multi-reader cuckoo cache table (§6.1).  Wall-clock thread
stress tests cannot reliably reproduce narrow interleavings, so this
package provides a *virtual* scheduler that runs N logical threads
cooperatively and explores their interleavings deterministically:

* :mod:`repro.concurrency.hooks` — the ``yield_point()`` schedule-point
  layer.  Instrumented structures call it at every shared-state access; it
  is a no-op unless a scheduler is driving the calling thread, so
  production code pays one global read per call.
* :mod:`repro.concurrency.scheduler` — the cooperative scheduler plus the
  seeded-random and replay strategies.  Logical threads may be plain
  callables (gated OS threads, so yield points inside library code work)
  or generators (stepped directly).
* :mod:`repro.concurrency.explore` — schedule exploration: seeded-random
  sweeps and exhaustive-bounded DFS (preemption bound, DPOR-lite pruning
  of adjacent commuting steps), with seed-replay of failures.
* :mod:`repro.concurrency.invariants` — runtime-checkable invariants for
  ``ProgressRing``, ``FarmRing``, ``ResponseBuffer`` and
  ``CuckooCacheTable``.

See DESIGN.md §"Concurrency testing" for the replay workflow.
"""

from .._lazy import lazy_exports
from .hooks import yield_point

# The instrumented structures import ``hooks``, which runs this file in
# every process; the scheduler and the explorer are test-time tools, so
# they load on first use (PEP 562).
__getattr__, __dir__ = lazy_exports(__name__, globals(), {
    "scheduler": (
        "DeadlockError",
        "GeneratorTask",
        "InterleavingScheduler",
        "RandomStrategy",
        "ReplayStrategy",
        "SchedulerError",
        "TaskFailure",
        "ThreadTask",
    ),
    "explore": (
        "BoundedExplorer",
        "ExplorationFailure",
        "Scenario",
        "explore_bounded",
        "explore_random",
        "replay_seed",
    ),
})

__all__ = [
    "BoundedExplorer",
    "DeadlockError",
    "ExplorationFailure",
    "GeneratorTask",
    "InterleavingScheduler",
    "RandomStrategy",
    "ReplayStrategy",
    "Scenario",
    "SchedulerError",
    "TaskFailure",
    "ThreadTask",
    "explore_bounded",
    "explore_random",
    "replay_seed",
    "yield_point",
]
