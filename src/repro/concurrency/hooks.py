"""The schedule-point layer: ``yield_point()``.

The code explored under real threads — :mod:`repro.structures` (atomics,
rings, cuckoo table, response buffer, buffer pool) and the offload
engine's context ring — calls ``yield_point(label, key)`` just before
each shared-state access; the rest of the simulator runs on one OS
thread, switches only at a generator's ``yield``, and has none.  In
production nothing is registered and the call is a single global-None
check.  Under the interleaving scheduler, threads it controls are
suspended here until the scheduler hands them the next step; threads it
does not control (e.g. the pytest main thread checking invariants
between steps) pass straight through.

``label`` names the operation for traces ("cas", "cuckoo.bucket_set");
``key`` identifies the shared location touched (usually ``(id(obj),
field)``) and feeds the explorer's DPOR-lite independence pruning.  This
module has **no dependencies** on the rest of the package so the
structures can import it without cycles.
"""

from __future__ import annotations

from typing import Callable, Hashable, Optional

__all__ = [
    "SchedulerHook",
    "yield_point",
    "set_scheduler_hook",
    "get_scheduler_hook",
]

#: Signature of a yield-point observer: ``(label, key) -> None``.
SchedulerHook = Callable[[str, Hashable], None]

#: When a scheduler is active, a callable ``(label, key) -> None`` that
#: suspends controlled threads.  None in production.
_hook: Optional[SchedulerHook] = None


def yield_point(label: str = "", key: Hashable = None) -> None:
    """A potential context-switch point in an instrumented structure."""
    hook = _hook
    if hook is not None:
        hook(label, key)


def set_scheduler_hook(hook: Optional[SchedulerHook]) -> None:
    """Install (or with None, remove) the active scheduler's hook."""
    global _hook
    _hook = hook


def get_scheduler_hook() -> Optional[SchedulerHook]:
    return _hook
