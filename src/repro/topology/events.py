"""The protocol stream: one typed event per step the runtime checker judges.

The replicator (:mod:`repro.topology.replication`) and the tenant QoS
gate (:mod:`repro.topology.qos`) build these only while
``env.listeners`` is non-empty and hand them to
:meth:`~repro.sim.engine.Environment.emit`, a synchronous call at the
step's instant that schedules nothing.  The
:class:`~repro.faults.invariants.InvariantChecker` subscribes its
``observe``; a test may subscribe a plain list's ``append``.  ``group``
is the live :class:`~repro.topology.replication.ReplicaGroup` (read,
never written) and ``record`` its
:class:`~repro.topology.replication.WriteRecord`.
"""

from __future__ import annotations

from typing import Any, NamedTuple, Optional, Tuple

__all__ = [
    "Appended",
    "Applied",
    "Committed",
    "Dispatched",
    "Enqueued",
    "LeaderHandoff",
    "Rejoined",
    "Resized",
    "Shed",
]


class Appended(NamedTuple):
    """The acting leader ``executor`` appended ``record`` to the log."""

    group: Any
    record: Any
    executor: int


class Applied(NamedTuple):
    """``member`` applied ``record``: a mirror, or a catch-up replay."""

    group: Any
    record: Any
    member: int
    catchup: bool


class Committed(NamedTuple):
    """The write's quorum state (``commit``) as its ack is released."""

    group: Any
    record: Any
    commit: Any


class LeaderHandoff(NamedTuple):
    """Leadership moved from ``old_leader`` to ``new_leader``."""

    group: Any
    old_leader: int
    new_leader: int
    alive: Tuple[int, ...]


class Resized(NamedTuple):
    """A pairing change: no ``old_backup`` is a fresh group, no
    ``new_backup`` a retired one, both a backup adoption."""

    group: Any
    old_backup: Optional[int]
    new_backup: Optional[int]
    synced: int


class Rejoined(NamedTuple):
    """A recovered ``member`` is back in the group."""

    group: Any
    member: int


class Enqueued(NamedTuple):
    """A message joined ``tenant``'s queue, which now holds ``depth``."""

    tenant: str
    depth: int
    capacity: int


class Shed(NamedTuple):
    """``request`` was refused THROTTLED (``admission``, ``queue-full``
    or ``deadline``)."""

    request: Any
    tenant: str
    reason: str


class Dispatched(NamedTuple):
    """A message of ``tenant`` left its queue after ``sojourn`` seconds."""

    tenant: str
    sojourn: float
