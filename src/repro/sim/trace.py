"""Simulation tracing helpers.

Attach an :class:`EventLog` to an :class:`~repro.sim.engine.Environment`
to record every processed event with its timestamp — a lightweight way
to debug model behaviour ("what fired between t=1.2ms and t=1.3ms?")
without instrumenting the models themselves.

Example
-------
>>> from repro.sim import Environment
>>> from repro.sim.trace import EventLog
>>> log = EventLog()
>>> env = Environment(trace=log)
>>> def work(env):
...     yield env.timeout(1)
>>> _ = env.process(work(env))
>>> env.run()
>>> len(log) > 0
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

from .engine import Event, Process, Timeout

__all__ = ["TraceRecord", "EventLog"]


@dataclass(frozen=True)
class TraceRecord:
    """One processed event."""

    time: float
    kind: str
    name: str

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return f"[{self.time * 1e6:10.2f}us] {self.kind:8s} {self.name}"


class EventLog:
    """A bounded record of processed simulation events."""

    def __init__(self, capacity: Optional[int] = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError("capacity must be positive or None")
        self.capacity = capacity
        self._records: List[TraceRecord] = []
        self.dropped = 0

    # The Environment calls this for every processed event.
    def __call__(self, time: float, event: Event) -> None:
        if self.capacity is not None and len(self._records) >= self.capacity:
            self.dropped += 1
            return
        if isinstance(event, Process):
            kind, name = "process", event.name
        elif isinstance(event, Timeout):
            kind, name = "timeout", ""
        else:
            kind, name = "event", type(event).__name__
        self._records.append(TraceRecord(time, kind, name))

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self._records)
