"""CPU model with per-core busy-time accounting.

The evaluation's central cost metric is "CPU cores consumed" at a given
throughput (Figures 2, 14, 16, 25).  We therefore model a CPU as a pool of
cores that *charge* core-time for every piece of work executed on them and
report ``busy_time / elapsed`` as the number of cores consumed.

Work is always expressed in *host-core seconds*; a core with ``speed < 1``
(the BF-2 Arm cores) takes ``work / speed`` wall time to execute it.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..sim import Environment, Resource
from .specs import CpuSpec

__all__ = ["CpuPool"]


class CpuPool:
    """A pool of identical cores with run-anywhere scheduling.

    Host application threads share one pool; a component with a
    dedicated thread (the DPU's DMA thread, SPDK worker and
    traffic-director core, §7) owns a one-core pool.
    ``cores_consumed(elapsed)`` is the paper's cost metric.
    """

    def __init__(
        self,
        env: Environment,
        spec: Optional[CpuSpec] = None,
        cores: int = 1,
        speed: float = 1.0,
        name: str = "",
    ) -> None:
        if spec is not None:
            cores, speed = spec.cores, spec.speed
            name = name or spec.name
        if cores < 1:
            raise ValueError("a CpuPool needs at least one core")
        if speed <= 0:
            raise ValueError("core speed must be positive")
        self.env = env
        self.cores = cores
        self.speed = speed
        self.name = name
        self.busy_time = 0.0
        self._resource = Resource(env, capacity=cores)

    def execute(self, core_time: float) -> Generator:
        """Run ``core_time`` host-core-seconds of work on any free core."""
        if core_time < 0:
            raise ValueError("core_time must be non-negative")
        duration = core_time / self.speed
        yield self._resource.book(duration)
        self.busy_time += duration

    def charge(self, core_time: float) -> None:
        """Account ``core_time`` of work without simulating occupancy.

        Used for costs that are too fine-grained to schedule individually
        (e.g., per-packet kernel processing aggregated per message) but must
        still show up in the cores-consumed metric.
        """
        if core_time < 0:
            raise ValueError("core_time must be non-negative")
        self.busy_time += core_time / self.speed

    def cores_consumed(self, elapsed: float) -> float:
        """Average number of cores busy over ``elapsed`` seconds."""
        return self.busy_time / elapsed if elapsed > 0 else 0.0
