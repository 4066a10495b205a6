"""Network-stack cost models bound to CPUs.

A :class:`StackLayer` charges a CPU (host pool or a dedicated DPU core)
for processing a message through one stack — kernel TCP, the DBMS's
network module, TLDK, RDMA verbs — and adds the stack's fixed pipeline
latency.  Specs live in :mod:`repro.hardware.specs`; this module is the
glue that turns them into simulated time and cores-consumed.
"""

from __future__ import annotations

from typing import Generator, Optional

from ..hardware.cpu import CpuPool
from ..hardware.specs import StackSpec
from ..sim import Environment

__all__ = ["StackLayer"]


class StackLayer:
    """One processing layer: CPU charge plus pipeline latency per message."""

    def __init__(
        self,
        env: Environment,
        spec: StackSpec,
        cpu: Optional[CpuPool] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.cpu = cpu
        self.messages = 0
        self.bytes = 0
        self.core_seconds = 0.0  # total host-core time charged (Figure 2)

    def core_time(self, size: int) -> float:
        """Host-core-seconds of CPU work for a message of ``size`` bytes."""
        return (
            self.spec.per_message_core_time
            + size * self.spec.per_byte_core_time
        )

    def process(self, size: int) -> Generator:
        """Process generator: run one message through the layer."""
        if size < 0:
            raise ValueError("message size must be non-negative")
        if self.cpu is not None:
            yield from self.cpu.execute(self.core_time(size))
        if self.spec.per_message_latency > 0:
            yield self.env.now + self.spec.per_message_latency
        self.messages += 1
        self.bytes += size
        self.core_seconds += self.core_time(size)

    def charge_only(self, size: int) -> None:
        """Account the CPU cost without simulating queueing or latency.

        Used by coarse-grained paths where per-message scheduling would
        dominate simulation run time (e.g., aggregate background load).
        """
        core_time = self.core_time(size)
        if self.cpu is not None:
            self.cpu.charge(core_time)
        self.messages += 1
        self.bytes += size
        self.core_seconds += core_time

    def cores_consumed(self, elapsed: float) -> float:
        """This layer's share of the CPU, in cores (Figure 2 breakdown)."""
        return self.core_seconds / elapsed if elapsed > 0 else 0.0
