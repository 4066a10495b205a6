"""Redy RPC transport (Figure 16 ⑦ and ⑧): fast RDMA, busy cores.

Redy [70] is an RDMA-based RPC optimized for low latency: messages move
with minimal per-operation cost, but *dedicated polling cores* spin on
completion queues on both the client and the server — the paper's point
that kernel-bypass buys performance by burning CPU (§1, §8.4: "some of
its performance comes from burning a few CPU cores on both client and
server").  The file backend is either the OS filesystem (Redy + Windows
files) or the DDS library path (Redy + DDS files).

The spin-polling cost lives in :class:`RedyTransport`, a transport stage
whose utilization is constant: the pollers are busy whether or not
messages flow, on both sides of the wire.
"""

from __future__ import annotations

from ..hardware.cpu import CpuPool
from ..hardware.specs import RDMA_VERBS
from ..sim import Environment
from ..topology.stages import TransportStage

__all__ = ["RedyTransport"]


class RedyTransport(TransportStage):
    """RDMA verbs transport plus the spin-polling cores it requires.

    The pollers never idle, so their cost is a constant per side rather
    than per-message work — exactly how Figure 16 accounts Redy.
    """

    #: Polling cores dedicated per side (always 100% busy).
    POLLING_CORES_SERVER = 2
    POLLING_CORES_CLIENT = 1

    def __init__(self, env: Environment, cpu: CpuPool) -> None:
        super().__init__(env, RDMA_VERBS, cpu)

    def host_cores(self, elapsed: float) -> float:
        return float(self.POLLING_CORES_SERVER)

    def client_cores(self) -> float:
        return float(self.POLLING_CORES_CLIENT)
