"""Echo-latency experiments: Figures 4, 19, and 20.

Three related microbenchmarks measure where a TCP message is answered:

* **Figure 4** — a client's message is echoed by the *host* (the normal
  path through the NIC, PCIe, and the kernel stack) or directly by the
  *DPU*; answering at the NIC roughly halves the round trip.
* **Figure 19** — TCP-splitting echo on the DPU: through the SoC's Linux
  kernel stack (slower than not offloading at all!) versus through the
  optimized TLDK userspace stack (~3x lower than Linux-on-DPU, ~2.5x
  lower than the host answer).
* **Figure 20** — TLDK on the host versus TLDK on the DPU as message
  size grows: the host's fat cores win for small messages, but for large
  (memory-intensive) messages the DPU wins by avoiding the NIC-to-host
  round trip and enjoying faster on-board memory.

The latency compositions run on the simulator (client process, link,
responder process) so queueing under load is also measurable; constants
are local to this module and anchored to the paper's reported numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..hardware.cpu import CpuPool
from ..hardware.nic import NetworkLink
from ..hardware.specs import MICROSECOND
from ..sim import Environment

__all__ = ["EchoResult", "EchoBench"]

# ----------------------------------------------------------------------
# per-responder cost composition (one-way processing of one message)
# ----------------------------------------------------------------------
# Host kernel stack: NIC->host forward + interrupt/syscall path.
_HOST_OS_PER_MSG = 7.0 * MICROSECOND      # fixed kernel path (per direction)
_HOST_OS_PER_BYTE = 0.50e-9               # copies through the kernel
_HOST_FORWARD = 3.0 * MICROSECOND         # PCIe hop NIC<->host (per direction)

# Raw DPDK-style echo on the DPU: poll-mode, no TCP state.
_DPU_RAW_PER_MSG = 3.2 * MICROSECOND
_DPU_RAW_PER_BYTE = 0.30e-9

# Linux kernel TCP on the wimpy Arm cores (Fig 19: worse than the host).
_DPU_LINUX_PER_MSG = 16.0 * MICROSECOND
_DPU_LINUX_PER_BYTE = 0.80e-9

# TLDK userspace TCP on the DPU (Fig 19: ~1/3 of Linux-on-DPU).
_DPU_TLDK_PER_MSG = 5.0 * MICROSECOND
_DPU_TLDK_PER_BYTE = 0.25e-9

# TLDK on the host (Fig 20): fast cores, but each message crosses PCIe
# to the host and back, and host DRAM is effectively slower per byte for
# NIC-adjacent processing [44, 63].
_HOST_TLDK_PER_MSG = 1.2 * MICROSECOND
_HOST_TLDK_PER_BYTE = 0.50e-9


@dataclass
class EchoResult:
    """One echo measurement point."""

    responder: str
    message_bytes: int
    rtt: float
    server_latency: float


class EchoBench:
    """TCP echo between a client and a server with a BF-2 DPU."""

    def __init__(self, env: Environment = None) -> None:
        self.env = env if env is not None else Environment()
        self.link = NetworkLink(self.env)
        self.dpu_core = CpuPool(self.env, speed=1.0, name="dpu-echo", side="dpu")
        # Note: per-message constants above are expressed as *wall* time
        # on their own processor, so the core here only provides queueing
        # (speed 1.0 keeps the charge equal to the wall constant).

    # ------------------------------------------------------------------
    # per-responder one-way processing time
    # ------------------------------------------------------------------
    @staticmethod
    def processing_time(responder: str, size: int) -> float:
        """One-way, unloaded processing time for one message."""
        if responder == "host-os":
            return (
                _HOST_FORWARD + _HOST_OS_PER_MSG + size * _HOST_OS_PER_BYTE
            )
        if responder == "dpu-raw":
            return _DPU_RAW_PER_MSG + size * _DPU_RAW_PER_BYTE
        if responder == "dpu-linux":
            return _DPU_LINUX_PER_MSG + size * _DPU_LINUX_PER_BYTE
        if responder == "dpu-tldk":
            return _DPU_TLDK_PER_MSG + size * _DPU_TLDK_PER_BYTE
        if responder == "host-tldk":
            return (
                _HOST_FORWARD + _HOST_TLDK_PER_MSG + size * _HOST_TLDK_PER_BYTE
            )
        raise ValueError(f"unknown responder: {responder!r}")

    # ------------------------------------------------------------------
    # measurement
    # ------------------------------------------------------------------
    def measure(self, responder: str, size: int) -> EchoResult:
        """Round-trip one echo message and report RTT."""
        env = self.env
        start = env.now
        server_time = [0.0]

        def exchange() -> Generator:
            yield from self.link.transmit("client_to_server", size)
            arrive = env.now
            # Receive-side processing, echo, send-side processing.
            yield from self.dpu_core.execute(
                self.processing_time(responder, size)
            )
            yield from self.dpu_core.execute(
                self.processing_time(responder, size)
            )
            server_time[0] = env.now - arrive
            yield from self.link.transmit("server_to_client", size)

        proc = env.process(exchange())
        env.run(until=proc)
        return EchoResult(
            responder=responder,
            message_bytes=size,
            rtt=env.now - start,
            server_latency=server_time[0],
        )

    def series(self, responder: str, sizes: List[int]) -> List[EchoResult]:
        """Measure a size sweep with a fresh clock per point."""
        results = []
        for size in sizes:
            bench = EchoBench(Environment())
            results.append(bench.measure(responder, size))
        return results
