"""DPU-issued DMA over PCIe.

The DDS storage path moves every host file request and response across
PCIe with DMA issued from the DPU (§4.1).  A DMA operation costs a fixed
setup latency (doorbell, descriptor fetch, completion) plus payload
streaming time; the engine supports a small number of concurrent channels.

Figure 17's ring-buffer comparison is, at heart, a comparison of how many
DMA operations per message each design spends — this model is what makes
that comparison quantitative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator

from ..sim import Environment, Resource
from .specs import PCIE_GEN4_DMA

__all__ = ["DmaStats", "DmaEngine"]


@dataclass
class DmaStats:
    """DMA operation counters."""

    reads: int = 0
    writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0

    @property
    def ops(self) -> int:
        return self.reads + self.writes


class DmaEngine:
    """Simulated DMA engine on the DPU side of the PCIe switch."""

    spec = PCIE_GEN4_DMA

    def __init__(self, env: Environment):
        self.env = env
        self.stats = DmaStats()
        self._channels = Resource(env, capacity=self.spec.channels)

    def dma_read(self, nbytes: int) -> Generator:
        """Process generator: DMA-read ``nbytes`` from host memory."""
        yield from self._transfer(nbytes)
        self.stats.reads += 1
        self.stats.bytes_read += nbytes

    def dma_write(self, nbytes: int) -> Generator:
        """Process generator: DMA-write ``nbytes`` to host memory."""
        yield from self._transfer(nbytes)
        self.stats.writes += 1
        self.stats.bytes_written += nbytes

    @property
    def in_flight(self) -> int:
        """Channels with a transfer booked that has not finished (a
        channel with more transfers queued behind one counts once)."""
        return self._channels.in_use

    def transfer_time(self, nbytes: int) -> float:
        """Unloaded service time of one DMA op of ``nbytes``."""
        return self.spec.op_latency + nbytes / self.spec.bandwidth

    def _transfer(self, nbytes: int) -> Generator:
        if nbytes < 0:
            raise ValueError("DMA size must be non-negative")
        yield self._channels.book(self.transfer_time(nbytes))
