"""NVMe SSD service model.

An SSD is modelled as ``parallelism`` concurrent service slots (the
device's internal channel/NAND parallelism).  Each operation holds a slot
for ``base_latency + size / bandwidth`` plus a small truncated-exponential
jitter that produces realistic tail latencies.  Queue-depth effects — the
latency growth the paper's throughput/latency curves (Figures 15, 24) show
as load approaches the device ceiling — emerge from slot contention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from ..sim import Environment, Resource, SeededRng
from .specs import NVME_1TB, SsdSpec

__all__ = ["IoStats", "NvmeDevice", "DeviceError"]


class DeviceError(Exception):
    """A device-level I/O failure (media error, timeout)."""


@dataclass
class IoStats:
    """Completed-operation counters for one device."""

    reads: int = 0
    writes: int = 0
    read_bytes: int = 0
    write_bytes: int = 0

    @property
    def ops(self) -> int:
        return self.reads + self.writes


class NvmeDevice:
    """A simulated NVMe SSD with asynchronous submit/complete semantics."""

    #: Jitter, as a fraction of the base latency (truncated exponential).
    JITTER_FRACTION = 0.08
    JITTER_CAP = 25.0

    def __init__(
        self,
        env: Environment,
        spec: SsdSpec = NVME_1TB,
        rng: Optional[SeededRng] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.rng = rng if rng is not None else SeededRng(0x55D)
        self.stats = IoStats()
        self._slots = Resource(env, capacity=spec.parallelism)
        # Data transfers share one internal bus: aggregate throughput is
        # capped at the spec's bandwidth even with all slots busy.
        self._bus = Resource(env, capacity=1)
        # Fault injection: probabilistic media errors plus a one-shot
        # "fail the next N operations" knob for targeted tests.
        self.error_rate = 0.0
        self._forced_errors = 0
        self.errors = 0
        # Latency-spike injection (GC pauses, internal housekeeping): a
        # one-shot "next N ops take +extra seconds" knob plus a
        # probabilistic rate.  The probabilistic draw happens only when
        # the rate is non-zero, so the default jitter stream — and every
        # pinned benchmark figure — is byte-identical with spikes off.
        self.latency_spike_rate = 0.0
        self.latency_spike_extra = 0.0
        self._forced_spikes = 0
        self._forced_spike_extra = 0.0
        self.latency_spikes = 0

    def inject_errors(self, count: int = 1) -> None:
        """Force the next ``count`` operations to fail with DeviceError."""
        if count < 0:
            raise ValueError("count must be non-negative")
        self._forced_errors += count

    def inject_latency_spikes(
        self, count: int = 1, extra: float = 1e-3
    ) -> None:
        """Stretch the next ``count`` operations by ``extra`` seconds."""
        if count < 0:
            raise ValueError("count must be non-negative")
        if extra < 0:
            raise ValueError("extra must be non-negative")
        self._forced_spikes += count
        self._forced_spike_extra = extra

    def _spike_delay(self) -> float:
        if self._forced_spikes > 0:
            self._forced_spikes -= 1
            self.latency_spikes += 1
            return self._forced_spike_extra
        if (
            self.latency_spike_rate > 0
            and self.rng.random() < self.latency_spike_rate
        ):
            self.latency_spikes += 1
            return self.latency_spike_extra
        return 0.0

    def _maybe_fail(self) -> None:
        if self._forced_errors > 0:
            self._forced_errors -= 1
            self.errors += 1
            raise DeviceError("injected device error")
        if self.error_rate > 0 and self.rng.random() < self.error_rate:
            self.errors += 1
            raise DeviceError("media error")

    def read(self, size: int) -> Generator:
        """Process generator servicing one read of ``size`` bytes."""
        return self._service(
            size, self.spec.read_latency, self.spec.read_bandwidth, False
        )

    def write(self, size: int) -> Generator:
        """Process generator servicing one write of ``size`` bytes."""
        return self._service(
            size, self.spec.write_latency, self.spec.write_bandwidth, True
        )

    def _service(
        self, size: int, base: float, bandwidth: float, is_write: bool
    ) -> Generator:
        if size <= 0:
            raise ValueError("I/O size must be positive")
        grant = self._slots.request()
        yield grant
        try:
            jitter = self.rng.bounded_exponential(
                base * self.JITTER_FRACTION, self.JITTER_CAP
            )
            yield self.env.now + (base + jitter + self._spike_delay())
            self._maybe_fail()  # after seek/service: the op burned time
            yield self._bus.book(size / bandwidth)
            if is_write:
                self.stats.writes += 1
                self.stats.write_bytes += size
            else:
                self.stats.reads += 1
                self.stats.read_bytes += size
        finally:
            self._slots.release()
