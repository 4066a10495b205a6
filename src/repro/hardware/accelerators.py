"""DPU hardware accelerators (§2's fourth component, §11's future work).

BlueField-class DPUs harden compute-heavy data-path tasks — compression,
encryption, regular-expression matching — in on-board engines that are
"orders of magnitude faster" than running the same work on the Arm cores
(§2).  The paper leaves exploiting them to future work (§11); this
module implements that extension on the simulation substrate:

* :class:`HardwareAccelerator` — an engine with a fixed job-setup
  latency, a streaming bandwidth, and a bounded number of channels.
* Real transforms: compression is real ``zlib``; regex matching is real
  ``re``.  Only *time* is modelled — the accelerator charges engine time
  instead of Arm-core time for the same bytes and results.

Specs are anchored to public BlueField-2 figures: the deflate engine
sustains multiple GB/s, the RXP regex engine is rated for tens of Gbps
of pattern matching, and an Arm core manages a small fraction of either.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Generator, List, Optional, Pattern, Tuple

from ..sim import Environment, Resource
from .cpu import CpuPool
from .specs import GIB, MICROSECOND

__all__ = [
    "AcceleratorSpec",
    "HardwareAccelerator",
    "BF2_COMPRESSION",
    "BF2_REGEX",
    "ARM_SOFTWARE_COMPRESSION",
    "compress_page",
    "decompress_page",
    "regex_scan",
]


@dataclass(frozen=True)
class AcceleratorSpec:
    """One hardware engine: setup cost, streaming rate, channels."""

    name: str
    setup_latency: float   # per-job submission/completion overhead
    bandwidth: float       # bytes/s streamed through the engine
    channels: int          # concurrent jobs


#: BF-2 deflate engine: multi-GB/s compression/decompression in hardware.
BF2_COMPRESSION = AcceleratorSpec(
    name="bf2-deflate",
    setup_latency=4 * MICROSECOND,
    bandwidth=8 * GIB,
    channels=2,
)

#: BF-2 RXP regular-expression engine.
BF2_REGEX = AcceleratorSpec(
    name="bf2-rxp",
    setup_latency=3 * MICROSECOND,
    bandwidth=5 * GIB,
    channels=2,
)

#: The same work on one Arm core (host-equivalent per-byte costs; the
#: accelerator advantage is one-to-two orders of magnitude, §2).
ARM_SOFTWARE_COMPRESSION = AcceleratorSpec(
    name="arm-zlib",
    setup_latency=1 * MICROSECOND,
    bandwidth=0.12 * GIB,
    channels=1,
)


class HardwareAccelerator:
    """A shared on-board engine; jobs hold a channel for their duration.

    ``software_core`` turns the instance into a software fallback: the
    job occupies the given Arm core instead of a hardware channel, so
    comparisons charge the right resource either way.
    """

    def __init__(
        self,
        env: Environment,
        spec: AcceleratorSpec,
        software_core: Optional[CpuPool] = None,
    ) -> None:
        self.env = env
        self.spec = spec
        self.software_core = software_core
        self._channels = Resource(env, capacity=spec.channels)
        self.jobs = 0
        self.bytes_processed = 0

    def job_time(self, nbytes: int) -> float:
        """Unloaded service time for one job of ``nbytes``."""
        return self.spec.setup_latency + nbytes / self.spec.bandwidth

    def process(self, nbytes: int) -> Generator:
        """Run one job through the engine (or the fallback core)."""
        if nbytes < 0:
            raise ValueError("job size must be non-negative")
        if self.software_core is not None:
            # Software path: the Arm core is busy for the whole job.
            # job_time is wall time on that core; convert to the core's
            # host-equivalent charge.
            yield from self.software_core.execute(
                self.job_time(nbytes) * self.software_core.speed
            )
        else:
            yield self._channels.hold(self.job_time(nbytes))
        self.jobs += 1
        self.bytes_processed += nbytes


# ----------------------------------------------------------------------
# real data transforms (the accelerator models only their *time*)
# ----------------------------------------------------------------------

def compress_page(page: bytes) -> bytes:
    """Deflate one page (real zlib, fastest level)."""
    return zlib.compress(page, 1)


def decompress_page(blob: bytes) -> bytes:
    """Inflate one page (real zlib)."""
    return zlib.decompress(blob)


def regex_scan(
    data: bytes, pattern: Pattern, record_size: int
) -> List[Tuple[int, bytes]]:
    """Scan fixed-size records for a pattern; returns (index, record).

    This is the string-operator pushdown §11 suggests for the RXP
    engine: evaluation happens where the data is, and only matching
    records travel.
    """
    if record_size <= 0:
        raise ValueError("record_size must be positive")
    if len(data) % record_size:
        raise ValueError(
            f"{len(data)}B is not whole {record_size}B records"
        )
    search = pattern.search
    return [
        (at // record_size, record)
        for at in range(0, len(data), record_size)
        if search(record := data[at:at + record_size])
    ]
