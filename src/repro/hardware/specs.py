"""Hardware calibration constants.

Every constant is anchored to a number reported in the DDS paper (VLDB
2024) or one of its cited sources; the anchor is noted next to each value.
Units are SI: seconds, bytes, hertz.  "Core time" means seconds of one
fully-busy core, so CPU cost in cores at a given throughput is
``per_request_core_time * requests_per_second``.

The models deliberately live at the granularity the paper's evaluation
exercises: per-request and per-byte CPU costs, per-op and per-byte device
latencies.  They are *not* cycle-accurate; the goal is to reproduce the
shape of every figure (§8-§9), as recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CpuSpec",
    "SsdSpec",
    "DmaSpec",
    "NicSpec",
    "StackSpec",
    "HOST_CPU",
    "DPU_CPU",
    "NVME_1TB",
    "PCIE_GEN4_DMA",
    "NIC_100G",
    "HOST_OS_TCP",
    "HOST_APP_NET",
    "BENCH_APP_NET",
    "HOST_OS_FS",
    "HOST_APP_OTHER",
    "DDS_FILE_LIBRARY",
    "DPU_LINUX_TCP",
    "DPU_TLDK",
    "HOST_TLDK",
    "RDMA_VERBS",
    "NO_TRANSPORT",
    "MICROSECOND",
    "KIB",
    "MIB",
    "GIB",
]

MICROSECOND = 1e-6
KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB


@dataclass(frozen=True)
class CpuSpec:
    """A processor model: number of cores and relative speed.

    ``speed`` scales every core-time charge executed on this CPU: work that
    costs ``t`` seconds of host core time costs ``t / speed`` on a core with
    ``speed < 1``.
    """

    name: str
    cores: int
    speed: float  # relative to one host core


#: Two AMD EPYC 24-core CPUs per machine (§8.1) -> 48 host cores.
HOST_CPU = CpuSpec(name="EPYC-host", cores=48, speed=1.0)

#: BlueField-2: 8 Armv8 A72 cores (§7).  The speed ratio is anchored to
#: Figure 5: FASTER RMW runs up to 4.5x slower on the DPU at 8 threads;
#: part of that gap is memory-system, so the pure core ratio is ~0.35.
DPU_CPU = CpuSpec(name="BF2-arm", cores=8, speed=0.35)


@dataclass(frozen=True)
class SsdSpec:
    """NVMe SSD service model: per-op base latency, bandwidth, parallelism.

    Effective small-op IOPS ceiling is ``parallelism / op_latency``; large
    ops are additionally charged ``size / bandwidth``.
    """

    name: str
    read_latency: float
    write_latency: float
    read_bandwidth: float
    write_bandwidth: float
    parallelism: int

    @property
    def max_read_iops(self) -> float:
        """Small-read IOPS ceiling implied by the model."""
        return self.parallelism / self.read_latency

    @property
    def max_write_iops(self) -> float:
        """Small-write IOPS ceiling implied by the model."""
        return self.parallelism / self.write_latency


#: 1 TB NVMe (§8.1).  Anchors: DDS offload peaks at 730K 1 KiB read IOPS
#: (Fig 14a) and ~290K write IOPS (Fig 15b), i.e. the device is the
#: bottleneck once software overhead is gone; local page access is
#: 100-200us under load [33].
NVME_1TB = SsdSpec(
    name="nvme-1tb",
    read_latency=80 * MICROSECOND,
    write_latency=200 * MICROSECOND,
    read_bandwidth=3.2 * GIB,
    write_bandwidth=1.8 * GIB,
    parallelism=64,
)


@dataclass(frozen=True)
class DmaSpec:
    """DPU-issued DMA over PCIe Gen4: per-op setup cost plus streaming."""

    name: str
    op_latency: float  # doorbell + completion, per DMA op
    bandwidth: float   # payload streaming rate
    channels: int      # concurrent DMA ops in flight


#: PCIe Gen4 x16 between host and BF-2 (§7).  The ~1.5us op cost anchors
#: Figure 17: the FaRM-style ring that spends one DMA read per poll plus a
#: DMA write per message release peaks at only 64K msg/s.
PCIE_GEN4_DMA = DmaSpec(
    name="pcie4-dma",
    op_latency=1.5 * MICROSECOND,
    bandwidth=16 * GIB,
    channels=4,
)


@dataclass(frozen=True)
class NicSpec:
    """Network interface: link rate, MTU, propagation, host forward cost."""

    name: str
    bandwidth: float
    mtu: int
    propagation: float       # one-way wire propagation + switch
    host_forward: float      # NIC -> host PCIe forward (one way)
    dpu_forward: float       # off-path Arm-core packet forward (§5.3: ~6us)


#: 100 Gbps BF-2 / ConnectX-6 (§8.1); ~6us Arm-core forward (§5.3).
NIC_100G = NicSpec(
    name="cx6-100g",
    bandwidth=100e9 / 8,
    mtu=1500,
    propagation=3 * MICROSECOND,
    host_forward=3 * MICROSECOND,
    dpu_forward=6 * MICROSECOND,
)


@dataclass(frozen=True)
class StackSpec:
    """CPU + latency cost model of one network-stack layer.

    ``per_message_core_time``/``per_byte_core_time`` are charged on the CPU
    that runs the layer (host or DPU, scaled by its ``speed``);
    ``per_message_latency`` is fixed pipeline delay that does not occupy a
    core (interrupt coalescing, wakeups).
    """

    name: str
    per_message_core_time: float
    per_byte_core_time: float
    per_message_latency: float


#: Windows-sockets kernel TCP on the host.  Anchor: 14 cores to send 2 GB/s
#: of 8 KiB pages (§1) across app+OS; Figure 2 splits roughly half of the
#: network cost into the OS stack.
HOST_OS_TCP = StackSpec(
    name="host-os-tcp",
    per_message_core_time=5.0 * MICROSECOND,
    per_byte_core_time=1.6e-9,
    per_message_latency=12 * MICROSECOND,
)

#: The DBMS's internal network module (Figure 2: the largest component).
HOST_APP_NET = StackSpec(
    name="host-app-net",
    per_message_core_time=8.0 * MICROSECOND,
    per_byte_core_time=3.2e-9,
    per_message_latency=4 * MICROSECOND,
)

#: The benchmark application's lightweight messaging layer (§8.1's custom
#: storage-disaggregated app, much leaner than a DBMS network module).
BENCH_APP_NET = StackSpec(
    name="bench-app-net",
    per_message_core_time=2.0 * MICROSECOND,
    per_byte_core_time=0.8e-9,
    per_message_latency=2 * MICROSECOND,
)

#: Linux kernel TCP running on the wimpy BF-2 Arm cores (§5.3, Figure 19:
#: offloaded echo through Linux TCP is *slower* than answering from the
#: host).  Costs are expressed in host-core time and divided by the DPU
#: speed when executed there.
DPU_LINUX_TCP = StackSpec(
    name="dpu-linux-tcp",
    per_message_core_time=4.5 * MICROSECOND,
    per_byte_core_time=1.4e-9,
    per_message_latency=14 * MICROSECOND,
)

#: TLDK userspace TCP on the DPU (§7), SIMD ports and RSS per-core flows.
#: Anchor: Figure 19 -- 3x lower latency than Linux TCP on the DPU; Figure
#: 21 -- 6.4 Gbps per Arm core.
DPU_TLDK = StackSpec(
    name="dpu-tldk",
    per_message_core_time=0.9 * MICROSECOND,
    per_byte_core_time=0.35e-9,
    per_message_latency=1.0 * MICROSECOND,
)

#: TLDK on a (Linux) host, used only by the Figure 20 isolation experiment.
HOST_TLDK = StackSpec(
    name="host-tldk",
    per_message_core_time=0.45 * MICROSECOND,
    per_byte_core_time=0.5e-9,
    per_message_latency=1.0 * MICROSECOND,
)

#: RDMA verbs (SMB Direct, Redy, DDS-RDMA variants in Figure 16).
RDMA_VERBS = StackSpec(
    name="rdma-verbs",
    per_message_core_time=0.4 * MICROSECOND,
    per_byte_core_time=0.05e-9,
    per_message_latency=2.0 * MICROSECOND,
)

#: Local access (Figure 16 ① and ②) pays no transport CPU at all.
NO_TRANSPORT = StackSpec(
    name="no-transport",
    per_message_core_time=0.0,
    per_byte_core_time=0.0,
    per_message_latency=0.0,
)

#: The host OS filesystem + block layer (NTFS in the paper's baseline).
#: Anchors: §1 -- 2 GB/s of 8 KiB page I/O (~230K IOPS) consumes 5-6
#: dedicated cores (parallel part); Figure 14a -- replacing the OS
#: filesystem with the DDS library moves the baseline's 27 us/request
#: host cost to ~11 us, so the OS file path accounts for ~13 us of core
#: time per 1 KiB op plus the serialized kernel section.
HOST_OS_FS = StackSpec(
    name="host-os-fs",
    per_message_core_time=11.0 * MICROSECOND,
    per_byte_core_time=2.0e-9,
    per_message_latency=22 * MICROSECOND,
)

#: The storage application's own request handling (parse, dispatch,
#: bookkeeping) outside the network module -- the "other" slice of
#: Figure 2.
HOST_APP_OTHER = StackSpec(
    name="host-app-other",
    per_message_core_time=3.0 * MICROSECOND,
    per_byte_core_time=0.9e-9,
    per_message_latency=1.0 * MICROSECOND,
)

#: The DDS host file library (§4.2): non-blocking issue + poll only.
#: Anchor: Figure 14a -- DDS-files reaches 580K IOPS at 6.5 cores while
#: the network stays on the host, so the library itself must cost ~1 us
#: per op.
DDS_FILE_LIBRARY = StackSpec(
    name="dds-file-library",
    per_message_core_time=1.0 * MICROSECOND,
    per_byte_core_time=0.15e-9,
    per_message_latency=0.5 * MICROSECOND,
)
