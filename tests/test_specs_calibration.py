"""Guard rails on the calibration constants (repro/hardware/specs.py).

Every constant anchors to a number in the paper; these tests pin the
relationships the figures depend on, so an accidental edit that would
silently bend a figure's shape fails loudly here instead.
"""

import pytest

from repro.bench.echo import EchoBench
from repro.hardware import (
    BENCH_APP_NET,
    DDS_FILE_LIBRARY,
    DPU_CPU,
    HOST_APP_NET,
    HOST_APP_OTHER,
    HOST_CPU,
    HOST_OS_FS,
    HOST_OS_TCP,
    NIC_100G,
    NVME_1TB,
    PCIE_GEN4_DMA,
    RDMA_VERBS,
)


class TestCpuAnchors:
    def test_host_is_two_24_core_epycs(self):
        assert HOST_CPU.cores == 48 and HOST_CPU.speed == 1.0

    def test_bf2_is_eight_wimpy_arm_cores(self):
        """§7: 8 Armv8 A72 cores; Figure 5 anchors the speed ratio."""
        assert DPU_CPU.cores == 8
        assert 0.2 < DPU_CPU.speed < 0.5


class TestSsdAnchors:
    def test_small_read_ceiling_near_figure_14_peak(self):
        """DDS offload peaks at ~730K 1 KiB IOPS, device-bound."""
        ceiling = NVME_1TB.parallelism / NVME_1TB.read_latency
        assert 700e3 < ceiling < 900e3

    def test_write_ceiling_near_figure_15b_peak(self):
        """DDS files peaks at ~290K write IOPS, device-bound."""
        ceiling = NVME_1TB.parallelism / NVME_1TB.write_latency
        assert 280e3 < ceiling < 400e3

    def test_reads_faster_than_writes(self):
        assert NVME_1TB.read_latency < NVME_1TB.write_latency
        assert NVME_1TB.read_bandwidth > NVME_1TB.write_bandwidth


class TestNetworkAnchors:
    def test_link_is_100_gbps(self):
        assert NIC_100G.bandwidth == pytest.approx(100e9 / 8)
        assert NIC_100G.mtu == 1500

    def test_dpu_forward_near_six_microseconds(self):
        """§5.3: ~6 us to forward a packet via an Arm core."""
        assert 4e-6 < NIC_100G.dpu_forward < 8e-6

    def test_stack_cost_ordering(self):
        """The layering story of §1/§5: RDMA < kernel stacks, and the
        DBMS network module is the most expensive of all."""
        size = 1024

        def cost(spec):
            return spec.per_message_core_time + size * spec.per_byte_core_time

        assert cost(RDMA_VERBS) < cost(HOST_OS_TCP)
        assert cost(HOST_OS_TCP) < cost(HOST_APP_NET)
        assert cost(BENCH_APP_NET) < cost(HOST_APP_NET)

    def test_linux_on_dpu_worse_than_host_kernel(self):
        """Figure 19's premise, priced by the echo bench's per-responder
        costs (Figures 19 and 20 use no stack spec)."""
        cost = EchoBench.processing_time
        assert cost("dpu-linux", 64) > cost("host-os", 64)

    def test_tldk_on_dpu_clearly_beats_linux_on_dpu(self):
        """Figure 19: TLDK on the DPU answers ~3x faster than Linux TCP
        on the DPU."""
        cost = EchoBench.processing_time
        assert 2.0 < cost("dpu-linux", 64) / cost("dpu-tldk", 64) < 10.0


class TestStoragePathAnchors:
    def test_library_is_an_order_cheaper_than_os_files(self):
        """Figure 14a's core saving: ~1 us library vs ~13 us OS path."""
        size = 1024

        def cost(spec):
            return spec.per_message_core_time + size * spec.per_byte_core_time

        assert cost(DDS_FILE_LIBRARY) < cost(HOST_OS_FS) / 8

    def test_app_other_is_a_minor_component(self):
        assert (
            HOST_APP_OTHER.per_message_core_time
            < HOST_OS_FS.per_message_core_time
        )


class TestDmaAnchors:
    def test_op_latency_dominates_small_transfers(self):
        """Figure 17's premise: per-op cost, not bandwidth, limits
        message-granularity DMA."""
        small_payload_time = 64 / PCIE_GEN4_DMA.bandwidth
        assert PCIE_GEN4_DMA.op_latency > 100 * small_payload_time
