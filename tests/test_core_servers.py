"""End-to-end tests of the assembled storage servers and workload client."""

import pytest

from repro.bench import build_cluster, run_io_experiment
from repro.core import ClientConfig, IoRequest, OpCode, WorkloadClient
from repro.net import FiveTuple

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


def serve_one(cluster, request):
    responses = []
    done = cluster.server.submit(FLOW, [request], responses.append)
    cluster.env.run(until=done)
    return responses


KINDS = [
    "baseline",
    "dds-files",
    "dds-offload",
    "local-os",
    "local-dds",
    "smb",
    "smb-direct",
    "redy-os",
    "redy-dds",
    "dds-offload-rdma",
]


class TestDataIntegrity:
    @pytest.mark.parametrize("kind", KINDS)
    def test_write_then_read_returns_same_bytes(self, kind):
        cluster = build_cluster(kind, db_bytes=4 << 20)
        payload = bytes(range(256)) * 4
        write = IoRequest(
            OpCode.WRITE, 1, cluster.file_id, 8192, len(payload), payload
        )
        responses = serve_one(cluster, write)
        assert len(responses) == 1 and responses[0].ok
        read = IoRequest(
            OpCode.READ, 2, cluster.file_id, 8192, len(payload)
        )
        responses = serve_one(cluster, read)
        assert len(responses) == 1 and responses[0].ok
        assert responses[0].data == payload

    @pytest.mark.parametrize("kind", ["baseline", "dds-files", "dds-offload"])
    def test_batched_requests_each_answered(self, kind):
        cluster = build_cluster(kind, db_bytes=4 << 20)
        requests = [
            IoRequest(OpCode.READ, i, cluster.file_id, i * 1024, 1024)
            for i in range(1, 9)
        ]
        responses = []
        done = cluster.server.submit(FLOW, requests, responses.append)
        cluster.env.run(until=done)
        assert sorted(r.request_id for r in responses) == list(range(1, 9))
        assert all(r.ok for r in responses)


class TestOffloadBehaviour:
    def test_reads_never_touch_host_cpu(self):
        result = run_io_experiment(
            "dds-offload", 200e3, total_requests=2500, db_bytes=32 << 20
        )
        assert result.host_cores < 0.05
        assert result.dpu_cores > 0.1

    def test_writes_fall_back_to_host(self):
        cluster = build_cluster("dds-offload", db_bytes=4 << 20)
        write = IoRequest(OpCode.WRITE, 1, cluster.file_id, 0, 64, bytes(64))
        responses = serve_one(cluster, write)
        assert responses[0].ok
        assert cluster.server.shards[0].director.requests_to_host == 1
        assert cluster.server.shards[0].director.requests_offloaded == 0

    def test_mixed_workload_splits_correctly(self):
        result = run_io_experiment(
            "dds-offload",
            150e3,
            total_requests=2000,
            read_fraction=0.7,
            db_bytes=32 << 20,
        )
        cluster_stats_available = result.achieved_iops > 0
        assert cluster_stats_available
        assert result.host_cores > 0.02  # writes burn some host CPU


class TestRelativePerformance:
    """The qualitative orderings every figure depends on."""

    def test_offload_beats_library_beats_baseline_on_latency(self):
        results = {
            kind: run_io_experiment(
                kind, 150e3, total_requests=2500, db_bytes=32 << 20
            )
            for kind in ("baseline", "dds-files", "dds-offload")
        }
        assert (
            results["dds-offload"].p50
            < results["dds-files"].p50
            < results["baseline"].p50
        )

    def test_offload_saves_host_cpu(self):
        results = {
            kind: run_io_experiment(
                kind, 150e3, total_requests=2500, db_bytes=32 << 20
            )
            for kind in ("baseline", "dds-files", "dds-offload")
        }
        assert (
            results["dds-offload"].host_cores
            < results["dds-files"].host_cores
            < results["baseline"].host_cores
        )

    def test_local_faster_than_disaggregated_baseline(self):
        local = run_io_experiment(
            "local-os", 150e3, total_requests=2000, db_bytes=32 << 20
        )
        remote = run_io_experiment(
            "baseline", 150e3, total_requests=2000, db_bytes=32 << 20
        )
        assert local.p50 < remote.p50

    def test_smb_slower_than_app_controlled(self):
        smb = run_io_experiment(
            "smb", 150e3, total_requests=1500, db_bytes=32 << 20
        )
        baseline = run_io_experiment(
            "baseline", 150e3, total_requests=1500, db_bytes=32 << 20
        )
        assert smb.achieved_iops < baseline.achieved_iops

    def test_redy_burns_constant_client_cores(self):
        redy = run_io_experiment(
            "redy-os", 100e3, total_requests=1500, db_bytes=32 << 20
        )
        assert redy.client_cores >= 1.0  # the spin-polling core


class TestWorkloadClient:
    def test_latency_recorded_per_request(self):
        cluster = build_cluster("dds-offload", db_bytes=16 << 20)
        config = ClientConfig(
            offered_iops=50e3,
            total_requests=500,
            file_size=16 << 20,
        )
        client = WorkloadClient(
            cluster.env, cluster.server, cluster.file_id, config
        )
        result = client.run()
        assert len(result.latencies) == 500
        assert result.p50 > 0 and result.p99 >= result.p50
        assert result.achieved_iops == pytest.approx(
            500 / result.elapsed
        )

    def test_outstanding_cap_limits_overload(self):
        cluster = build_cluster("baseline", db_bytes=16 << 20)
        config = ClientConfig(
            offered_iops=5e6,  # far beyond capacity
            total_requests=2000,
            file_size=16 << 20,
            max_outstanding=16,
            batch=4,
        )
        client = WorkloadClient(
            cluster.env, cluster.server, cluster.file_id, config
        )
        result = client.run()
        # Little's law bound: in-flight requests <= 16 messages * 4.
        assert result.achieved_iops * result.p50 < 16 * 4 * 1.5

    def test_percentiles_monotonic(self):
        cluster = build_cluster("dds-files", db_bytes=16 << 20)
        config = ClientConfig(offered_iops=100e3, total_requests=800,
                              file_size=16 << 20)
        client = WorkloadClient(
            cluster.env, cluster.server, cluster.file_id, config
        )
        result = client.run()
        assert (
            result.percentile(10)
            <= result.p50
            <= result.percentile(90)
            <= result.p99
        )
