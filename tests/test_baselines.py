"""Unit tests for the Figure 16 comparison systems."""

from repro.baselines import RedyTransport
from repro.bench import build_cluster
from repro.core import IoRequest, OpCode
from repro.hardware import NO_TRANSPORT
from repro.net import FiveTuple

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


def serve(cluster, requests):
    responses = []
    done = cluster.server.submit(FLOW, requests, responses.append)
    cluster.env.run(until=done)
    return responses


class TestLocalServers:
    def test_local_pays_no_transport(self):
        for kind in ("local-os", "local-dds"):
            cluster = build_cluster(kind, db_bytes=4 << 20)
            assert cluster.server.client_spec is NO_TRANSPORT
            assert NO_TRANSPORT.per_message_core_time == 0.0

    def test_local_faster_than_remote_same_backend(self):
        def latency(kind):
            cluster = build_cluster(kind, db_bytes=4 << 20)
            start = cluster.env.now
            serve(
                cluster,
                [IoRequest(OpCode.READ, 1, cluster.file_id, 0, 1024)],
            )
            return cluster.env.now - start

        assert latency("local-os") < latency("baseline")
        assert latency("local-dds") < latency("dds-files")

    def test_local_dds_uses_no_host_io_cpu(self):
        cluster = build_cluster("local-dds", db_bytes=4 << 20)
        for i in range(1, 30):
            serve(
                cluster,
                [IoRequest(OpCode.READ, i, cluster.file_id, 0, 1024)],
            )
        elapsed = cluster.env.now
        # Far cheaper than the OS path: mostly library + dispatch costs.
        local_os = build_cluster("local-os", db_bytes=4 << 20)
        for i in range(1, 30):
            serve(
                local_os,
                [IoRequest(OpCode.READ, i, local_os.file_id, 0, 1024)],
            )
        assert (
            cluster.server.host_pool.busy_time
            < 0.5 * local_os.server.host_pool.busy_time
        )


class TestSmb:
    def test_no_batching_each_request_pays_a_round_trip(self):
        smb = build_cluster("smb", db_bytes=4 << 20)
        batched = serve(
            smb,
            [
                IoRequest(OpCode.READ, i, smb.file_id, i * 1024, 1024)
                for i in range(1, 5)
            ],
        )
        assert len(batched) == 4 and all(r.ok for r in batched)
        # Four requests produced four separate wire exchanges.
        assert smb.server.link.stats["client_to_server"].packets >= 4

    def test_direct_variant_is_faster(self):
        def latency(direct):
            cluster = build_cluster(
                "smb-direct" if direct else "smb", db_bytes=4 << 20
            )
            start = cluster.env.now
            serve(
                cluster,
                [IoRequest(OpCode.READ, 1, cluster.file_id, 0, 1024)],
            )
            return cluster.env.now - start

        assert latency(direct=True) < latency(direct=False)

    def test_credits_bound_concurrency(self):
        cluster = build_cluster("smb", db_bytes=8 << 20)
        server = cluster.server
        assert server.execution.CREDITS == 32
        requests = [
            IoRequest(OpCode.READ, i, cluster.file_id, i * 1024, 1024)
            for i in range(1, 65)
        ]
        responses = serve(cluster, requests)
        assert len(responses) == 64
        # With 64 requests over 32 credits, in-flight never exceeded 32:
        # total time covers at least two service generations.
        assert server.execution.credits.in_use == 0

    def test_writes_supported(self):
        cluster = build_cluster("smb", db_bytes=4 << 20)
        write = IoRequest(OpCode.WRITE, 1, cluster.file_id, 0, 64, bytes(64))
        assert serve(cluster, [write])[0].ok


class TestRedy:
    def test_polling_cores_always_counted(self):
        cluster = build_cluster("redy-os", db_bytes=4 << 20)
        # Even with zero traffic, the pollers burn their cores.
        assert cluster.server.host_cores(1.0) >= RedyTransport.POLLING_CORES_SERVER
        assert cluster.server.client_extra_cores() == 1.0

    def test_dds_files_variant_uses_dpu(self):
        cluster = build_cluster("redy-dds", db_bytes=4 << 20)
        serve(
            cluster,
            [IoRequest(OpCode.READ, 1, cluster.file_id, 0, 1024)],
        )
        assert cluster.server.dpu_cores(cluster.env.now) > 0

    def test_lower_transport_latency_than_tcp_baseline(self):
        def latency(kind):
            cluster = build_cluster(kind, db_bytes=4 << 20)
            start = cluster.env.now
            serve(
                cluster,
                [IoRequest(OpCode.READ, 1, cluster.file_id, 0, 1024)],
            )
            return cluster.env.now - start

        assert latency("redy-os") < latency("baseline")

    def test_data_integrity_both_variants(self):
        for kind in ("redy-os", "redy-dds"):
            cluster = build_cluster(kind, db_bytes=4 << 20)
            payload = bytes(range(128))
            serve(
                cluster,
                [
                    IoRequest(
                        OpCode.WRITE, 1, cluster.file_id, 0,
                        len(payload), payload,
                    )
                ],
            )
            got = serve(
                cluster,
                [IoRequest(OpCode.READ, 2, cluster.file_id, 0, len(payload))],
            )
            assert got[0].data == payload, kind
