"""Tests for the experiment harness, echo bench, and RMW bench."""

import pytest

from repro.bench import (
    EchoBench,
    build_cluster,
    find_peak,
    run_io_experiment,
    run_rmw_scaling,
    sweep,
)
from repro.bench.harness import (
    ack_buckets,
    drain_until,
    striped_rw_factory,
)
from repro.core.messages import OpCode
from repro.sim import Environment, SeededRng


class TestHarness:
    def test_unknown_solution_rejected(self):
        with pytest.raises(ValueError, match="unknown solution"):
            build_cluster("nope")

    def test_cluster_has_preallocated_database(self):
        cluster = build_cluster("baseline", db_bytes=8 << 20)
        assert cluster.filesystem.file_size(cluster.file_id) == 8 << 20

    def test_result_fields_consistent(self):
        result = run_io_experiment(
            "dds-files", 100e3, total_requests=1200, db_bytes=16 << 20
        )
        assert result.kind == "dds-files"
        assert len(result.latencies) == 1200
        assert result.achieved_iops == pytest.approx(
            1200 / result.elapsed
        )
        assert result.total_cores == pytest.approx(
            result.host_cores + result.client_cores
        )

    def test_sweep_runs_each_point(self):
        results = sweep(
            "local-os",
            [50e3, 100e3],
            total_requests=800,
            db_bytes=16 << 20,
        )
        assert [r.offered_iops for r in results] == [50e3, 100e3]
        assert results[1].achieved_iops > results[0].achieved_iops

    def test_find_peak_stops_at_saturation(self):
        peak = find_peak(
            "baseline",
            start_iops=200e3,
            total_requests=1500,
            db_bytes=16 << 20,
        )
        # The baseline saturates around 390-400K: the peak search must
        # land there, not at the last offered point.
        assert 300e3 < peak.achieved_iops < 470e3

    def test_seed_determinism(self):
        a = run_io_experiment(
            "dds-offload", 150e3, total_requests=1000,
            db_bytes=16 << 20, seed=5,
        )
        b = run_io_experiment(
            "dds-offload", 150e3, total_requests=1000,
            db_bytes=16 << 20, seed=5,
        )
        assert a.achieved_iops == b.achieved_iops
        assert a.latencies == b.latencies

    def test_different_seeds_differ(self):
        a = run_io_experiment(
            "dds-offload", 150e3, total_requests=1000,
            db_bytes=16 << 20, seed=5,
        )
        b = run_io_experiment(
            "dds-offload", 150e3, total_requests=1000,
            db_bytes=16 << 20, seed=6,
        )
        assert a.latencies != b.latencies


class TestScenarioKit:
    def test_sharded_cluster_preallocates_every_file(self):
        cluster = build_cluster(shards=2, files=4, file_bytes=1 << 20)
        assert len(cluster.file_ids) == 4
        assert cluster.file_id == cluster.file_ids[0]
        assert len(cluster.server.shards) == 2
        for file_id in cluster.file_ids:
            assert cluster.filesystem.file_size(file_id) == 1 << 20
        owned = [cluster.files_on(shard) for shard in (0, 1)]
        assert owned[0] | owned[1] == set(cluster.file_ids)
        assert not owned[0] & owned[1]

    def test_solution_and_shards_are_exclusive(self):
        with pytest.raises(ValueError, match="exactly one"):
            build_cluster("dds-offload", shards=2)
        with pytest.raises(ValueError, match="exactly one"):
            build_cluster()

    def test_striped_writes_never_repeat_a_location(self):
        files, file_bytes, io_size = [11, 12, 13], 8192, 1024
        factory = striped_rw_factory(files, file_bytes, io_size, 4)
        rng = SeededRng(1)
        requests = [factory(rid, rng) for rid in range(1, 97)]
        writes = [r for r in requests if r.op is OpCode.WRITE]
        assert [r.request_id for r in writes] == list(range(4, 97, 4))
        # 3 files x 8 slots: 24 writes are one full pass, no repeats.
        assert len({(r.file_id, r.offset) for r in writes}) == 24
        assert all(
            r.payload == r.request_id.to_bytes(8, "little") * 128
            for r in writes
        )
        for request in requests:
            assert request.file_id in files
            assert request.offset % io_size == 0
            assert request.offset + io_size <= file_bytes

    def test_write_every_zero_is_read_only(self):
        factory = striped_rw_factory([1, 2], 8192, 1024, 0)
        rng = SeededRng(2)
        assert all(
            factory(rid, rng).op is OpCode.READ for rid in range(1, 50)
        )

    def test_ack_buckets_window_and_filter(self):
        acks = [(0.9e-3, 1), (1.0e-3, 1), (1.4e-3, 2), (1.6e-3, 1),
                (2.4e-3, 1), (2.5e-3, 1), (1.2e-3, 9)]
        # File 9 is not watched; 0.9 ms and 2.5 ms fall outside.
        assert ack_buckets(acks, {1, 2}, 1e-3, 2.5e-3) == [2, 1, 1]
        # A span shorter than one window still gets one bucket.
        assert ack_buckets(acks, {1}, 1e-3, 1.2e-3) == [1]
        # [10, 15) ms is ten slices although 5e-3 / 5e-4 is 9.999...:
        # a silent last half-millisecond must show as a zero bucket.
        quiet_tail = [(10e-3 + (i + 0.5) * 5e-4, 1) for i in range(9)]
        assert ack_buckets(quiet_tail, {1}, 10e-3, 15e-3) == [1] * 9 + [0]

    def test_drain_until_is_bounded_and_stops_early(self):
        env = Environment()
        drain_until(env, lambda: env.now >= 3e-3, 10)
        assert env.now == pytest.approx(3e-3)
        drain_until(env, lambda: False, 2)
        assert env.now == pytest.approx(5e-3)


class TestEchoBench:
    def test_all_responders_measurable(self):
        for responder in (
            "host-os", "dpu-raw", "dpu-linux", "dpu-tldk", "host-tldk"
        ):
            result = EchoBench(Environment()).measure(responder, 256)
            assert result.rtt > 0
            assert result.server_latency > 0
            assert result.rtt > result.server_latency

    def test_unknown_responder_rejected(self):
        with pytest.raises(ValueError):
            EchoBench(Environment()).measure("carrier-pigeon", 64)

    def test_latency_grows_with_size(self):
        bench = EchoBench(Environment())
        series = bench.series("host-os", [64, 4096, 65536])
        rtts = [r.rtt for r in series]
        assert rtts == sorted(rtts)

    def test_figure4_shape(self):
        host = EchoBench(Environment()).measure("host-os", 64)
        dpu = EchoBench(Environment()).measure("dpu-raw", 64)
        assert dpu.rtt < host.rtt

    def test_figure19_shape(self):
        host = EchoBench(Environment()).measure("host-os", 64)
        linux = EchoBench(Environment()).measure("dpu-linux", 64)
        tldk = EchoBench(Environment()).measure("dpu-tldk", 64)
        assert tldk.server_latency < host.server_latency < (
            linux.server_latency
        )


class TestRmwBench:
    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError):
            run_rmw_scaling("gpu", 4)

    def test_host_faster_than_dpu(self):
        host = run_rmw_scaling("host", 4, ops_per_thread=400)
        dpu = run_rmw_scaling("dpu", 4, ops_per_thread=400)
        assert host.throughput > 2 * dpu.throughput

    def test_dpu_caps_at_eight_threads(self):
        eight = run_rmw_scaling("dpu", 8, ops_per_thread=400)
        sixteen = run_rmw_scaling("dpu", 16, ops_per_thread=400)
        assert sixteen.throughput < 1.15 * eight.throughput
