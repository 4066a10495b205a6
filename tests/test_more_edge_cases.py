"""Edge cases across the client, harness variants, and figure CLI map."""

import os

import pytest

from repro.bench import build_cluster, run_io_experiment
from repro.bench.figures import FIGURES, _benchmarks_dir
from repro.core import ClientConfig, IoRequest, OpCode, WorkloadClient
from repro.core.offload_engine import OffloadEngine
from repro.net import FiveTuple

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


class TestClientEdgeCases:
    @pytest.mark.parametrize("settings", [
        {"offered_iops": 0.0},
        {"total_requests": 0},
        {"io_size": 0},
        {"batch": 0},
        {"connections": 0},
        {"max_outstanding": 0},
        {"read_fraction": -0.1},
        {"read_fraction": 2.0},
        {"file_size": 0},
        {"file_size": -1},
        {"file_size": 1023},  # one byte short of the 1 KiB default io_size
    ])
    def test_config_rejects_bad_settings_at_build(self, settings):
        """Each of these used to deadlock, divide by zero mid-run,
        (read_fraction) silently run all reads, or (file_size) issue
        requests past the end of the file."""
        with pytest.raises(ValueError):
            ClientConfig(**settings)

    def test_config_accepts_read_fraction_bounds(self):
        for fraction in (0.0, 1.0):
            assert ClientConfig(read_fraction=fraction).read_fraction == fraction

    def test_batch_larger_than_total_is_clamped(self):
        cluster = build_cluster("local-dds", db_bytes=8 << 20)
        config = ClientConfig(
            offered_iops=50e3, total_requests=3, batch=16,
            file_size=8 << 20,
        )
        client = WorkloadClient(
            cluster.env, cluster.server, cluster.file_id, config
        )
        result = client.run()
        assert len(result.latencies) == 3

    def test_single_request_run(self):
        cluster = build_cluster("local-os", db_bytes=8 << 20)
        config = ClientConfig(
            offered_iops=10e3, total_requests=1, batch=1,
            file_size=8 << 20,
        )
        client = WorkloadClient(
            cluster.env, cluster.server, cluster.file_id, config
        )
        result = client.run()
        assert len(result.latencies) == 1
        assert result.p50 == result.p99 == result.latencies[0]

    def test_mixed_read_write_fraction(self):
        result = run_io_experiment(
            "dds-files",
            100e3,
            total_requests=2000,
            read_fraction=0.5,
            db_bytes=16 << 20,
            seed=3,
        )
        assert len(result.latencies) == 2000

    def test_offsets_stay_inside_the_file(self):
        cluster = build_cluster("local-os", db_bytes=4 << 20)
        config = ClientConfig(
            offered_iops=50e3, total_requests=500,
            file_size=4 << 20, io_size=8192,
        )
        client = WorkloadClient(
            cluster.env, cluster.server, cluster.file_id, config
        )
        result = client.run()  # any out-of-range read would error
        assert len(result.latencies) == 500

    def test_connections_spread_flows(self):
        cluster = build_cluster("dds-offload", db_bytes=8 << 20)
        config = ClientConfig(
            offered_iops=100e3, total_requests=600, connections=8,
            file_size=8 << 20,
        )
        client = WorkloadClient(
            cluster.env, cluster.server, cluster.file_id, config
        )
        assert len(client._flows) == 8
        client.run()


class TestHarnessVariants:
    def test_copy_mode_variants_build(self):
        for kind in ("dds-files-copy", "dds-offload-copy"):
            cluster = build_cluster(kind, db_bytes=4 << 20)
            responses = []
            done = cluster.server.submit(
                FLOW,
                [IoRequest(OpCode.READ, 1, cluster.file_id, 0, 1024)],
                responses.append,
            )
            cluster.env.run(until=done)
            assert responses[0].ok

    def test_copy_variant_is_slower_at_load(self):
        fast = run_io_experiment(
            "dds-offload", 400e3, total_requests=2500, db_bytes=16 << 20
        )
        slow = run_io_experiment(
            "dds-offload-copy", 400e3, total_requests=2500,
            db_bytes=16 << 20,
        )
        assert slow.p50 > fast.p50


class TestOffloadEngineEdges:
    def test_zero_size_read_offloadable(self):
        cluster = build_cluster("dds-offload", db_bytes=4 << 20)
        responses = []
        done = cluster.server.submit(
            FLOW,
            [IoRequest(OpCode.READ, 1, cluster.file_id, 0, 0)],
            responses.append,
        )
        cluster.env.run(until=done)
        assert responses[0].ok

    def test_invalid_context_slots_rejected(self):
        cluster = build_cluster("dds-offload", db_bytes=4 << 20)
        with pytest.raises(ValueError):
            OffloadEngine(
                cluster.env,
                cluster.server.shards[0].cores[0],
                cluster.server.shards[0].backend.file_service,
                cluster.server.callbacks,
                cluster.server.shards[0].cache_table,
                context_slots=0,
            )


class TestFiguresCli:
    def test_every_mapped_module_exists(self):
        bench_dir = _benchmarks_dir()
        for name, (module, drivers) in FIGURES.items():
            path = os.path.join(bench_dir, module + ".py")
            assert os.path.isfile(path), name
            source = open(path).read()
            for driver in drivers:
                assert f"def {driver}(" in source, (name, driver)

    def test_unknown_figure_rejected(self):
        from repro.bench.figures import regenerate

        with pytest.raises(SystemExit):
            regenerate(["fig99"])
