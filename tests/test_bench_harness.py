"""Tests for the experiment harness, echo bench, RMW bench, and the
figure writer's claim rows."""

import glob
import importlib.util
import os
import sys

import pytest

from repro.bench import (
    EchoBench,
    build_cluster,
    find_peak,
    run_io_experiment,
    run_rmw_scaling,
)
from repro.bench.figures import _benchmarks_dir
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


@pytest.fixture
def tables(monkeypatch, tmp_path):
    """``benchmarks/_tables.py``, persisting under ``tmp_path``."""
    path = os.path.join(_benchmarks_dir(), "_tables.py")
    spec = importlib.util.spec_from_file_location("_tables", path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "_tables", module)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "RESULTS_DIR", str(tmp_path))
    return module


def _written(tables, figure):
    with open(os.path.join(tables.RESULTS_DIR, f"{figure}.txt")) as handle:
        return handle.read()


class TestClaimRows:
    """Each figure's claim rows are judged and written by the one writer,
    ``emit``, under the figure's table."""

    def _claims(self, tables):
        return (
            tables.Claim("figx", "doubled", "2x", lambda r: 2.0 * r,
                         tables.above(1.5)),
            tables.Claim("figx", "series", "rises",
                         lambda r: [r, 2500.0, 3e-6], tables.INCREASING),
            tables.Claim("figy", "another figure's row", "-", len,
                         tables.equals(0)),
        )

    def test_the_section_format(self, tables):
        tables.emit("figx", "a title", ("load",), [("1",)],
                    self._claims(tables)[:1], 1.0)
        assert _written(tables, "figx") == (
            "=== figx: a title ===\n"
            "load        \n"
            "1           \n"
            "\n"
            "--- claims: 1 of 1 hold ---\n"
            "claim   | paper | measured | bound | verdict\n"
            "doubled | 2x    | 2        | > 1.5 | ok\n"
        )

    def test_a_failing_row_fails_the_writer_after_the_rows_are_written(
        self, tables
    ):
        with pytest.raises(AssertionError) as failure:
            tables.emit("figx", "a title", ("load",), [("1",)],
                        self._claims(tables), 1.0)
        written = _written(tables, "figx")
        assert "--- claims: 1 of 2 hold ---" in written
        assert "| [1, 2.5K, 3u] | increasing | FAIL" in written
        assert "another figure's row" not in written
        message = str(failure.value)
        assert message.startswith("figx: 1 claim(s) failed")
        assert "series: measured [1, 2.5K, 3u], bound increasing" in message
        assert "doubled" not in message

    def test_a_metric_that_raises_is_a_failing_row(self, tables):
        broken = tables.Claim("figx", "missing key", "-", lambda r: r["key"],
                              tables.above(0))
        with pytest.raises(AssertionError, match="missing key: measured "
                           "KeyError: 'key'"):
            tables.emit("figx", "a title", ("load",), [], (broken,), {})
        assert "KeyError: 'key' | > 0   | FAIL" in _written(tables, "figx")

    def test_a_table_without_claims_has_no_section(self, tables):
        table = tables.emit("figz", "a title", ("load",), [("1",)])
        assert _written(tables, "figz") == table + "\n"
        assert "claims" not in table

    def test_every_declared_row_is_committed_and_holds(self, monkeypatch):
        """A row whose ``figure`` names no emitted table is never judged;
        each bench's rows must stand, passing, in its results file."""
        bench_dir = _benchmarks_dir()
        monkeypatch.syspath_prepend(bench_dir)
        rows = 0
        for path in sorted(glob.glob(os.path.join(bench_dir, "test_*.py"))):
            name = os.path.basename(path)[:-3]
            for claim in getattr(importlib.import_module(name), "CLAIMS", ()):
                with open(os.path.join(bench_dir, "results",
                                       claim.figure + ".txt")) as handle:
                    lines = handle.read().splitlines()
                row = [line for line in lines
                       if line.split(" | ")[0].rstrip() == claim.claim]
                assert len(row) == 1 and row[0].endswith("| ok"), (
                    name, claim.claim)
                rows += 1
        assert rows > 100

