"""Integration tests for the §9 production-system deployments."""

from repro.apps import (
    PAGE_BYTES,
    build_kv_cluster,
    build_pageserver_cluster,
    kv_offload_callbacks,
    make_page,
    pageserver_callbacks,
    parse_page_header,
    run_kv_experiment,
    run_pageserver_experiment,
)
from repro.apps import kv_service, pageserver
from repro.apps.faster import RECORD
from repro.core import IoRequest, OpCode, ReadOp, WriteOp
from repro.net import FiveTuple
from repro.structures import CuckooCacheTable

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


class TestKvCallbacks:
    def test_cache_on_write_parses_records(self):
        callbacks = kv_offload_callbacks(kv_file_id=3)
        page = RECORD.pack(10, 100) + RECORD.pack(11, 110)
        items = callbacks.cache(WriteOp(3, 4096, len(page), context=page))
        assert items == [
            (10, (3, 4096, RECORD.size)),
            (11, (3, 4096 + RECORD.size, RECORD.size)),
        ]

    def test_off_pred_splits_by_cache_presence(self):
        callbacks = kv_offload_callbacks(3)
        table = CuckooCacheTable(16)
        table.insert(10, (3, 0, RECORD.size))
        cached = IoRequest(OpCode.READ, 1, 3, 0, RECORD.size, tag=10)
        uncached = IoRequest(OpCode.READ, 2, 3, 0, RECORD.size, tag=99)
        host, dpu = callbacks.off_pred([cached, uncached], table)
        assert [r.tag for r in dpu] == [10]
        assert [r.tag for r in host] == [99]

    def test_off_func_builds_read_from_entry(self):
        callbacks = kv_offload_callbacks(3)
        table = CuckooCacheTable(16)
        table.insert(10, (3, 1234, RECORD.size))
        request = IoRequest(OpCode.READ, 1, 3, 0, RECORD.size, tag=10)
        assert callbacks.off_func(request, table) == ReadOp(
            3, 1234, RECORD.size
        )
        missing = IoRequest(OpCode.READ, 2, 3, 0, RECORD.size, tag=404)
        assert callbacks.off_func(missing, table) is None


class TestKvService:
    def test_dds_serves_correct_values_from_dpu(self):
        cluster = build_kv_cluster("dds", records=50_000)
        # Pick a key that is certainly on disk (flushed = oldest keys).
        key = 5
        request = IoRequest(
            OpCode.READ, 1, cluster.kv_file_id, 0, RECORD.size, tag=key
        )
        responses = []
        done = cluster.server.submit(FLOW, [request], responses.append)
        cluster.env.run(until=done)
        assert responses[0].ok
        got_key, got_value = RECORD.unpack(responses[0].data)
        assert got_key == key
        assert got_value == key  # load value == key (little-endian)
        assert cluster.server.shards[0].director.requests_offloaded == 1

    def test_in_memory_key_served_by_host(self):
        cluster = build_kv_cluster("dds", records=50_000)
        key = 49_999  # newest record: still in the memory tail
        request = IoRequest(
            OpCode.READ, 1, cluster.kv_file_id, 0, RECORD.size, tag=key
        )
        responses = []
        done = cluster.server.submit(FLOW, [request], responses.append)
        cluster.env.run(until=done)
        assert responses[0].ok
        assert cluster.server.shards[0].director.requests_to_host == 1
        got_key, got_value = RECORD.unpack(responses[0].data)
        assert (got_key, got_value) == (key, key)

    def test_baseline_serves_same_values(self):
        cluster = build_kv_cluster("baseline", records=50_000)
        for key in (5, 49_999):
            request = IoRequest(
                OpCode.READ,
                key,
                cluster.kv_file_id,
                0,
                RECORD.size,
                tag=key,
            )
            responses = []
            done = cluster.server.submit(FLOW, [request], responses.append)
            cluster.env.run(until=done)
            assert RECORD.unpack(responses[0].data) == (key, key)

    def test_experiment_shapes_match_paper(self, monkeypatch):
        """Figure 25/26: DDS >> baseline throughput at ~zero host CPU."""
        monkeypatch.setattr(kv_service, "RECORDS", 100_000)
        monkeypatch.setattr(kv_service, "MEMORY_BUDGET", 64 << 10)
        baseline = run_kv_experiment(
            "baseline", 400e3, total_requests=3000, batch=1
        )
        dds = run_kv_experiment("dds", 800e3, total_requests=3000)
        assert dds.achieved > 1.8 * baseline.achieved
        assert dds.host_cores < 1.0 < baseline.host_cores
        assert dds.p50 < baseline.p50
        assert dds.offloaded_fraction > 0.9


class TestPageServerCallbacks:
    def test_page_header_roundtrip(self):
        page = make_page(page_id=7, lsn=123)
        assert len(page) == PAGE_BYTES
        assert parse_page_header(page) == (123, 7)

    def test_cache_on_write_keys_by_page_id(self):
        callbacks = pageserver_callbacks(1)
        page = make_page(9, lsn=55)
        items = callbacks.cache(
            WriteOp(1, 9 * PAGE_BYTES, PAGE_BYTES, context=page)
        )
        assert items == [(("page", 9), (55, 9 * PAGE_BYTES))]

    def test_invalidate_covers_read_range(self):
        callbacks = pageserver_callbacks(1)
        keys = callbacks.invalidate(
            ReadOp(1, 2 * PAGE_BYTES, 2 * PAGE_BYTES)
        )
        assert keys == [("page", 2), ("page", 3)]

    def test_off_pred_respects_lsn_freshness(self):
        """§9.1: offload iff cached LSN >= requested LSN."""
        callbacks = pageserver_callbacks(1)
        table = CuckooCacheTable(16)
        table.insert(("page", 4), (100, 4 * PAGE_BYTES))
        fresh = IoRequest(
            OpCode.READ, 1, 1, 4 * PAGE_BYTES, PAGE_BYTES, tag=90
        )
        stale = IoRequest(
            OpCode.READ, 2, 1, 4 * PAGE_BYTES, PAGE_BYTES, tag=150
        )
        host, dpu = callbacks.off_pred([fresh, stale], table)
        assert [r.request_id for r in dpu] == [1]
        assert [r.request_id for r in host] == [2]


class TestPageServer:
    def test_offloaded_page_read_returns_page_image(self):
        cluster = build_pageserver_cluster("dds", pages=256, replay_rate=0)
        request = IoRequest(
            OpCode.READ, 1, cluster.rbpex_file_id,
            17 * PAGE_BYTES, PAGE_BYTES, tag=0,
        )
        responses = []
        done = cluster.server.submit(FLOW, [request], responses.append)
        cluster.env.run(until=done)
        assert responses[0].ok
        lsn, page_id = parse_page_header(responses[0].data)
        assert (lsn, page_id) == (0, 17)
        assert cluster.server.shards[0].director.requests_offloaded == 1

    def test_future_lsn_waits_for_replay(self):
        cluster = build_pageserver_cluster(
            "baseline", pages=256, replay_rate=50_000
        )
        request = IoRequest(
            OpCode.READ, 1, cluster.rbpex_file_id, 0, PAGE_BYTES, tag=3
        )
        responses = []
        done = cluster.server.submit(FLOW, [request], responses.append)
        cluster.env.run(until=done)
        assert responses[0].ok
        lsn, page_id = parse_page_header(responses[0].data)
        assert page_id == 0 and lsn >= 3

    def test_replay_keeps_cache_table_fresh(self):
        cluster = build_pageserver_cluster(
            "dds", pages=64, replay_rate=20_000
        )
        cluster.env.run(until=0.05)  # ~1000 replays over 64 pages
        app = cluster.app
        assert app.records_replayed > 100
        table = cluster.server.shards[0].cache_table
        fresh = 0
        for page_id, lsn in app.page_lsns.items():
            entry = table.lookup(("page", page_id))
            if entry is not None and entry[0] == lsn:
                fresh += 1
        # Nearly all pages should have up-to-date cache entries (pages
        # mid-replay may be transiently invalidated).
        assert fresh >= 58

    def test_experiment_shapes_match_paper(self, monkeypatch):
        """Figure 24: DDS serves more pages at lower latency, ~0 host."""
        monkeypatch.setattr(pageserver, "PAGES", 4096)
        baseline = run_pageserver_experiment(
            "baseline", 100e3, total_requests=2500
        )
        dds = run_pageserver_experiment("dds", 160e3, total_requests=2500)
        assert dds.achieved > 1.4 * baseline.achieved
        assert dds.p99 < baseline.p99
        assert dds.host_cores < 0.5 < baseline.host_cores
        assert dds.offloaded_fraction > 0.9
        # Figure 2's ordering: the DBMS network module dominates.
        breakdown = baseline.breakdown
        assert breakdown["dbms-network"] == max(breakdown.values())


def _submit(cluster, request):
    responses = []
    done = cluster.server.submit(FLOW, [request], responses.append)
    cluster.env.run(until=done)
    return responses[0]


class TestFailedDdsCompletion:
    """A failed DDS-library completion is an error on the host path, as
    a failed OS-file operation is — not a success carrying no data."""

    def test_failed_host_path_page_read_answers_an_error(self):
        cluster = build_pageserver_cluster("dds", pages=32, replay_rate=0)
        server = cluster.server
        server.shards[0].cache_table.delete(("page", 0))  # divert page 0 to the host
        server.filesystems[0].bdev.device.inject_errors(1)
        request = IoRequest(
            OpCode.READ, 1, cluster.rbpex_file_id, 0, PAGE_BYTES, tag=0
        )
        assert not _submit(cluster, request).ok
        assert server.shards[0].backend.file_service.request_errors == 1
        assert server.shards[0].director.requests_to_host == 1

    def test_failed_log_flush_refuses_the_upsert_and_keeps_the_page(self):
        # 38,900 records load to 192 B under the memory budget: the
        # thirteenth 16 B append overflows it and flushes a log page.
        cluster = build_kv_cluster("dds", records=38_900)
        kv = cluster.kv
        flushes, head, in_memory = (
            kv.flushes, kv.head_address, kv.bytes_in_memory
        )
        cluster.server.filesystems[0].bdev.device.inject_errors(1)
        acks = [
            _submit(
                cluster,
                IoRequest(
                    OpCode.WRITE, i, cluster.kv_file_id, 0, 8, bytes(8),
                    tag=1_000_000 + i,
                ),
            ).ok
            for i in range(1, 14)
        ]
        assert acks == [True] * 12 + [False]
        assert cluster.server.shards[0].backend.file_service.request_errors == 1
        # The only copy of the unflushed records is still in memory.
        assert (kv.flushes, kv.head_address) == (flushes, head)
        assert kv.bytes_in_memory == in_memory + 13 * RECORD.size
