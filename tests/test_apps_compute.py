"""Tests for the log server and compute-server buffer pool (§9.1)."""

import pytest

from repro.apps import (
    PAGE_BYTES,
    ComputeServer,
    LogServer,
    build_pageserver_cluster,
    parse_page_header,
)
from repro.hardware import NetworkLink
from repro.sim import Environment


class TestLogServer:
    def test_records_are_ordered_by_lsn(self):
        env = Environment()
        log = LogServer(env, NetworkLink(env), pages=64, record_rate=50_000)
        pulled = []

        def puller():
            while len(pulled) < 100:
                batch = yield env.process(log.pull_batch(16))
                pulled.extend(batch)

        proc = env.process(puller())
        env.run(until=proc)
        lsns = [r.lsn for r in pulled]
        assert lsns == sorted(lsns)
        assert lsns[0] == 1 and len(set(lsns)) == len(lsns)

    def test_pull_blocks_until_a_record_exists(self):
        env = Environment()
        log = LogServer(env, NetworkLink(env), pages=8, record_rate=1000)

        def puller():
            batch = yield env.process(log.pull_batch())
            return env.now, batch

        proc = env.process(puller())
        env.run(until=proc)
        arrived_at, batch = proc.value
        assert arrived_at > 0 and len(batch) >= 1

    def test_batch_size_respected(self):
        env = Environment()
        log = LogServer(env, NetworkLink(env), pages=8, record_rate=1e6)
        env.run(until=1e-3)  # ~1000 records queue up

        def puller():
            return (yield env.process(log.pull_batch(8)))

        proc = env.process(puller())
        env.run(until=proc)
        assert len(proc.value) == 8

    def test_invalid_parameters(self):
        env = Environment()
        with pytest.raises(ValueError):
            LogServer(env, NetworkLink(env), pages=8, record_rate=-1)
        log = LogServer(env, NetworkLink(env), pages=8, record_rate=100)
        with pytest.raises(ValueError):
            list(log.pull_batch(0))


class TestComputeServer:
    def make(self, pool_pages=8, kind="dds"):
        cluster = build_pageserver_cluster(kind, pages=64, replay_rate=0)
        compute = ComputeServer(
            cluster.env,
            cluster.server,
            cluster.rbpex_file_id,
            pool_pages=pool_pages,
        )
        return cluster, compute

    def run(self, env, generator):
        proc = env.process(generator)
        env.run(until=proc)
        return proc.value

    def test_miss_fetches_real_page(self):
        cluster, compute = self.make()

        def main():
            return (yield from compute.access(5))

        page = self.run(cluster.env, main())
        assert parse_page_header(page) == (0, 5)
        assert compute.misses == 1 and compute.hits == 0

    def test_hit_avoids_the_network(self):
        cluster, compute = self.make()

        def main():
            yield from compute.access(5)
            served_before = cluster.server.requests_served
            start = cluster.env.now
            page = yield from compute.access(5)
            return page, cluster.env.now - start, served_before

        page, hit_time, served_before = self.run(cluster.env, main())
        assert compute.hits == 1
        assert hit_time == pytest.approx(ComputeServer.HIT_TIME)
        assert cluster.server.requests_served == served_before

    def test_lru_eviction(self):
        cluster, compute = self.make(pool_pages=2)

        def main():
            yield from compute.access(1)
            yield from compute.access(2)
            yield from compute.access(3)  # evicts 1
            yield from compute.access(1)  # miss again
            yield from compute.access(3)  # still cached

        self.run(cluster.env, main())
        assert compute.misses == 4 and compute.hits == 1

    def test_invalidate_forces_refetch(self):
        cluster, compute = self.make()

        def main():
            yield from compute.access(7)
            compute.invalidate(7)
            yield from compute.access(7)

        self.run(cluster.env, main())
        assert compute.misses == 2

    def test_hit_rate_statistic(self):
        cluster, compute = self.make(pool_pages=64)

        def main():
            for _ in range(3):
                for page_id in range(10):
                    yield from compute.access(page_id)

        self.run(cluster.env, main())
        assert compute.hit_rate == pytest.approx(20 / 30)

    def test_invalid_pool_size(self):
        cluster, _ = self.make()
        with pytest.raises(ValueError):
            ComputeServer(
                cluster.env, cluster.server, cluster.rbpex_file_id, 0
            )


class TestFullArchitecture:
    """Compute server + log server + page server, wired like §9.1."""

    def test_log_driven_replay_updates_pages(self):
        cluster = build_pageserver_cluster("dds", pages=32, replay_rate=0)
        env = cluster.env
        log = LogServer(
            env, NetworkLink(env), pages=32, record_rate=20_000
        )
        cluster.app.start_replay_from(log, max_batch=8)
        # The single replay thread applies records back-to-back; each
        # read-apply-write cycle costs a few hundred microseconds.
        env.run(until=0.02)
        assert cluster.app.records_replayed > 40
        assert cluster.app.current_lsn >= cluster.app.records_replayed
        # Replayed pages are persisted with their LSN headers.
        touched = [
            page_id
            for page_id, lsn in cluster.app.page_lsns.items()
            if lsn > 0
        ]
        assert touched

        def check(page_id):
            data = yield env.process(
                cluster.filesystem_read(page_id)
                if hasattr(cluster, "filesystem_read")
                else cluster.app.device.read(page_id * PAGE_BYTES, PAGE_BYTES)
            )
            return data

        page_id = touched[0]
        proc = env.process(check(page_id))
        env.run(until=proc)
        lsn, got_id = parse_page_header(proc.value)
        assert got_id == page_id
        assert lsn == cluster.app.page_lsns[page_id]

    def test_compute_reads_fresh_pages_after_replay(self):
        cluster = build_pageserver_cluster("dds", pages=32, replay_rate=0)
        env = cluster.env
        log = LogServer(env, NetworkLink(env), pages=32, record_rate=30_000)
        cluster.app.start_replay_from(log)
        compute = ComputeServer(
            env,
            cluster.server,
            cluster.rbpex_file_id,
            pool_pages=4,
            applied_lsn_of=lambda pid: cluster.app.page_lsns.get(pid, 0),
        )
        env.run(until=0.01)
        results = []

        def reader():
            for page_id in range(8):
                page = yield from compute.access(page_id)
                results.append((page_id, parse_page_header(page)))

        proc = env.process(reader())
        env.run(until=proc)
        for page_id, (lsn, got_id) in results:
            assert got_id == page_id
            # The served page is at least as fresh as what was demanded.
            assert lsn >= 0
        assert compute.failed_fetches == 0
