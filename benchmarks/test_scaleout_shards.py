"""Multi-DPU scale-out sweep: directed throughput vs. shard count.

The capability the topology layer exists to prove: one host, N DPUs,
the file namespace consistent-hash sharded across them, each traffic
director steering foreign-shard requests to the owning DPU.  Directed
read throughput must grow monotonically 1 → 2 → 4 shards, and each
shard's director core must stay within Figure 21's per-Arm-core budget
(one core directs ~6.4 Gbps ≈ 800K MTU-packet operations/s; our 1 KiB
reads are one packet each way).
"""

from dataclasses import replace

import pytest

from repro.bench.harness import IO_SIZE, SCALEOUT, build_cluster, run
from repro.core.messages import IoRequest, OpCode
from repro.net.packet import FiveTuple

TOTAL_REQUESTS = 12_000


def run_sharded(shard_count, total_requests=TOTAL_REQUESTS):
    done = run(replace(
        SCALEOUT, shards=shard_count, total_requests=total_requests
    ))
    return done.server, done.result


@pytest.fixture(scope="module")
def sweep():
    return {n: run_sharded(n) for n in (1, 2, 4)}


class TestScaleoutThroughput:
    def test_directed_throughput_monotonic_1_2_4(self, sweep):
        achieved = {n: r.achieved_iops for n, (_, r) in sweep.items()}
        assert achieved[2] > achieved[1] * 1.3
        assert achieved[4] > achieved[2] * 1.3

    def test_single_shard_matches_arm_core_budget(self, sweep):
        # Figure 21: one Arm core directs ~6.4 Gbps; at MTU-ish packets
        # that bounds directed operations below ~1M/s, and the SSD caps
        # a single shard near 800K IOPS — so one shard must land under
        # 1M IOPS but still in the hundreds of thousands.
        _, result = sweep[1]
        assert 300e3 < result.achieved_iops < 1e6


class TestScaleoutBehaviour:
    def test_every_shard_serves_and_relays(self, sweep):
        server, _ = sweep[4]
        for shard in server.shards:
            assert shard.director.requests_offloaded > 0
        assert sum(s.director.requests_relayed for s in server.shards) > 0
        assert sum(s.director.relayed_messages for s in server.shards) > 0

    def test_relay_load_is_spread(self, sweep):
        # Consistent hashing + ingress RSS: no shard should own a
        # wildly outsized share of the executed requests.
        server, result = sweep[4]
        executed = [
            s.director.requests_offloaded + s.director.requests_to_host
            for s in server.shards
        ]
        assert sum(executed) == TOTAL_REQUESTS
        assert max(executed) < TOTAL_REQUESTS * 0.6

    def test_director_cores_within_budget(self, sweep):
        for n, (server, result) in sweep.items():
            for shard in server.shards:
                for core in shard.cores:
                    assert core.cores_consumed(result.elapsed) <= 1.0 + 1e-9

    def test_host_fallback_preserved_per_shard(self):
        server, result = run_sharded_writes()
        assert all(result.values())
        shards_hit = [
            s.index for s in server.shards if s.director.requests_to_host > 0
        ]
        assert len(shards_hit) >= 2  # writes landed on several shards


def run_sharded_writes():
    cluster = build_cluster(shards=4, files=32, file_bytes=4 << 20)
    env, server = cluster.env, cluster.server
    ok = {}
    for index, file_id in enumerate(cluster.file_ids):
        flow = FiveTuple("10.0.0.2", 40_000 + index, "10.0.0.1", 5000)
        write = IoRequest(
            OpCode.WRITE, index, file_id, 0, IO_SIZE, bytes(IO_SIZE)
        )
        responses = []
        done = server.submit(flow, [write], responses.append)
        env.run(until=done)
        ok[index] = responses[0].ok
    return server, ok
