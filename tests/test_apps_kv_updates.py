"""KV update path: upserts over the network and cache-table consistency.

The §9.2 integration's subtle hazard: a GET offloaded via a cached
``{key -> disk location}`` entry must never return a stale value after
the host upserts that key (the fresh version lives on the in-memory
tail, invisible to the DPU).  The integration drops the cache entry on
upsert; cache-on-write re-caches the key at its *new* disk location
when the tail flushes.
"""

from repro.apps import build_kv_cluster
from repro.apps.faster import RECORD
from repro.core import IoRequest, OpCode
from repro.net import FiveTuple

FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


def roundtrip(cluster, request):
    responses = []
    done = cluster.server.submit(FLOW, [request], responses.append)
    cluster.env.run(until=done)
    return responses[0]


def get(cluster, request_id, key):
    return roundtrip(
        cluster,
        IoRequest(
            OpCode.READ, request_id, cluster.kv_file_id, 0, RECORD.size,
            tag=key,
        ),
    )


def put(cluster, request_id, key, value):
    return roundtrip(
        cluster,
        IoRequest(
            OpCode.WRITE,
            request_id,
            cluster.kv_file_id,
            0,
            8,
            value.to_bytes(8, "little"),
            tag=key,
        ),
    )


class TestUpserts:
    def test_upsert_then_get_returns_new_value(self):
        for kind in ("baseline", "dds"):
            cluster = build_kv_cluster(kind, records=50_000)
            assert put(cluster, 1, 123, 999_999).ok
            response = get(cluster, 2, 123)
            assert response.ok
            assert RECORD.unpack(response.data) == (123, 999_999), kind

    def test_offloaded_get_never_stale_after_upsert(self):
        """The consistency hazard: key 5 is flushed (cached on the DPU);
        upserting it must divert subsequent GETs to the host."""
        cluster = build_kv_cluster("dds", records=50_000)
        key = 5  # oldest record: on disk and in the cache table
        assert key in cluster.server.shards[0].cache_table
        before = get(cluster, 1, key)
        assert RECORD.unpack(before.data) == (key, key)
        assert cluster.server.shards[0].director.requests_offloaded == 1

        assert put(cluster, 2, key, 42_000).ok
        # The stale disk-location entry is gone...
        assert key not in cluster.server.shards[0].cache_table
        after = get(cluster, 3, key)
        # ...so the GET went to the host and saw the new tail version.
        assert RECORD.unpack(after.data) == (key, 42_000)
        assert cluster.server.shards[0].director.requests_offloaded == 1  # unchanged

    def test_flush_recaches_updated_key_at_new_location(self):
        """After enough churn to flush the tail, the updated key becomes
        offloadable again — at its new disk offset, with the new value."""
        cluster = build_kv_cluster(
            "dds", records=50_000, memory_budget=64 << 10
        )
        key = 5
        assert put(cluster, 1, key, 777).ok
        assert key not in cluster.server.shards[0].cache_table
        # Churn other keys until the tail page holding key 5 flushes
        # through the DDS library (firing cache-on-write on the DPU).
        request_id = 10
        churn_key = 1_000_000
        while key not in cluster.server.shards[0].cache_table:
            assert put(cluster, request_id, churn_key, 1).ok
            request_id += 1
            churn_key += 1
            assert churn_key < 1_020_000, "tail never flushed"
        offloaded_before = cluster.server.shards[0].director.requests_offloaded
        response = get(cluster, request_id, key)
        assert RECORD.unpack(response.data) == (key, 777)
        assert (
            cluster.server.shards[0].director.requests_offloaded
            == offloaded_before + 1
        )

    def test_new_key_insert_and_get(self):
        cluster = build_kv_cluster("dds", records=50_000)
        fresh_key = 123_456_789
        assert get(cluster, 1, fresh_key).ok is False
        assert put(cluster, 2, fresh_key, 1).ok
        response = get(cluster, 3, fresh_key)
        assert RECORD.unpack(response.data) == (fresh_key, 1)

    def test_writes_always_go_to_host(self):
        cluster = build_kv_cluster("dds", records=50_000)
        for i in range(5):
            put(cluster, i + 1, 9000 + i, i)
        director = cluster.server.shards[0].director
        assert director.requests_offloaded == 0
        assert director.requests_to_host == 5
