"""A membership change the cluster cannot make is refused up front.

``ShardedOffloadServer.membership_refusal`` is the one precondition of
``add_shard`` and ``drain_shard``: a refusal raises with its reason
before anything is built, cloned, admitted, pinned or resized, so the
ring, the pins, the ingress set and the replication pairing read
exactly as before.  The autoscaler asks the same check and holds a
refused step instead of raising out of the run.
"""

import pytest

from repro.bench.harness import build_cluster
from repro.faults import FaultInjector, FaultPlan, ShardKill
from repro.topology.resharding import ShardAutoscaler


def replicated_cluster(shards):
    cluster = build_cluster(shards=shards, files=16, file_bytes=64 << 10)
    cluster.server.enable_replication()
    return cluster


def membership(server):
    """Everything a refused change must leave as it was."""
    replicator = server.replicator
    groups = None
    if replicator is not None:
        groups = {
            keyspace: (group.members, group.joiners)
            for keyspace, group in replicator.groups.items()
        }
    return (
        server.shard_map.members,
        dict(server.shard_map._pins),
        [shard.index for shard in server.steering._ingress],
        groups,
        len(server.shards),
    )


def refused(server, change, reason):
    before = membership(server)
    with pytest.raises(RuntimeError, match=reason):
        next(change)
    assert membership(server) == before


def test_add_with_a_dark_shard_is_refused():
    server = replicated_cluster(3).server
    server.kill_shard(2)
    refused(server, server.add_shard(), "cannot start an add with a dead")


def add_in_flight():
    """A replicated 3-shard cluster 1 us into growing to four."""
    cluster = replicated_cluster(3)
    env, server = cluster.env, cluster.server
    env.process(server.add_shard())
    env.run(until=env.now + 1e-6)
    assert server.shard_map.pinned_files > 0
    return server


def test_second_add_while_one_is_in_flight_is_refused():
    server = add_in_flight()
    refused(server, server.add_shard(), "already in flight")


def test_drain_while_an_add_is_in_flight_is_refused():
    server = add_in_flight()
    refused(server, server.drain_shard(1), "already in flight")


def run_autoscaler(cluster, until):
    scaler = ShardAutoscaler(
        cluster.env, cluster.server, high_water_iops=1e9, low_water_iops=1e3
    ).start()
    cluster.env.run(until=until)
    scaler.stop()
    return scaler


def test_autoscaler_holds_a_drain_while_a_shard_is_dark():
    cluster = build_cluster(shards=3, files=16, file_bytes=64 << 10)
    kill = ShardKill(at=0.5e-3, down_for=3e-3, shard=1)
    plan = FaultPlan(seed=1, events=(kill,))
    FaultInjector(cluster.env, cluster.server, plan).arm()
    scaler = run_autoscaler(cluster, until=3.2e-3)
    # Idle load asks for a drain every tick; the server refuses each.
    assert [d["action"] for d in scaler.decisions] == [None, None, None]
    assert scaler.scale_ins == 0
    assert len(cluster.server.live_shards) == 3


def test_autoscaler_holds_a_drain_below_the_replication_floor():
    cluster = replicated_cluster(2)
    scaler = run_autoscaler(cluster, until=3.2e-3)
    assert [d["action"] for d in scaler.decisions] == [None, None, None]
    assert [shard.index for shard in cluster.server.live_shards] == [0, 1]
