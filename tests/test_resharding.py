"""Elastic resharding: live shard add/drain under sustained traffic.

The tentpole scenario for :mod:`repro.topology.resharding`: a two-shard
replicated deployment grows to three and shrinks back while a mixed
read/write workload keeps running.  Sources keep serving every file
until its atomic cutover (dirty segments re-copied, zero acked-write
loss), the replication pairing re-derives for each membership without
violating RI1–RI5, and the whole sequence is byte-deterministic under a
fixed seed.  Plus guard-rail coverage for drain floors, the dynamic
steering counters, the load-driven autoscaler, and the three lists the
opt-ins register with (wiring, lifecycle, write-commit chain).
"""

import pytest

from repro.bench.harness import (
    build_cluster,
    drain_until,
    drive_striped,
    run_elastic,
)
from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.topology.resharding import FileMove, ShardAutoscaler
from repro.topology.sharding import ShardedOffloadServer

from .conftest import run

FILES = 16
FILE_BYTES = 64 << 10
SLOTS = FILE_BYTES // 1024
# ~40 ms of traffic at the scenario's 150k offered IOPS spans add AND
# drain.
TOTAL_REQUESTS = 6000


def cluster_of(shards):
    return build_cluster(shards=shards, files=FILES, file_bytes=FILE_BYTES)


@pytest.fixture(scope="module")
def elastic():
    return run_elastic(seed=7, total_requests=TOTAL_REQUESTS)


class TestLiveReshardReplicated:
    def test_both_operations_completed(self, elastic):
        assert elastic.marks == {"added": 2, "drained": 2}
        kinds = [h["kind"] for h in elastic.server.resharder.history]
        assert kinds == ["add:2", "drain:2"]

    def test_every_request_settles(self, elastic):
        assert elastic.result.failed_requests == 0
        assert len(elastic.result.latencies) == TOTAL_REQUESTS

    def test_zero_acked_write_loss(self, elastic):
        elastic.report.assert_ok()
        # Later writes overwrite earlier slots: the audit verifies the
        # latest acked write per (file, offset).
        expected = min(TOTAL_REQUESTS // 4, FILES * SLOTS)
        assert elastic.report.verified_writes == expected

    def test_migrations_ran_under_traffic(self, elastic):
        """Moved files keep acking inside each migration window."""
        for record in elastic.server.resharder.history:
            moved_acks = [
                stamp
                for stamp, file_id in elastic.acks
                if record["start"] <= stamp < record["end"]
                and file_id in record["files"]
            ]
            assert moved_acks, record["kind"]

    def test_dirty_segments_were_recopied(self, elastic):
        """Writes landing on in-flight files force re-copies."""
        assert elastic.server.resharder.dirty_recopies > 0

    def test_runtime_invariants_hold(self, elastic):
        checker = elastic.checker
        assert checker.violations == []
        assert checker.appends_seen > 0
        assert checker.commits_seen == checker.appends_seen
        # add: new group + one adoption; drain: retired group + one
        # adoption — four pairing transitions, all witnessed.
        assert checker.resizes_seen == 4

    def test_pairing_rederives_exactly(self, elastic):
        """After 2→3→2 the groups match a fresh 2-shard deployment:
        (k, (k+1) % N) with every member fully caught up."""
        replicator = elastic.server.replicator
        assert sorted(replicator.groups) == [0, 1]
        assert replicator.groups[0].members == (0, 1)
        assert replicator.groups[1].members == (1, 0)
        for group in replicator.groups.values():
            for member in group.members:
                assert group.applied_watermark(member) == len(group.log)

    def test_cutovers_are_complete(self, elastic):
        resharder = elastic.server.resharder
        moved = sum(len(h["files"]) for h in resharder.history)
        assert resharder.files_moved == moved
        assert resharder.cutovers == moved
        assert resharder.bytes_copied >= moved * FILE_BYTES
        assert elastic.server.shard_map.pinned_files == 0
        assert not resharder.active

    def test_drain_restores_the_original_owners(self, elastic):
        server = elastic.server
        owners = {
            f: server.shard_map.owner(f) for f in elastic.file_ids
        }
        assert owners == elastic.owners_before

    def test_steering_tracks_the_dynamic_membership(self, elastic):
        steering = elastic.server._steering
        # Counters grew with the add and survive the drain; the
        # retired shard keeps its historical totals at index 2.
        assert len(steering.shard_loads) == 3
        assert steering.request_loads[2] > 0
        assert [s.index for s in steering._ingress] == [0, 1]

    def test_same_seed_reproduces_the_reshard(self, elastic):
        again = run_elastic(seed=7, total_requests=TOTAL_REQUESTS)
        assert elastic.acks == again.acks
        first = [
            (h["kind"], h["start"], h["end"], h["files"], h["bytes"])
            for h in elastic.server.resharder.history
        ]
        second = [
            (h["kind"], h["start"], h["end"], h["files"], h["bytes"])
            for h in again.server.resharder.history
        ]
        assert first == second


class TestLiveReshardPlain:
    """The non-replicated path: stragglers forward payloads instead of
    failing below quorum."""

    @pytest.fixture(scope="class")
    def plain(self):
        return run_elastic(
            seed=11, total_requests=TOTAL_REQUESTS, replicated=False
        )

    def test_every_request_settles(self, plain):
        assert plain.result.failed_requests == 0
        assert len(plain.result.latencies) == TOTAL_REQUESTS

    def test_zero_acked_write_loss(self, plain):
        plain.report.assert_ok()

    def test_both_operations_completed(self, plain):
        assert plain.marks == {"added": 2, "drained": 2}
        assert plain.server.shard_map.pinned_files == 0
        owners = {
            f: plain.server.shard_map.owner(f)
            for f in plain.file_ids
        }
        assert owners == plain.owners_before


class TestDrainGuards:
    def test_drain_refuses_below_the_floor(self):
        server = cluster_of(1).server
        with pytest.raises(RuntimeError, match="cannot drain below"):
            next(server.drain_shard(0))

    def test_replicated_floor_is_three(self):
        server = cluster_of(2).server
        server.enable_resilience()
        server.enable_replication()
        with pytest.raises(RuntimeError, match="cannot drain below"):
            next(server.drain_shard(1))

    def test_drain_refuses_a_dead_shard(self):
        server = cluster_of(3).server
        server.shards[1].alive = False
        with pytest.raises(RuntimeError, match="dead shard 1"):
            next(server.drain_shard(1))

    def test_drain_refuses_while_a_peer_is_dark(self):
        server = cluster_of(3).server
        server.shards[0].alive = False
        with pytest.raises(RuntimeError, match="with a dead shard"):
            next(server.drain_shard(2))

    def test_one_migration_at_a_time(self):
        server = cluster_of(3).server
        resharder = server.enable_resharding()
        resharder.active = True
        with pytest.raises(RuntimeError, match="already in flight"):
            next(resharder.migrate([], kind="test"))


def write(request_id, file_id):
    payload = bytes([request_id]) * 1024
    return IoRequest(OpCode.WRITE, request_id, file_id, 0, 1024, payload)


class TestOptInsRegister:
    """An opt-in registers once; no lifecycle method asks after it."""

    @pytest.mark.parametrize("enable_first", [True, False])
    def test_every_live_shard_is_wired_whatever_the_order(
        self, enable_first, monkeypatch
    ):
        monkeypatch.setattr(ShardedOffloadServer, "BREAKER_THRESHOLD", 7)
        monkeypatch.setattr(ShardedOffloadServer, "BREAKER_RECOVERY", 123e-6)
        monkeypatch.setattr(ShardedOffloadServer, "BREAKER_SATURATION", 9)
        cluster = cluster_of(2)
        server = cluster.server

        def enable():
            server.enable_resilience()
            server.enable_pushdown()
            server.enable_replication()

        if enable_first:
            enable()
        assert run(cluster.env, server.add_shard()) == 2
        if not enable_first:
            enable()
        for shard in server.live_shards:
            director, breaker = shard.director, shard.director.breaker
            assert director.dedup is server.dedup
            assert (
                breaker.failure_threshold,
                breaker.recovery_time,
                breaker.saturation_threshold,
            ) == (7, 123e-6, 9)
            # PR 12's regression: add_shard after enable_pushdown left
            # the new shard without a stage (KeyError on its scans).
            stage = server.pushdown_stages[shard.index]
            assert stage.filesystem is server.filesystems[shard.index]
            assert director.owner_of == server.replicator.leader_for

    def test_quorum_precedes_migration_bookkeeping_whatever_the_order(self):
        """``enable_resharding()`` *then* ``enable_replication()``: a
        straggler the quorum refuses never reaches the dirty marks."""
        cluster = cluster_of(2)
        env, server, file_id = cluster.env, cluster.server, cluster.file_ids[0]
        resharder = server.enable_resharding()
        server.enable_replication()
        leader = server.shard_map.owner(file_id)
        resharder._migrating[file_id] = FileMove(file_id, leader, 1 - leader)
        resharder._dirty[file_id] = set()

        def applied(request):
            yield from ()
            return IoResponse(request.request_id, ok=True)

        def serve(shard_index, request_id):
            request = write(request_id, file_id)
            return run(env, server._serve_one(shard_index, applied, request))

        assert not serve(1 - leader, 1).ok
        assert resharder._dirty[file_id] == set()
        assert serve(leader, 2).ok
        assert resharder._dirty[file_id] == {0}

    def test_replication_enables_once(self):
        server = cluster_of(2).server
        server.enable_replication()
        with pytest.raises(RuntimeError, match="already enabled"):
            server.enable_replication()

    def test_straggler_to_a_dark_owner_fails_the_ack(self):
        """A post-flip straggler is forwarded before its ack; when the
        new owner is dark the forward cannot land, so the ack fails
        (the retry finds the owner) instead of vouching for bytes the
        owning shard does not hold."""
        cluster = cluster_of(2)
        env, server, file_id = cluster.env, cluster.server, cluster.file_ids[0]
        resharder = server.enable_resharding()
        owner = server.shard_map.owner(file_id)
        resharder._moved[file_id] = owner  # as after its cutover
        request = write(1, file_id)
        assert run(env, resharder.on_write_applied(1 - owner, request))
        landed = server.filesystems[owner].read_sync(file_id, 0, 1024)
        assert landed == request.payload
        server.kill_shard(owner)
        request = write(2, file_id)
        assert not run(env, resharder.on_write_applied(1 - owner, request))


class TestAutoscaler:
    def test_flash_crowd_scales_out_then_back_in(self):
        cluster = cluster_of(2)
        env, server = cluster.env, cluster.server
        server.enable_resilience()
        scaler = ShardAutoscaler(
            env,
            server,
            high_water_iops=120e3,
            low_water_iops=20e3,
            interval=1e-3,
            min_shards=2,
            max_shards=3,
            cooldown=2,
        )
        scaler.start()
        result = drive_striped(
            cluster, offered_iops=400e3, total_requests=6000, seed=3,
            write_every=4,
        )
        # Post-burst idle ticks: rates fall below the low water and the
        # scaler drains its own addition back out.
        drain_until(env, lambda: scaler.scale_ins > 0, 200)
        scaler.stop()
        assert result.failed_requests == 0
        assert scaler.scale_outs >= 1
        assert scaler.scale_ins >= 1
        actions = [d["action"] for d in scaler.decisions if d["action"]]
        assert actions[0] == "add:2"
        assert "drain:2" in actions
        assert [s.index for s in server.live_shards] == [0, 1]

    def test_start_twice_raises(self):
        server = cluster_of(2).server
        scaler = ShardAutoscaler(
            server.env, server, high_water_iops=100e3, low_water_iops=10e3
        )
        scaler.start()
        with pytest.raises(RuntimeError, match="already started"):
            scaler.start()
        scaler.stop()

    def test_waters_must_be_ordered(self):
        server = cluster_of(2).server
        with pytest.raises(ValueError, match="low_water_iops"):
            ShardAutoscaler(
                server.env, server, high_water_iops=10e3, low_water_iops=10e3
            )
