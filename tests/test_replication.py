"""Replicated shard groups: failover, catch-up, and the runtime checker.

Chaos-tier scenario tests for :mod:`repro.topology.replication` (run
with ``pytest -m chaos``): a four-shard deployment with synchronous
primary→backup mirroring takes a shard kill mid-workload and must keep
acknowledging the dead keyspace through the whole outage (zero dark
window), hand leadership back after anti-entropy catch-up, and report a
clean Derecho-style runtime invariant audit — plus unit coverage for
the deterministic election, the breaker reset on recovery, the all-dead
ingress drop counter, and the checker's negative paths.
"""

import pytest

from repro.bench.harness import ack_buckets, build_cluster, run_shard_kill
from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.faults import InvariantChecker, ShardKill
from repro.net import FiveTuple
from repro.sim import Environment
from repro.topology.replication import CommitRecord, ReplicaGroup

pytestmark = pytest.mark.chaos

IO_SIZE = 1024
FILE_BYTES = 1 << 20
TOTAL_REQUESTS = 2400  # 400k offered IOPS → load covers the whole outage
KILL = ShardKill(at=2e-3, down_for=3e-3, shard=2)
FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


def run_replicated_failover(seed=13):
    return run_shard_kill(
        KILL, seed=seed, total_requests=TOTAL_REQUESTS, replicated=True
    )


def small_cluster():
    return build_cluster(shards=2, files=4, file_bytes=FILE_BYTES)


@pytest.fixture(scope="module")
def failover():
    return run_replicated_failover(seed=13)


class TestReplicatedFailover:
    def test_every_request_settles(self, failover):
        assert failover.result.failed_requests == 0
        assert len(failover.result.latencies) == TOTAL_REQUESTS

    def test_zero_dark_window(self, failover):
        """The backup serves the dead keyspace through the whole outage."""
        dead_files = failover.files_on(KILL.shard)
        assert dead_files, "shard 2 owns no files; reseed"
        buckets = ack_buckets(
            failover.acks, dead_files, KILL.at, KILL.at + KILL.down_for
        )
        assert len(buckets) == 6  # half-ms resolution inside the outage
        assert all(count > 0 for count in buckets), buckets

    def test_runtime_invariants_hold(self, failover):
        checker = failover.checker
        assert checker.violations == []
        failover.report.assert_ok()
        # The clean verdict must come from a checker that actually saw
        # the protocol run, quorum hops and failover included.
        assert checker.appends_seen > 0
        assert checker.commits_seen == checker.appends_seen
        assert checker.handoffs_seen == 2  # kill handoff + rejoin handback
        assert checker.rejoins_seen == 2  # shard 2 backs groups 1 and 2

    def test_failover_counters(self, failover):
        replicator = failover.server.replicator
        assert replicator.mirrored_writes > 0
        assert replicator.solo_acks > 0  # survivor acks during the outage
        assert replicator.handoffs == 2
        assert replicator.catchup_replays > 0
        assert replicator.mirror_failures == 0

    def test_rejoined_member_is_caught_up(self, failover):
        replicator = failover.server.replicator
        for group in replicator.groups.values():
            for member in group.members:
                assert group.applied_watermark(member) == len(group.log)

    def test_same_seed_reproduces_the_failover(self, failover):
        again = run_replicated_failover(seed=13)
        assert (
            failover.injector.fault_log_lines()
            == again.injector.fault_log_lines()
        )
        assert failover.acks == again.acks
        assert (
            failover.server.replicator.catchup_replays
            == again.server.replicator.catchup_replays
        )


class TestDeterministicElection:
    def test_backup_leads_only_while_primary_is_dark(self):
        group = ReplicaGroup(keyspace=0, primary=0, backup=1)
        alive = {0: False, 1: True}
        old, new, changed = group.elect(lambda m: alive[m])
        assert (old, new, changed) == (0, 1, True)
        assert group.epoch == 1
        alive[0] = True  # recovery hands leadership straight back
        old, new, changed = group.elect(lambda m: alive[m])
        assert (old, new, changed) == (1, 0, True)
        assert group.epoch == 2

    def test_both_dark_leaves_leadership_unchanged(self):
        group = ReplicaGroup(keyspace=0, primary=0, backup=1)
        old, new, changed = group.elect(lambda _m: False)
        assert (old, new, changed) == (0, 0, False)
        assert group.epoch == 0

    def test_two_member_group_rejects_self_replication(self):
        with pytest.raises(ValueError, match="two distinct members"):
            ReplicaGroup(keyspace=0, primary=3, backup=3)


class TestBreakerResetOnRecovery:
    def test_recovered_shard_starts_closed(self):
        """Regression: breaker state used to leak across kill/recover.

        Dispatches already past the alive check kept feeding
        ``record_failure`` after the kill, so the rebuilt engine came
        back behind an open (or half-open) breaker and bounced its
        first requests to the host for the *previous* crash's failures.
        """
        cluster = small_cluster()
        env, server = cluster.env, cluster.server
        server.enable_resilience()
        breaker = server.shards[0].director.breaker
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == breaker.OPEN
        server.kill_shard(0)
        done = env.process(server.recover_shard(0))
        env.run(until=done)
        assert server.shards[0].alive
        assert breaker.state == breaker.CLOSED
        assert breaker.failures == 0
        assert breaker.allow()

    def test_plain_crash_keeps_half_open_probing(self):
        """An EngineCrash without recovery must NOT earn a clean slate."""
        cluster = small_cluster()
        env, server = cluster.env, cluster.server
        server.enable_resilience()
        breaker = server.shards[0].director.breaker
        for _ in range(4):
            breaker.record_failure()
        assert breaker.state == breaker.OPEN
        env.run(until=env.timeout(breaker.recovery_time))
        assert breaker.allow()  # half-open probe
        assert breaker.state == breaker.HALF_OPEN


class TestAllShardsDeadIngress:
    def test_dropped_messages_are_counted(self):
        cluster = small_cluster()
        env, server = cluster.env, cluster.server
        server.kill_shard(0)
        server.kill_shard(1)
        request = IoRequest(OpCode.READ, 1, cluster.file_id, 0, IO_SIZE)
        server.submit(FLOW, [request], lambda _response: None)
        env.run(until=env.timeout(1e-3))
        assert server.steering.dropped >= 1


class TestCheckerNegativePaths:
    """Hand-crafted protocol breaches must fire the matching rule."""

    def _checker(self):
        return InvariantChecker(Environment())

    def test_below_quorum_commit_flags_ri3(self):
        checker = self._checker()
        group = ReplicaGroup(keyspace=0, primary=0, backup=1)
        record = group.append_record(7, file_id=1, offset=0, payload=b"x")
        commit = CommitRecord(
            request_id=7,
            keyspace=0,
            lsn=0,
            epoch=0,
            applied=(0,),
            live=(0, 1),
        )
        checker.on_commit(group, record, commit)
        assert [v.rule for v in checker.violations] == ["RI3"]

    def test_non_leader_append_flags_ri1(self):
        checker = self._checker()
        group = ReplicaGroup(keyspace=0, primary=0, backup=1)
        record = group.append_record(7, file_id=1, offset=0, payload=b"x")
        checker.on_append(group, record, executor=1)
        assert any(v.rule == "RI1" for v in checker.violations)

    def test_rejoin_before_catchup_flags_ri5(self):
        checker = self._checker()
        group = ReplicaGroup(keyspace=0, primary=0, backup=1)
        group.append_record(7, file_id=1, offset=0, payload=b"x")
        checker.on_rejoin(group, member=1)  # watermark 0, log length 1
        assert [v.rule for v in checker.violations] == ["RI5"]

    def test_ack_without_commit_flags_ri3(self):
        cluster = small_cluster()
        checker = InvariantChecker(cluster.env)
        cluster.server.enable_replication(checker)
        request = IoRequest(
            OpCode.WRITE, 5, cluster.file_id, 0, 4, b"abcd"
        )
        checker.on_issue(request)
        checker.on_ack(request, IoResponse(5, True))
        assert [v.rule for v in checker.violations] == ["RI3"]
        assert "no commit record" in checker.violations[0].detail
