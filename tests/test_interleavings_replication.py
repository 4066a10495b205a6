"""Deterministic interleaving tests for the replica group log.

The replication protocol's shared state — one log, per-member applied
sets and watermarks, the leader/epoch pair — is mutated by the
primary's append path, the backup's mirror applies, and the
kill/recover handoff.  The simulator runs all of them as generators on
one OS thread and switches only where a generator yields; no
:class:`~repro.topology.replication.ReplicaGroup` method yields, so
they interleave at call granularity.  Each task below is a generator
that yields before every group call it makes, and the harness explores
the orders of those whole calls, checking log-prefix agreement at every
schedule point.
"""

import threading

from repro.concurrency import Scenario, explore_bounded, explore_random
from repro.topology.replication import ReplicaGroup

APPENDS = 4
#: Every call touches the one group, so no two steps commute.
GROUP = ("replica-group", 0)


def _group_scenario():
    def build():
        group = ReplicaGroup(keyspace=0, primary=0, backup=1)
        seen_epoch = [0]
        primary_alive = [True]
        threads = threading.active_count()

        def alive(member):
            if member == group.primary:
                return primary_alive[0]
            return True

        def appender():
            for ordinal in range(APPENDS):
                yield "replication.append", GROUP
                record = group.append_record(
                    request_id=ordinal,
                    file_id=1,
                    offset=ordinal * 512,
                    payload=b"%4d" % ordinal,
                )
                yield "replication.apply", GROUP
                group.mark_applied(group.primary, record.lsn)

        def mirror():
            # Each write has its own mirror and mirrors complete out of
            # order: the backup applies the newest entry it lacks.
            # on_done drains the rest (anti-entropy's job in the real
            # protocol).
            for _attempt in range(APPENDS * 2):
                missing = [
                    record.lsn
                    for record in group.log
                    if not group.has_applied(group.backup, record.lsn)
                ]
                if missing:
                    yield "replication.apply", GROUP
                    group.mark_applied(group.backup, missing[-1])

        def handoff():
            # kill_shard and recover_shard each flip the alive flag and
            # re-elect in one instant.
            yield "replication.elect", GROUP
            primary_alive[0] = False
            group.elect(alive)
            yield "replication.elect", GROUP
            primary_alive[0] = True
            group.elect(alive)

        def check(_record=None):
            assert threading.active_count() == threads  # no OS thread
            log_length = len(group.log)
            for index, record in enumerate(group.log):
                assert record.lsn == index  # dense, append-only
            for member in group.members:
                mark = group.applied_watermark(member)
                assert 0 <= mark <= log_length
                # The watermark is the applied prefix: every entry below
                # it is applied, the one at it is not.
                for lsn in range(mark):
                    assert group.has_applied(member, lsn)
                assert mark == log_length or not group.has_applied(
                    member, mark
                )
            assert group.leader in group.members
            assert group.epoch >= seen_epoch[0]  # never rewinds
            seen_epoch[0] = group.epoch

        def on_done():
            while True:
                lsn = group.next_unapplied(group.backup)
                if lsn is None:
                    break
                group.mark_applied(group.backup, lsn)
            check()
            assert len(group.log) == APPENDS
            for member in group.members:
                assert group.applied_watermark(member) == APPENDS
            # The round-trip handoff bumped the epoch exactly twice.
            assert group.epoch == 2
            assert group.leader == group.primary

        tasks = [
            ("append", appender()),
            ("mirror", mirror()),
            ("handoff", handoff()),
        ]
        return (tasks, check, on_done)

    return Scenario("replica-group", build)


def test_replica_group_random_schedules():
    stats = explore_random(_group_scenario(), schedules=500)
    assert stats.schedules == 500


def test_replica_group_bounded_exploration():
    stats = explore_bounded(
        _group_scenario(), preemption_bound=2, max_schedules=300
    )
    assert stats.schedules > 0
