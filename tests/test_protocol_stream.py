"""The protocol stream, read back from a plain list (``pytest -m chaos``).

A three-shard replicated cluster serves a striped read/write load while
shard 1 is killed and recovered.  The test's only view of the protocol
is a list appended to ``env.listeners``, plus where that list stood at
the kill and at the end of recovery: the replicator's typed events must
tell the story in order.  A second run without the list must schedule
exactly what the first did, since emitting is a plain call.
"""

import pytest

from repro.bench.harness import build_cluster, drain_until, drive_striped
from repro.topology.events import (
    Appended,
    Applied,
    Committed,
    LeaderHandoff,
    Rejoined,
)

pytestmark = pytest.mark.chaos

KILLED = 1


def run_kill_and_recover(listening):
    cluster = build_cluster(shards=3, files=6, file_bytes=1 << 20)
    env, server = cluster.env, cluster.server
    server.enable_resilience()
    server.enable_replication()
    stream = []
    if listening:
        env.listeners.append(stream.append)
    marks = {}

    def kill_then_recover():
        yield env.now + 1e-3
        marks["kill"] = len(stream)
        server.kill_shard(KILLED)
        marks["killed"] = len(stream)
        yield env.now + 2e-3
        yield from server.recover_shard(KILLED)
        marks["recovered"] = len(stream)

    env.process(kill_then_recover())
    drive_striped(
        cluster, offered_iops=200e3, total_requests=1600, seed=5,
        write_every=2,
    )
    drain_until(env, lambda: "recovered" in marks, 100)
    return stream, marks, env


@pytest.fixture(scope="module")
def streamed():
    return run_kill_and_recover(listening=True)


def _of(stream, kind):
    return [(at, event) for at, event in enumerate(stream) if type(event) is kind]


def test_each_commit_follows_its_append(streamed):
    stream, _marks, _env = streamed
    appended = {}
    commits = 0
    for at, event in enumerate(stream):
        if type(event) is Appended:
            appended.setdefault(event.record.request_id, at)
        elif type(event) is Committed:
            commits += 1
            rid = event.record.request_id
            assert rid == event.commit.request_id
            assert appended.get(rid, at) < at, f"write {rid} committed unappended"
    assert commits > 100


def test_handoffs_land_at_the_kill_and_at_the_rejoin(streamed):
    stream, marks, _env = streamed
    handoffs = _of(stream, LeaderHandoff)
    # Shard 1 leads only its own keyspace: one handoff away, one back.
    assert [(e.old_leader, e.new_leader) for _, e in handoffs] == [
        (KILLED, 2), (2, KILLED),
    ]
    away, back = (at for at, _ in handoffs)
    # The kill's handoff is everything kill_shard emitted, in its call.
    assert (marks["kill"], marks["killed"]) == (away, away + 1)
    assert KILLED not in handoffs[0][1].alive
    # The handback is the rejoin: recovery's last events are the handoff
    # and then one Rejoined per group shard 1 belongs to.
    rejoined = _of(stream, Rejoined)
    assert [at for at, _ in rejoined] == [back + 1, back + 2]
    assert marks["recovered"] == back + 3
    assert KILLED in handoffs[1][1].alive


def test_each_group_rejoins_after_its_last_catchup_apply(streamed):
    stream, _marks, _env = streamed
    rejoined = _of(stream, Rejoined)
    assert sorted(e.group.keyspace for _, e in rejoined) == [0, 1]
    for at, event in rejoined:
        assert event.member == KILLED
        catchup = [
            where for where, applied in _of(stream, Applied)
            if applied.catchup and applied.group is event.group
            and applied.member == KILLED
        ]
        assert catchup, f"group {event.group.keyspace} replayed nothing"
        assert max(catchup) < at


def test_emitting_schedules_nothing(streamed):
    stream, _marks, env = streamed
    _silent, _, quiet = run_kill_and_recover(listening=False)
    assert stream and not _silent
    assert (quiet.scheduled_count, quiet.now) == (env.scheduled_count, env.now)
