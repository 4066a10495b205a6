"""Idle-poll elision (DESIGN.md §11) changes nothing but the event count.

The file service's DMA thread parks when polling can find nothing and is
resumed at the instant and loop position it would have reached had it
kept polling.  There is no switch for that, so the always-poll reference
lives here: the same scenarios run with the park predicate patched to
``False``, and everything observable — every ack and its time, the DMA
counters, the final clock, the bytes on disk — must be identical over
many seeds.  The seeds are also what hunts for a counter-example to the
tie rule (a doorbell at exactly a replayed checkpoint; threads of two
shards waking at one instant).
"""

import dataclasses

import pytest

from repro.bench.harness import build_cluster, drive_striped
from repro.core.file_service import DpuFileService
from repro.faults import ReplicationInvariantChecker
from repro.sim import Environment

SEEDS = range(1, 23)


class _Acks:
    """Client observer: (request id, time, ok) of every response."""

    def __init__(self, env):
        self.env = env
        self.acks = []

    def on_issue(self, request):
        pass

    def on_ack(self, request, response):
        self.acks.append((request.request_id, self.env.now, response.ok))

    def on_give_up(self, request):
        self.acks.append((request.request_id, self.env.now, None))


def _observe(cluster, acks):
    """Everything the two runs must agree on, plus the elided polls."""
    backends = [shard.backend for shard in cluster.server.shards]
    for backend in backends:
        backend.file_service.settle_idle_polls()
    return (
        {
            "acks": acks.acks,
            "dma": [dataclasses.asdict(b.dma.stats) for b in backends],
            "fetched": [
                (channel.fetched_batches, channel.fetched_requests)
                for b in backends
                for channel in b.file_service.channels
            ],
            "now": cluster.env.now,
            "digest": cluster.state_digest(),
        },
        sum(b.file_service.polls_elided for b in backends),
    )


def _host_path(seed):
    """One shard, every third request a write: the DMA ring and the
    host file service carry traffic with idle gaps in between."""
    cluster = build_cluster(shards=1, files=4, file_bytes=1 << 20)
    acks = _Acks(cluster.env)
    drive_striped(
        cluster, offered_iops=60e3, total_requests=240, seed=seed,
        write_every=3, observer=acks,
    )
    cluster.env.run(until=cluster.env.now + 1e-3)
    return _observe(cluster, acks)


def _replicated(seed):
    """Four replicated shards: relays, mirrored writes and quorum acks
    make several DMA threads wake each other's hosts."""
    cluster = build_cluster(shards=4, files=8, file_bytes=1 << 20)
    cluster.server.enable_resilience()
    cluster.server.enable_replication(
        ReplicationInvariantChecker(cluster.env)
    )
    acks = _Acks(cluster.env)
    drive_striped(
        cluster, offered_iops=150e3, total_requests=320, seed=seed,
        write_every=4, observer=acks,
    )
    cluster.env.run(until=cluster.env.now + 1e-3)
    return _observe(cluster, acks)


@pytest.mark.parametrize("scenario", [_host_path, _replicated])
def test_parking_is_unobservable(scenario, monkeypatch):
    shipped = [scenario(seed) for seed in SEEDS]
    monkeypatch.setattr(DpuFileService, "_can_park", lambda self: False)
    for seed, (observed, elided) in zip(SEEDS, shipped):
        reference, never = scenario(seed)
        assert never == 0
        assert elided > 0, "the shipped run never parked: vacuous"
        assert len(observed["acks"]) > 0
        assert observed == reference, f"seed {seed}"


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_cluster("dds-offload"),
        lambda: build_cluster(shards=4, files=8, file_bytes=1 << 20),
    ],
    ids=["dds-offload", "shards4"],
)
def test_an_idle_deployment_schedules_nothing(build):
    env = build().env
    env.run(until=env.now + 1e-3)  # bring-up settles, the threads park
    before = env.scheduled_count
    assert env.peek() == float("inf")
    env.run(until=env.now + 10e-3)
    assert env.scheduled_count == before
    assert env.peek() == float("inf")


def test_a_parked_thread_still_accounts_for_its_polls():
    cluster = build_cluster("dds-offload")
    env, backend = cluster.env, cluster.server.backend
    env.run(until=1e-3)
    backend.file_service.settle_idle_polls()
    early = backend.dma.stats.reads
    env.run(until=2e-3)
    assert backend.dma.stats.reads == early  # parked: credited lazily
    backend.file_service.settle_idle_polls()
    cycle = DpuFileService.POLL_INTERVAL + 4 * backend.dma.transfer_time(64)
    assert backend.dma.stats.reads - early == pytest.approx(
        4 * 1e-3 / cycle, abs=4
    )
    assert backend.dma.stats.bytes_read == 64 * backend.dma.stats.reads


def test_timeout_at_lands_on_the_exact_float():
    env = Environment()
    seen = []

    def sleeper():
        yield env.timeout(0.3)
        # Why a relative timeout cannot stand in for an absolute one.
        assert env.now + (0.9 - env.now) != 0.9
        yield env.timeout_at(0.9)
        seen.append(env.now)
        seen.append((yield env.timeout_at(env.now, "same tick")))

    env.process(sleeper())
    env.run()
    assert seen == [0.9, "same tick"]
    assert env.now == 0.9


def test_a_reserved_seq_ranks_the_event_as_of_the_reservation():
    env = Environment()
    order = []

    def note(name, event):
        event.add_callback(lambda _event: order.append(name))

    lane = env.reserve_seq()
    note("fresh", env.timeout(1.0))
    note("fresh at", env.timeout_at(1.0))
    note("reserved", env.timeout_at(1.0, seq=lane))
    env.run(until=1.0)
    # Due now, and still ahead of what was scheduled after the lane.
    note("same tick", env.timeout(0.0))
    note("reserved now", env.timeout_at(1.0, seq=lane))
    env.run()
    assert order == [
        "reserved", "fresh", "fresh at", "reserved now", "same tick"
    ]


def test_timeout_at_rejects_the_past():
    env = Environment()
    env.run(until=1.0)
    with pytest.raises(ValueError):
        env.timeout_at(0.5)
    with pytest.raises(ValueError):
        env.timeout_at(float("nan"))
    env.timeout_at(1.0)  # the present is allowed
