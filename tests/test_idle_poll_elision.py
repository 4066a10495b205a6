"""Idle-poll elision (DESIGN.md §11) changes nothing but the event count.

The file service's DMA thread parks when polling can find nothing and is
resumed at the instant and loop position it would have reached had it
kept polling.  There is no switch for that, so the always-poll reference
lives in :mod:`tests.reference_datapath`: the kit's differential
scenarios run with the park predicate patched to ``False``, and
everything observable — every ack and its time, the DMA counters, the
final clock, the bytes on disk — must be identical.  Three seeds here;
``benchmarks/test_differential.py`` records 300, which is what hunts
for a counter-example to the tie rule (a doorbell at exactly a replayed
checkpoint; threads of two shards waking at one instant).
"""

import pytest

from repro.bench.harness import build_cluster
from repro.core.file_service import DpuFileService
from repro.sim import Environment

from .conftest import scenarios


@scenarios
def test_parking_is_unobservable(scenario, canary):
    report = canary(scenario)["always-poll"]
    for seed, (shipped, always_polling) in report.events.items():
        # A run that never parks is the always-poll run, event for event.
        assert shipped < always_polling, "the shipped run never parked: vacuous"
        assert len(report.shipped[seed]["acks"]) > 0
    assert report.divergences == {}


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
    env, backend = cluster.env, cluster.server.shards[0].backend
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
