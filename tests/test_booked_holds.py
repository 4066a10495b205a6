"""Booked holds and inlined I/O change nothing but the event count.

The models book a FIFO hold with one event and call the layer below
with ``yield from`` (DESIGN.md §11); the old idiom — a grant event
before every timeout, a process per layer of one I/O — survives only
in :mod:`tests.reference_datapath` (``old-datapath``).  Both run the
kit's differential scenarios and everything observable must agree:
every ack and its time, the DMA counters, the final clock, the bytes
on disk.  Booking keeps every completion instant, float for float;
what it can move is the order of two events at one instant.  Three
seeds here; the 300-seed hunt is ``benchmarks/results/differential.txt``.
"""

import pytest

from repro.bench.harness import build_cluster

from .conftest import scenarios


@scenarios
def test_booking_and_inlining_are_unobservable(scenario, canary):
    report = canary(scenario)["old-datapath"]
    assert report.divergences == {}
    for seed, (events, reference_events) in report.events.items():
        assert len(report.shipped[seed]["acks"]) > 0
        # Not vacuous: the reference really is the longer way round.
        assert events < 0.8 * reference_events, f"seed {seed}"


def test_the_dma_thread_refuses_to_park_behind_a_booked_transfer():
    """`_park` elides pointer reads on the premise that nobody else
    holds its DMA engine; a transfer booked by someone else, finished
    or not as an event, must still trip the guard."""
    cluster = build_cluster("dds-offload")
    env, backend = cluster.env, cluster.server.shards[0].backend
    env.run(until=1e-3)  # the thread is parked
    assert backend.dma.in_flight == 0
    env.process(backend.dma.dma_write(1 << 20))  # a second issuer
    env.run(until=env.now + 1e-6)
    assert backend.dma.in_flight == 1
    with pytest.raises(RuntimeError, match="private engine"):
        next(backend.file_service._park())
    env.run(until=env.now + 1e-3)
    assert backend.dma.in_flight == 0  # the booking ran out
