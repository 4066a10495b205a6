"""Booked holds and inlined I/O change nothing but the event count.

The models book a FIFO hold with one event and call the layer below
with ``yield from`` (DESIGN.md §11); the old idiom — a grant event
before every timeout, a process per layer of one I/O — survives only
in :mod:`tests.reference_datapath`.  Both run the scenarios of
``test_idle_poll_elision.py`` and everything observable must agree:
every ack and its time, the DMA counters, the final clock, the bytes
on disk.  Booking keeps every completion instant, float for float;
what it can move is the order of two events at one instant, and the
seeds are what hunts for that (the residual over 300 seeds per
scenario is recorded in DESIGN.md §11).
"""

import pytest

from repro.bench.harness import build_cluster

from . import reference_datapath
from . import test_idle_poll_elision as scenarios

SEEDS = range(1, 23)


@pytest.mark.parametrize(
    "scenario", [scenarios._host_path, scenarios._replicated]
)
def test_booking_and_inlining_are_unobservable(scenario, monkeypatch):
    envs = []

    def remembering(*args, **kwargs):
        cluster = build_cluster(*args, **kwargs)
        envs.append(cluster.env)
        return cluster

    monkeypatch.setattr(scenarios, "build_cluster", remembering)
    shipped = [scenario(seed)[0] for seed in SEEDS]
    reference_datapath.install(monkeypatch)
    for index, seed in enumerate(SEEDS):
        reference, _elided = scenario(seed)
        assert len(reference["acks"]) > 0
        assert shipped[index] == reference, f"seed {seed}"
        # Not vacuous: the reference really is the longer way round.
        events = envs[index].scheduled_count
        assert events < 0.8 * envs[-1].scheduled_count, f"seed {seed}"


def test_the_dma_thread_refuses_to_park_behind_a_booked_transfer():
    """`_park` elides pointer reads on the premise that nobody else
    holds its DMA engine; a transfer booked by someone else, finished
    or not as an event, must still trip the guard."""
    cluster = build_cluster("dds-offload")
    env, backend = cluster.env, cluster.server.backend
    env.run(until=1e-3)  # the thread is parked
    assert backend.dma.in_flight == 0
    env.process(backend.dma.dma_write(1 << 20))  # a second issuer
    env.run(until=env.now + 1e-6)
    assert backend.dma.in_flight == 1
    with pytest.raises(RuntimeError, match="private engine"):
        next(backend.file_service._park())
    env.run(until=env.now + 1e-3)
    assert backend.dma.in_flight == 0  # the booking ran out
