"""In-place completions change nothing but the event count.

A process that returns with nobody waiting takes its value on the spot
instead of scheduling a completion no callback would answer (DESIGN.md
§11).  There is no switch for the old behaviour; it survives as
:func:`tests.reference_datapath.schedule_every_completion`, and the two
scenarios of ``test_idle_poll_elision.py`` must agree on everything
observable — every ack and its time, the DMA counters, the final clock,
the bytes on disk.  Three seeds here; the wide run (300+ seeds per
scenario, from a scratch script) is recorded in CHANGES.md.
"""

import pytest

from repro.bench.harness import build_cluster

from . import reference_datapath
from . import test_idle_poll_elision as scenarios

SEEDS = (1, 2, 3)


@pytest.mark.parametrize(
    "scenario", [scenarios._host_path, scenarios._replicated]
)
def test_eliding_unwaited_completions_is_unobservable(scenario, monkeypatch):
    envs = []

    def remembering(*args, **kwargs):
        cluster = build_cluster(*args, **kwargs)
        envs.append(cluster.env)
        return cluster

    monkeypatch.setattr(scenarios, "build_cluster", remembering)
    shipped = [scenario(seed)[0] for seed in SEEDS]
    reference_datapath.schedule_every_completion(monkeypatch)
    for index, seed in enumerate(SEEDS):
        reference, _elided = scenario(seed)
        assert len(reference["acks"]) > 0
        assert shipped[index] == reference, f"seed {seed}"
        # Not vacuous: the reference really schedules more.
        assert envs[index].scheduled_count < envs[-1].scheduled_count
