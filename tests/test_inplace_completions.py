"""In-place completions change nothing but the event count.

A process that returns with nobody waiting takes its value on the spot
instead of scheduling a completion no callback would answer (DESIGN.md
§11).  There is no switch for the old behaviour; it survives as the
``every-completion`` reference in :mod:`tests.reference_datapath`, and
the kit's two differential scenarios must agree on everything
observable — every ack and its time, the DMA counters, the final clock,
the bytes on disk.  Three seeds here; the 300-seed hunt is
``benchmarks/results/differential.txt``.
"""

from .conftest import scenarios


@scenarios
def test_eliding_unwaited_completions_is_unobservable(scenario, canary):
    report = canary(scenario)["every-completion"]
    assert report.divergences == {}
    for seed, (events, reference_events) in report.events.items():
        assert len(report.shipped[seed]["acks"]) > 0
        # Not vacuous: the reference really schedules more.
        assert events < reference_events
