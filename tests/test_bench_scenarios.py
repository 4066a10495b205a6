"""The scenario kit's determinism pin.

The ``chaos`` and ``resharding`` trajectory workloads run the shared
cluster scenarios of :mod:`repro.bench.harness` end to end (bring-up,
striped workload, fault or membership change, drain, audit).  Their
smoke-mode peak IOPS are pinned to the literals the pre-kit hand-rolled
builders produced, so a kit change that reorders a single scheduled
event — or a second run that diverges from the first — fails here
rather than in a regenerated ``BENCH_*.json``.  The event counts are
those of the same runs with the DMA threads' empty polls elided, FIFO
holds booked with one event each and single-run I/O inlined
(DESIGN.md §11), none of which moved anything else.
"""

import pytest

from repro.bench.trajectory import run_workload

#: name -> (events, peak_iops), smoke mode.
PINNED = {
    "chaos": (32424, 839449.8),
    "resharding": (191381, 149527.7),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_smoke_record_is_pinned_and_repeatable(name):
    first = run_workload(name, mode="smoke")
    assert (first["events"], first["peak_iops"]) == PINNED[name]
    again = run_workload(name, mode="smoke")
    assert again["events"] == first["events"]
    assert again["peak_iops"] == first["peak_iops"]
    assert again["detail"] == first["detail"]
