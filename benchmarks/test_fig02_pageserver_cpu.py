"""Figure 2: CPU cost of the Hyperscale page server for reads.

Paper: serving random 8 KiB page reads from a page server costs CPU that
grows steeply with throughput — ~17 cores at 156 K pages/s — and the
DBMS's internal network module is the largest component, ahead of the OS
network stack, the filesystem, and everything else.
"""

from _tables import cores, emit, kops

from repro.apps import run_pageserver_experiment

TARGETS = (50e3, 100e3, 150e3)


def run_figure():
    rows = []
    results = []
    for offered in TARGETS:
        result = run_pageserver_experiment(
            "baseline", offered, total_requests=4000, max_outstanding=256
        )
        results.append(result)
        breakdown = result.breakdown
        rows.append(
            (
                kops(result.achieved),
                cores(breakdown["dbms-network"]),
                cores(breakdown["os-network"]),
                cores(breakdown["filesystem"]),
                cores(breakdown["dbms-other"]),
                cores(result.host_cores),
            )
        )
    emit(
        "fig02",
        "page server CPU vs read throughput (8 KiB pages)",
        ("pages/s", "dbms-net", "os-net", "filesystem", "dbms-other", "total"),
        rows,
    )
    return results


def test_fig02_pageserver_cpu(benchmark):
    results = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    top = results[-1]
    # CPU grows significantly with throughput (paper: 5 -> 17 cores).
    assert top.host_cores > 2.5 * results[0].host_cores
    # ~15-17 cores at ~150K pages/s.
    assert 11 < top.host_cores < 22
    # The DBMS network module is the largest single component.
    assert top.breakdown["dbms-network"] == max(top.breakdown.values())
    # The OS stack alone is NOT the majority — kernel bypass would only
    # partially help (the paper's argument for DPU offloading).
    assert top.breakdown["os-network"] < 0.5 * top.host_cores
