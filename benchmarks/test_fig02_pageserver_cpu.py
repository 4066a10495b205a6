"""Figure 2: CPU cost of the Hyperscale page server for reads.

Random 8 KiB page reads at rising throughput, with host cores split
into the DBMS network module, the OS network stack, the filesystem and
the rest of the DBMS.
"""

from _tables import (
    Claim, above, below, bench, between, cores, emit, equals, kops
)

from repro.apps import run_pageserver_experiment

TARGETS = (50e3, 100e3, 150e3)

CLAIMS = (
    Claim("fig02", "host cores, top / lowest load", "5 -> 17 cores",
          lambda r: r[-1].host_cores / r[0].host_cores, above(2.5)),
    Claim("fig02", "host cores at ~150K pages/s", "17 @ 156K pages/s",
          lambda r: r[-1].host_cores, between(11, 22)),
    Claim("fig02", "largest component", "DBMS network module",
          lambda r: max(r[-1].breakdown, key=r[-1].breakdown.get), equals("dbms-network")),
    Claim("fig02", "OS stack share of host cores", "a minority",
          lambda r: r[-1].breakdown["os-network"] / r[-1].host_cores, below(0.5)),
)


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
        rows, CLAIMS, results,
    )
    return results


test_fig02_pageserver_cpu = bench(run_figure)
