"""Figure 25: disaggregated FASTER CPU cost under YCSB uniform reads
(§9.2): the baseline service (sockets + OS-file IDevice) vs. DDS.
"""

from _tables import (
    NONDECREASING, Claim, above, below, bench, cores, each, emit, kops, peak
)

from repro.apps import run_kv_experiment

BASELINE_LOADS = (150e3, 300e3, 450e3)
DDS_LOADS = (300e3, 600e3, 1000e3)


CLAIMS = (
    Claim("fig25", "baseline peak op/s", "340K", peak("baseline", "achieved"), below(500e3)),
    Claim("fig25", "baseline host cores at peak", "20 cores",
          peak("baseline", "host_cores"), above(12)),
    Claim("fig25", "dds peak op/s", "970K", peak("dds", "achieved"), above(900e3)),
    Claim("fig25", "dds host cores at peak", "~0", peak("dds", "host_cores"), below(1.0)),
    Claim("fig25", "dds offloaded fraction at peak", "served by the DPU",
          peak("dds", "offloaded_fraction"), above(0.9)),
    Claim("fig25", "baseline host cores by load", "grows with load",
          lambda r: [point.host_cores for point in r["baseline"]], NONDECREASING),
    Claim("fig25", "dds host cores by load", "~0 at every load",
          lambda r: [point.host_cores for point in r["dds"]], each(below(1.0))),
)


def run_figure():
    results = {"baseline": [], "dds": []}
    rows = []
    for offered in BASELINE_LOADS:
        result = run_kv_experiment(
            "baseline", offered, total_requests=5000, batch=1
        )
        results["baseline"].append(result)
        rows.append(
            (
                "baseline",
                kops(result.achieved),
                cores(result.host_cores),
                cores(result.dpu_cores),
            )
        )
    for offered in DDS_LOADS:
        result = run_kv_experiment("dds", offered, total_requests=5000)
        results["dds"].append(result)
        rows.append(
            (
                "dds",
                kops(result.achieved),
                cores(result.host_cores),
                cores(result.dpu_cores),
            )
        )
    emit(
        "fig25",
        "disaggregated FASTER: host CPU vs YCSB read throughput",
        ("deployment", "op/s", "host cores", "dpu cores"),
        rows, CLAIMS, results,
    )
    return results


test_fig25_faster_cpu = bench(run_figure)
