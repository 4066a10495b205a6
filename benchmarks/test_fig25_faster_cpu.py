"""Figure 25: disaggregated FASTER CPU cost under YCSB (§9.2).

Paper: the baseline FASTER service (sockets + OS-file IDevice) burns 20
server cores to reach 340 K uniform-read op/s; with DDS the same store
serves 970 K op/s with effectively zero host CPU investment.
"""

from _tables import cores, emit, kops

from repro.apps import run_kv_experiment

BASELINE_LOADS = (150e3, 300e3, 450e3)
DDS_LOADS = (300e3, 600e3, 1000e3)


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
        rows,
    )
    return results


def test_fig25_faster_cpu(benchmark):
    results = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    baseline_peak = results["baseline"][-1]
    dds_peak = results["dds"][-1]
    # Baseline: hundreds of K op/s for tens of cores (paper: 340K @ 20).
    assert baseline_peak.achieved < 500e3
    assert baseline_peak.host_cores > 12
    # DDS: ~1M op/s (paper: 970K) at near-zero host CPU.
    assert dds_peak.achieved > 900e3
    assert dds_peak.host_cores < 1.0
    assert dds_peak.offloaded_fraction > 0.9
    # Host CPU grows with load for the baseline, stays flat for DDS.
    baseline_cores = [r.host_cores for r in results["baseline"]]
    assert baseline_cores == sorted(baseline_cores)
    assert all(r.host_cores < 1.0 for r in results["dds"])
