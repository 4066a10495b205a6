"""Figure 26: disaggregated FASTER latency under YCSB (§9.2).

Paper: at 340 K op/s the baseline's median (p99) latency is 13 ms
(18 ms) — deep queueing in the host stack — while DDS keeps latency
around 300 us even at ~1 M op/s.
"""

from _tables import emit, kops, us

from repro.apps import run_kv_experiment

POINTS = {
    "baseline": [(200e3, 64, 4000), (350e3, 256, 5000), (520e3, 2000, 20000)],
    "dds": [(400e3, 64, 5000), (800e3, 128, 6000), (1000e3, 160, 8000)],
}


def run_figure():
    results = {}
    rows = []
    for kind, series in POINTS.items():
        measured = [
            run_kv_experiment(
                kind,
                offered,
                total_requests=total,
                batch=1 if kind == "baseline" else 4,
                max_outstanding=window,
            )
            for offered, window, total in series
        ]
        results[kind] = measured
        for result in measured:
            rows.append(
                (
                    kind,
                    kops(result.achieved),
                    us(result.p50),
                    us(result.p99),
                )
            )
    emit(
        "fig26",
        "disaggregated FASTER: YCSB read latency vs throughput",
        ("deployment", "op/s", "p50", "p99"),
        rows,
    )
    return results


def test_fig26_faster_latency(benchmark):
    results = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    baseline_peak = results["baseline"][-1]
    dds_peak = results["dds"][-1]
    # The saturated baseline is in the milliseconds (paper: 13/18 ms).
    assert baseline_peak.p50 > 2e-3
    assert baseline_peak.p99 > baseline_peak.p50
    # DDS keeps latency in the hundreds of microseconds at ~1M op/s
    # (paper: ~300 us).
    assert dds_peak.achieved > 900e3
    assert dds_peak.p50 < 500e-6
    # Order-of-magnitude separation at the respective operating points.
    assert baseline_peak.p50 / dds_peak.p50 > 8
