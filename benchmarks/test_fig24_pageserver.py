"""Figure 24: throughput vs. latency of serving pages (§9.1).

Paper: the Hyperscale-like page server incurs 4.4 ms p99 to reach 90 K
GetPage@LSN IOPS through its host stack, while with DDS offloading
160 K IOPS costs only 1.3 ms — more pages at several times lower tail
latency, with the host CPU of Figure 2 eliminated.
"""

from _tables import cores, emit, kops, ms

from repro.apps import run_pageserver_experiment

POINTS = {
    "baseline": [(60e3, 64), (110e3, 128), (215e3, 800)],
    "dds": [(100e3, 64), (160e3, 128), (240e3, 256)],
}


def run_figure():
    results = {}
    rows = []
    for kind, series in POINTS.items():
        measured = [
            run_pageserver_experiment(
                kind,
                offered,
                total_requests=5000 if window < 600 else 12_000,
                max_outstanding=window,
            )
            for offered, window in series
        ]
        results[kind] = measured
        for result in measured:
            rows.append(
                (
                    kind,
                    kops(result.achieved),
                    ms(result.p50),
                    ms(result.p99),
                    cores(result.host_cores),
                )
            )
    emit(
        "fig24",
        "page server: GetPage@LSN throughput vs latency",
        ("deployment", "pages/s", "p50", "p99", "host cores"),
        rows,
    )
    return results


def test_fig24_pageserver(benchmark):
    results = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    baseline_peak = results["baseline"][-1]
    dds_160 = results["dds"][1]
    dds_peak = results["dds"][-1]
    # The baseline saturates around ~160K pages/s with a multi-ms tail.
    assert baseline_peak.achieved < 180e3
    assert baseline_peak.p99 > 2e-3
    # DDS reaches 160K pages/s at far lower latency (paper: 1.3ms vs
    # 4.4ms; here queueing windows are smaller so both scale down).
    assert dds_160.achieved > 150e3
    assert dds_160.p99 < baseline_peak.p99 / 3
    # DDS keeps scaling past the baseline's peak with ~zero host CPU.
    assert dds_peak.achieved > 1.3 * baseline_peak.achieved
    assert dds_peak.host_cores < 0.5
    assert dds_peak.offloaded_fraction > 0.9