"""Figure 24: throughput vs. latency of serving pages (§9.1).

GetPage@LSN through the Hyperscale-like page server's host stack vs.
through DDS offloading.  Queueing windows here are smaller than the
paper's, so both tails scale down.
"""

from _tables import (
    Claim, above, below, bench, cores, emit, kops, ms, peak, ratio
)

from repro.apps import run_pageserver_experiment

POINTS = {
    "baseline": [(60e3, 64), (110e3, 128), (215e3, 800)],
    "dds": [(100e3, 64), (160e3, 128), (240e3, 256)],
}

CLAIMS = (
    Claim("fig24", "baseline peak pages/s", "saturates below DDS",
          peak("baseline", "achieved"), below(180e3)),
    Claim("fig24", "baseline p99 at peak", "4.4 ms @ 90K", peak("baseline", "p99"), above(2e-3)),
    Claim("fig24", "dds pages/s at 160K offered", "160K",
          lambda r: r["dds"][1].achieved, above(150e3)),
    Claim("fig24", "p99, dds @ 160K / baseline at peak", "1.3 ms vs 4.4 ms",
          lambda r: r["dds"][1].p99 / r["baseline"][-1].p99, below(1 / 3)),
    Claim("fig24", "peak pages/s, dds / baseline", "DDS keeps scaling",
          ratio(peak("dds", "achieved"), peak("baseline", "achieved")), above(1.3)),
    Claim("fig24", "dds host cores at peak", "host CPU eliminated",
          peak("dds", "host_cores"), below(0.5)),
    Claim("fig24", "dds offloaded fraction at peak", "served by the DPU",
          peak("dds", "offloaded_fraction"), above(0.9)),
)


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
        rows, CLAIMS, results,
    )
    return results


test_fig24_pageserver = bench(run_figure)
