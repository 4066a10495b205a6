"""Figure 26: disaggregated FASTER latency under YCSB (§9.2): the
baseline's host stack queues deeply at its peak; DDS serves from the
DPU.
"""

from _tables import (
    INCREASING, Claim, above, below, bench, emit, kops, peak, ratio, us
)

from repro.apps import run_kv_experiment

POINTS = {
    "baseline": [(200e3, 64, 4000), (350e3, 256, 5000), (520e3, 2000, 20000)],
    "dds": [(400e3, 64, 5000), (800e3, 128, 6000), (1000e3, 160, 8000)],
}

CLAIMS = (
    Claim("fig26", "baseline p50 at peak", "13 ms @ 340K", peak("baseline", "p50"), above(2e-3)),
    Claim("fig26", "baseline p50, p99 at peak", "13 ms / 18 ms",
          lambda r: [r["baseline"][-1].p50, r["baseline"][-1].p99], INCREASING),
    Claim("fig26", "dds peak op/s", "~1M", peak("dds", "achieved"), above(900e3)),
    Claim("fig26", "dds p50 at peak", "~300 us", peak("dds", "p50"), below(500e-6)),
    Claim("fig26", "p50 at peak, baseline / dds", "order of magnitude",
          ratio(peak("baseline", "p50"), peak("dds", "p50")), above(8)),
)


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
        rows, CLAIMS, results,
    )
    return results


test_fig26_faster_latency = bench(run_figure)
