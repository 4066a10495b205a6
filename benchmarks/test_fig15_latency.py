"""Figure 15: achieved throughput vs. p50/p99 latency, for random 1 KiB
reads (a) and writes (b).

Latency at saturation is queueing-dominated, so the client windows are
sized like the paper's load generator (deep outstanding queues at the
peak operating points).
"""

from _tables import (
    INCREASING, NONDECREASING, Claim, above, below, bench, each, emit, kops, peak, peaks, ratio, us
)

from repro.bench import run_io_experiment

#: (offered IOPS, outstanding messages) pairs per solution — the deep
#: windows at the last points reproduce the paper's saturated tails.
READ_POINTS = {
    "baseline": [(200e3, 64, 8000), (350e3, 256, 8000), (460e3, 900, 22000)],
    "dds-files": [(300e3, 64, 8000), (500e3, 256, 8000), (640e3, 180, 12000)],
    "dds-offload": [
        (300e3, 64, 8000),
        (600e3, 128, 8000),
        (800e3, 140, 12000),
    ],
}
WRITE_POINTS = {
    "baseline": [(120e3, 64, 6000), (180e3, 256, 6000), (280e3, 900, 16000)],
    "dds-files": [(150e3, 64, 6000), (250e3, 128, 6000), (310e3, 180, 9000)],
}




CLAIMS = (
    Claim("fig15a", "baseline p50 at peak", "11 ms @ 390K", peak("baseline", "p50"), above(2e-3)),
    Claim("fig15a", "peak IOPS: baseline, dds-files", "dds-files higher",
          peaks("achieved_iops", "baseline", "dds-files"), INCREASING),
    Claim("fig15a", "p50 at peak, dds-files / baseline", "~6x lower",
          ratio(peak("dds-files", "p50"), peak("baseline", "p50")), below(1 / 3)),
    Claim("fig15a", "dds-offload peak IOPS", "730K",
          peak("dds-offload", "achieved_iops"), above(650e3)),
    Claim("fig15a", "dds-offload p50 at peak", "780 us @ 730K",
          peak("dds-offload", "p50"), below(1e-3)),
    Claim("fig15a", "p50 at peak, baseline / dds-offload", "~10x",
          ratio(peak("baseline", "p50"), peak("dds-offload", "p50")), above(6)),
    Claim("fig15a", "p50 by load, per solution", "grows with load",
          lambda r: [[point.p50 for point in s] for s in r.values()], each(NONDECREASING)),
    Claim("fig15b", "baseline write p99 at peak", "48 ms @ 210K",
          peak("baseline", "p99"), above(5e-3)),
    Claim("fig15b", "peak write IOPS: baseline, dds-files", "210K < 290K",
          peaks("achieved_iops", "baseline", "dds-files"), INCREASING),
    Claim("fig15b", "write p99 at peak, dds-files / baseline", "3 ms vs 48 ms",
          ratio(peak("dds-files", "p99"), peak("baseline", "p99")), below(1 / 3)),
)


def _run(points, read_fraction):
    results = {}
    rows = []
    for kind, series in points.items():
        measured = [
            run_io_experiment(
                kind,
                offered,
                total_requests=total,
                read_fraction=read_fraction,
                max_outstanding=window,
            )
            for offered, window, total in series
        ]
        results[kind] = measured
        for result in measured:
            rows.append(
                (
                    kind,
                    kops(result.achieved_iops),
                    us(result.p50),
                    us(result.p99),
                )
            )
    return results, rows


def run_reads():
    results, rows = _run(READ_POINTS, read_fraction=1.0)
    emit(
        "fig15a",
        "reads: throughput vs latency",
        ("solution", "IOPS", "p50", "p99"),
        rows, CLAIMS, results,
    )
    return results


def run_writes():
    results, rows = _run(WRITE_POINTS, read_fraction=0.0)
    emit(
        "fig15b",
        "writes: throughput vs latency",
        ("solution", "IOPS", "p50", "p99"),
        rows, CLAIMS, results,
    )
    return results


test_fig15a_read_latency = bench(run_reads)
test_fig15b_write_latency = bench(run_writes)
