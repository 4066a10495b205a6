"""Figure 23: impact of zero-copy on offloaded read performance (§8.5):
the offload engine with and without pre-allocated DMA buffers shared
between the file service and the packet path (Figure 12).
"""

from _tables import (
    INCREASING, Claim, above, below, bench, emit, kops, peak, ratio, us
)

from repro.bench import run_io_experiment

LOADS = (400e3, 600e3, 800e3)

CLAIMS = (
    Claim("fig23", "peak IOPS, zero-copy / with-copies", "730K vs 520K",
          ratio(peak("zero-copy", "achieved_iops"), peak("with-copies", "achieved_iops")),
          above(1.2)),
    Claim("fig23", "zero-copy peak IOPS", "730K", peak("zero-copy", "achieved_iops"), above(650e3)),
    Claim("fig23", "with-copies peak IOPS", "520K",
          peak("with-copies", "achieved_iops"), below(650e3)),
    Claim("fig23", "p50 at 600K offered: zero-copy, with-copies", "170 us vs 250 us",
          lambda r: [r["zero-copy"][1].p50, r["with-copies"][1].p50], INCREASING),
)


def run_figure():
    results = {}
    rows = []
    for kind, label in (
        ("dds-offload", "zero-copy"),
        ("dds-offload-copy", "with-copies"),
    ):
        series = [
            run_io_experiment(kind, offered, total_requests=8000,
                              max_outstanding=140)
            for offered in LOADS
        ]
        results[label] = series
        for result in series:
            rows.append(
                (
                    label,
                    kops(result.achieved_iops),
                    us(result.p50),
                    us(result.p99),
                )
            )
    emit(
        "fig23",
        "offload engine: zero-copy vs copies (reads)",
        ("variant", "IOPS", "p50", "p99"),
        rows, CLAIMS, results,
    )
    return results


test_fig23_zero_copy = bench(run_figure)
