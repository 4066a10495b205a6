"""Figure 5: FASTER YCSB-RMW throughput on the host vs. on the DPU, by
thread count — the reason DDS executes update workloads on the host.
"""

from _tables import Claim, above, below, bench, between, each, emit

from repro.bench import run_rmw_scaling

THREADS = (1, 2, 4, 8, 16, 32, 64)

CLAIMS = (
    Claim("fig05", "host / DPU op/s, 1-8 threads", "up to 4.5x",
          lambda r: [r["host", t] / r["dpu", t] for t in (1, 2, 4, 8)], each(between(3.0, 6.0))),
    Claim("fig05", "DPU op/s, 16 / 8 threads", "scales only to 8 threads",
          lambda r: r["dpu", 16] / r["dpu", 8], below(1.1)),
    Claim("fig05", "DPU op/s, 64 / 8 threads", "scales only to 8 threads",
          lambda r: r["dpu", 64] / r["dpu", 8], below(1.1)),
    Claim("fig05", "host op/s, 32 / 8 threads", "host keeps scaling",
          lambda r: r["host", 32] / r["host", 8], above(3.0)),
)


def run_figure():
    host = {
        t: run_rmw_scaling("host", t, ops_per_thread=1200) for t in THREADS
    }
    dpu = {
        t: run_rmw_scaling("dpu", t, ops_per_thread=1200) for t in THREADS
    }
    rates = {(side, t): runs[t].throughput
             for side, runs in (("host", host), ("dpu", dpu)) for t in THREADS}
    rows = [
        (
            t,
            f"{host[t].throughput / 1e6:.2f}M",
            f"{dpu[t].throughput / 1e6:.2f}M",
            f"{host[t].throughput / dpu[t].throughput:.1f}x",
        )
        for t in THREADS
    ]
    emit(
        "fig05",
        "FASTER RMW throughput: host vs DPU",
        ("threads", "host op/s", "DPU op/s", "host/DPU"),
        rows, CLAIMS, rates,
    )
    return host, dpu


test_fig05_faster_rmw = bench(run_figure)
