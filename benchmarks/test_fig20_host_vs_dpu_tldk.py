"""Figure 20: TLDK on the host vs. TLDK on the DPU, by message size.

This isolates userspace networking from DPU placement: the DPU avoids
the NIC-to-host round trip and its NIC-adjacent memory is cheaper per
byte [44, 63], which matters once processing is memory-intensive — the
reason the traffic director runs on the DPU for data-system workloads.
"""

from _tables import INCREASING, Claim, bench, emit, equals, us

from repro.bench import EchoBench
from repro.sim import Environment

SIZES = (64, 1024, 4096, 16384, 65536)


def _winner(host, dpu):
    return "host" if host.server_latency < dpu.server_latency else "dpu"


CLAIMS = (
    Claim("fig20", "server latency at 64 B: host, DPU", "host faster for small messages",
          lambda r: [side.server_latency for side in r[64]], INCREASING),
    Claim("fig20", "server latency at 64 KiB: DPU, host", "DPU faster for large messages",
          lambda r: [side.server_latency for side in reversed(r[65536])], INCREASING),
    Claim("fig20", "winner at the smallest, largest size", "crossover inside the range",
          lambda r: [_winner(*r[SIZES[0]]), _winner(*r[SIZES[-1]])], equals(["host", "dpu"])),
)


def run_figure():
    results = {}
    rows = []
    for size in SIZES:
        host = EchoBench(Environment()).measure("host-tldk", size)
        dpu = EchoBench(Environment()).measure("dpu-tldk", size)
        results[size] = (host, dpu)
        rows.append(
            (
                size,
                us(host.server_latency),
                us(dpu.server_latency),
                _winner(host, dpu),
            )
        )
    emit(
        "fig20",
        "TLDK placement: host vs DPU server-side latency",
        ("msg bytes", "host TLDK", "DPU TLDK", "winner"),
        rows, CLAIMS, results,
    )
    return results


test_fig20_host_vs_dpu_tldk = bench(run_figure)
