"""Figure 19: TLDK vs. Linux for TCP splitting on the DPU (§8.5).

Echo latency when the host answers, when the SoC's Linux kernel TCP
answers on wimpy Arm cores, and when the TLDK userspace stack does.
"""

from _tables import INCREASING, Claim, bench, between, emit, us

from repro.bench import EchoBench
from repro.sim import Environment

SIZE = 64  # the experiment echoes small control messages


CLAIMS = (
    Claim("fig19", "server latency: host-os, dpu-linux", "Linux on the DPU is slower",
          lambda r: [r["host-os"].server_latency, r["dpu-linux"].server_latency], INCREASING),
    Claim("fig19", "server latency, dpu-linux / dpu-tldk", "3x",
          lambda r: r["dpu-linux"].server_latency / r["dpu-tldk"].server_latency,
          between(2.2, 4.5)),
    Claim("fig19", "server latency, host-os / dpu-tldk", "2.5x",
          lambda r: r["host-os"].server_latency / r["dpu-tldk"].server_latency, between(1.5, 3.5)),
)


def run_figure():
    results = {
        responder: EchoBench(Environment()).measure(responder, SIZE)
        for responder in ("host-os", "dpu-linux", "dpu-tldk")
    }
    rows = [
        (name, us(result.server_latency), us(result.rtt))
        for name, result in results.items()
    ]
    emit(
        "fig19",
        "TCP-splitting echo: server-side latency by stack",
        ("stack", "server latency", "RTT"),
        rows, CLAIMS, results,
    )
    return results


test_fig19_tldk_split = bench(run_figure)
