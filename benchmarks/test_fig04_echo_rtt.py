"""Figure 4: responding to TCP messages on the host vs. on the DPU.

A client echoes messages of rising size off a server with a BF-2;
answering from the DPU skips the NIC-to-host forwarding and the host
kernel stack.
"""

from _tables import NONDECREASING, Claim, bench, between, each, emit, us

from repro.bench import EchoBench
from repro.sim import Environment

SIZES = (64, 512, 1024, 4096, 16384)

CLAIMS = (
    Claim("fig04", "host RTT / DPU RTT, per size", "DPU halves latency",
          lambda pairs: [host.rtt / dpu.rtt for host, dpu in pairs], each(between(1.5, 3.5))),
    Claim("fig04", "host RTT by size", "grows with message size",
          lambda pairs: [host.rtt for host, _dpu in pairs], NONDECREASING),
)


def run_figure():
    rows = []
    pairs = []
    for size in SIZES:
        host = EchoBench(Environment()).measure("host-os", size)
        dpu = EchoBench(Environment()).measure("dpu-raw", size)
        pairs.append((host, dpu))
        rows.append(
            (
                size,
                us(host.rtt),
                us(dpu.rtt),
                f"{host.rtt / dpu.rtt:.2f}x",
            )
        )
    emit(
        "fig04",
        "echo RTT: host responder vs DPU responder",
        ("msg bytes", "host RTT", "DPU RTT", "speedup"),
        rows, CLAIMS, pairs,
    )
    return pairs


test_fig04_echo_rtt = bench(run_figure)
