"""Figure 17: DMA-based ring buffer performance (§8.5).

Host threads push 8-byte messages to the DPU through three designs:
the FaRM-style flag ring (no batching, PCIe polling, a release write
per message), a lock-based ring, and DDS's progress-pointer ring.
"""

from _tables import (
    Claim, above, below, bench, between, each, emit, of, ratio, us
)

from repro.core import RingTransferModel
from repro.sim import Environment

PRODUCERS = (1, 4, 16, 64)
DESIGNS = ("progress", "lock", "farm")


def _latency_ratios(other):
    return lambda r: [r[("progress", n)].median_latency / r[(other, n)].median_latency
                      for n in PRODUCERS]


CLAIMS = (
    Claim("fig17", "farm msg/s, per producer count", "64K op/s",
          lambda r: [r[("farm", n)].rate for n in PRODUCERS], each(below(150e3))),
    Claim("fig17", "lock msg/s, 1 producer", "22M", of(("lock", 1), "rate"), above(10e6)),
    Claim("fig17", "lock msg/s, 64 / 1 producers", "22M -> 1.4M",
          ratio(of(("lock", 64), "rate"), of(("lock", 1), "rate")), below(0.2)),
    Claim("fig17", "progress msg/s, 64 producers", "6.5M",
          of(("progress", 64), "rate"), between(3e6, 12e6)),
    Claim("fig17", "msg/s at 64 producers, progress / farm", "10x",
          ratio(of(("progress", 64), "rate"), of(("farm", 64), "rate")), above(6)),
    Claim("fig17", "msg/s at 64 producers, progress / lock", "4.5x",
          ratio(of(("progress", 64), "rate"), of(("lock", 64), "rate")), above(2.5)),
    Claim("fig17", "median latency at 64 producers, progress / lock", "DDS lowest",
          ratio(of(("progress", 64), "median_latency"), of(("lock", 64), "median_latency")),
          below(1)),
    Claim("fig17", "median latency progress / lock, per producer count", "DDS lowest",
          _latency_ratios("lock"), each(below(2.0))),
    Claim("fig17", "median latency progress / farm, per producer count", "DDS lowest",
          _latency_ratios("farm"), each(below(1))),
)


def run_figure():
    results = {}
    rows = []
    for design in DESIGNS:
        for producers in PRODUCERS:
            messages = 1500 if design == "farm" else 20_000
            model = RingTransferModel(
                Environment(), design, producers
            )
            outcome = model.run(messages_per_producer=max(
                1, messages // producers
            ))
            results[(design, producers)] = outcome
            rows.append(
                (
                    design,
                    producers,
                    f"{outcome.rate / 1e6:.2f}M",
                    us(outcome.median_latency),
                )
            )
    emit(
        "fig17",
        "ring buffers: message rate and median latency vs producers",
        ("design", "producers", "msg/s", "median latency"),
        rows, CLAIMS, results,
    )
    return results


test_fig17_ring_buffer = bench(run_figure)
