"""Ablations on the DDS ring design (§4.1) — beyond the paper's figures.

* **Maximum allowable progress (M)** — the batching hyperparameter:
  small M bounds how long a message sits in a batch, large M buys
  amortization.  The paper exposes M but never sweeps it.
* **Pointer layout** — Figure 7 places the progress pointer immediately
  before the tail so the consumer's ``progress == tail`` check needs a
  single DMA read; the rejected layout (tail first) needs two
  dependent DMA reads per poll cycle.
"""

from _tables import DECREASING, INCREASING, Claim, above, bench, each, emit, us

from repro.core import RingTransferModel
from repro.sim import Environment
from repro.structures import ProgressRing

M_VALUES = (512, 1024, 4096)
PRODUCERS = 16

M = "not plotted (Sec. 4.1 exposes M)"
LAYOUT = "Figure 7: progress before tail"
CLAIMS = (
    Claim("ablation_max_progress", "msg/s, smallest and largest M", M,
          lambda r: [r[m].rate for m in (M_VALUES[0], M_VALUES[-1])], INCREASING),
    Claim("ablation_max_progress", "median latency, smallest and largest M", M,
          lambda r: [r[m].median_latency for m in (M_VALUES[0], M_VALUES[-1])], INCREASING),
    Claim("ablation_pointer_layout", "msg/s, progress-first / tail-first, per batch", LAYOUT,
          lambda r: [good / bad for good, bad in r.values()], each(above(1))),
    Claim("ablation_pointer_layout", "cycle overhead of tail-first, 256 B, 4 KiB batch", LAYOUT,
          lambda r: [r[b][0] / r[b][1] - 1 for b in (256, 4096)], DECREASING),
)


def run_max_progress():
    results = {}
    rows = []
    for m in M_VALUES:
        model = RingTransferModel(Environment(), "progress", PRODUCERS)
        model.ring = ProgressRing(1 << 12, max_progress=m)
        outcome = model.run(messages_per_producer=1200)
        results[m] = outcome
        rows.append(
            (m, f"{outcome.rate / 1e6:.2f}M", us(outcome.median_latency))
        )
    emit(
        "ablation_max_progress",
        "max allowable progress (M): batching throughput vs latency",
        ("M bytes", "msg/s", "median latency"),
        rows, CLAIMS, results,
    )
    return results


def run_pointer_layout():
    """Fetch-cycle cost of the two pointer layouts, measured on the
    real :class:`DmaRingChannel`.

    With progress-before-tail, one 64-byte DMA read covers both
    pointers; with tail-before-progress the consumer issues two
    dependent reads per cycle.
    """
    from repro.core import DmaRingChannel
    from repro.hardware import DmaEngine

    rows = []
    results = {}
    for batch_bytes in (256, 1024, 4096):
        times = {}
        for layout in ("progress-first", "tail-first"):
            env = Environment()
            channel = DmaRingChannel(
                env, DmaEngine(env), pointer_layout=layout
            )
            message = bytes(8)
            count = max(1, batch_bytes // 12)
            for _ in range(count):
                inserted = channel.try_insert(message)
                assert inserted

            def cycle():
                batch = yield from channel.fetch_batch()
                return batch

            proc = env.process(cycle())
            env.run(until=proc)
            assert len(proc.value) == count
            times[layout] = env.now
        good, bad = times["progress-first"], times["tail-first"]
        messages = max(1, batch_bytes // 12)
        results[batch_bytes] = (messages / good, messages / bad)
        rows.append(
            (
                batch_bytes,
                us(good),
                us(bad),
                f"+{(bad / good - 1) * 100:.0f}%",
            )
        )
    emit(
        "ablation_pointer_layout",
        "fetch-cycle cost: progress-before-tail vs tail-before-progress",
        ("batch bytes", "P-before-T", "T-before-P", "cycle overhead"),
        rows, CLAIMS, results,
    )
    return results


test_ablation_max_progress = bench(run_max_progress)
test_ablation_pointer_layout = bench(run_pointer_layout)
