#!/usr/bin/env python
"""Graceful degradation under a flash crowd: metastability, then the fix.

A single-shard DDS deployment saturates at ~52K IOPS of 64 KiB reads.
An open-loop tenant population — three latency-sensitive interactive
accounts and one batch whale — offers 80% of that, and then a flash
crowd multiplies demand 5x for six milliseconds.

The demo runs the scenario twice:

* **stock** — clients retry up to 8 times on timeout with no retry
  budget, and the server has no admission control.  The crowd fills
  the queues, timeouts breed retries, retries keep the queues full:
  goodput stays collapsed long after the crowd has left.  That
  self-sustaining failure mode is *metastability*.
* **defended** — the server runs the tenant QoS gate (token-bucket
  admission at 90% of capacity, bounded per-tenant queues with
  CoDel-style deadline shedding, weighted-fair DRR dispatch, explicit
  THROTTLED backpressure) and clients share a success-refilled
  :class:`RetryBudget`.  Excess demand is shed at the door, the
  interactive tenants keep millisecond p99s through the crowd, and
  goodput snaps back to the baseline as soon as the crowd leaves.

The timeline table prints acked throughput in 2 ms buckets so the
collapse — and the recovery — are visible bucket by bucket.

Run:  python examples/overload_demo.py
"""

from dataclasses import replace

from repro.bench.harness import OVERLOAD, run

BUCKET = 2e-3


def main():
    results = {
        label: run(replace(OVERLOAD, defended=defended)).result
        for label, defended in (("stock", False), ("defended", True))
    }

    print("=== acked throughput timeline (2 ms buckets) ===")
    print("crowd arrives at 8 ms, leaves at 14 ms\n")
    curves = {
        label: result.goodput_curve(BUCKET)
        for label, result in results.items()
    }
    buckets = max(len(curve) for curve in curves.values())
    print(f"{'window':>12}  {'stock':>10}  {'defended':>10}  note")
    for i in range(buckets):
        lo, hi = i * BUCKET * 1e3, (i + 1) * BUCKET * 1e3
        cells = [
            (
                f"{curves[label][i] / 1e3:.1f}K"
                if i < len(curves[label]) else "-"
            )
            for label in ("stock", "defended")
        ]
        note = ""
        if lo == 8.0:
            note = "<- flash crowd begins (5x demand)"
        elif lo == 14.0:
            note = "<- crowd gone; only the stock config stays down"
        print(
            f"{lo:>5.0f}-{hi:<5.0f}  {cells[0]:>10}  {cells[1]:>10}  {note}"
        )

    print("\n=== outcome ===")
    header = (
        f"{'config':<10} {'acked':>8} {'retries':>8} {'throttled':>10} "
        f"{'p99':>9}"
    )
    print(header)
    for label, result in results.items():
        print(
            f"{label:<10} {result.acked:>8} {result.retries:>8} "
            f"{result.throttled_responses:>10} {result.p99 * 1e3:>7.2f}ms"
        )

    stock, defended = results["stock"], results["defended"]
    print(
        f"\nstock amplification: {stock.amplification:.2f}x demand "
        f"(the retry storm); defended: {defended.amplification:.2f}x"
    )
    print(
        "defended clients saw "
        f"{defended.throttled_responses} explicit THROTTLED responses "
        "instead of silent timeouts,"
    )
    print(
        f"and the retry budget denied {defended.budget_denied} retry "
        "attempts before they could feed the storm."
    )


if __name__ == "__main__":
    main()
