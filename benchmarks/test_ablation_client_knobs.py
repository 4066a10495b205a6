"""Ablations on the §8.1 client's load-control knobs.

The paper's client "controls the request rate via parameters: the number
of requests batched in a message, the number of outstanding messages,
and the number of concurrent connections" but never shows their effect.
These sweeps do: batching amortizes per-message stack costs, and the
outstanding window walks the closed-loop throughput/latency curve.
"""

from _tables import (
    INCREASING, NONDECREASING, Claim, above, at_least, below, bench, cores, each, emit, kops,
    ratio, us
)

from repro.bench import run_io_experiment

BATCHES = (1, 2, 4, 8, 16)
WINDOWS = (8, 32, 128, 512)


def _per_request(batch):
    return lambda r: r[("baseline", batch)].host_cores / r[("baseline", batch)].achieved_iops


KNOB = "not plotted (Sec. 8.1 knob)"
CLAIMS = (
    # The per-request OS-filesystem cost cannot amortize: a partial saving.
    Claim("ablation_batching", "baseline host cores per request, batch 16 / 1", KNOB,
          ratio(_per_request(16), _per_request(1)), below(0.72)),
    Claim("ablation_batching", "dds-offload host cores, batch 1 and 16", KNOB,
          lambda r: [r[("dds-offload", b)].host_cores for b in (1, 16)], each(below(0.05))),
    Claim("ablation_batching", "dds-offload p50, batch 16 / 1", KNOB,
          lambda r: r[("dds-offload", 16)].p50 / r[("dds-offload", 1)].p50, below(3)),
    Claim("ablation_window", "IOPS, window 8 and 32", KNOB,
          lambda r: [r[w].achieved_iops for w in WINDOWS[:2]], INCREASING),
    Claim("ablation_window", "p50 by window", KNOB,
          lambda r: [r[w].p50 for w in WINDOWS], NONDECREASING),
    Claim("ablation_window", "IOPS at the deepest window", KNOB,
          lambda r: r[WINDOWS[-1]].achieved_iops, above(650e3)),
    Claim("ablation_window", "p50 at the deepest window", KNOB,
          lambda r: r[WINDOWS[-1]].p50, at_least(1e-3)),
)


def run_batch_sweep():
    results = {}
    rows = []
    for kind in ("baseline", "dds-offload"):
        for batch in BATCHES:
            result = run_io_experiment(
                kind,
                300e3,
                total_requests=6000,
                batch=batch,
                max_outstanding=max(32, 256 // batch),
            )
            results[(kind, batch)] = result
            rows.append(
                (
                    kind,
                    batch,
                    kops(result.achieved_iops),
                    cores(result.host_cores),
                    us(result.p50),
                )
            )
    emit(
        "ablation_batching",
        "requests per message: host CPU amortization at 300K IOPS",
        ("solution", "batch", "IOPS", "host cores", "p50"),
        rows, CLAIMS, results,
    )
    return results


def run_window_sweep():
    results = {}
    rows = []
    for window in WINDOWS:
        result = run_io_experiment(
            "dds-offload",
            2_000e3,  # far beyond capacity: the window sets the point
            total_requests=8000,
            max_outstanding=window,
        )
        results[window] = result
        rows.append(
            (
                window,
                kops(result.achieved_iops),
                us(result.p50),
                us(result.p99),
            )
        )
    emit(
        "ablation_window",
        "outstanding messages: closed-loop throughput/latency trade",
        ("window", "IOPS", "p50", "p99"),
        rows, CLAIMS, results,
    )
    return results


test_ablation_batching = bench(run_batch_sweep)
test_ablation_window = bench(run_window_sweep)
