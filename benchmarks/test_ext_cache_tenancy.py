"""Extensions (§10 related work, implemented): DPU cache and isolation.

* Xenic-style DPU-memory read caching in front of the offload engine:
  a small on-board cache absorbs skewed read traffic, lifting
  throughput past the SSD's ceiling.
* Gimbal-style multi-tenant fairness: the datapath's deficit-round-
  robin dispatcher (:class:`~repro.topology.qos.TenantQosGate`) bounds
  a light tenant's latency under a heavy tenant's burst, at no cost to
  aggregate throughput.
"""

from _tables import emit, kops, us

from repro.apps.dpu_cache import run_dpu_cache_experiment
from repro.bench.harness import run_tenant_isolation

CACHE_SIZES = (0, 128 << 10, 512 << 10, 2 << 20)


def run_cache():
    results = {
        size: run_dpu_cache_experiment(size, reads=2400)
        for size in CACHE_SIZES
    }
    rows = [
        (
            f"{size >> 10}KB" if size else "off",
            f"{r.hit_rate * 100:.1f}%",
            kops(r.throughput),
            us(r.mean_latency),
            r.ssd_reads,
        )
        for size, r in results.items()
    ]
    emit(
        "ext_dpu_cache",
        "DPU-memory read cache under Zipfian reads",
        ("cache", "hit rate", "reads/s", "mean latency", "SSD reads"),
        rows,
    )
    return results


def run_tenancy():
    results = {
        scheduler: run_tenant_isolation(scheduler)
        for scheduler in ("fifo", "drr")
    }
    rows = [
        (
            scheduler,
            f"{r.light_max_latency * 1e3:.2f}ms",
            us(r.light_mean_latency),
            f"{r.heavy_throughput:.0f}/s",
        )
        for scheduler, r in results.items()
    ]
    emit(
        "ext_multitenancy",
        "light tenant under a heavy burst: FIFO vs DRR",
        ("scheduler", "light max lat", "light mean", "heavy tput"),
        rows,
    )
    return results


def test_ext_dpu_cache(benchmark):
    results = benchmark.pedantic(run_cache, rounds=1, iterations=1)
    stock = results[0]
    big = results[2 << 20]
    # Hit rate and throughput grow monotonically with cache size.
    hit_rates = [results[s].hit_rate for s in CACHE_SIZES]
    assert hit_rates == sorted(hit_rates)
    assert big.hit_rate > 0.6
    assert big.throughput > 2 * stock.throughput
    assert big.ssd_reads < 0.5 * stock.ssd_reads


def test_ext_multitenancy(benchmark):
    results = benchmark.pedantic(run_tenancy, rounds=1, iterations=1)
    fifo, drr = results["fifo"], results["drr"]
    assert fifo.light_max_latency > 10e-3  # head-of-line blocking
    assert drr.light_max_latency < fifo.light_max_latency / 50
    assert drr.heavy_throughput > 0.9 * fifo.heavy_throughput
