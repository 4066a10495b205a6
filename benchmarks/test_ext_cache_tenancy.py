"""Extensions (§10 related work, implemented): DPU cache and isolation.

* Xenic-style DPU-memory read caching in front of the offload engine,
  under Zipfian reads.
* Gimbal-style multi-tenant fairness: the datapath's deficit-round-
  robin dispatcher (:class:`~repro.topology.qos.TenantQosGate`) against
  FIFO, for a light tenant under a heavy tenant's burst.
"""

from _tables import NONDECREASING, Claim, above, below, bench, emit, kops, us

from repro.apps.dpu_cache import run_dpu_cache_experiment
from repro.bench.harness import run_tenant_isolation

CACHE_SIZES = (0, 128 << 10, 512 << 10, 2 << 20)

XENIC = "Sec. 10: Xenic-style DPU caching"
GIMBAL = "Sec. 10: Gimbal-style fairness"
CLAIMS = (
    Claim("ext_dpu_cache", "hit rate by cache size", XENIC,
          lambda r: [result.hit_rate for result in r.values()], NONDECREASING),
    Claim("ext_dpu_cache", "hit rate, 2 MiB cache", XENIC,
          lambda r: r[2 << 20].hit_rate, above(0.6)),
    Claim("ext_dpu_cache", "reads/s, 2 MiB cache / off", XENIC,
          lambda r: r[2 << 20].throughput / r[0].throughput, above(2)),
    Claim("ext_dpu_cache", "SSD reads, 2 MiB cache / off", XENIC,
          lambda r: r[2 << 20].ssd_reads / r[0].ssd_reads, below(0.5)),
    Claim("ext_multitenancy", "fifo light-tenant max latency", "head-of-line blocking",
          lambda r: r["fifo"].light_max_latency, above(10e-3)),
    Claim("ext_multitenancy", "light max latency, drr / fifo", GIMBAL,
          lambda r: r["drr"].light_max_latency / r["fifo"].light_max_latency, below(1 / 50)),
    Claim("ext_multitenancy", "heavy throughput, drr / fifo", GIMBAL,
          lambda r: r["drr"].heavy_throughput / r["fifo"].heavy_throughput, above(0.9)),
)


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
        rows, CLAIMS, results,
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
        rows, CLAIMS, results,
    )
    return results


test_ext_dpu_cache = bench(run_cache)
test_ext_multitenancy = bench(run_tenancy)
