"""Figure 5: FASTER YCSB-RMW throughput on the host vs. on the DPU.

N worker threads run read-modify-write operations back-to-back against
an in-memory FASTER instance.  On the host, threads scale across the
EPYC cores; on the BF-2 the pool is capped at 8 wimpy Arm cores and the
RMW's random memory traffic is further penalized (small caches), which
is what makes offloading *update* workloads to the DPU a bad idea —
the motivation for DDS's partial-offloading split (§2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from ..apps.faster import FasterKv
from ..apps.ycsb import YcsbWorkload
from ..hardware.cpu import CpuPool
from ..hardware.specs import DPU_CPU
from ..sim import Environment

__all__ = ["RmwResult", "run_rmw_scaling"]

#: Figure 5 anchor: FASTER runs up to ~4.5x slower on the DPU.  Beyond
#: the 0.35x core-speed ratio, the A72's small caches multiply the cost
#: of RMW's random memory traffic.
DPU_MEMORY_COST_SCALE = 6.0


@dataclass
class RmwResult:
    """One Figure 5 measurement point."""

    platform: str
    threads: int
    throughput: float  # RMW ops per second


def run_rmw_scaling(
    platform: str,
    threads: int,
    ops_per_thread: int = 2_000,
) -> RmwResult:
    """Measure RMW throughput with ``threads`` workers on one platform
    (10,000 YCSB records, seed 31)."""
    records, seed = 10_000, 31
    if platform not in ("host", "dpu"):
        raise ValueError(f"unknown platform: {platform!r}")
    env = Environment()
    if platform == "host":
        pool = CpuPool(env, cores=48, speed=1.0, name="host")
        memory_scale = 1.0
    else:
        # The DPU has only 8 cores: requesting more threads just queues.
        pool = CpuPool(
            env, cores=DPU_CPU.cores, speed=DPU_CPU.speed, name="dpu"
        )
        memory_scale = DPU_MEMORY_COST_SCALE
    kv = FasterKv(
        env,
        pool,
        memory_budget=max(records * 32, 1 << 16),
        memory_cost_scale=memory_scale,
    )
    workload = YcsbWorkload(records, mix="RMW", seed=seed)
    for key, _value in workload.load_keys():
        kv.load(key, 0)

    def worker(worker_seed: int) -> Generator:
        local = YcsbWorkload(records, mix="RMW", seed=worker_seed)
        for op in local.ops(ops_per_thread):
            yield from kv.rmw(op.key)

    workers: List = [
        env.process(worker(seed + 100 + i)) for i in range(threads)
    ]
    done = env.all_of(workers)
    env.run(until=done)
    total_ops = threads * ops_per_thread
    return RmwResult(
        platform=platform,
        threads=threads,
        throughput=total_ops / env.now if env.now > 0 else 0.0,
    )
