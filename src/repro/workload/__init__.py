"""Open-loop multi-tenant traffic for the overload study.

Poisson tenants (:class:`TenantSpec`) whose shared rate curve may carry
flash crowds, Zipf-skewed file popularity, and an engine that drives
them open loop — all from :class:`~repro.sim.rng.SeededRng`, so any run
replays deterministically from its seed.

Quickstart::

    from repro.workload import FlashCrowd, OpenLoopTrafficEngine, TenantSpec

    tenants = [
        TenantSpec(f"tenant-{i}", i, rate=15_000.0) for i in range(10)
    ]
    engine = OpenLoopTrafficEngine(
        env, server, tenants, file_ids,
        horizon=40e-3, events=(FlashCrowd(start=10e-3, duration=10e-3),),
    )
    result = engine.run()
    print(result.acked, result.goodput_curve(bucket=1e-3))

The engine is *open loop*: arrivals fire on the tenant's clock whether
or not earlier requests completed, which is exactly the regime where
retry storms and metastable collapse appear (and what the QoS gate in
:mod:`repro.topology.qos` defends against).
"""

from .arrivals import FlashCrowd, PoissonArrivals, RateCurve
from .engine import OpenLoopTrafficEngine, TenantOutcome, TrafficResult
from .tenants import TenantSpec

__all__ = [
    "FlashCrowd",
    "OpenLoopTrafficEngine",
    "PoissonArrivals",
    "RateCurve",
    "TenantOutcome",
    "TenantSpec",
    "TrafficResult",
]
