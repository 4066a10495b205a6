"""Every invariant family judges one run.

Four replicated shards behind the tenant QoS gate, with dedup and
breakers: three open-loop tenants and a capped flooder, all at 75 %
reads, while shard 1 is killed at 10 ms for 5 ms; then a drain until
every shard is alive again.  One :class:`InvariantChecker` is the
client, replicator and gate observer at once, with SLOs declared and
one OL1 window open, so Durability, RI1–RI5 and OL1–OL4 all judge the
same run.  A clean verdict must also show that every family saw work.
"""

import pytest

from repro.bench.harness import build_cluster, drain_until
from repro.core.retry import RetryBudget, RetryPolicy
from repro.faults import FaultInjector, FaultPlan, InvariantChecker, ShardKill
from repro.topology.qos import QosConfig
from repro.topology.sharding import ShardedOffloadServer
from repro.workload import OpenLoopTrafficEngine, TenantSpec

pytestmark = pytest.mark.chaos

SLO_P99 = 12e-3
FLOOD_CAP = 30_000.0
GOODPUT_FLOOR = 30_000.0
HORIZON = 30e-3


def run_composed(seed):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShardedOffloadServer, "BREAKER_SATURATION", 16)
        patch.setattr(TenantSpec, "READ_FRACTION", 0.75)
        patch.setattr(QosConfig, "TENANT_RATES", {"flood": FLOOD_CAP})
        patch.setattr(QosConfig, "TENANT_BURST", 32.0)
        return _run_composed(seed)


def _run_composed(seed):
    cluster = build_cluster(shards=4, files=8, file_bytes=1 << 20)
    env, server = cluster.env, cluster.server
    dedup = server.enable_resilience()
    specs = [
        TenantSpec(f"acct-{i}", i, rate=20_000.0) for i in range(3)
    ]
    specs.append(TenantSpec("flood", 3, rate=250_000.0))
    engine = OpenLoopTrafficEngine(
        env, server, specs, cluster.file_ids, horizon=HORIZON, seed=seed,
        retry_policy=RetryPolicy(max_attempts=4, timeout=2e-3),
        retry_budget=RetryBudget(capacity=64.0, refill_ratio=0.1),
    )
    names = {spec.index: spec.name for spec in specs}
    checker = InvariantChecker(env, tenant_of=lambda r: names[r.tag])
    engine.observer = checker
    for spec in specs:
        checker.set_slo(spec.name, SLO_P99, exempt=spec.name == "flood")
    server.enable_replication(checker)
    server.enable_qos(
        QosConfig(tenant_of=engine.tenant_for_flow), checker=checker
    )
    plan = FaultPlan(
        seed=seed, events=(ShardKill(at=10e-3, down_for=5e-3, shard=1),)
    )
    FaultInjector(env, server, plan).arm()

    def window():
        yield env.timeout(2e-3)
        checker.begin_overload_window(GOODPUT_FLOOR)
        yield env.timeout(HORIZON - 4e-3)
        checker.end_overload_window()

    env.process(window())
    engine.start()
    env.run(until=env.timeout(HORIZON + 10e-3))
    drain_until(env, lambda: all(s.alive for s in server.shards), 400)
    env.run(until=env.timeout(1e-3))
    return checker, checker.check(server, dedup=dedup)


class TestEveryFamilyInOneRun:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_composed(seed=29)

    def test_clean_verdict(self, outcome):
        _checker, report = outcome
        report.assert_ok()
        assert report.ok

    def test_every_family_saw_work(self, outcome):
        checker, report = outcome
        assert report.verified_writes > 0  # Durability
        assert checker.commits_seen > 0  # RI3
        assert checker.handoffs_seen > 0  # RI4
        assert checker.rejoins_seen > 0  # RI5
        assert report.enqueues_seen > 0  # OL3
        assert report.sheds_seen > 0  # OL4
        assert report.dispatches_seen > 0
        assert report.goodput_samples > 0  # OL1
        assert set(report.tenant_p99) == {"acct-0", "acct-1", "acct-2",
                                          "flood"}  # OL2
