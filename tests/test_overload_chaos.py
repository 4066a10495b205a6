"""Overload chaos: a tenant flood plus a shard kill, invariants live.

The acceptance scenario for DESIGN §15: a flooding tenant drives the
gate well past its admission cap while one of four shards is killed and
recovered mid-flood.  The :class:`InvariantChecker` rides along
as both client observer and gate observer, checking OL1 (goodput
floor), OL3 (bounded queues), and OL4 (no acked request shed)
synchronously as the run executes, and OL2 (tenant SLO) at audit time.
A clean report must also *prove coverage*: zero violations with zero
sheds would mean the checker never saw overload.
"""

import types

import pytest

from repro.bench.harness import build_cluster
from repro.core.retry import RetryBudget, RetryPolicy
from repro.faults import (
    FaultPlan,
    FaultInjector,
    InvariantChecker,
    ShardKill,
)
from repro.sim import Environment
from repro.topology.qos import QosConfig
from repro.topology.sharding import ShardedOffloadServer
from repro.workload import OpenLoopTrafficEngine, TenantSpec

pytestmark = pytest.mark.chaos

IO_SIZE = 1024

SLO_P99 = 12e-3
FLOOD_CAP = 30_000.0  # admission cap for the abusive tenant
GOODPUT_FLOOR = 30_000.0  # conservative: half the compliant demand
HORIZON = 30e-3


def build_stack(seed=29):
    cluster = build_cluster(shards=4, files=8, file_bytes=1 << 20)
    env, server, file_ids = cluster.env, cluster.server, cluster.file_ids
    server.enable_resilience()

    specs = [
        TenantSpec(
            f"acct-{i}", i, rate=20_000.0, slo_p99=SLO_P99
        )
        for i in range(3)
    ]
    specs.append(TenantSpec("flood", 3, rate=250_000.0))
    engine = OpenLoopTrafficEngine(
        env,
        server,
        specs,
        file_ids,
        horizon=HORIZON,
        seed=seed,
        retry_policy=RetryPolicy(max_attempts=4, timeout=2e-3),
        retry_budget=RetryBudget(capacity=64.0, refill_ratio=0.1),
    )
    names = {spec.index: spec.name for spec in specs}
    checker = InvariantChecker(env, tenant_of=lambda r: names[r.tag])
    engine.observer = checker
    for spec in specs:
        checker.set_slo(
            spec.name, spec.slo_p99 or SLO_P99, exempt=spec.name == "flood"
        )
    server.enable_qos(
        QosConfig(tenant_of=engine.tenant_for_flow), checker=checker
    )
    return env, server, engine, checker


def run_flood_with_shard_kill(seed=29):
    # The defended configuration: breakers that also open on a streak of
    # capacity bounces, and the flooder capped at admission.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ShardedOffloadServer, "BREAKER_SATURATION", 16)
        patch.setattr(QosConfig, "TENANT_RATES", {"flood": FLOOD_CAP})
        patch.setattr(QosConfig, "TENANT_BURST", 32.0)
        return _run_flood_with_shard_kill(seed)


def _run_flood_with_shard_kill(seed):
    env, server, engine, checker = build_stack(seed)
    plan = FaultPlan(
        seed=seed,
        events=(ShardKill(at=10e-3, down_for=5e-3, shard=1),),
    )
    FaultInjector(env, server, plan).arm()

    def windows():
        # Open the OL1 window once the flood has filled the pipeline;
        # close it before drain so the emptying tail isn't misread as
        # collapse.
        yield env.timeout(2e-3)
        checker.begin_overload_window(GOODPUT_FLOOR)
        yield env.timeout(HORIZON - 4e-3)
        checker.end_overload_window()

    env.process(windows())
    engine.start()
    env.run(until=env.timeout(HORIZON + 10e-3))
    return server, engine.results(), checker.check()


class TestFloodWithShardKill:
    @pytest.fixture(scope="class")
    def outcome(self):
        return run_flood_with_shard_kill()

    def test_zero_invariant_violations(self, outcome):
        _server, _result, report = outcome
        report.assert_ok()

    def test_checker_actually_witnessed_overload(self, outcome):
        """Zero violations is only meaningful with proof of coverage."""
        _server, result, report = outcome
        assert report.sheds_seen > 500  # the flood was really shed
        assert report.goodput_samples >= 20  # OL1 sampled live
        assert report.enqueues_seen > 1000  # OL3 checked on hot path
        assert report.dispatches_seen > 1000
        assert report.acks_seen == result.acked
        assert result.throttled_responses > 0  # backpressure reached
        # the clients as explicit signals

    def test_compliant_tenants_hold_their_slo(self, outcome):
        _server, result, report = outcome
        for name in ("acct-0", "acct-1", "acct-2"):
            assert 0 < report.tenant_p99[name] <= SLO_P99
            outcome_t = result.tenants[name]
            # The flood plus a dead shard must not starve them.
            assert outcome_t.acked >= 0.9 * outcome_t.offered

    def test_flooder_was_capped_not_served(self, outcome):
        server, result, _report = outcome
        flood = result.tenants["flood"]
        admitted_rate = flood.acked / HORIZON
        assert flood.throttled > flood.acked  # most of it shed
        # The cap is enforced within bucket-burst slack.
        assert admitted_rate < FLOOD_CAP * 1.2
        stats = server.qos._states["flood"].stats
        assert stats.shed_admission > 500

    def test_shard_kill_really_happened(self, outcome):
        server, _result, _report = outcome
        # The killed shard's director went down and came back: the
        # steering layer recorded failovers away from it.
        assert server.steering.failovers > 0


class TestCheckerCatchesViolations:
    """Negative controls: each rule actually fires when violated."""

    def test_ol3_unbounded_queue_flagged(self):
        env = Environment()
        checker = InvariantChecker(env)
        checker.on_enqueue("t", depth=5, capacity=4)
        report = checker.check()
        assert not report.ok
        assert report.violations[0].rule == "OL3"

    def test_ol4_shed_after_completion_flagged(self):
        env = Environment()
        checker = InvariantChecker(env)

        class Dedup:
            def cached(self, request_id):
                return object()  # everything "already completed"

        checker.attach(types.SimpleNamespace(dedup=Dedup()))
        from repro.core.messages import IoRequest, OpCode

        request = IoRequest(OpCode.READ, 9, 1, 0, IO_SIZE)
        checker.on_shed(request, "t", "admission")
        report = checker.check()
        assert [v.rule for v in report.violations] == ["OL4"]

    def test_ol1_goodput_collapse_flagged(self):
        env = Environment()
        checker = InvariantChecker(env)
        checker.begin_overload_window(min_goodput_iops=1000.0)
        env.run(until=env.timeout(5e-3))  # no acks arrive at all
        checker.end_overload_window()
        report = checker.check()
        assert any(v.rule == "OL1" for v in report.violations)
        assert report.goodput_samples >= 4

    def test_ol1_window_reopened_within_an_interval_samples_once(self):
        """Steady 100K acks/s over a 50K floor: windows [0, 2.5) and
        [2.7, 6.2) ms hold 2 + 3 whole intervals, and nothing is flagged
        (the first window's sampler used to keep sampling the second)."""
        from repro.core.messages import IoRequest, IoResponse, OpCode

        env = Environment()
        checker = InvariantChecker(env)
        request = IoRequest(OpCode.READ, 1, 1, 0, IO_SIZE)

        def acks():
            while True:
                yield env.timeout(1e-5)
                checker.on_ack(request, IoResponse(1, ok=True))

        def window(length):
            checker.begin_overload_window(min_goodput_iops=50_000.0)
            yield env.timeout(length)
            checker.end_overload_window()

        env.process(acks())
        env.process(window(2.5e-3))
        env.run(until=2.7e-3)
        env.process(window(3.5e-3))
        env.run(until=8e-3)
        assert checker.check().violations == []
        assert checker.goodput_samples == 2 + 3

    def test_ol2_slo_breach_flagged(self):
        env = Environment()
        checker = InvariantChecker(env)
        checker.set_slo("slow", p99=1e-3)
        from repro.core.messages import IoRequest, IoResponse, OpCode

        request = IoRequest(OpCode.READ, 1, 1, 0, IO_SIZE, tag=0)
        checker._tenant_of = lambda _request: "slow"
        checker.on_issue(request)
        env.run(until=env.timeout(5e-3))  # 5 ms latency vs 1 ms SLO
        checker.on_ack(request, IoResponse(1, ok=True))
        report = checker.check()
        assert [v.rule for v in report.violations] == ["OL2"]

    def test_exempt_flooder_not_held_to_slo(self):
        env = Environment()
        checker = InvariantChecker(env)
        checker.set_slo("flood", p99=1e-3, exempt=True)
        from repro.core.messages import IoRequest, IoResponse, OpCode

        request = IoRequest(OpCode.READ, 1, 1, 0, IO_SIZE, tag=0)
        checker._tenant_of = lambda _request: "flood"
        checker.on_issue(request)
        env.run(until=env.timeout(5e-3))
        checker.on_ack(request, IoResponse(1, ok=True))
        report = checker.check()
        assert report.ok
        assert report.tenant_p99["flood"] > 1e-3  # measured, not judged
