"""The tenant QoS gate: admission, bounded queues, shedding, backpressure.

Unit tests drive :class:`TenantQosGate` directly with a stub service;
integration tests install it on a real :class:`ShardedOffloadServer`
via ``enable_qos`` and check the QoS-off datapath stays untouched.
"""

import pytest

from repro.bench.harness import build_cluster
from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.net.packet import FiveTuple
from repro.sim import Environment
from repro.topology.qos import QosConfig, TenantQosGate, TokenBucket
from repro.workload import OpenLoopTrafficEngine, TenantSpec

IO_SIZE = 1024

FLOW_A = FiveTuple("10.0.0.2", 40001, "10.0.0.1", 5000)
FLOW_B = FiveTuple("10.0.0.3", 40002, "10.0.0.1", 5000)


def read(request_id, file_id=1, size=IO_SIZE):
    return IoRequest(OpCode.READ, request_id, file_id, 0, size)


class Collector:
    """Records every response the gate (or the service) sends."""

    def __init__(self):
        self.responses = []

    def __call__(self, response):
        self.responses.append(response)

    @property
    def throttled(self):
        return [r for r in self.responses if r.throttled]

    @property
    def acked(self):
        return [r for r in self.responses if r.ok]


def make_service(env, delay=10e-6):
    def service(flow, requests, respond):
        yield env.timeout(delay)
        for request in requests:
            respond(IoResponse(request.request_id, ok=True))

    return service


class TestTokenBucket:
    def test_burst_then_refill_on_sim_clock(self):
        env = Environment()
        bucket = TokenBucket(env, rate=1000.0, burst=4.0)
        assert all(bucket.try_take() for _ in range(4))
        assert not bucket.try_take()  # burst exhausted
        env.run(until=env.timeout(2e-3))  # 2 tokens accrue lazily
        assert bucket.try_take()
        assert bucket.try_take()
        assert not bucket.try_take()

    def test_refill_caps_at_burst(self):
        env = Environment()
        bucket = TokenBucket(env, rate=1e6, burst=3.0)
        env.run(until=env.timeout(1.0))
        assert bucket.tokens == pytest.approx(3.0)

    def test_validation(self):
        env = Environment()
        with pytest.raises(ValueError):
            TokenBucket(env, rate=0.0, burst=1.0)
        with pytest.raises(ValueError):
            TokenBucket(env, rate=1.0, burst=0.5)


class TestGateUnit:
    def test_admission_shed_answers_throttled(self, monkeypatch):
        monkeypatch.setattr(QosConfig, "TENANT_RATE", 1000.0)
        monkeypatch.setattr(QosConfig, "TENANT_BURST", 2.0)
        env = Environment()
        gate = TenantQosGate(env, QosConfig(), make_service(env))
        out = Collector()
        for rid in range(1, 6):
            gate.intake(FLOW_A, [read(rid)], out)
        # Burst of 2 admitted, the other 3 shed synchronously.
        assert len(out.throttled) == 3
        assert all(not r.ok for r in out.throttled)
        stats = gate.stats_for("10.0.0.2:40001")
        assert stats.shed_admission == 3
        env.run(until=env.timeout(1e-3))
        assert len(out.acked) == 2

    def test_queue_is_bounded_drop_from_front(self):
        env = Environment()
        gate = TenantQosGate(
            env,
            # max_inflight=1 + slow service: the queue actually builds.
            QosConfig(queue_capacity=4, max_inflight=1),
            make_service(env, delay=1e-3),
        )
        out = Collector()
        for rid in range(1, 12):
            gate.intake(FLOW_A, [read(rid)], out)
        stats = gate.stats_for("10.0.0.2:40001")
        assert stats.max_depth <= 4
        assert stats.shed_queue_full > 0
        # Drop-from-front: the oldest ids were shed, the newest kept.
        shed_ids = sorted(r.request_id for r in out.throttled)
        assert shed_ids == list(range(1, 1 + len(shed_ids)))

    def test_deadline_shed_skips_stale_work(self):
        env = Environment()
        gate = TenantQosGate(
            env,
            QosConfig(max_inflight=1, sojourn_target=0.5e-3),
            make_service(env, delay=2e-3),
        )
        out = Collector()
        for rid in range(1, 6):
            gate.intake(FLOW_A, [read(rid)], out)
        env.run(until=env.timeout(20e-3))
        stats = gate.stats_for("10.0.0.2:40001")
        # Head of line served; everything behind it aged past target
        # while the slow dispatch window was full.
        assert stats.shed_deadline == 4
        assert len(out.acked) == 1

    def test_shed_of_completed_id_replays_cached_response(self, monkeypatch):
        monkeypatch.setattr(QosConfig, "TENANT_RATE", 1000.0)
        monkeypatch.setattr(QosConfig, "TENANT_BURST", 1.0)
        env = Environment()

        class FakeDedup:
            def __init__(self):
                self.done = {}

            def cached(self, request_id):
                return self.done.get(request_id)

        dedup = FakeDedup()
        cached = IoResponse(7, ok=True)
        dedup.done[7] = cached
        gate = TenantQosGate(
            env,
            QosConfig(),
            make_service(env),
            dedup_source=lambda: dedup,
        )
        out = Collector()
        gate.intake(FLOW_A, [read(6)], out)  # takes the only token
        gate.intake(FLOW_A, [read(7)], out)  # would shed -> replays
        gate.intake(FLOW_A, [read(8)], out)  # genuinely shed
        replayed = [r for r in out.responses if r.request_id == 7]
        assert replayed == [cached]
        assert replayed[0].ok and not replayed[0].throttled
        stats = gate.stats_for("10.0.0.2:40001")
        assert stats.replayed == 1
        assert stats.shed_admission == 1

    def test_drr_shares_bytes_by_weight(self, monkeypatch):
        monkeypatch.setattr(QosConfig, "QUANTUM_BYTES", 4096.0)
        env = Environment()
        gate = TenantQosGate(
            env,
            QosConfig(
                queue_capacity=512,
                max_inflight=1,
                sojourn_target=None,
                weights={"10.0.0.2:40001": 3.0, "10.0.0.3:40002": 1.0},
            ),
            make_service(env, delay=20e-6),
        )
        def write(rid):
            # Byte-heavy messages: the quantum must meter rounds, which
            # header-only reads (tens of bytes) would never exercise.
            return IoRequest(
                OpCode.WRITE, rid, 1, 0, IO_SIZE, bytes(IO_SIZE)
            )

        out = Collector()
        for rid in range(1, 201):
            gate.intake(FLOW_A, [write(2000 + rid)], out)
            gate.intake(FLOW_B, [write(4000 + rid)], out)
        env.run(until=env.timeout(2e-3))  # partial drain: contention window
        heavy = gate.stats_for("10.0.0.2:40001")
        light = gate.stats_for("10.0.0.3:40002")
        assert heavy.bytes_dispatched + light.bytes_dispatched > 0
        ratio = heavy.bytes_dispatched / light.bytes_dispatched
        assert ratio == pytest.approx(3.0, rel=0.25)

    def test_backlog_and_inflight_settle_to_zero(self):
        env = Environment()
        gate = TenantQosGate(
            env, QosConfig(sojourn_target=None), make_service(env)
        )
        out = Collector()
        for rid in range(1, 30):
            gate.intake(FLOW_A, [read(rid)], out)
        env.run(until=env.timeout(10e-3))
        assert gate.backlog == 0
        assert gate.inflight == 0
        assert len(out.acked) == 29
        totals = gate.totals
        assert totals.dispatched == 29
        assert totals.shed == 0

    def test_config_validation(self, monkeypatch):
        with monkeypatch.context() as patch, pytest.raises(ValueError):
            patch.setattr(QosConfig, "QUANTUM_BYTES", 0)
            QosConfig()
        with pytest.raises(ValueError):
            QosConfig(queue_capacity=0)
        with pytest.raises(ValueError):
            QosConfig(max_inflight=0)
        with pytest.raises(ValueError):
            QosConfig(sojourn_target=0.0)
        with pytest.raises(ValueError):
            QosConfig(weights={"t": 0.0})
        # The admission buckets are built on a tenant's first message;
        # a bad setting must fail here, not out of ``env.run()`` mid-run.
        for constant, value in (
            ("TENANT_RATE", 0.0),
            ("TENANT_RATES", {"ok": 10.0, "bad": -1.0}),
            ("TENANT_BURST", 0.5),
        ):
            with monkeypatch.context() as patch, pytest.raises(ValueError):
                patch.setattr(QosConfig, constant, value)
                QosConfig()
        for settings in ({"global_rate": 0.0}, {"global_burst": 0.0}):
            with pytest.raises(ValueError):
                QosConfig(**settings)


# ----------------------------------------------------------------------
# enable_qos on the real sharded datapath
# ----------------------------------------------------------------------
def drive(enable, tenant_rate=None, seed=17):
    with pytest.MonkeyPatch.context() as patch:
        if tenant_rate:
            patch.setattr(QosConfig, "TENANT_RATES", {"greedy": tenant_rate})
        patch.setattr(QosConfig, "TENANT_BURST", 16.0)
        return _drive(enable, seed)


def _drive(enable, seed):
    cluster = build_cluster(shards=2, files=8, file_bytes=1 << 20)
    env, server, file_ids = cluster.env, cluster.server, cluster.file_ids
    specs = [
        TenantSpec("steady", 0, rate=30_000.0, slo_p99=2e-3),
        TenantSpec("greedy", 1, rate=120_000.0),
    ]
    engine = OpenLoopTrafficEngine(
        env, server, specs, file_ids, horizon=10e-3, seed=seed
    )
    gate = None
    if enable:
        gate = server.enable_qos(QosConfig(tenant_of=engine.tenant_for_flow))
    result = engine.run()
    return server, gate, result


class TestEnableQos:
    def test_qos_off_datapath_untouched(self):
        server, _gate, result = drive(enable=False)
        assert server.qos is None
        # Nothing interposes: ingress enters the shard steering itself.
        assert server._steering is server.steering
        assert result.throttled_responses == 0
        assert result.acked == result.offered

    def test_gate_caps_flooder_and_signals_backpressure(self):
        _server, gate, result = drive(enable=True, tenant_rate=20_000.0)
        greedy = gate.stats_for("greedy")
        steady = gate.stats_for("steady")
        assert greedy.shed_admission > 0
        assert steady.shed == 0  # unthrottled tenant rides through
        assert result.throttled_responses == greedy.shed
        # Backpressure arrives as explicit responses, not silence:
        # every offered request was answered one way or the other.
        assert result.acked + result.throttled_responses == result.offered
        assert result.tenants["steady"].acked == (
            result.tenants["steady"].offered
        )

    def test_gate_is_installed_as_a_stage(self):
        server, gate, _result = drive(enable=True)
        assert server.qos is gate
        assert gate in server.stages
        assert server._steering is gate
        with pytest.raises(RuntimeError):
            server.enable_qos()

    def test_gate_dispatch_preserves_request_flow(self):
        _server, gate, result = drive(enable=True)
        totals = gate.totals
        assert totals.dispatched == result.offered
        assert totals.shed == 0
        assert result.acked == result.offered
