"""DRR edge cases: deficit banking, sub-quantum progress, late tenants.

These pin down the scheduler behaviours that only matter at the
margins — exactly the ones a refactor silently breaks.  They drive the
repo's one deficit round robin, the dispatcher inside
:class:`~repro.topology.qos.TenantQosGate`, one message in service at a
time so the order of service *is* the order of dispatch.
"""

import pytest

from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.net.packet import FiveTuple
from repro.sim import Environment
from repro.topology.qos import QosConfig, TenantQosGate

HEADER = IoRequest(OpCode.READ, 0, 1, 0, 0).wire_size
REQUEST = 4096


def message(request_id, cost=REQUEST):
    """One single-request message costing exactly ``cost`` DRR bytes."""
    size = cost - HEADER
    return [IoRequest(OpCode.WRITE, request_id, 1, 0, size, bytes(size))]


class Tenants:
    """A gate behind a one-at-a-time stub service, tenants by name."""

    def __init__(self, env, quantum=8192, weights=None):
        self.env = env
        #: (tenant, cost) in service order.
        self.served = []
        self._ids = iter(range(1, 1 << 20))
        config = QosConfig(
            queue_capacity=4096,
            max_inflight=1,
            sojourn_target=None,
            weights=weights or {},
            tenant_of=lambda flow: flow.client_ip,
        )
        # This gate's own quantum: the class constant, set on the instance.
        config.QUANTUM_BYTES = float(quantum)
        self.gate = TenantQosGate(env, config, self._service)

    def _service(self, flow, requests, respond):
        self.served.append(
            (flow.client_ip, sum(r.wire_size for r in requests))
        )
        yield self.env.timeout(10e-6)
        for request in requests:
            respond(IoResponse(request.request_id, ok=True))

    def submit(self, tenant, cost=REQUEST, respond=lambda response: None):
        flow = FiveTuple(tenant, 40000, "10.0.0.1", 5000)
        self.gate.intake(flow, message(next(self._ids), cost), respond)

    def deficit(self, tenant):
        return self.gate._states[tenant].deficit

    def dispatched(self, tenant):
        return self.gate.stats_for(tenant).dispatched


class TestDeficitBanking:
    def test_idle_tenant_forfeits_deficit(self):
        """A tenant with no backlog must not bank quanta: when it
        returns after idling, it competes from zero credit."""
        env = Environment()
        drr = Tenants(env)
        drr.submit("idler")  # seen once, then idle

        def load():
            # The worker churns for many rounds while the idler sleeps.
            for _ in range(50):
                drr.submit("worker")
            yield env.timeout(2e-3)
            # Were deficits banked while idle, the idler would now hold
            # ~dozens of quanta of credit.
            assert drr.deficit("idler") == 0.0
            drr.submit("idler")

        env.process(load())
        env.run(until=env.timeout(5e-3))
        assert drr.deficit("idler") <= drr.gate.config.QUANTUM_BYTES
        assert drr.dispatched("idler") == 2

    def test_emptied_queue_resets_running_deficit(self):
        env = Environment()
        drr = Tenants(env)
        for _ in range(3):
            drr.submit("a")
        env.run(until=env.timeout(2e-3))
        assert drr.dispatched("a") == 3
        # Leftover credit from the final round was forfeited with the
        # backlog.
        assert drr.deficit("a") == 0.0


class TestSubQuantumProgress:
    def test_oversized_request_accumulates_credit(self):
        """A request costing several quanta must still dispatch — the
        deficit accumulates across rounds rather than livelocking."""
        env = Environment()
        drr = Tenants(env, quantum=1024)
        drr.submit("big", 5 * 1024)  # five rounds of credit needed
        for _ in range(10):
            drr.submit("small", 512)
        env.run(until=env.timeout(5e-3))
        assert drr.dispatched("big") == 1
        assert drr.dispatched("small") == 10

    def test_small_requests_progress_alongside_giant(self):
        """While the giant accumulates credit, small tenants keep
        dispatching every round (no head-of-line across tenants)."""
        env = Environment()
        drr = Tenants(env, quantum=1024)
        drr.submit("big", 20 * 1024)
        answered = []
        drr.submit("small", 256, respond=answered.append)
        env.run(until=env.timeout(1e-3))
        assert answered
        # Small went first although the giant arrived first.
        assert drr.served == [("small", 256), ("big", 20 * 1024)]


class TestLiveRoster:
    """The gate has no roster: a tenant exists from its first message."""

    def test_added_tenant_starts_with_zero_deficit(self):
        env = Environment()
        drr = Tenants(env)
        for _ in range(20):
            drr.submit("a")
        env.run(until=env.timeout(0.5e-3))
        drr.submit("b")  # no credit for the time before it existed
        assert drr.deficit("b") == 0.0
        for _ in range(19):
            drr.submit("b")
        env.run(until=env.timeout(5e-3))
        assert drr.dispatched("b") == 20

    def test_add_remove_byte_fairness(self):
        """Equal-weight tenants dispatch ~equal bytes over the window
        in which both are present, including one arriving mid-run."""
        env = Environment()
        drr = Tenants(env)

        def feed(tenant, start=0.0):
            def proc():
                yield env.timeout(start)
                while env.now < 8e-3:
                    drr.submit(tenant)
                    yield env.timeout(5e-6)

            env.process(proc())

        feed("a")
        feed("b")
        feed("c", start=2e-3)
        env.run(until=env.timeout(8e-3))
        a, b, c = (
            drr.gate.stats_for(t).bytes_dispatched for t in "abc"
        )
        assert a == pytest.approx(b, rel=0.15)
        # c joined a quarter of the way in: it gets an equal share of
        # the remaining window, so ~3/4 of the incumbents' bytes.
        assert c == pytest.approx(0.75 * a, rel=0.25)
