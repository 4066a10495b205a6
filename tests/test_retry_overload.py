"""Metastability defenses: retry budget, breaker saturation, storm bound.

The centerpiece is a fail-before/pass-after regression for retry-storm
amplification: an open-loop population driving a saturated server with
a stock 8-attempt policy multiplies offered load several-fold (the
classic metastable feedback loop), while the same population with a
shared :class:`RetryBudget` keeps server-side offered load within
~1.1x of client demand.
"""

import pytest

from repro.core.messages import IoResponse
from repro.core.retry import CircuitBreaker, RetryBudget, RetryPolicy
from repro.hardware.specs import HOST_OS_TCP
from repro.sim import Environment
from repro.workload import OpenLoopTrafficEngine, TenantSpec


class TestRetryBudget:
    def test_spend_until_empty_then_denied(self):
        budget = RetryBudget(capacity=3.0)
        assert all(budget.try_spend() for _ in range(3))
        assert not budget.try_spend()
        assert budget.spent == 3
        assert budget.denied == 1

    def test_successes_refill_fractionally(self, monkeypatch):
        monkeypatch.setattr(RetryBudget, "INITIAL", 0.0)
        budget = RetryBudget(capacity=4.0, refill_ratio=0.5)
        assert not budget.try_spend()
        budget.on_success()
        assert not budget.try_spend()  # 0.5 < 1 token
        budget.on_success()
        assert budget.try_spend()
        assert budget.successes == 2

    def test_refill_caps_at_capacity(self):
        budget = RetryBudget(capacity=2.0, refill_ratio=1.0)
        for _ in range(10):
            budget.on_success()
        assert budget.tokens == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryBudget(capacity=0.0)
        with pytest.raises(ValueError):
            RetryBudget(refill_ratio=-0.1)


class TestBreakerSaturation:
    def test_bounces_ignored_without_threshold(self):
        env = Environment()
        breaker = CircuitBreaker(env)
        for _ in range(100):
            breaker.record_saturation()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.saturation_bounces == 100
        assert breaker.times_opened == 0

    def test_streak_opens_and_success_resets(self):
        env = Environment()
        breaker = CircuitBreaker(env, saturation_threshold=3)
        breaker.record_saturation()
        breaker.record_saturation()
        breaker.record_success()  # streak broken
        breaker.record_saturation()
        breaker.record_saturation()
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_saturation()
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.opened_by == "saturation"

    def test_crash_and_saturation_are_distinguished(self):
        env = Environment()
        breaker = CircuitBreaker(
            env, failure_threshold=2, saturation_threshold=2
        )
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.opened_by == "crash"
        breaker.record_success()
        breaker.record_saturation()
        breaker.record_saturation()
        assert breaker.opened_by == "saturation"
        assert breaker.times_opened == 2

    def test_half_open_admits_single_probe(self):
        env = Environment()
        breaker = CircuitBreaker(
            env, recovery_time=1e-3, saturation_threshold=1
        )
        breaker.record_saturation()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()  # still cooling down
        env.run(until=env.timeout(1.5e-3))
        assert breaker.allow()  # the one probe
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert not breaker.allow()  # everyone else keeps falling back
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_half_open_bounce_reopens(self):
        env = Environment()
        breaker = CircuitBreaker(
            env, recovery_time=1e-3, saturation_threshold=5
        )
        for _ in range(5):
            breaker.record_saturation()
        env.run(until=env.timeout(1.5e-3))
        assert breaker.allow()
        breaker.record_saturation()  # probe found the engine still full
        assert breaker.state == CircuitBreaker.OPEN
        assert breaker.times_opened == 2

    def test_trajectory_under_sustained_overload(self):
        """The breaker's deterministic arc: open on a bounce streak,
        half-open probe per recovery period, close on relief."""
        env = Environment()
        breaker = CircuitBreaker(
            env, recovery_time=1e-3, saturation_threshold=4
        )

        def saturated_phase():
            for _ in range(40):
                if breaker.allow():
                    breaker.record_saturation()
                yield env.timeout(100e-6)
            # relief: the backlog drained
            while breaker.state != CircuitBreaker.CLOSED:
                if breaker.allow():
                    breaker.record_success()
                yield env.timeout(100e-6)

        env.process(saturated_phase())
        env.run(until=env.timeout(20e-3))
        states = [state for _t, state in breaker.transitions]
        assert states[0] == CircuitBreaker.OPEN
        assert CircuitBreaker.HALF_OPEN in states
        assert states[-1] == CircuitBreaker.CLOSED
        # Open periods shed probes: most requests never touched the
        # engine while it was saturated.
        assert breaker.rejected > 10
        times = [t for t, _s in breaker.transitions]
        assert times == sorted(times)


# ----------------------------------------------------------------------
# retry-storm amplification regression
# ----------------------------------------------------------------------
class SaturableServer:
    """A fixed-capacity single-queue server for storm experiments.

    Serves ``capacity`` requests/sec from a bounded queue; a request
    arriving past the queue limit is dropped *silently* — exactly the
    behaviour (timeout, no signal) that breeds retry storms.  The
    ``submissions`` counter is the server-side offered load.
    """

    client_spec = HOST_OS_TCP

    def __init__(self, env, capacity=20_000.0, queue_limit=64):
        self.env = env
        self.service_time = 1.0 / capacity
        self.queue_limit = queue_limit
        self.queue = []
        self.submissions = 0
        self.dropped = 0
        self._busy = False

    def submit(self, flow, requests, respond):
        """Like ``PipelineServer.submit``: the returned event fires once
        every request of the message is answered — never, for a message
        with a dropped request."""
        done = self.env.event()
        unanswered = [len(requests)]

        def arrived(response):
            respond(response)
            unanswered[0] -= 1
            if unanswered[0] == 0:
                done.succeed()

        for request in requests:
            self.submissions += 1
            if len(self.queue) >= self.queue_limit:
                self.dropped += 1
                continue
            self.queue.append((request, arrived))
        if not self._busy and self.queue:
            self._busy = True
            self.env.process(self._serve())
        return done

    def _serve(self):
        while self.queue:
            request, respond = self.queue.pop(0)
            yield self.env.timeout(self.service_time)
            respond(IoResponse(request.request_id, ok=True))
        self._busy = False


def run_storm(budget):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TenantSpec, "ZIPF_THETA", 0.0)
        return _run_storm(budget)


def _run_storm(budget):
    env = Environment()
    # queue_limit x service_time stays under the client timeout, so a
    # *queued* request is always served within its patience window —
    # losses happen at the drop tail, where retries are born.
    server = SaturableServer(env, capacity=20_000.0, queue_limit=12)
    specs = [
        TenantSpec(f"t{i}", i, rate=10_000.0) for i in range(4)
    ]  # 40K demanded vs 20K capacity: sustained 2x overload
    engine = OpenLoopTrafficEngine(
        env,
        server,
        specs,
        file_ids=[1],
        horizon=40e-3,
        seed=23,
        retry_policy=RetryPolicy(max_attempts=8, timeout=1e-3),
        retry_budget=budget,
    )
    result = engine.run()
    return server, result


class TestRetryStormRegression:
    def test_unbudgeted_storm_amplifies_offered_load(self):
        """Fail-before: the stock 8-attempt policy multiplies load on a
        server that is *already* at 2x capacity."""
        server, result = run_storm(budget=None)
        demand = result.offered
        assert server.submissions / demand > 2.0
        assert result.amplification > 2.0

    def test_budget_bounds_amplification_near_one(self):
        """Pass-after: a shared budget caps server-side offered load at
        ~1.1x client demand under the same sustained overload."""
        server, result = run_storm(
            budget=RetryBudget(capacity=16.0, refill_ratio=0.05)
        )
        demand = result.offered
        assert demand > 1000  # the open loop kept offering
        assert server.submissions / demand <= 1.1
        assert result.budget_denied > 0  # the budget actually bit
        # Goodput is no worse than the storm's: retries into an
        # overloaded queue add no acks, they only add queueing.
        _storm_server, storm = run_storm(budget=None)
        assert result.acked >= 0.9 * storm.acked
