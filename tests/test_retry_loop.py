"""The one client retry loop, driven by a scripted server.

A :class:`ScriptedServer` answers each send of a request as its script
says — after a delay, ok, THROTTLED or error — and records the instant
of every send, so each test pins exact send instants.  One test per
response class, plus the budget denial and the no-policy path; the last
tests drive the rules through the closed-loop :class:`WorkloadClient`
and the open-loop traffic engine.
"""

import pytest

from repro.core.client import ClientConfig, WorkloadClient
from repro.core.messages import IoRequest, IoResponse, OpCode
from repro.core.retry import RetryBudget, RetryLoop, RetryPolicy
from repro.hardware.cpu import CpuPool
from repro.hardware.specs import HOST_CPU, HOST_OS_TCP
from repro.net.packet import FiveTuple
from repro.sim import Environment, SeededRng
from repro.workload import OpenLoopTrafficEngine, TenantSpec

TIMEOUT = 100e-6
POLICY = RetryPolicy(timeout=TIMEOUT, max_attempts=3)


def exact_backoff(patch):
    """A 20 us unjittered first backoff: every send instant is exact."""
    patch.setattr(RetryPolicy, "BACKOFF_BASE", 20e-6)
    patch.setattr(RetryPolicy, "JITTER", 0.0)


@pytest.fixture(autouse=True)
def _exact_backoff(monkeypatch):
    exact_backoff(monkeypatch)


with pytest.MonkeyPatch.context() as _patch:
    exact_backoff(_patch)
    B0 = POLICY.backoff(0, SeededRng(0))  # 20 us: no jitter, no draw
    B1 = POLICY.backoff(1, SeededRng(0))  # 40 us
FACTOR = RetryPolicy.THROTTLE_BACKOFF_FACTOR
FLOW = FiveTuple("10.0.0.2", 40_000, "10.0.0.1", 5000)


def by_attempt(*attempts):
    """Script: the n-th send of any request gets ``attempts[n]``'s
    replies; a send past the end is never answered."""
    return lambda request_id, n: attempts[n] if n < len(attempts) else ()


class ScriptedServer:
    """Answers the n-th send of a request as ``script(request_id, n)``
    says: a list of ``(delay, kind)``, kind one of ok / throttled /
    error.  Like ``PipelineServer.submit``, ``submit`` returns the event
    that fires once every request of the message is answered — never,
    when one of them is left unanswered."""

    client_spec = HOST_OS_TCP

    def __init__(self, env, script):
        self.env = env
        self.script = script
        #: request id -> the instants it was sent at.
        self.sends = {}

    def submit(self, flow, requests, respond):
        done = self.env.event()
        waiting = {request.request_id for request in requests}

        def reply(request_id, delay, kind):
            yield self.env.timeout(delay)
            respond(IoResponse(
                request_id, ok=kind == "ok", throttled=kind == "throttled"
            ))
            if request_id in waiting:
                waiting.discard(request_id)
                if not waiting:
                    done.succeed()

        for request in requests:
            sent = self.sends.setdefault(request.request_id, [])
            replies = self.script(request.request_id, len(sent))
            sent.append(self.env.now)
            for delay, kind in replies:
                self.env.process(reply(request.request_id, delay, kind))
        return done


class Recorder:
    """Client observer: every protocol call, with its instant."""

    def __init__(self, env):
        self.env = env
        self.calls = []

    def on_issue(self, request):
        self.calls.append(("issue", request.request_id, self.env.now))

    def on_ack(self, request, response):
        self.calls.append(("ack", request.request_id, self.env.now))

    def on_give_up(self, request):
        self.calls.append(("give_up", request.request_id, self.env.now))


def read(request_id):
    return IoRequest(OpCode.READ, request_id, 1, 0, 512)


def run_loop(script, requests=(1,), policy=POLICY, budget=None):
    """Send one message through a fresh loop and run to quiescence."""
    env = Environment()
    server = ScriptedServer(env, script)
    observer = Recorder(env)
    acks, done = [], []
    loop = RetryLoop(
        env, server, CpuPool(env, HOST_CPU), policy, SeededRng(1),
        lambda issued, sent: acks.append((env.now, issued, sent)),
        budget, observer,
    )
    loop.send(FLOW, [read(rid) for rid in requests], lambda: done.append(env.now))
    env.run()
    return server, loop, observer, acks, done


class TestResponseClasses:
    def test_first_ack_settles_the_message(self):
        server, loop, observer, acks, done = run_loop(
            by_attempt([(30e-6, "ok")])
        )
        assert server.sends == {1: [0.0]}
        assert acks == [(30e-6, 0.0, 0.0)]
        assert done == [30e-6]
        assert (loop.acked, loop.retries, loop.failed) == (1, 0, 0)
        assert observer.calls == [("issue", 1, 0.0), ("ack", 1, 30e-6)]

    def test_second_ok_is_a_duplicate(self):
        budget = RetryBudget()
        _server, loop, observer, acks, _done = run_loop(
            by_attempt([(30e-6, "ok"), (40e-6, "ok")]), budget=budget
        )
        assert (loop.acked, loop.duplicates, loop.late_acks) == (1, 1, 0)
        assert len(acks) == 1
        assert budget.successes == 1
        assert [c[0] for c in observer.calls] == ["issue", "ack"]

    def test_ok_after_give_up_is_a_late_ack(self):
        budget = RetryBudget()
        policy = RetryPolicy(timeout=TIMEOUT, max_attempts=1)
        server, loop, observer, acks, done = run_loop(
            by_attempt([(150e-6, "ok"), (160e-6, "ok")]),
            policy=policy, budget=budget,
        )
        assert server.sends == {1: [0.0]}
        assert done == [TIMEOUT]
        # The first ok after the give-up is late; the second, a duplicate.
        assert (loop.failed, loop.late_acks, loop.duplicates) == (1, 1, 1)
        assert loop.acked == 0 and acks == []
        assert budget.successes == 0  # a late ack refills nothing
        assert observer.calls == [("issue", 1, 0.0), ("give_up", 1, TIMEOUT)]

    def test_throttled_inside_the_attempt_stretches_its_backoff(self):
        server, loop, _observer, acks, _done = run_loop(
            by_attempt([(30e-6, "throttled")], [(10e-6, "ok")])
        )
        # The shed answers the message: the attempt ends at 30 us and
        # backs off by exactly backoff(0) x THROTTLE_BACKOFF_FACTOR.
        resend = 30e-6 + B0 * FACTOR
        assert server.sends == {1: [0.0, resend]}
        assert acks == [(resend + 10e-6, 0.0, resend)]
        assert (loop.throttled, loop.retries) == (1, 1)

    def test_throttled_after_the_attempt_timed_out_applies_no_factor(self):
        # The shed lands 10 us into the first backoff (100-120 us).
        server, loop, *_ = run_loop(
            by_attempt([(110e-6, "throttled")], [], [(10e-6, "ok")])
        )
        first = TIMEOUT + B0
        second = first + TIMEOUT + B1
        assert server.sends == {1: [0.0, first, second]}
        assert loop.throttled == 1

    def test_error_response_ends_the_attempt(self):
        server, loop, _observer, acks, _done = run_loop(
            by_attempt([(30e-6, "error")], [(10e-6, "ok")])
        )
        resend = 30e-6 + B0  # no timeout wait, no throttle factor
        assert server.sends == {1: [0.0, resend]}
        assert loop.errors == 1 and len(acks) == 1

    def test_only_unanswered_requests_are_resent(self):
        script = {1: [(30e-6, "ok")], 2: [(40e-6, "throttled")]}
        server, loop, *_ = run_loop(
            lambda rid, n: script[rid] if n == 0 else [(10e-6, "ok")],
            requests=(1, 2),
        )
        resend = 40e-6 + B0 * FACTOR
        assert server.sends == {1: [0.0], 2: [0.0, resend]}
        assert (loop.acked, loop.retries) == (2, 1)


class TestBudgetAndPolicy:
    def test_budget_denial_gives_up_once(self, monkeypatch):
        monkeypatch.setattr(RetryBudget, "INITIAL", 0.0)
        budget = RetryBudget(capacity=1.0)
        server, loop, observer, _acks, done = run_loop(
            by_attempt(), budget=budget
        )
        assert server.sends == {1: [0.0]}
        assert (loop.budget_denied, loop.failed, loop.retries) == (1, 1, 0)
        assert done == [TIMEOUT + B0]
        assert [c for c in observer.calls if c[0] == "give_up"] == [
            ("give_up", 1, TIMEOUT + B0)
        ]

    def test_attempts_run_out(self):
        server, loop, observer, _acks, done = run_loop(by_attempt())
        first = TIMEOUT + B0
        second = first + TIMEOUT + B1
        assert server.sends == {1: [0.0, first, second]}
        assert done == [second + TIMEOUT]
        assert (loop.failed, loop.retries) == (1, 2)
        assert observer.calls[-1] == ("give_up", 1, second + TIMEOUT)

    def test_no_policy_sends_once_and_nothing_waits(self):
        env = Environment()
        server = ScriptedServer(env, by_attempt())
        loop = RetryLoop(
            env, server, CpuPool(env, HOST_CPU), None, SeededRng(1),
            lambda issued, sent: None,
        )
        done = []
        loop.send(FLOW, [read(1)], lambda: done.append(env.now))
        assert server.sends == {1: [0.0]}  # on the wire at once
        env.run()
        assert env.now == 0.0  # no timeout was ever scheduled
        assert done == [] and loop.failed == 0

    @pytest.mark.parametrize("kind", ["error", "throttled"])
    def test_no_policy_first_answer_settles_each_request(self, kind):
        script = {1: [(30e-6, "ok")], 2: [(40e-6, kind), (50e-6, "ok")]}
        server, loop, observer, acks, done = run_loop(
            lambda rid, n: script[rid], requests=(1, 2), policy=None
        )
        assert server.sends == {1: [0.0], 2: [0.0]}
        assert acks == [(30e-6, 0.0, 0.0)]
        # The refused request is given up; its later ok is a late ack.
        assert (loop.acked, loop.failed, loop.late_acks) == (1, 1, 1)
        assert done == [40e-6]  # once, when submit's event fires
        assert observer.calls == [
            ("issue", 1, 0.0), ("issue", 2, 0.0),
            ("ack", 1, 30e-6), ("give_up", 2, 40e-6),
        ]

    def test_client_cost_is_one_stack_charge_per_send(self):
        env = Environment()
        pool = CpuPool(env, HOST_CPU)
        loop = RetryLoop(
            env, ScriptedServer(env, by_attempt()), pool, None,
            SeededRng(1), lambda issued, sent: None,
        )
        requests = [read(1), read(2)]
        loop.send(FLOW, requests)
        size = sum(r.wire_size for r in requests)
        assert pool.busy_time == (
            HOST_OS_TCP.per_message_core_time
            + size * HOST_OS_TCP.per_byte_core_time
        )


class TestClients:
    def test_closed_client_ignores_a_throttle_that_landed_in_a_backoff(self):
        env = Environment()
        server = ScriptedServer(
            env, by_attempt([(110e-6, "throttled")], [], [])
        )
        config = ClientConfig(
            offered_iops=1e5, total_requests=1, batch=1, connections=1,
            file_size=1 << 20,
        )
        result = WorkloadClient(
            env, server, 1, config, retry_policy=POLICY
        ).run()
        (t0, t1, t2), = server.sends.values()
        assert t1 == t0 + TIMEOUT + B0
        # The THROTTLED answered the first attempt after it timed out:
        # the second attempt's backoff is not stretched.
        assert t2 == t1 + TIMEOUT + B1
        assert result.failed_requests == 1
        assert result.throttled_responses == 1

    @pytest.mark.parametrize("kind", ["error", "throttled"])
    def test_closed_client_without_a_policy_fails_a_refused_request(
        self, kind
    ):
        env = Environment()
        server = ScriptedServer(env, by_attempt([(30e-6, kind)]))
        config = ClientConfig(
            offered_iops=1e5, total_requests=1, batch=1, connections=1,
            file_size=1 << 20,
        )
        result = WorkloadClient(env, server, 1, config).run()
        assert [len(sends) for sends in server.sends.values()] == [1]
        assert result.failed_requests == 1
        assert result.latencies == [] and result.achieved_iops == 0.0

    def test_open_engine_without_a_policy_settles_every_answer(self):
        env = Environment()
        server = ScriptedServer(
            env, lambda rid, n: [(30e-6, "throttled" if rid % 3 else "ok")]
        )
        engine = OpenLoopTrafficEngine(
            env, server, [TenantSpec("t", 0, rate=2_000.0)], [1],
            horizon=5e-3, seed=3,
        )
        result = engine.run()
        assert result.acked > 0 and result.failed > 0
        assert result.offered == result.acked + result.failed
        assert result.throttled_responses == result.failed
        assert all(len(sends) == 1 for sends in server.sends.values())

    def test_open_engine_resends_after_an_error_without_the_timeout(self):
        env = Environment()
        server = ScriptedServer(
            env, by_attempt([(30e-6, "error")], [(10e-6, "ok")])
        )
        engine = OpenLoopTrafficEngine(
            env, server, [TenantSpec("t", 0, rate=2_000.0)], [1],
            horizon=5e-3, seed=3, retry_policy=POLICY,
        )
        result = engine.run()
        assert result.offered > 1
        assert result.errors == result.offered
        assert result.acked == result.offered
        for t0, t1 in server.sends.values():
            assert t1 == t0 + 30e-6 + B0
