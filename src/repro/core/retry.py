"""Client retry policy, retry budget, retry loop, and the director's
circuit breaker.

Small, deterministic state machines the chaos and overload layers lean
on:

* :class:`RetryPolicy` — per-message attempt timeouts plus exponential
  backoff with seeded jitter.  The jitter draw comes from the caller's
  :class:`~repro.sim.rng.SeededRng`, so retry schedules are part of the
  run's deterministic replay.
* :class:`RetryBudget` — the metastability defense (DESIGN §15): a
  token bucket refilled by *successes* that caps how much retry traffic
  a client may add on top of its first attempts.  Without one, an
  8-attempt policy amplifies offered load up to 8× exactly when the
  server is saturated — the classic retry-storm collapse.
* :class:`RetryLoop` — the one loop that sends, re-sends and settles
  every client message, with or without a policy, for the closed-loop
  client and the open-loop traffic engine alike (DESIGN §10).
* :class:`CircuitBreaker` — while a shard's offload engine is down,
  probing it on every request only adds director-core work before the
  inevitable host fallback.  The breaker opens after a burst of
  engine-crash failures — or, when ``saturation_threshold`` is set,
  after a streak of capacity bounces — sends traffic straight to the
  per-shard host path, and half-opens after ``recovery_time`` to probe
  with a single request.  Transitions are recorded with their sim
  times, so a chaos run can assert the breaker's trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Tuple

from ..hardware.cpu import CpuPool
from ..net.packet import FiveTuple
from ..net.stack import StackLayer
from ..sim import Environment, Event, SeededRng
from .messages import IoRequest, IoResponse

__all__ = ["RetryPolicy", "RetryBudget", "RetryLoop", "CircuitBreaker"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout / backoff knobs for one client's request retries."""

    #: Seconds to wait for a message's responses before retrying.
    timeout: float = 400e-6
    #: Total attempts (first try included) before a request is failed.
    max_attempts: int = 8
    #: First backoff delay; doubles (``BACKOFF_FACTOR``) up to the cap.
    BACKOFF_BASE = 100e-6
    BACKOFF_FACTOR = 2.0
    BACKOFF_CAP = 5e-3
    #: Uniform jitter as a fraction of the computed backoff.
    JITTER = 0.2
    #: Extra backoff multiplier applied when the server answered with an
    #: explicit THROTTLED shed during the attempt window — the client
    #: half of retry-circuit cooperation (a throttle is a *signal*, not
    #: a loss; hammering a server that just said "stop" is how retry
    #: storms start).
    THROTTLE_BACKOFF_FACTOR = 4.0

    def __post_init__(self) -> None:
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.BACKOFF_BASE < 0 or self.BACKOFF_CAP < self.BACKOFF_BASE:
            raise ValueError("need 0 <= BACKOFF_BASE <= BACKOFF_CAP")
        if not 0.0 <= self.JITTER <= 1.0:
            raise ValueError("JITTER must be in [0, 1]")

    def backoff(self, attempt: int, rng: SeededRng) -> float:
        """Delay before retry number ``attempt`` (0-based), jittered."""
        delay = min(
            self.BACKOFF_BASE * self.BACKOFF_FACTOR**attempt,
            self.BACKOFF_CAP,
        )
        if self.JITTER > 0 and delay > 0:
            delay += self.JITTER * delay * rng.random()
        return delay


class RetryBudget:
    """A shared retry token bucket, refilled by successes.

    Each retry *attempt* spends one token; each acknowledged request
    deposits ``refill_ratio`` tokens (capped at ``capacity``).  Under
    sustained overload the sustained retry rate is therefore bounded by
    ``refill_ratio`` × the success rate, so the server-side offered
    load cannot exceed ~``(1 + refill_ratio)``× the client demand no
    matter how many attempts the :class:`RetryPolicy` allows — the
    bucket's ``capacity`` only funds a transient burst.  Share one
    budget across a client fleet to bound the *aggregate* storm.

    First attempts never consume tokens: a budget throttles recovery
    traffic, not demand.
    """

    #: Tokens a new budget holds (None: start full, at ``capacity``).
    INITIAL: Optional[float] = None

    def __init__(self, capacity: float = 32.0, refill_ratio: float = 0.1) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if refill_ratio < 0:
            raise ValueError("refill_ratio must be >= 0")
        self.capacity = float(capacity)
        self.refill_ratio = float(refill_ratio)
        initial = self.INITIAL
        self.tokens = self.capacity if initial is None else float(initial)
        self.spent = 0
        self.denied = 0
        self.successes = 0

    def try_spend(self) -> bool:
        """Take one token for a retry; False means *do not retry*."""
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            self.spent += 1
            return True
        self.denied += 1
        return False

    def on_success(self) -> None:
        """An acked request earns back a fraction of a retry token."""
        self.successes += 1
        self.tokens = min(self.capacity, self.tokens + self.refill_ratio)


class _Flight:
    """One request of a message: first-issue and last-send instants, a
    THROTTLED seen during its current attempt, acked, given up."""

    __slots__ = ("request", "issued", "sent", "throttled", "acked", "gave_up")

    def __init__(self, request: IoRequest, now: float) -> None:
        self.request = request
        self.issued = self.sent = now
        self.throttled = self.acked = self.gave_up = False


class RetryLoop:
    """Send, re-send and settle one client's messages.

    The closed-loop client and each open-loop tenant send through one of
    these: the only code that re-sends a message, spends a budget token,
    applies ``THROTTLE_BACKOFF_FACTOR``, classifies a response, and
    calls the client observer (``on_issue``/``on_ack``/``on_give_up``),
    with or without a policy.  Its rules (DESIGN §10):

    * an attempt ends when its message is answered (the event
      ``server.submit`` returned fires) or its timeout expires;
    * a THROTTLED landing while an attempt waits multiplies that
      attempt's backoff by the factor; one landing in a backoff does not;
    * the first ok response acks a request and refills the budget; any
      response after it is a duplicate, and an ok after give-up is a
      late ack (no refill, no callback);
    * latency is the caller's: ``on_ack(issued, sent)`` gets the first
      issue and the last attempt's send instant.

    Without a policy a message is sent once and nothing waits: a
    request's first answer settles it, acked if ok, given up otherwise.
    """

    def __init__(
        self,
        env: Environment,
        server,
        pool: CpuPool,
        policy: Optional[RetryPolicy],
        rng: SeededRng,
        on_ack: Callable[[float, float], None],
        budget: Optional[RetryBudget] = None,
        observer=None,
    ) -> None:
        self.env = env
        self.server = server
        #: The client machine's transport CPU (Figure 16 counts it).
        self.stack = StackLayer(env, server.client_spec, pool)
        self.policy = policy
        self.rng = rng
        self.on_ack = on_ack
        self.budget = budget
        self.observer = observer
        self.acked = 0
        self.retries = 0
        self.failed = 0
        self.throttled = 0
        self.budget_denied = 0
        self.duplicates = 0
        self.errors = 0
        self.late_acks = 0

    def _transmit(
        self, flow: FiveTuple, requests: List[IoRequest], on_response
    ) -> Event:
        """Pay the client's transport CPU and put one message on the
        wire; the event fires once every request in it is answered."""
        self.stack.charge_only(sum([r.wire_size for r in requests]))
        return self.server.submit(flow, requests, on_response)

    def send(
        self,
        flow: FiveTuple,
        requests: List[IoRequest],
        on_done: Optional[Callable[[], None]] = None,
    ) -> None:
        """Issue one message; ``on_done()`` runs once every request in
        it is settled.  With a policy the message is delivered on a
        process of its own; without one it is sent once, and
        ``on_done()`` runs when ``submit``'s event fires."""
        now = self.env.now
        flights: Dict[int, _Flight] = {}
        for request in requests:
            flights[request.request_id] = _Flight(request, now)
            if self.observer is not None:
                self.observer.on_issue(request)
        respond = partial(self._classify, flights)
        if self.policy is not None:
            self.env.process(self._deliver(flow, flights, respond, on_done))
            return
        done = self._transmit(flow, requests, respond)
        if on_done is not None:
            done.add_callback(lambda _event: on_done())

    def _deliver(
        self, flow: FiveTuple, flights: Dict[int, _Flight], respond, on_done
    ) -> Generator:
        env = self.env
        policy = self.policy
        pending = list(flights.values())
        for attempt in range(policy.max_attempts):
            if attempt:
                pending = self._spend([f for f in pending if not f.acked])
                if not pending:
                    break
                self.retries += len(pending)
            now = env.now
            for flight in pending:
                flight.sent = now
                flight.throttled = False
            done = self._transmit(flow, [f.request for f in pending], respond)
            yield env.any_of([done, env.timeout(policy.timeout)])
            pending = [f for f in pending if not f.acked]
            if not pending or attempt + 1 == policy.max_attempts:
                break
            delay = policy.backoff(attempt, self.rng)
            if any(flight.throttled for flight in pending):
                # The server said "stop": back off harder than for a loss.
                delay *= policy.THROTTLE_BACKOFF_FACTOR
            yield env.now + delay
        for flight in pending:
            self._give_up(flight)
        if on_done is not None:
            on_done()

    def _spend(self, pending: List[_Flight]) -> List[_Flight]:
        """Every re-send must win a budget token; refused requests fail
        fast instead of joining a retry storm."""
        if self.budget is None:
            return pending
        granted = []
        for flight in pending:
            if self.budget.try_spend():
                granted.append(flight)
            else:
                self.budget_denied += 1
                self._give_up(flight)
        return granted

    def _give_up(self, flight: _Flight) -> None:
        flight.gave_up = True
        self.failed += 1
        if self.observer is not None:
            self.observer.on_give_up(flight.request)

    def _classify(
        self, flights: Dict[int, _Flight], response: IoResponse
    ) -> None:
        flight = flights[response.request_id]
        if flight.acked:
            # A chaos-duplicated delivery, a dedup replay racing the
            # original, or the answer to an earlier attempt.
            self.duplicates += 1
        elif response.ok:
            flight.acked = True
            if flight.gave_up:
                self.late_acks += 1
                return
            self.acked += 1
            if self.budget is not None:
                self.budget.on_success()
            if self.observer is not None:
                self.observer.on_ack(flight.request, response)
            self.on_ack(flight.issued, flight.sent)
        elif response.throttled:
            # An explicit overload shed: a signal, not a loss.
            self.throttled += 1
            flight.throttled = True
        else:
            # A transient failure (device error): re-sent like a loss.
            self.errors += 1
        if self.policy is None and not (flight.acked or flight.gave_up):
            self._give_up(flight)  # sent once: its first answer settles it


class CircuitBreaker:
    """Closed → open → half-open breaker over the offload engine.

    ``allow()`` is consulted before each engine probe; failures that
    stem from a crashed engine feed ``record_failure()``.  Ordinary
    capacity bounces feed ``record_saturation()`` — with
    ``saturation_threshold`` unset (the default) they are ignored, as
    healthy burst behaviour; with it set, a streak of bounces opens the
    breaker so the director stops burning engine-intake core time on an
    engine that keeps saying no.  All timing uses the simulation clock.
    """

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"

    def __init__(
        self,
        env: Environment,
        failure_threshold: int = 4,
        recovery_time: float = 500e-6,
        saturation_threshold: Optional[int] = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if recovery_time <= 0:
            raise ValueError("recovery_time must be positive")
        if saturation_threshold is not None and saturation_threshold < 1:
            raise ValueError("saturation_threshold must be >= 1")
        self.env = env
        self.failure_threshold = failure_threshold
        self.recovery_time = recovery_time
        #: Consecutive capacity bounces that open the breaker; None
        #: keeps the pre-overload behaviour (bounces never open it).
        self.saturation_threshold = saturation_threshold
        self.state = self.CLOSED
        self.failures = 0
        self.times_opened = 0
        self.rejected = 0
        #: Total capacity bounces reported, and the current streak
        #: (reset by any success).
        self.saturation_bounces = 0
        self._saturation_streak = 0
        #: Why the breaker last opened: "crash" or "saturation".
        self.opened_by: Optional[str] = None
        self._retry_at = 0.0
        #: (sim time, new state) — the breaker's deterministic trajectory.
        self.transitions: List[Tuple[float, str]] = []

    def _transition(self, state: str) -> None:
        self.state = state
        self.transitions.append((self.env.now, state))

    def allow(self) -> bool:
        """May the next request probe the engine?"""
        if self.state == self.CLOSED:
            return True
        if self.state == self.OPEN and self.env.now >= self._retry_at:
            # One probe flies; everything else keeps falling back until
            # the probe reports success.
            self._transition(self.HALF_OPEN)
            return True
        self.rejected += 1
        return False

    def record_success(self) -> None:
        if self.state != self.CLOSED:
            self._transition(self.CLOSED)
        self.failures = 0
        self._saturation_streak = 0

    def record_failure(self) -> None:
        self.failures += 1
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED
            and self.failures >= self.failure_threshold
        ):
            self._open("crash")

    def record_saturation(self) -> None:
        """The engine bounced a request on capacity (ring/buffers full).

        Saturation is not failure: the engine is alive, just full.  With
        no ``saturation_threshold`` this only counts the bounce.  With
        one, a long enough streak opens the breaker — requests flow
        straight to host fallback until the half-open probe finds room
        again — and a half-open probe that bounces re-opens it.
        """
        self.saturation_bounces += 1
        self._saturation_streak += 1
        if self.saturation_threshold is None:
            return
        if self.state == self.HALF_OPEN or (
            self.state == self.CLOSED
            and self._saturation_streak >= self.saturation_threshold
        ):
            self._open("saturation")

    def _open(self, cause: str) -> None:
        self.times_opened += 1
        self.opened_by = cause
        self._retry_at = self.env.now + self.recovery_time
        self._transition(self.OPEN)

    def reset(self) -> None:
        """Forget accumulated failures after the engine was *replaced*.

        ``recover_shard`` calls this once a crashed shard's engine has
        been rebuilt: dispatches that were already past the director's
        alive check when the DPU died kept feeding ``record_failure``,
        so without the reset a recovered shard would start open (or
        half-open) for the previous crash's failures and bounce its
        first requests to the host for no reason.  An ``EngineCrash``
        without recovery keeps the ordinary half-open probe behaviour —
        only a full shard recovery earns a clean slate.
        """
        self.failures = 0
        self._saturation_streak = 0
        self._retry_at = 0.0
        if self.state != self.CLOSED:
            self._transition(self.CLOSED)
