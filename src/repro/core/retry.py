"""Client retry policy, retry budget, and the director's circuit breaker.

Three small, deterministic state machines the chaos and overload layers
lean on:

* :class:`RetryPolicy` — per-message attempt timeouts plus exponential
  backoff with seeded jitter.  The jitter draw comes from the caller's
  :class:`~repro.sim.rng.SeededRng`, so retry schedules are part of the
  run's deterministic replay.
* :class:`RetryBudget` — the metastability defense (DESIGN §15): a
  token bucket refilled by *successes* that caps how much retry traffic
  a client may add on top of its first attempts.  Without one, an
  8-attempt policy amplifies offered load up to 8× exactly when the
  server is saturated — the classic retry-storm collapse.
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
from typing import List, Optional, Tuple

from ..sim import Environment, SeededRng

__all__ = ["RetryPolicy", "RetryBudget", "CircuitBreaker"]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout / backoff knobs for one client's request retries."""

    #: Seconds to wait for a message's responses before retrying.
    timeout: float = 400e-6
    #: Total attempts (first try included) before a request is failed.
    max_attempts: int = 8
    #: First backoff delay; doubles (``BACKOFF_FACTOR``) up to ``cap``.
    backoff_base: float = 100e-6
    BACKOFF_FACTOR = 2.0
    backoff_cap: float = 5e-3
    #: Uniform jitter as a fraction of the computed backoff.
    jitter: float = 0.2
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
        if self.backoff_base < 0 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 0 <= backoff_base <= backoff_cap")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, attempt: int, rng: SeededRng) -> float:
        """Delay before retry number ``attempt`` (0-based), jittered."""
        delay = min(
            self.backoff_base * self.BACKOFF_FACTOR**attempt,
            self.backoff_cap,
        )
        if self.jitter > 0 and delay > 0:
            delay += self.jitter * delay * rng.random()
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

    def __init__(
        self,
        capacity: float = 32.0,
        refill_ratio: float = 0.1,
        initial: Optional[float] = None,
    ) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        if refill_ratio < 0:
            raise ValueError("refill_ratio must be >= 0")
        self.capacity = float(capacity)
        self.refill_ratio = float(refill_ratio)
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
